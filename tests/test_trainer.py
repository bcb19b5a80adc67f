import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import textwrap
import time
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opscan
from opscan import autodiff as ad
from opscan import corpus as C
from opscan import kernels as K
from opscan import model as M
from opscan import trainer as T
from opscan.autodiff import Parameter, Tensor, backward
from opscan.config import RunConfig
from opscan.corpus import ContractRecord
from opscan.optim import Adam, NumericalError
from opscan.trainer import OneCycleSchedule

from gradcheck import mul, sum_all, zero_grads
from helpers import SHIPPED, encoder, head_parameters

MOTIFS = [
    ("CALLVALUE", "ISZERO", "PUSH2", "JUMPI"),
    ("DUP1", "SWAP1", "SSTORE", "POP"),
    ("CALLER", "BALANCE", "STOP"),
    ("SLOAD", "PUSH1", "ADD", "MSTORE"),
]


def grammar_records(n, seed, motifs_per_record=8):
    """Sequences built by concatenating randomly chosen fixed motifs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        toks: list[str] = []
        for _ in range(motifs_per_record):
            toks.extend(MOTIFS[rng.integers(0, len(MOTIFS))])
        out.append(ContractRecord(f"0x{seed}_{i}", tuple(toks), int(rng.integers(0, 4))))
    return out


SHARED_MOTIFS = (
    ("PUSH1", "PUSH1", "ADD", "MSTORE"),
    ("DUP1", "SWAP1", "POP", "JUMPDEST"),
    ("PUSH2", "JUMP", "JUMPDEST", "POP"),
)
CLASS_MOTIFS = (
    ("CALLER", "SELFDESTRUCT", "STOP", "STOP"),
    ("CALLVALUE", "ISZERO", "CALLCODE", "RETURN"),
    ("BALANCE", "CREATE2", "GAS", "RETURN"),
    ("EXTCODEHASH", "EQ", "LOG0", "STOP"),
)


def labeled_motif_records(per_class, seed, n_slots=8, class_slots=4):
    """Each record is n_slots concatenated motifs; class_slots of them are
    the class's own motif, the rest drawn from the shared pool."""
    rng = np.random.default_rng(seed)
    out = []
    for c in range(4):
        for i in range(per_class):
            slots = set(rng.choice(n_slots, size=class_slots, replace=False).tolist())
            toks: list[str] = []
            for s in range(n_slots):
                if s in slots:
                    toks.extend(CLASS_MOTIFS[c])
                else:
                    toks.extend(SHARED_MOTIFS[rng.integers(0, len(SHARED_MOTIFS))])
            out.append(ContractRecord(f"0x{c}_{seed}_{i}", tuple(toks), c))
    return out


def prepared(records, vocab):
    ids = [C.numericalize(r.tokens, vocab) for r in records]
    labels = [r.label for r in records]
    return ids, labels


class TestOneCycle:
    def sched(self, **kw):
        kw.setdefault("max_lr", 0.03)
        kw.setdefault("total_steps", 100)
        kw.setdefault("warmup_frac", SHIPPED.warmup_frac)
        return OneCycleSchedule(**kw)

    def test_endpoint_identities(self):
        s = self.sched()
        assert abs(s.lr(0) - 0.03 / 25) <= 1e-12
        assert abs(s.lr(s.warm_end) - 0.03) <= 1e-12
        assert abs(s.lr(99) - 0.03 / 1e4) <= 1e-12

    def test_derived_endpoint_values(self):
        s = self.sched()
        assert abs(s.lr(0) - 0.0012) <= 1e-12
        assert abs(s.lr(99) - 3e-6) <= 1e-12

    def test_warmup_end_position(self):
        assert self.sched().warm_end == round(0.3 * 99)

    def test_rise_then_fall(self):
        s = self.sched()
        lrs = [s.lr(i) for i in range(100)]
        w = s.warm_end
        assert all(a < b for a, b in zip(lrs[:w], lrs[1 : w + 1]))
        assert all(a > b for a, b in zip(lrs[w:], lrs[w + 1 :]))

    def test_momentum_cycles_inversely(self):
        s = self.sched()
        assert abs(s.momentum(0) - 0.95) <= 1e-12
        assert abs(s.momentum(s.warm_end) - 0.85) <= 1e-12
        assert abs(s.momentum(99) - 0.95) <= 1e-12
        # wherever lr rises, momentum falls
        for i in range(99):
            assert (s.lr(i + 1) - s.lr(i)) * (s.momentum(i + 1) - s.momentum(i)) <= 0


class TestDiscriminativeLrs:
    def test_two_groups_hits_range_ends(self):
        assert T.discriminative_lrs(2, 0.0044, 0.04) == [0.0044, 0.04]

    def test_three_groups_geometric_midpoint(self):
        lrs = T.discriminative_lrs(3, 0.0044, 0.04)
        assert abs(lrs[1] - math.sqrt(0.0044 * 0.04)) <= 1e-15
        assert abs(lrs[1] - 0.013266) < 1e-6

    def test_monotone_nondecreasing(self):
        for n in (2, 3, 5, 9):
            lrs = T.discriminative_lrs(n, 0.0044, 0.04)
            assert len(lrs) == n
            assert all(a <= b for a, b in zip(lrs, lrs[1:]))


def small_clf(seed=0, n_layers=2):
    enc = encoder(12, emb_size=8, hidden_size=10, n_layers=n_layers,
                  dropouts=M.Dropouts(0, 0, 0, 0, 0), dtype="f64", seed=seed)
    return M.Classifier(enc, n_classes=4, head_hidden=6, vocab_hash=None, seed=2)


class TestGradualUnfreeze:
    def frozen_groups(self, clf):
        return {p.name: p.frozen for p in clf.encoder.parameters()}

    def test_stage_zero_freezes_encoder_only(self):
        clf = T.gradual_unfreeze(small_clf(), 0)
        assert all(p.frozen for p in clf.encoder.parameters())
        assert not any(p.frozen for p in head_parameters(clf))

    def test_stages_unfreeze_top_down(self):
        clf = small_clf()
        T.gradual_unfreeze(clf, 1)
        state = self.frozen_groups(clf)
        assert not state["lstm1.wh"] and state["lstm0.wh"] and state["emb"]
        T.gradual_unfreeze(clf, 2)
        state = self.frozen_groups(clf)
        assert not state["lstm1.wh"] and not state["lstm0.wh"] and state["emb"]

    def test_final_stage_unfreezes_everything(self):
        clf = T.gradual_unfreeze(small_clf(), 3)
        assert not any(p.frozen for p in clf.parameters())

    def test_trainable_set_grows_monotonically(self):
        clf = small_clf()
        previous: set[str] = set()
        for stage in range(4):
            T.gradual_unfreeze(clf, stage)
            trainable = {p.name for p in clf.parameters() if not p.frozen}
            assert previous <= trainable
            previous = trainable

    def test_stage_one_step_changes_only_head_and_top_layer(self):
        clf = small_clf(seed=5)
        T.gradual_unfreeze(clf, 1)
        before = {p.name: p.data.copy() for p in clf.parameters()}
        opt = Adam(clf.parameters(), weight_decay=0.0)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, (6, 4))
        loss = clf.loss(ids, np.full(4, 6), rng.integers(0, 4, 4), rng=rng)
        backward(loss)
        opt.step(0.01)
        for p in clf.parameters():
            changed = not np.array_equal(p.data, before[p.name])
            expect = p.name.startswith(("lstm1.", "head."))
            assert changed == expect, p.name

    @pytest.mark.parametrize("stage, kernel_calls", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3)])
    def test_backward_skips_what_only_frozen_parameters_need(self, monkeypatch, stage,
                                                             kernel_calls):
        enc = encoder(12, emb_size=5, hidden_size=7, n_layers=3, dtype="f64", seed=2,
                      dropouts=M.Dropouts(0.1, 0.2, 0.2, 0.3, 0.1))
        clf = M.Classifier(enc, n_classes=4, head_hidden=6, vocab_hash=None, seed=2)
        rng = np.random.default_rng(8)
        ids, lengths, labels = rng.integers(0, 12, (6, 3)), np.array([6, 4, 2]), np.array([0, 3, 1])

        def grads():
            zero_grads(clf.parameters())
            loss = clf.loss(ids, lengths, labels, rng=np.random.default_rng(9))
            backward(loss)
            return {p.name: p.grad for p in clf.parameters()}

        full = grads()  # nothing frozen yet
        T.gradual_unfreeze(clf, stage)
        real = M.K.lstm_seq_backward
        calls = []
        monkeypatch.setattr(M.K, "lstm_seq_backward",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        pruned = grads()
        assert len(calls) == kernel_calls
        for p in clf.parameters():
            if p.frozen:
                assert pruned[p.name] is None, p.name
            else:
                assert np.array_equal(pruned[p.name], full[p.name]), p.name


def quadratic_param():
    return Parameter(np.array([0.0]), "w")


def quadratic_losses(w, target=3.0):
    while True:
        d = ad.add(w, Tensor(np.array([-target])))
        yield sum_all(mul(d, d))


class TestLrFind:
    def test_lrs_geometric_and_increasing(self):
        w = quadratic_param()
        res = T.lr_find([w], quadratic_losses(w), lr_start=1e-5, lr_end=1.0, max_steps=40)
        lrs = np.array(res.lrs)
        assert np.all(np.diff(lrs) > 0)
        ratios = lrs[1:] / lrs[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_weights_restored_bitwise(self):
        w = quadratic_param()
        w.data[:] = 1.25
        T.lr_find([w], quadratic_losses(w), lr_start=1e-5, lr_end=1.0, max_steps=30)
        assert w.data[0] == 1.25

    def test_suggestion_in_grid_search_descent_region(self):
        w = quadratic_param()
        res = T.lr_find([w], quadratic_losses(w), lr_start=1e-5, lr_end=10.0, max_steps=60)

        def final_loss(lr, steps=15):
            w.data[:] = 0.0
            opt = Adam([w], weight_decay=0.0)
            for _ in range(steps):
                opt.zero_grad()
                loss = next(quadratic_losses(w))
                backward(loss)
                opt.step(lr)
            return float((w.data[0] - 3.0) ** 2)

        grid = np.geomspace(1e-5, 10.0, 40)
        descending = [lr for lr in grid if final_loss(lr) < 9.0]
        assert descending, "grid search found no descent region"
        assert min(descending) <= res.suggestion <= max(descending)

    def test_divergence_stops_early(self):
        w = quadratic_param()
        res = T.lr_find([w], quadratic_losses(w), lr_start=1e-4, lr_end=1000.0, max_steps=100)
        assert res.stopped_early
        assert len(res.lrs) < 100

    def test_too_few_points_errors(self):
        w = quadratic_param()
        planted = [1.0, 1.0, 50.0]  # EMA blows past 4x best on the third point

        def losses():
            for v in planted:
                w.data[:] = math.sqrt(v)
                yield sum_all(mul(w, w))

        with pytest.raises(NumericalError, match="smaller lr_start"):
            T.lr_find([w], losses(), lr_start=1e-4, lr_end=1.0, max_steps=100)

    def test_exhausted_stream_without_enough_points_errors(self):
        w = quadratic_param()
        only_eight = itertools.islice(quadratic_losses(w), 8)
        with pytest.raises(NumericalError, match="smaller lr_start"):
            T.lr_find([w], only_eight, lr_start=1e-4, lr_end=1.0, max_steps=100)

    def test_lm_weights_restored_bitwise(self):
        records = grammar_records(12, seed=0)
        vocab = C.build_vocab(records, SHIPPED.min_freq)
        enc = encoder(len(vocab), emb_size=8, hidden_size=8, n_layers=1, seed=1)
        lm = M.LanguageModel(enc, vocab_hash=vocab.content_hash(), seed=1)
        before = {p.name: p.data.copy() for p in lm.parameters()}
        ids = [C.numericalize(r.tokens, vocab) for r in records]
        batches = list(C.lm_batches(ids, 4, 10))
        T.lr_find(lm.parameters(), T.cycle(lambda rng: T.lm_losses(lm, batches, rng), 0),
                  lr_start=1e-5, lr_end=0.5, max_steps=25)
        for p in lm.parameters():
            assert np.array_equal(p.data, before[p.name]), p.name
            assert p.data.dtype == before[p.name].dtype

    def test_csv_output(self, tmp_path):
        w = quadratic_param()
        res = T.lr_find([w], quadratic_losses(w), lr_start=1e-5, lr_end=1.0, max_steps=30)
        path = tmp_path / "lr.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lr,loss"
        assert len(lines) == len(res.lrs) + 1


def lm_setup(seed=0, n_train=60, n_valid=20):
    train = grammar_records(n_train, seed=seed)
    valid = grammar_records(n_valid, seed=seed + 1000)
    vocab = C.build_vocab(train, SHIPPED.min_freq)
    train_ids = [C.numericalize(r.tokens, vocab) for r in train]
    valid_ids = [C.numericalize(r.tokens, vocab) for r in valid]
    # the shipped dropout rates are sized for real corpora; at toy scale they
    # leave too little signal per step
    enc = encoder(len(vocab), emb_size=16, hidden_size=32, n_layers=2,
                  dropouts=M.Dropouts(0.02, 0.05, 0.05, 0.1, 0.0), seed=7)
    lm = M.LanguageModel(enc, vocab_hash=vocab.content_hash(), seed=1)
    return lm, vocab, train_ids, valid_ids


class TestTrainLm:
    def test_beats_unigram_entropy_after_five_epochs(self):
        lm, vocab, train_ids, valid_ids = lm_setup()
        result = T.train_lm(lm, train_ids, valid_ids,
                            RunConfig(epochs=5, batch_size=4, bptt=15, max_lr=0.05, seed=3))
        stream = np.concatenate(train_ids)
        _, counts = np.unique(stream, return_counts=True)
        p = counts / counts.sum()
        unigram_entropy = float(-(p * np.log(p)).sum())
        assert result.history[-1]["valid_loss"] < unigram_entropy

    def test_history_shape_and_jsonl(self, tmp_path):
        lm, vocab, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
        result = T.train_lm(lm, train_ids, valid_ids,
                            RunConfig(epochs=2, batch_size=4, bptt=10, max_lr=0.005, seed=0),
                            out_dir=tmp_path, vocab=vocab)
        assert [h["epoch"] for h in result.history] == [1, 2]
        assert all(set(h) == {"epoch", "train_loss", "valid_loss", "valid_fbeta"}
                   for h in result.history)
        assert all(h["valid_fbeta"] is None for h in result.history)
        lines = (tmp_path / "history.jsonl").read_text().strip().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1, 2]
        assert (tmp_path / "lm_best.ckpt").exists()

    def test_rerun_replaces_history(self, tmp_path):
        for epochs in (2, 1):
            lm, vocab, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
            T.train_lm(lm, train_ids, valid_ids,
                       RunConfig(epochs=epochs, batch_size=4, bptt=10, max_lr=0.005, seed=0),
                       out_dir=tmp_path, vocab=vocab)
        lines = (tmp_path / "history.jsonl").read_text().strip().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1]

    def test_same_seed_identical_history(self):
        cfg = RunConfig(epochs=2, batch_size=4, bptt=10, max_lr=0.005, seed=11)
        a = T.train_lm(*self._fresh(), cfg)
        b = T.train_lm(*self._fresh(), cfg)
        assert a.history == b.history

    @staticmethod
    def _fresh():
        lm, _, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
        return lm, train_ids, valid_ids

    def test_zero_epochs(self):
        lm, vocab, train_ids, valid_ids = lm_setup(n_train=12, n_valid=8)
        before = [p.data.copy() for p in lm.parameters()]
        result = T.train_lm(lm, train_ids, valid_ids, RunConfig(epochs=0, batch_size=4, bptt=10))
        assert result.history == [] and result.best_epoch is None
        for p, snap in zip(lm.parameters(), before):
            assert np.array_equal(p.data, snap)

    def test_model_left_at_best_epoch(self):
        lm, vocab, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
        result = T.train_lm(lm, train_ids, valid_ids,
                            RunConfig(epochs=4, batch_size=4, bptt=10, max_lr=0.01, seed=5))
        assert result.best_metric == min(h["valid_loss"] for h in result.history)
        # re-evaluating the returned weights reproduces the best metric
        again = T._lm_valid_loss(lm, valid_ids, 4, 10)
        assert again == pytest.approx(result.best_metric, abs=1e-12)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_fewer_than_three_steps_in_all(self, epochs):
        lm, vocab, train_ids, _ = lm_setup(n_train=20)
        bptt = sum(map(len, train_ids)) // 4 - 1  # the longest bptt of one (4, bptt) window
        assert len(list(C.lm_batches(train_ids, 4, bptt))) == 1  # one step per epoch
        result = T.train_lm(lm, train_ids, train_ids, RunConfig(epochs=epochs, batch_size=4,
                            bptt=bptt, max_lr=0.005, seed=0))
        assert not result.aborted
        assert [h["epoch"] for h in result.history] == list(range(1, epochs + 1))
        assert all(math.isfinite(h["train_loss"]) for h in result.history)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_valid_loss_aborts_before_history(self, tmp_path, monkeypatch, bad):
        """A NaN first epoch would stay "best" (nothing compares below NaN)
        and reach history.jsonl as NaN: the run ends there instead."""
        lm, vocab, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
        losses = iter([2.5, bad])
        monkeypatch.setattr(T, "_lm_valid_loss", lambda *args: next(losses))
        result = T.train_lm(lm, train_ids, valid_ids,
                            RunConfig(epochs=3, batch_size=4, bptt=10, max_lr=0.005, seed=0),
                            out_dir=tmp_path, vocab=vocab)
        assert result.abort_reason == f"non-finite validation loss {bad} in validation after epoch 2"
        assert [h["epoch"] for h in result.history] == [1] and result.best_epoch == 1
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert [json.loads(l)["valid_loss"] for l in lines] == [2.5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nonfinite_loss_aborts(self):
        lm, vocab, train_ids, valid_ids = lm_setup(n_train=12, n_valid=8)
        result = T.train_lm(lm, train_ids, valid_ids, RunConfig(
            epochs=3, batch_size=4, bptt=10, max_lr=0.01, weight_decay=1e30, seed=0))
        assert result.aborted
        assert len(result.history) < 3


def clf_setup(seed=0, per_class=10, n_layers=2, encoder_seed=7):
    train = labeled_motif_records(per_class, seed=seed)
    valid = labeled_motif_records(4, seed=seed + 500)
    vocab = C.build_vocab(train, SHIPPED.min_freq)
    enc = encoder(len(vocab), emb_size=12, hidden_size=16, n_layers=n_layers,
                  dropouts=M.Dropouts(0, 0.05, 0.05, 0.1, 0.05), seed=encoder_seed)
    clf = M.Classifier(enc, n_classes=4, head_hidden=12, vocab_hash=vocab.content_hash(), seed=2)
    return clf, vocab, prepared(train, vocab), prepared(valid, vocab)


def record_closures(monkeypatch) -> list:
    """One entry per autodiff op and LSTM layer output: whether it got a
    backward closure."""
    recorded = []
    real_record, real_lstm = ad._record, M.lstm_sequence

    def record(out, bw):
        recorded.append(real_record(out, bw)._backward is not None)
        return out

    def lstm_sequence(*args):
        out, state = real_lstm(*args)
        recorded.append(out._backward is not None)
        return out, state

    monkeypatch.setattr(ad, "_record", record)
    monkeypatch.setattr(M, "lstm_sequence", lstm_sequence)
    return recorded


class TestValidationRecordsNoTape:
    """A validation pass inside an unfreeze stage records no backward, leaves
    the stage's frozen flags as they were and scores as an unfrozen pass."""

    def test_classifier(self, monkeypatch):
        clf, _, _, (valid_ids, valid_labels) = clf_setup()
        # the same logits with every parameter trainable, in input order
        logits = np.empty((len(valid_ids), clf.n_classes))
        for ids, lengths, rows in C.clf_batches(valid_ids, range(len(valid_ids)), 8, None):
            logits[rows] = clf.forward(ids.T, lengths).data
        T.gradual_unfreeze(clf, 2)
        flags = [p.frozen for p in clf.parameters()]
        recorded = record_closures(monkeypatch)
        loss, _ = T.evaluate_classifier(clf, valid_ids, valid_labels, None)
        assert loss == ad.cross_entropy(logits, np.asarray(valid_labels)).item()
        assert recorded and not any(recorded)
        assert [p.frozen for p in clf.parameters()] == flags

    def test_language_model(self, monkeypatch):
        lm, _, _, valid_ids = lm_setup(n_train=4, n_valid=6)
        total, n, state = 0.0, 0, None
        for x, y in C.lm_batches(valid_ids, 4, 10):
            loss, state = lm.loss(x.T, y.T, state)
            total, n = total + loss.item(), n + 1
        lm.encoder.emb.frozen = True
        flags = [p.frozen for p in lm.parameters()]
        recorded = record_closures(monkeypatch)
        assert T._lm_valid_loss(lm, valid_ids, 4, 10) == total / n
        assert recorded and not any(recorded)
        assert [p.frozen for p in lm.parameters()] == flags

    def test_flags_restored_when_the_pass_raises(self, monkeypatch):
        clf, _, _, (valid_ids, valid_labels) = clf_setup()
        T.gradual_unfreeze(clf, 1)
        flags = [p.frozen for p in clf.parameters()]

        def fail(*args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(M, "lstm_sequence", fail)
        with pytest.raises(RuntimeError, match="kernel failed"):
            T.evaluate_classifier(clf, valid_ids, valid_labels, None)
        assert [p.frozen for p in clf.parameters()] == flags


def stale_outputs(monkeypatch) -> list:
    """Counts, at each LSTM forward, of the layer outputs made before the
    latest backward (so before the latest optimizer step) still alive. The
    collector is off: anything not freed by reference count stays alive."""
    real_forward, real_backward = K.lstm_seq_forward, T.backward
    made: list = []  # (backwards run when it was made, weakref to hs)
    stale: list = []
    steps = [0]

    def lstm_seq_forward(*args, **kwargs):
        stale.append(sum(1 for step, ref in made if step < steps[0] and ref() is not None))
        hs, gates = real_forward(*args, **kwargs)
        made.append((steps[0], weakref.ref(hs)))
        return hs, gates

    def backward(loss):
        real_backward(loss)
        steps[0] += 1

    monkeypatch.setattr(K, "lstm_seq_forward", lstm_seq_forward)
    monkeypatch.setattr(T, "backward", backward)
    return stale


class TestOneStepTape:
    """A training loop keeps its last loss bound while the next forward runs;
    that loss holds none of its step's activations."""

    @pytest.fixture(autouse=True)
    def no_collector(self):
        gc.disable()
        yield
        gc.enable()

    def test_train_lm(self, monkeypatch):
        lm, _, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
        assert len(list(C.lm_batches(train_ids, 4, 10))) >= 2
        stale = stale_outputs(monkeypatch)
        result = T.train_lm(lm, train_ids, valid_ids,
                            RunConfig(epochs=2, batch_size=4, bptt=10, max_lr=0.005, seed=0))
        assert not result.aborted and len(result.history) == 2
        assert len(stale) > 8 and sum(stale) == 0

    def test_train_clf_through_a_trained_lstm_stage(self, monkeypatch):
        clf, _, train_data, valid_data = clf_setup()
        stale = stale_outputs(monkeypatch)
        cfg = RunConfig(epochs=3, epochs_per_stage=1, batch_size=8, lr_lo=1e-3, lr_hi=1e-2,
                        seed=0)
        result = T.train_clf(clf, train_data, valid_data, cfg)
        assert not result.aborted and len(result.history) == 3
        assert not clf.encoder.layers[-1].wh.frozen  # the last epoch trained an LSTM layer
        assert len(stale) > 8 and sum(stale) == 0


class FakeMallopt:
    """Stands in for glibc's mallopt and records each call."""

    def __init__(self, returns=1):
        self.returns, self.calls = returns, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.returns


KEPT = [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD 32 MiB, then M_TRIM_THRESHOLD 1 GiB


def glibc_has_mallopt() -> bool:
    try:
        T.ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError):
        return False
    return True


def lm_run():
    lm, _, train_ids, valid_ids = lm_setup(n_train=20, n_valid=8)
    return T.train_lm(lm, train_ids, valid_ids,
                      RunConfig(epochs=2, batch_size=4, bptt=10, max_lr=0.005, seed=0))


def clf_run():
    clf, _, train_data, valid_data = clf_setup(per_class=6)
    return T.train_clf(clf, train_data, valid_data, RunConfig(epochs=2, batch_size=8, seed=2))


def lr_find_run():
    w = quadratic_param()
    return T.lr_find([w], quadratic_losses(w), lr_start=1e-5, lr_end=1.0, max_steps=30)


class TestKeepHeap:
    """trainer._keep_heap: the first training step of a process sets glibc's
    mmap and trim thresholds, once; without a working mallopt it does
    nothing."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        T._keep_heap.cache_clear()
        yield
        T._keep_heap.cache_clear()

    @staticmethod
    def libc(monkeypatch, libc):
        def cdll(name):
            assert name == "libc.so.6"
            if isinstance(libc, Exception):
                raise libc
            return libc

        monkeypatch.setattr(T.ctypes, "CDLL", cdll)

    @pytest.mark.parametrize("run", [lm_run, clf_run, lr_find_run])
    def test_each_trainer_sets_both_thresholds_once(self, monkeypatch, run):
        mallopt = FakeMallopt()
        self.libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
        run()
        run()
        assert mallopt.calls == KEPT

    @pytest.mark.parametrize("libc", [SimpleNamespace(), OSError("no libc.so.6")],
                             ids=["no-mallopt", "no-glibc"])
    def test_nothing_without_mallopt(self, monkeypatch, libc):
        self.libc(monkeypatch, libc)
        assert not lm_run().aborted

    def test_nothing_after_a_refused_mallopt(self, monkeypatch):
        mallopt = FakeMallopt(returns=0)
        self.libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
        assert not lm_run().aborted
        assert mallopt.calls == KEPT[:1]


class TestHeapFaults:
    """Once training has run in a process, a later train-lm call finds the
    heap it needs already mapped."""

    @pytest.mark.skipif(not glibc_has_mallopt(), reason="needs glibc's mallopt")
    def test_later_calls_do_not_fault_the_heap_back_in(self, tmp_path):
        # a fresh process, so no earlier test has set the thresholds, with
        # no MALLOC_* variable that would set them for it
        script = textwrap.dedent(f"""
            import contextlib, io, resource
            from opscan import cli
            out = {str(tmp_path)!r}
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["synth", "--per-class", "12", "--mean-len", "120",
                                 "--seed", "0", "--out", out + "/synth"]) == 0
                assert cli.main(["prep", "--corpus", out + "/synth/corpus.jsonl",
                                 "--out", out + "/prep"]) == 0
                for _ in range(3):
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    assert cli.main(["train-lm", "--data", out + "/prep", "--epochs", "1",
                                     "--out", out + "/lm"]) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(opscan.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 1000  # about 5k with glibc's default thresholds


class TestClassify:
    """trainer.classify, the one scoring pass of eval and predict."""

    def test_rows_in_input_order_and_no_tape(self, monkeypatch):
        clf, _, _, (valid_ids, _) = clf_setup()
        # lengths that rise with the index, so the length-sorted batches run backwards
        seqs = [ids[: 8 + i] for i, ids in enumerate(valid_ids)]
        alone = [clf.predict_proba(s[:, None], np.array([s.size]))[0] for s in seqs]
        T.gradual_unfreeze(clf, 1)
        flags = [p.frozen for p in clf.parameters()]
        recorded = record_closures(monkeypatch)
        probs = T.classify(clf, seqs, None)
        assert probs.shape == (len(seqs), 4)
        np.testing.assert_allclose(probs, alone, rtol=0, atol=1e-6)
        assert recorded and not any(recorded)
        assert [p.frozen for p in clf.parameters()] == flags

    def test_max_len_scores_the_first_ids(self):
        clf, _, _, (valid_ids, _) = clf_setup()
        np.testing.assert_array_equal(T.classify(clf, valid_ids, max_len=5),
                                      T.classify(clf, [s[:5] for s in valid_ids], None))

    def test_non_finite_scores_are_refused_naming_the_first_contract(self):
        clf, _, _, (valid_ids, _) = clf_setup()

        def fn(ids, lengths):  # contracts of length 4 and 6 score NaN or inf
            out = np.zeros((ids.shape[1], clf.n_classes))
            out[lengths == 4, 1], out[lengths == 6, 3] = np.nan, -np.inf
            return out

        seqs = [np.arange(3, 3 + n) for n in (5, 6, 2, 4, 4)]
        with pytest.raises(NumericalError, match="for 3 of 5 contracts, the first at input "
                                                 "position 1$"):
            T._score(clf, seqs, None, fn)
        assert T._score(clf, [seqs[0], seqs[2]], None, fn).shape == (2, clf.n_classes)


class TestScoringMemory:
    """Every LSTM kernel call of a scoring pass holds at most
    model._WINDOW_POSITIONS positions, whatever the batch's width."""

    CLF = clf_setup()[0]

    def kernel_shapes(self, seqs):
        with mock.patch.object(K, "lstm_seq_forward", wraps=K.lstm_seq_forward) as fw:
            T.classify(self.CLF, seqs, None)
        return [c.args[0].shape[:2] for c in fw.call_args_list]

    @pytest.mark.parametrize("budget", [M._WINDOW_POSITIONS, 100])  # 100: under 128 rows
    def test_windows_within_the_budget(self, budget):
        rng = np.random.default_rng(5)
        seqs = [rng.integers(3, 20, size=n) for n in rng.integers(1, 600, size=200)]
        with mock.patch.object(M, "_WINDOW_POSITIONS", budget):
            shapes = self.kernel_shapes(seqs)
        assert max(rows for _, rows in shapes) == T._BATCH_ROWS
        for steps, rows in shapes:
            assert steps * rows <= budget or steps == 1
        # every step of every batch runs once per layer
        n_layers = self.CLF.encoder.n_layers
        widths = [max(len(seqs[i]) for i in b) for b in C.row_batches(seqs, T._BATCH_ROWS)]
        assert sum(steps for steps, _ in shapes) == n_layers * sum(widths)

    def test_one_contract_under_the_budget_is_one_call_per_layer(self):
        seq = np.random.default_rng(6).integers(3, 20, size=M._WINDOW_POSITIONS - 1)
        assert self.kernel_shapes([seq]) == [(seq.size, 1)] * self.CLF.encoder.n_layers


class FakeBlas:
    """Stands in for the OpenBLAS thread-count calls and records each set."""

    def __init__(self, threads=3):
        self.threads, self.sets = threads, []

    def calls(self):
        return (lambda: self.threads), self.put

    def put(self, n):
        self.sets.append(n)
        self.threads = n


def cores(n):
    return mock.patch.object(T.os, "sched_getaffinity", lambda pid: set(range(n)))


class TestScoringPool:
    """trainer._for_each runs the scoring pass's row batches on a thread
    per usable core, with OpenBLAS on one thread for the pass."""

    CLF = clf_setup()[0]

    @settings(max_examples=20, deadline=None)
    @given(lengths=st.lists(st.integers(1, 90), min_size=1, max_size=24),
           seed=st.integers(0, 2**32 - 1))
    def test_pool_matches_inline(self, lengths, seed):
        rng = np.random.default_rng(seed)
        seqs = [rng.integers(3, len(self.CLF.encoder.emb.data), size=n) for n in lengths]
        blas = FakeBlas()
        with mock.patch.object(T, "_BATCH_ROWS", 3), \
                mock.patch.object(M, "_WINDOW_POSITIONS", 64):
            with cores(1):
                inline = T.classify(self.CLF, seqs, None)
            with cores(2), mock.patch.object(T, "_blas_thread_calls", blas.calls):
                pooled = T.classify(self.CLF, seqs, None)
            n_batches = len(C.row_batches(seqs, 3))
        np.testing.assert_array_equal(pooled, inline)
        assert blas.sets == ([1, 3] if n_batches > 1 else [])

    def test_one_core_or_one_batch_runs_inline(self):
        clf, _, _, (valid_ids, _) = clf_setup()
        blas = FakeBlas()
        with mock.patch.object(T, "_blas_thread_calls", blas.calls):
            with cores(1):
                T.classify(clf, valid_ids, None)
            with cores(2):
                T.classify(clf, valid_ids[:1], None)
        assert blas.sets == []

    def test_worker_exception_propagates_and_blas_is_restored(self):
        clf, _, _, (valid_ids, _) = clf_setup()
        first, helper_ran, callers = threading.Lock(), threading.Event(), set()

        def fn(ids, lengths):
            callers.add(threading.current_thread())
            if first.acquire(blocking=False):
                helper_ran.wait(timeout=10)  # leave a batch to the other worker
                return np.zeros((ids.shape[1], clf.n_classes))
            helper_ran.set()
            raise ValueError("batch failed")

        blas = FakeBlas()
        flags = [p.frozen for p in clf.parameters()]
        with mock.patch.object(T, "_BATCH_ROWS", 2), cores(2), \
                mock.patch.object(T, "_blas_thread_calls", blas.calls):
            with pytest.raises(ValueError, match="batch failed"):
                T._score(clf, valid_ids, None, fn)
        assert helper_ran.is_set()
        assert threading.main_thread() not in callers  # every batch ran on a worker
        assert blas.sets == [1, 3]
        assert [p.frozen for p in clf.parameters()] == flags

    def test_a_failure_cancels_the_items_not_yet_started(self):
        done, blas = [], FakeBlas()

        def work(item):
            if item == 0:
                raise ValueError("first item failed")
            time.sleep(1e-3)  # a batch's scoring, short
            done.append(item)

        with cores(8), mock.patch.object(T, "_blas_thread_calls", blas.calls):
            with pytest.raises(ValueError, match="first item failed"):
                T._for_each(work, range(2000))
        assert len(done) < 1000  # most items never ran
        assert blas.sets == [1, 3]

    def test_every_item_runs_once_on_more_workers_than_cores(self):
        done, blas, threads = [], FakeBlas(), threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cores(8), mock.patch.object(T, "_blas_thread_calls", blas.calls):
                T._for_each(lambda item: done.append((item, threading.get_ident())), range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(item for item, _ in done) == list(range(2000))
        assert blas.sets == [1, 3]
        assert threading.active_count() == threads  # every helper joined

    def test_lookup_finds_numpys_openblas(self):
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:  # an older numpy whose show_config takes no mode
            pytest.skip("numpy names no BLAS in a dict")
        if "openblas" not in blas["name"].lower():
            pytest.skip(f"numpy's BLAS is {blas['name']}, not OpenBLAS")
        calls = T._blas_thread_calls()
        assert calls is not None  # else scoring would run with BLAS unpinned
        get, put = calls
        count = get()
        try:
            put(1)
            assert get() == 1
        finally:
            put(count)
        assert get() == count

    def test_real_blas_count_is_restored(self):
        clf, _, _, (valid_ids, _) = clf_setup()
        calls = T._blas_thread_calls()
        before = calls[0]() if calls else None

        def fn(ids, lengths):
            raise KeyError("batch failed")

        with mock.patch.object(T, "_BATCH_ROWS", 2), cores(2):
            with pytest.raises(KeyError):
                T._score(clf, valid_ids, None, fn)
        assert (calls[0]() if calls else None) == before


class TestTrainClf:
    def test_pretrained_encoder_learns_motif_classes(self):
        # the staged-unfreezing recipe assumes an encoder that already
        # represents the token stream; pretrain one, then fine-tune
        train = labeled_motif_records(24, seed=0)
        valid = labeled_motif_records(6, seed=500)
        vocab = C.build_vocab(train, SHIPPED.min_freq)
        train_ids = [C.numericalize(r.tokens, vocab) for r in train]
        valid_ids = [C.numericalize(r.tokens, vocab) for r in valid]
        enc = encoder(len(vocab), emb_size=12, hidden_size=16, n_layers=2,
                      dropouts=M.Dropouts(0.02, 0.05, 0.05, 0.1, 0.0), seed=7)
        lm = M.LanguageModel(enc, vocab_hash=vocab.content_hash(), seed=1)
        T.train_lm(lm, train_ids, valid_ids,
                   RunConfig(epochs=5, batch_size=4, bptt=20, max_lr=0.05, seed=2))
        clf = M.Classifier(M.transfer_encoder(lm, lm.encoder.dropouts), n_classes=4,
                           head_hidden=12, vocab_hash=vocab.content_hash(), seed=2)
        result = T.train_clf(clf, prepared(train, vocab), prepared(valid, vocab),
                             RunConfig(epochs=8, batch_size=4, seed=1))
        assert result.best_metric >= 0.9
        assert result.history[-1]["valid_fbeta"] is not None

    def test_nonfinite_validation_scores_abort_before_history(self, tmp_path, monkeypatch):
        clf, vocab, train_data, valid_data = clf_setup()
        real, calls = T.evaluate_classifier, []

        def evaluate(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("non-finite scores for 1 of 16 contracts, "
                                     "the first at input position 3")
            return real(*args)

        monkeypatch.setattr(T, "evaluate_classifier", evaluate)
        result = T.train_clf(clf, train_data, valid_data, RunConfig(epochs=3, batch_size=8, seed=1),
                             out_dir=tmp_path, vocab=vocab)
        assert result.abort_reason == ("non-finite scores for 1 of 16 contracts, the first at "
                                       "input position 3 in validation after epoch 2")
        assert [h["epoch"] for h in result.history] == [1] and result.best_epoch == 1
        assert len((tmp_path / "history.jsonl").read_text().splitlines()) == 1
        assert (tmp_path / "fbeta.csv").read_text().splitlines()[1:] == [
            f"1,{result.history[0]['valid_fbeta']!r}"]

    def test_first_epoch_leaves_encoder_untouched(self):
        clf, vocab, train_data, valid_data = clf_setup()
        enc_before = {p.name: p.data.copy() for p in clf.encoder.parameters()}
        head_before = {p.name: p.data.copy() for p in head_parameters(clf)}
        T.train_clf(clf, train_data, valid_data, RunConfig(epochs=1, batch_size=8, seed=1))
        for p in clf.encoder.parameters():
            assert np.array_equal(p.data, enc_before[p.name]), p.name
        assert any(not np.array_equal(p.data, head_before[p.name])
                   for p in head_parameters(clf))

    def test_same_seed_identical_history(self):
        cfg = RunConfig(epochs=3, batch_size=8, seed=9)
        a = T.train_clf(*self._fresh(), cfg)
        b = T.train_clf(*self._fresh(), cfg)
        assert a.history == b.history

    @staticmethod
    def _fresh():
        clf, _, train_data, valid_data = clf_setup(per_class=6)
        return clf, train_data, valid_data

    def test_outputs_written(self, tmp_path):
        clf, vocab, train_data, valid_data = clf_setup(per_class=6)
        result = T.train_clf(clf, train_data, valid_data, RunConfig(epochs=2, batch_size=8,
                             seed=2), out_dir=tmp_path, vocab=vocab)
        history = (tmp_path / "history.jsonl").read_text().strip().splitlines()
        assert len(history) == 2
        fbeta = (tmp_path / "fbeta.csv").read_text().strip().splitlines()
        assert fbeta[0] == "epoch,fbeta"
        assert len(fbeta) == 3
        assert (tmp_path / "clf_best.ckpt").exists()

    def test_model_left_at_best_epoch(self):
        clf, vocab, train_data, valid_data = clf_setup(per_class=6)
        result = T.train_clf(clf, train_data, valid_data, RunConfig(epochs=4, batch_size=8, seed=3))
        assert result.best_metric == max(h["valid_fbeta"] for h in result.history)
        _, rep = T.evaluate_classifier(clf, valid_data[0], valid_data[1], None)
        assert rep.weighted["fbeta"] == pytest.approx(result.best_metric, abs=1e-12)

    def test_zero_epochs(self):
        clf, vocab, train_data, valid_data = clf_setup(per_class=6)
        result = T.train_clf(clf, train_data, valid_data, RunConfig(epochs=0))
        assert result.history == []
