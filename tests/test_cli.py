"""End-to-end command tests driven through main(argv) -> exit code."""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan import checkpoint as ckpt_mod
from opscan import corpus as C
from opscan import metrics as metrics_mod
from opscan import model as M
from opscan import optim
from opscan import trainer
from opscan.autodiff import Parameter
from opscan.cli import main
from opscan.config import RunConfig
from opscan.disasm import disassemble
from opscan.model import Classifier

from helpers import encoder
from ref_eval import HEADLINE, HEADLINE_TOL_PP, REF_CM
from test_checkpoint import grow_vocab, rewrite_header

SMALL_CFG = {
    "emb_size": 16, "hidden_size": 16, "n_layers": 2, "head_hidden": 12,
    "p_emb": 0.02, "p_input": 0.05, "p_hidden": 0.05, "p_weight": 0.1,
    "p_head": 0.0,
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One tiny pipeline run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    assert main(["synth", "--per-class", "12", "--seed", "7",
                 "--out", str(root / "syn")]) == 0
    assert main(["prep", "--corpus", str(root / "syn" / "corpus.jsonl"),
                 "--seed", "0", "--out", str(root / "prep")]) == 0
    assert main(["train-lm", "--data", str(root / "prep"), "--out", str(root / "lm"),
                 "--seed", "2", "--epochs", "1", "--batch-size", "8", "--bptt", "20",
                 "--max-lr", "0.05", "--config", str(cfg)]) == 0
    assert main(["train-clf", "--data", str(root / "prep"),
                 "--lm", str(root / "lm" / "lm_best.ckpt"), "--out", str(root / "clf"),
                 "--seed", "1", "--epochs", "1", "--batch-size", "8",
                 "--config", str(cfg)]) == 0
    return root, cfg


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--per-class", "50", "--seed", "7",
                         "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "corpus.jsonl").read_bytes()
        b = (tmp_path / "b" / "corpus.jsonl").read_bytes()
        assert a == b

    def test_dup_normals_in_file(self, tmp_path):
        assert main(["synth", "--per-class", "6", "--dup-normals", "3",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().strip().splitlines()
        assert len(lines) == 27

    def test_config_echoed(self, tmp_path):
        assert main(["synth", "--per-class", "2", "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["seed"] == 9


class TestDisasm:
    def test_stdout_tokens(self, capsys):
        assert main(["disasm", "--bytecode", "6001600201"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["PUSH1", "PUSH1", "ADD"]

    def test_collapse_push(self, capsys):
        assert main(["disasm", "--bytecode", "6001", "--collapse-push"]) == 0
        assert capsys.readouterr().out.strip() == "PUSH"

    def test_input_file(self, tmp_path, capsys):
        src = tmp_path / "code.hex"
        src.write_text("0x6001\n")
        assert main(["disasm", "--input", str(src)]) == 0
        assert capsys.readouterr().out.strip() == "PUSH1"

    def test_bad_hex_is_input_error(self, capsys):
        assert main(["disasm", "--bytecode", "zz"]) == 3

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["disasm"]) == 2
        src = tmp_path / "x.hex"
        src.write_text("6001")
        assert main(["disasm", "--bytecode", "6001", "--input", str(src)]) == 2

    def test_empty_bytecode_is_no_opcodes(self, capsys):
        assert main(["disasm", "--bytecode", ""]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestPrep:
    def test_outputs(self, ws):
        root, _ = ws
        prep = root / "prep"
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.tsv",
                     "split.json", "prep.json", "config.json"):
            assert (prep / name).exists(), name
        summary = json.loads((prep / "prep.json").read_text())
        sizes = summary["split_sizes"]
        assert sizes["train"] + sizes["valid"] + sizes["test"] == summary["after_dedup"]

    def test_split_files_are_corpus_format(self, ws):
        root, _ = ws
        records, stats = C.ingest(root / "prep" / "train.jsonl")
        assert stats.skipped == 0
        assert len(records) == json.loads(
            (root / "prep" / "prep.json").read_text())["split_sizes"]["train"]

    def test_vocab_loads_and_matches_hash(self, ws):
        root, _ = ws
        vocab = C.Vocab.load(root / "prep" / "vocab.tsv")
        summary = json.loads((root / "prep" / "prep.json").read_text())
        assert vocab.content_hash() == summary["vocab_hash"]


def poison_head_gradient(monkeypatch, at=1) -> list:
    """Make the at-th optimizer step (from 1) see an infinite gradient on
    the last parameter; returns the list that collects that parameter's
    name."""
    real_step = optim.Adam.step
    poisoned = []
    calls = []

    def poisoned_step(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == at:
            head = self.params[-1]  # trainable in every unfreeze stage
            head.grad = np.full_like(head.data, np.inf)
            poisoned.append(head.name)
        real_step(self, *args, **kwargs)

    monkeypatch.setattr(optim.Adam, "step", poisoned_step)
    return poisoned


def poison_loss(monkeypatch, model_cls, at) -> None:
    """Make the at-th training loss (from 1) of ``model_cls`` NaN."""
    real_loss = model_cls.loss
    calls = []

    def loss(self, *args, **kwargs):
        out = real_loss(self, *args, **kwargs)
        if kwargs.get("rng") is not None:
            calls.append(1)
            if len(calls) == at:
                value = out[0] if isinstance(out, tuple) else out
                value.data = np.full_like(value.data, np.nan)
        return out

    monkeypatch.setattr(model_cls, "loss", loss)


def steps_per_epoch(prep, command, batch_size, bptt=RunConfig.bptt):
    vocab = C.Vocab.load(prep / "vocab.tsv")
    records, _ = C.ingest(prep / "train.jsonl")
    if command == "train-lm":
        return len(list(C.lm_batches([C.numericalize(r.tokens, vocab) for r in records],
                                     batch_size, bptt)))
    return math.ceil(len(records) / batch_size)


class TestTraining:
    def test_lm_outputs(self, ws):
        root, _ = ws
        for name in ("lm_best.ckpt", "history.jsonl", "config.json"):
            assert (root / "lm" / name).exists(), name

    def test_clf_outputs(self, ws):
        root, _ = ws
        for name in ("clf_best.ckpt", "history.jsonl", "fbeta.csv", "config.json"):
            assert (root / "clf" / name).exists(), name

    def test_clf_from_lm_takes_config_dropouts(self, ws, tmp_path):
        root, _ = ws
        rates = {"p_emb": 0.0, "p_input": 0.1, "p_hidden": 0.2, "p_weight": 0.3,
                 "p_head": 0.9}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CFG, **rates}))
        assert main(["train-clf", "--data", str(root / "prep"),
                     "--lm", str(root / "lm" / "lm_best.ckpt"), "--out", str(tmp_path / "clf"),
                     "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]) == 0
        lm_drops = ckpt_mod.read_header(root / "lm" / "lm_best.ckpt")["hyperparams"]["dropouts"]
        drops = ckpt_mod.read_header(tmp_path / "clf" / "clf_best.ckpt")["hyperparams"]["dropouts"]
        assert drops == dataclasses.asdict(RunConfig(**rates).dropouts()) != lm_drops

    def test_clf_from_lm_writes_the_shapes_it_used(self, ws, tmp_path):
        """The encoder takes the LM's shapes whatever the config says, and
        config.json records the ones the checkpoint was built with."""
        root, _ = ws
        shapes = {"emb_size": 32, "hidden_size": 48, "n_layers": 3, "tie_last": False,
                  "dtype": "f64"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CFG, **shapes}))
        assert main(["train-clf", "--data", str(root / "prep"),
                     "--lm", str(root / "lm" / "lm_best.ckpt"), "--out", str(tmp_path / "clf"),
                     "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]) == 0
        written = json.loads((tmp_path / "clf" / "config.json").read_text())
        hp = ckpt_mod.read_header(tmp_path / "clf" / "clf_best.ckpt")["hyperparams"]
        assert {k: written[k] for k in shapes} == {k: hp[k] for k in shapes} != shapes

    @pytest.mark.parametrize("command", ["train-lm", "train-clf"])
    def test_nonfinite_gradient_abort_is_explained(self, ws, tmp_path, monkeypatch,
                                                   capsys, command):
        root, cfg = ws
        poisoned = poison_head_gradient(monkeypatch)
        assert main([command, "--data", str(root / "prep"), "--out", str(tmp_path),
                     "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert f"non-finite gradient in parameter {poisoned[0]!r}" in err
        assert "epoch 1, " in err and "no checkpoint written" in err
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("when", ["first-step", "epoch-2-step-2"])
    @pytest.mark.parametrize("kind", ["loss", "gradient"])
    @pytest.mark.parametrize("command", ["train-lm", "train-clf"])
    def test_abort_message_names_the_step(self, ws, tmp_path, monkeypatch, capsys,
                                          command, kind, when):
        root, cfg = ws
        n = steps_per_epoch(root / "prep", command, batch_size=8)
        at = 1 if when == "first-step" else n + 2
        if kind == "loss":
            poison_loss(monkeypatch, M.LanguageModel if command == "train-lm" else Classifier, at)
            reason = "non-finite training loss nan"
        else:
            poison_head_gradient(monkeypatch, at)
            name = "decoder.b" if command == "train-lm" else "head.b2"
            reason = f"non-finite gradient in parameter {name!r}"
        if when == "first-step":
            where = {"train-lm": "epoch 1, step 0, lr 0.0012",
                     "train-clf": "epoch 1, stage 0 step 0, head lr 0.0016"}[command]
            kept = "no checkpoint written"
        else:
            # the LM runs one one-cycle over both epochs; the classifier's
            # second epoch is unfreeze stage 1, with a one-cycle of its own
            if command == "train-lm":
                lr = trainer.OneCycleSchedule(RunConfig.max_lr, 2 * n,
                                              RunConfig.warmup_frac).lr(n + 1)
                where = f"epoch 2, step {n + 1}, lr {lr:.6g}"
            else:
                lr = trainer.OneCycleSchedule(RunConfig.lr_hi, max(3, n),
                                              RunConfig.warmup_frac).lr(1)
                where = f"epoch 2, stage 1 step 1, head lr {lr:.6g}"
            kept = "best checkpoint (epoch 1) kept"
        assert main([command, "--data", str(root / "prep"), "--out", str(tmp_path),
                     "--epochs", "2", "--batch-size", "8", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"training aborted: {reason} at {where}; {kept}"

    @pytest.mark.parametrize("command", ["train-lm", "train-clf"])
    def test_aborted_rerun_leaves_no_earlier_artifacts(self, ws, tmp_path, monkeypatch,
                                                       command):
        root, cfg = ws
        argv = [command, "--data", str(root / "prep"), "--out", str(tmp_path),
                "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]
        assert main(argv) == 0
        assert list(tmp_path.glob("*_best.ckpt"))
        poison_head_gradient(monkeypatch)
        assert main(argv) == 5
        assert not list(tmp_path.glob("*_best.ckpt"))
        assert not (tmp_path / "fbeta.csv").exists()

    def test_clf_random_encoder(self, ws, tmp_path):
        root, cfg = ws
        assert main(["train-clf", "--data", str(root / "prep"), "--out", str(tmp_path),
                     "--seed", "3", "--epochs", "1", "--batch-size", "8",
                     "--config", str(cfg)]) == 0
        assert (tmp_path / "clf_best.ckpt").exists()


def _split_commands(root, data, out):
    """argv of every command that reads a prep directory's training splits."""
    common = ["--data", str(data), "--batch-size", "8", "--config", str(root / "cfg.json")]
    return {
        "train-lm": ["train-lm", *common, "--out", str(out), "--epochs", "1", "--bptt", "20"],
        "train-clf": ["train-clf", *common, "--out", str(out), "--epochs", "1"],
        "lr-find-lm": ["lr-find", *common, "--out", str(out), "--model", "lm",
                       "--steps", "12", "--lr-end", "1e-3"],
        "lr-find-clf": ["lr-find", *common, "--out", str(out), "--model", "clf",
                        "--steps", "12", "--lr-end", "1e-3"],
    }


class TestSplits:
    """Each command reads only the splits it uses, and a split it cannot
    batch exits 3, naming the split, before the first epoch."""

    @pytest.mark.parametrize("command", ["train-lm", "train-clf", "lr-find-lm", "lr-find-clf"])
    def test_test_split_not_needed(self, ws, tmp_path, command):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        (data / "test.jsonl").unlink()
        assert main(_split_commands(root, data, tmp_path / "out")[command]) == 0

    @pytest.mark.parametrize("command", ["train-lm", "train-clf", "lr-find-lm", "lr-find-clf"])
    def test_empty_train_split(self, ws, tmp_path, monkeypatch, capsys, command):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        (data / "train.jsonl").write_text("")
        real_batches, batchings = C.clf_batches, []

        def clf_batches(*args):
            # an lr-find stream over no batches must not be cycled forever
            batchings.append(1)
            assert len(batchings) < 100, "the empty split is batched again and again"
            return real_batches(*args)

        monkeypatch.setattr(C, "clf_batches", clf_batches)
        assert main(_split_commands(root, data, tmp_path / "out")[command]) == 3
        assert "train split" in capsys.readouterr().err
        if command.startswith("train"):
            assert (tmp_path / "out" / "history.jsonl").read_text() == ""

    @pytest.mark.parametrize("command, valid", [
        ("train-lm", "empty"), ("train-lm", "one-short-record"), ("train-clf", "empty")])
    def test_unusable_valid_split_fails_before_training(self, ws, tmp_path, capsys,
                                                        command, valid):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        short = '{"address": "0x1", "label": 1, "tokens": ["PUSH1", "ADD"]}\n'
        (data / "valid.jsonl").write_text("" if valid == "empty" else short)
        assert main(_split_commands(root, data, tmp_path / "out")[command]) == 3
        assert "valid split" in capsys.readouterr().err
        assert (tmp_path / "out" / "history.jsonl").read_text() == ""

    def test_eval_empty_split(self, ws, tmp_path, capsys):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        (data / "test.jsonl").write_text("")
        assert main(["eval", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--data", str(data), "--out", str(tmp_path / "out")]) == 3
        assert "test split is empty" in capsys.readouterr().err


class TestLrFind:
    def test_lm_mode(self, ws, tmp_path, capsys):
        root, cfg = ws
        assert main(["lr-find", "--data", str(root / "prep"), "--model", "lm",
                     "--out", str(tmp_path), "--steps", "30", "--lr-end", "0.5",
                     "--batch-size", "4", "--seed", "0", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert np.isfinite(payload["suggestion"])
        assert (tmp_path / "lr_find.csv").read_text().startswith("lr,loss")

    def test_too_few_points_is_numerical_failure(self, ws, tmp_path, capsys):
        root, cfg = ws
        assert main(["lr-find", "--data", str(root / "prep"), "--model", "lm",
                     "--out", str(tmp_path), "--steps", "100", "--lr-start", "1",
                     "--lr-end", "1e300", "--batch-size", "4", "--config", str(cfg)]) == 5
        assert "finite points recorded before divergence" in capsys.readouterr().err


class TestEvalPredictionsFile:
    def test_reference_matrix_reproduces_headline(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        with open(path, "w") as fh:
            for i, row in enumerate(REF_CM):
                for j, count in enumerate(row):
                    for _ in range(count):
                        fh.write(json.dumps({"actual": i + 1, "predicted": j + 1}) + "\n")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        tol = HEADLINE_TOL_PP
        assert rep["accuracy"] * 100 == pytest.approx(HEADLINE["accuracy"], abs=tol)
        for c in range(4):
            assert rep["per_class"][c]["recall"] * 100 == pytest.approx(
                HEADLINE["recall"][c], abs=tol)
            assert rep["per_class"][c]["precision"] * 100 == pytest.approx(
                HEADLINE["precision"][c], abs=tol)
            assert rep["per_class"][c]["fbeta"] * 100 == pytest.approx(
                HEADLINE["fbeta"][c], abs=tol)
        assert rep["weighted"]["fbeta"] * 100 == pytest.approx(
            HEADLINE["weighted_fbeta"], abs=tol)
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "confusion.csv").exists()

    def test_scores_add_roc_files(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"actual": 1, "predicted": 1, "scores": [0.9, 0.05, 0.03, 0.02]},
            {"actual": 2, "predicted": 2, "scores": [0.1, 0.8, 0.05, 0.05]},
            {"actual": 3, "predicted": 3, "scores": [0.1, 0.1, 0.7, 0.1]},
            {"actual": 4, "predicted": 4, "scores": [0.05, 0.05, 0.1, 0.8]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        for label in (1, 2, 3, 4):
            assert (tmp_path / f"roc_type{label}.csv").exists()

    def test_class_without_roc_gets_no_roc_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"actual": 1, "predicted": 1, "scores": [0.7, 0.1, 0.1, 0.1]},
            {"actual": 2, "predicted": 2, "scores": [0.2, 0.6, 0.1, 0.1]},
            {"actual": 2, "predicted": 1, "scores": [0.5, 0.3, 0.1, 0.1]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("roc_type*.csv")) == [
            "roc_type1.csv", "roc_type2.csv"]
        per_class = json.loads((tmp_path / "metrics.json").read_text())["per_class"]
        assert [c["auc"] is None for c in per_class] == [False, False, True, True]
        assert ["auc_undefined" in c["flags"] for c in per_class] == [False, False, True, True]

    def test_rerun_removes_roc_file_of_class_without_curve(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"actual": 1, "predicted": 1, "scores": [0.9, 0.05, 0.03, 0.02]},
            {"actual": 2, "predicted": 2, "scores": [0.1, 0.8, 0.05, 0.05]},
            {"actual": 3, "predicted": 3, "scores": [0.1, 0.1, 0.7, 0.1]},
            {"actual": 4, "predicted": 4, "scores": [0.05, 0.05, 0.1, 0.8]},
        ]
        for kept in (rows, rows[:3]):
            path.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
            assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("roc_type*.csv")) == [
            "roc_type1.csv", "roc_type2.csv", "roc_type3.csv"]
        per_class = json.loads((tmp_path / "metrics.json").read_text())["per_class"]
        assert "auc_undefined" in per_class[3]["flags"]

    def test_scores_on_some_rows_only(self, tmp_path, capsys):
        scored = {"actual": 1, "predicted": 1, "scores": [0.7, 0.1, 0.1, 0.1]}
        unscored = {"actual": 2, "predicted": 2}
        for rows, line in (([scored, unscored], 2), ([unscored, scored], 1)):
            path = tmp_path / "preds.jsonl"
            path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
            assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 3
            assert f"line {line}: no scores" in capsys.readouterr().err
            assert not list(tmp_path.glob("roc_type*.csv"))

    def test_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"actual": 1}\n')
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 3

    def test_needs_exactly_one_mode(self, tmp_path, ws):
        root, _ = ws
        assert main(["eval", "--out", str(tmp_path)]) == 2
        assert main(["eval", "--predictions", "x", "--checkpoint", "y",
                     "--out", str(tmp_path)]) == 2


class TestEvalCheckpoint:
    def test_writes_full_report(self, ws, tmp_path, capsys):
        root, _ = ws
        assert main(["eval", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--data", str(root / "prep"), "--split", "valid",
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "metrics.json").read_text())
        assert set(rep) == {"accuracy", "per_class", "weighted"}
        assert all(r["auc"] is not None for r in rep["per_class"])
        for label in (1, 2, 3, 4):
            assert (tmp_path / f"roc_type{label}.csv").exists()

    def test_one_roc_curve_per_class(self, ws, tmp_path, monkeypatch):
        root, _ = ws
        real, curves = metrics_mod.roc_curve, []

        def roc_curve(*args):
            curves.append(real(*args))
            return curves[-1]

        monkeypatch.setattr(metrics_mod, "roc_curve", roc_curve)
        assert main(["eval", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--data", str(root / "prep"), "--split", "valid",
                     "--out", str(tmp_path)]) == 0
        assert len(curves) == 4
        for label, (fpr, _, _) in enumerate(curves, start=1):
            rows = (tmp_path / f"roc_type{label}.csv").read_text().splitlines()
            assert len(rows) == len(fpr) + 1  # the header, then one row per point

    def test_lm_checkpoint_refused(self, ws, tmp_path):
        root, _ = ws
        assert main(["eval", "--checkpoint", str(root / "lm" / "lm_best.ckpt"),
                     "--data", str(root / "prep"), "--out", str(tmp_path)]) == 4


class TestInferenceRecordsNoTape:
    def test_eval_and_predict_record_no_backward(self, ws, tmp_path, monkeypatch):
        root, _ = ws
        nodes = []  # every classifier output and LSTM layer output
        real_forward, real_lstm = Classifier.forward, M.lstm_sequence

        def forward(self, *args, **kwargs):
            nodes.append(real_forward(self, *args, **kwargs))
            return nodes[-1]

        def lstm_sequence(*args):
            out, state = real_lstm(*args)
            nodes.append(out)
            return out, state

        monkeypatch.setattr(Classifier, "forward", forward)
        monkeypatch.setattr(M, "lstm_sequence", lstm_sequence)
        ckpt = str(root / "clf" / "clf_best.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--data", str(root / "prep"),
                     "--split", "valid", "--out", str(tmp_path)]) == 0
        assert main(["predict", "--checkpoint", ckpt, "--bytecode", "6001600201331450"]) == 0
        assert len(nodes) >= 6
        for out in nodes:
            # Nothing is recorded: no closure, and no link to an activation.
            assert out._backward is None and not out.requires_grad
            assert all(isinstance(p, Parameter) for p in out._parents)


class TestPredict:
    def test_known_bytecode(self, ws, capsys):
        root, _ = ws
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", "6001600201331450"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["type"] in ("Suicidal", "Prodigal", "Greedy", "Normal")
        assert result["label"] in (1, 2, 3, 4)

    def test_all_unknown_tokens_still_a_distribution(self, ws, capsys):
        root, _ = ws
        vocab = C.Vocab.load(root / "prep" / "vocab.tsv")
        hexstr = "08090b"  # ADDMOD MULMOD SIGNEXTEND: absent from the synth pools
        assert list(C.numericalize(disassemble(hexstr), vocab)[1:]) == [C.Vocab.UNK] * 3
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", hexstr]) == 0
        result = json.loads(capsys.readouterr().out)
        probs = list(result["probabilities"].values())
        assert len(probs) == 4
        assert all(p >= 0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_lm_checkpoint_refused(self, ws, capsys):
        root, _ = ws
        assert main(["predict", "--checkpoint", str(root / "lm" / "lm_best.ckpt"),
                     "--bytecode", "6001"]) == 4

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--bytecode", "6001"]) == 3

    def test_empty_bytecode_is_zero_opcodes(self, ws, capsys):
        root, _ = ws
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", ""]) == 3
        assert "zero opcodes" in capsys.readouterr().err

    def test_matches_eval_under_one_config(self, ws, tmp_path, monkeypatch, capsys):
        """Under the same --config, predict gives a contract the probabilities
        eval gives it, also when the contract is longer than max_len."""
        root, _ = ws
        max_len = 8
        cfg = _write(tmp_path, "cfg.json", json.dumps({"max_len": max_len}))
        ckpt = str(root / "clf" / "clf_best.ckpt")
        scored = {}  # eval's probabilities by the ids of the row they score
        real = Classifier.predict_proba

        def capture(clf, ids, lengths):
            probs = real(clf, ids, lengths)
            for row, n, p in zip(ids.T, lengths, probs):
                scored[row[:n].tobytes()] = p
            return probs

        with monkeypatch.context() as m:
            m.setattr(Classifier, "predict_proba", capture)
            assert main(["eval", "--checkpoint", ckpt, "--data", str(root / "prep"),
                         "--split", "valid", "--config", cfg, "--out", str(tmp_path)]) == 0
        vocab = ckpt_mod.load_checkpoint(ckpt).checkpoint_vocab
        with open(root / "syn" / "corpus.jsonl", encoding="utf-8") as fh:
            bytecode = {row["address"]: row["bytecode"] for row in map(json.loads, fh)}
        records, _ = C.ingest(root / "prep" / "valid.jsonl")
        long = [r for r in records if len(r.tokens) > max_len][:6]
        assert long
        capsys.readouterr()
        for rec in long:
            assert main(["predict", "--checkpoint", ckpt, "--config", cfg,
                         "--bytecode", bytecode[rec.address]]) == 0
            got = json.loads(capsys.readouterr().out)["probabilities"]
            ids = C.numericalize(rec.tokens, vocab)[:max_len].astype(np.int64)
            np.testing.assert_allclose([got[name] for name in metrics_mod.CLASS_NAMES],
                                       scored[ids.tobytes()], rtol=0, atol=1e-5)


class TestLoadsOnce:
    def test_predict_parses_the_header_once(self, ws, monkeypatch, capsys):
        root, _ = ws
        counts = {"headers": 0, "vocabs": 0}
        real_read, real_init = ckpt_mod._read_header, C.Vocab.__init__

        def read(fh):
            counts["headers"] += 1
            return real_read(fh)

        def init(self, tokens):
            counts["vocabs"] += 1
            real_init(self, tokens)

        monkeypatch.setattr(ckpt_mod, "_read_header", read)
        monkeypatch.setattr(C.Vocab, "__init__", init)
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", "6001600201331450"]) == 0
        assert counts == {"headers": 1, "vocabs": 1}

    def test_eval_reads_only_the_scored_split(self, ws, tmp_path):
        root, _ = ws
        ckpt = str(root / "clf" / "clf_best.ckpt")
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        for name in ("train.jsonl", "valid.jsonl", "vocab.tsv"):
            (data / name).unlink()
        for prep, out in ((root / "prep", "full"), (data, "test-only")):
            assert main(["eval", "--checkpoint", ckpt, "--data", str(prep), "--split", "test",
                         "--out", str(tmp_path / out)]) == 0
        full, alone = ((tmp_path / d / "metrics.json").read_text() for d in ("full", "test-only"))
        assert alone == full


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weight_exits_4(self, ws, tmp_path, capsys, value):
        root, _ = ws
        clf = ckpt_mod.load_checkpoint(root / "clf" / "clf_best.ckpt")
        clf.w2.data[0, 0] = value
        path = tmp_path / "clf.ckpt"
        ckpt_mod.save_checkpoint(clf, path, vocab=clf.checkpoint_vocab)
        assert main(["predict", "--checkpoint", str(path), "--bytecode", "6001600201331450"]) == 4
        captured = capsys.readouterr()
        assert "head.w2" in captured.err and captured.out == ""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_predicts_or_exits_4(self, ws, data):
        """Any truncation or single bit flip gives a valid prediction or exit 4:
        never a traceback, never a non-finite probability."""
        root, _ = ws
        raw = (root / "clf" / "clf_best.ckpt").read_bytes()
        header_end = 12 + struct.unpack("<I", raw[8:12])[0]
        # Half the draws land in the magic, lengths and JSON header.
        at = data.draw(st.integers(0, header_end - 1) | st.integers(0, len(raw) - 1))
        if data.draw(st.booleans(), label="truncate"):
            corrupt = raw[:at]
        else:
            bit = data.draw(st.integers(0, 7), label="bit")
            corrupt = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]
        path = root / "corrupt.ckpt"
        path.write_bytes(corrupt)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["predict", "--checkpoint", str(path), "--bytecode", "6001600201331450"])
        assert rc in (0, 4)
        if rc == 0:
            probs = json.loads(out.getvalue(), parse_constant=_reject_constant)["probabilities"]
            assert all(math.isfinite(p) and 0 <= p <= 1 for p in probs.values())
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-5)


class TestExitCodes:
    def test_unknown_config_key(self, ws, tmp_path, capsys):
        """A misspelt key, a wrong-typed value or a non-positive lr exits 2."""
        root, _ = ws
        bad = tmp_path / "bad.json"
        for text in ('{"emb_sizee": 8}', '{"emb_size": "64"}', '{"max_lr": -1}',
                     '{"keep_tail": true}'):
            bad.write_text(text)
            assert main(["train-lm", "--data", str(root / "prep"),
                         "--out", str(tmp_path), "--config", str(bad)]) == 2, text

    def test_non_integer_vocab_id(self, ws, tmp_path, capsys):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        vocab = data / "vocab.tsv"
        vocab.write_text(vocab.read_text().replace("<bos>\t2", "<bos>\ttwo"))
        assert main(["train-lm", "--data", str(data), "--out", str(tmp_path)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_vocab(self, ws, tmp_path, capsys):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        (data / "vocab.tsv").write_bytes(b"<pad>\t0\n<unk>\t1\n\xff\xfe\t2\n")
        assert main(["train-lm", "--data", str(data), "--out", str(tmp_path)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["kind", "hyperparams"])
    def test_checkpoint_header_missing_key(self, ws, tmp_path, capsys, key):
        root, _ = ws
        path = tmp_path / "clf.ckpt"
        path.write_bytes((root / "clf" / "clf_best.ckpt").read_bytes())
        rewrite_header(path, lambda h: h.pop(key))
        assert main(["predict", "--checkpoint", str(path), "--bytecode", "6001"]) == 4
        assert key in capsys.readouterr().err

    def test_missing_corpus(self, tmp_path, capsys):
        assert main(["prep", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path)]) == 3

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-lm"])  # --data missing
        assert exc.value.code == 2


GOOD_LINE = '{"address": "0x1", "label": 1, "tokens": ["PUSH1", "ADD"]}\n'
NON_UTF8 = b"\xff\xfe"
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000  # past the JSON decoder's recursion limit


def _write(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def _prep(tmp_path, second_line):
    """prep over a corpus whose line 2 is second_line."""
    corpus = _write(tmp_path, "corpus.jsonl", GOOD_LINE.encode() + second_line + b"\n")
    return ["prep", "--corpus", corpus, "--out", str(tmp_path / "out")]


def _eval(tmp_path, row):
    """eval over a predictions file whose line 1 is row (JSON text if bytes)."""
    line = row if isinstance(row, bytes) else json.dumps(row).encode()
    preds = _write(tmp_path, "preds.jsonl", line + b"\n")
    return ["eval", "--predictions", preds, "--out", str(tmp_path / "out")]


def _predict_too_deep_header(root, tmp_path):
    """predict from a classifier checkpoint whose JSON header nests too deeply."""
    raw = (root / "clf" / "clf_best.ckpt").read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    ckpt = raw[:8] + struct.pack("<I", len(TOO_DEEP)) + TOO_DEEP + raw[12 + length :]
    return ["predict", "--checkpoint", _write(tmp_path, "clf.ckpt", ckpt), "--bytecode", "6001"]


def _edited_checkpoint(root, tmp_path, kind, edit=grow_vocab):
    """A copy of the ws checkpoint of ``kind`` with ``edit`` applied to its
    header; by default its embedded vocabulary gets one more token than its
    vocab_size, its hash recomputed to match."""
    path = tmp_path / f"{kind}.ckpt"
    path.write_bytes((root / kind / f"{kind}_best.ckpt").read_bytes())
    rewrite_header(path, edit)
    return path


def _other_class_count(command, n_classes):
    """argv from (ws root, tmp_path): ``command`` (eval or predict) on a
    classifier checkpoint of n_classes classes over the ws vocabulary."""

    def argv(root, tmp_path):
        vocab = C.Vocab.load(root / "prep" / "vocab.tsv")
        enc = encoder(len(vocab), emb_size=8, hidden_size=8, n_layers=1, seed=0)
        path = tmp_path / "clf.ckpt"
        clf = Classifier(enc, n_classes=n_classes, head_hidden=5, vocab_hash=None, seed=2)
        ckpt_mod.save_checkpoint(clf, path, vocab=vocab)
        if command == "eval":
            return ["eval", "--checkpoint", str(path), "--data", str(root / "prep"),
                    "--out", str(tmp_path / "out")]
        return ["predict", "--checkpoint", str(path), "--bytecode", "6001600201331450"]

    return argv


def _train_clf_grown_vocab(root, tmp_path):
    """train-clf --lm where the prep vocabulary, and the LM's embedded one
    with its hash, have one more token than the LM's vocab_size."""
    data = shutil.copytree(root / "prep", tmp_path / "prep")
    with open(data / "vocab.tsv", "a", encoding="utf-8") as fh:
        fh.write(f"PUSH33\t{len(C.Vocab.load(root / 'prep' / 'vocab.tsv'))}\n")
    return ["train-clf", "--data", str(data), "--lm", str(_edited_checkpoint(root, tmp_path, "lm")),
            "--out", str(tmp_path / "out"), "--epochs", "1"]


def _train_clf_other_vocab(root, tmp_path):
    """train-clf --lm where the prep vocabulary is another one of the same
    size (its last two tokens trade ids), not the one the LM was built on."""
    data = shutil.copytree(root / "prep", tmp_path / "prep")
    tokens = C.Vocab.load(data / "vocab.tsv").itos
    tokens[-2], tokens[-1] = tokens[-1], tokens[-2]
    (data / "vocab.tsv").write_text("".join(f"{tok}\t{i}\n" for i, tok in enumerate(tokens)),
                                    encoding="utf-8")
    return ["train-clf", "--data", str(data), "--lm", str(root / "lm" / "lm_best.ckpt"),
            "--out", str(tmp_path / "out"), "--epochs", "1"]


# case -> (exit code, the line the message names or None, argv from (ws root, tmp_path))
MALFORMED_INPUTS = {
    "disasm-input-is-a-directory": (3, None, lambda root, tmp: ["disasm", "--input", str(tmp)]),
    "prep-corpus-is-a-directory": (3, None, lambda root, tmp: [
        "prep", "--corpus", str(tmp), "--out", str(tmp / "out")]),
    "eval-predictions-is-a-directory": (3, None, lambda root, tmp: [
        "eval", "--predictions", str(tmp), "--out", str(tmp / "out")]),
    "train-clf-lm-is-a-directory": (3, None, lambda root, tmp: [
        "train-clf", "--data", str(root / "prep"), "--lm", str(tmp), "--out", str(tmp / "out")]),
    "disasm-out-is-a-file": (3, None, lambda root, tmp: [
        "disasm", "--bytecode", "6001", "--out", _write(tmp, "taken", "")]),
    "disasm-input-not-utf8": (3, None, lambda root, tmp: [
        "disasm", "--input", _write(tmp, "code.hex", NON_UTF8)]),
    "predict-input-not-utf8": (3, None, lambda root, tmp: [
        "predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
        "--input", _write(tmp, "code.hex", NON_UTF8)]),
    "corpus-not-utf8": (3, None, lambda root, tmp: _prep(tmp, NON_UTF8)),
    "corpus-label-list": (3, 2, lambda root, tmp: _prep(
        tmp, b'{"address": "0x2", "label": [1], "tokens": ["ADD"]}')),
    "corpus-label-bool": (3, 2, lambda root, tmp: _prep(
        tmp, b'{"address": "0x2", "label": true, "tokens": ["ADD"]}')),
    "corpus-bytecode-number": (3, 2, lambda root, tmp: _prep(
        tmp, b'{"address": "0x2", "label": 1, "bytecode": 123}')),
    "eval-scores-string": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": 1, "scores": "abc"})),
    "eval-scores-three-wide": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": 1, "scores": [0.5, 0.25, 0.25]})),
    "eval-actual-overflows": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 10**30, "predicted": 1})),
    "eval-actual-float": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1.9, "predicted": 1})),
    "eval-actual-string": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": "2", "predicted": 2})),
    "eval-predicted-bool": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": True})),
    "eval-predicted-float": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 2, "predicted": 2.99})),
    "eval-scores-string-entry": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": 1, "scores": ["0.5", 0.2, 0.2, 0.1]})),
    "eval-scores-bool-entry": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": 1, "scores": [True, 0.2, 0.2, 0.1]})),
    "eval-scores-huge-integer": (3, 1, lambda root, tmp: _eval(
        tmp, {"actual": 1, "predicted": 1, "scores": [10**400, 0, 0, 0]})),
    "corpus-nested-too-deep": (3, 2, lambda root, tmp: _prep(tmp, TOO_DEEP)),
    "eval-row-nested-too-deep": (3, 1, lambda root, tmp: _eval(tmp, TOO_DEEP)),
    "config-nested-too-deep": (2, None, lambda root, tmp: [
        "synth", "--config", _write(tmp, "cfg.json", TOO_DEEP), "--out", str(tmp)]),
    "checkpoint-header-nested-too-deep": (4, None, _predict_too_deep_header),
    "predict-vocab-longer-than-model": (4, None, lambda root, tmp: [
        "predict", "--checkpoint", str(_edited_checkpoint(root, tmp, "clf")), "--bytecode",
        "6001600201331450"]),
    "eval-vocab-longer-than-model": (4, None, lambda root, tmp: [
        "eval", "--checkpoint", str(_edited_checkpoint(root, tmp, "clf")), "--data",
        str(root / "prep"), "--out", str(tmp / "out")]),
    "predict-vocab-size-unallocatable": (4, None, lambda root, tmp: [
        "predict", "--checkpoint", str(_edited_checkpoint(
            root, tmp, "clf", lambda h: h["hyperparams"].update(vocab_size=10**15))),
        "--bytecode", "6001"]),
    **{f"{command}-clf-of-{k}-classes": (4, None, _other_class_count(command, k))
       for command in ("eval", "predict") for k in (0, 1, 3, 5)},
    "train-clf-lm-vocab-longer-than-model": (4, None, _train_clf_grown_vocab),
    "train-clf-lm-other-vocab": (4, None, _train_clf_other_vocab),
    "lr-find-one-step": (2, None, lambda root, tmp: [
        "lr-find", "--data", str(root / "prep"), "--steps", "1", "--out", str(tmp)]),
    "lr-find-nine-steps": (2, None, lambda root, tmp: [
        "lr-find", "--data", str(root / "prep"), "--steps", "9", "--out", str(tmp)]),
    "lr-find-start-above-end": (2, None, lambda root, tmp: [
        "lr-find", "--data", str(root / "prep"), "--lr-start", "1", "--lr-end", "0.1",
        "--out", str(tmp)]),
    "lr-find-nan-start": (2, None, lambda root, tmp: [
        "lr-find", "--data", str(root / "prep"), "--lr-start", "nan", "--out", str(tmp)]),
    "synth-negative-per-class": (2, None, lambda root, tmp: [
        "synth", "--per-class", "-3", "--out", str(tmp)]),
    "synth-zero-mean-len": (2, None, lambda root, tmp: [
        "synth", "--mean-len", "0", "--out", str(tmp)]),
    "synth-zero-plants": (2, None, lambda root, tmp: [
        "synth", "--plants", "0", "--out", str(tmp)]),
    # sizes numpy refuses at once, with no gradual allocation first
    "synth-mean-len-unallocatable": (2, None, lambda root, tmp: [
        "synth", "--mean-len", str(10**12), "--jitter", "0", "--plants", "1",
        "--out", str(tmp)]),
    "train-clf-head-hidden-unallocatable": (2, None, lambda root, tmp: [
        "train-clf", "--data", str(root / "prep"), "--config",
        _write(tmp, "cfg.json", '{"head_hidden": 1000000000000}'), "--out", str(tmp / "out")]),
    **{f"{command}-emb-size-unallocatable": (2, None, lambda root, tmp, command=command: [
        command, "--data", str(root / "prep"), "--config",
        _write(tmp, "cfg.json", '{"emb_size": 100000000000}'), "--out", str(tmp / "out")])
       for command in ("train-lm", "lr-find")},
}


def _exit_code(argv) -> int:
    """main(argv) with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


# A JSON value of any type, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
HEX = st.text("0123456789abcdefx", max_size=40)
# A config object: known and unknown keys, values of any JSON type or near a
# key's valid range, and sometimes three split ratios that sum to 1.
CONFIG_VALUES = (JSON_VALUES | st.integers(-2, 100) | st.floats(-0.5, 1.5)
                 | st.sampled_from(["f32", "f64"]))
SPLIT_RATIOS = st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(
    lambda r: r[0] + r[1] <= 1).map(
    lambda r: {"train_ratio": r[0], "valid_ratio": r[1], "test_ratio": 1 - r[0] - r[1]})
CONFIGS = st.builds(
    lambda keys, ratios: {**keys, **ratios},
    st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(RunConfig)])
                    | st.text(max_size=4), CONFIG_VALUES, max_size=5),
    st.just({}) | SPLIT_RATIOS,
) | JSON_VALUES
# vocab.tsv text: the reserved header or not, then token/id lines whose ids
# run in order or not; or any bytes at all.
VOCAB_LINES = st.tuples(st.text(max_size=6), st.integers(-1, 12) | st.text(max_size=3))
VOCAB_BYTES = st.builds(
    lambda header, lines, in_order: "".join(
        f"{tok}\t{i if in_order else idx}\n"
        for i, (tok, idx) in enumerate(header + lines)).encode(),
    st.just([]) | st.just([(t, 0) for t in C.Vocab.RESERVED]),
    st.lists(VOCAB_LINES, max_size=6),
    st.booleans(),
) | st.binary(max_size=60)


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_with_its_code(self, ws, tmp_path, capsys, case):
        code, line, argv = MALFORMED_INPUTS[case]
        root, _ = ws
        assert main(argv(root, tmp_path)) == code
        if line is not None:
            assert f"line {line}" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(
        st.fixed_dictionaries({
            "address": st.sampled_from(["0x1", "0x2"]),
            "label": JSON_VALUES | st.integers(0, 6),
        }, optional={
            "tokens": JSON_VALUES | st.lists(st.sampled_from(["PUSH1", "ADD", "STOP"])),
            "bytecode": JSON_VALUES | HEX,
        }).map(json.dumps) | JSON_VALUES.map(json.dumps) | st.text(max_size=20),
        min_size=1, max_size=4,
    ))
    def test_any_corpus_line(self, ws, lines):
        root, _ = ws
        corpus = _write(root, "fuzz.jsonl", "\n".join(lines) + "\n")
        assert _exit_code(["prep", "--corpus", corpus, "--out", str(root / "fuzz")]) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(
        st.fixed_dictionaries({
            "actual": st.integers(1, 4) | JSON_VALUES,
            "predicted": st.integers(1, 4) | JSON_VALUES,
        }, optional={
            "scores": st.lists(st.floats(), min_size=3, max_size=5) | JSON_VALUES,
        }) | JSON_VALUES,
        min_size=1, max_size=6,
    ))
    def test_any_prediction_row(self, ws, rows):
        root, _ = ws
        preds = _write(root, "fuzz-preds.jsonl", "\n".join(map(json.dumps, rows)) + "\n")
        assert _exit_code(["eval", "--predictions", preds, "--out", str(root / "fuzz")]) in (0, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=40) | HEX.map(str.encode) | st.text(max_size=40) | HEX,
           command=st.sampled_from(["disasm", "predict"]))
    def test_any_input_bytes(self, ws, data, command):
        """Bytes go in through --input, text (the empty string too) through --bytecode."""
        root, _ = ws
        if isinstance(data, str):
            argv = [command, f"--bytecode={data}"]
        else:
            argv = [command, "--input", _write(root, "fuzz.hex", data)]
        if command == "predict":
            argv += ["--checkpoint", str(root / "clf" / "clf_best.ckpt")]
        assert _exit_code(argv) in (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(cfg=CONFIGS)
    def test_any_config(self, ws, cfg):
        root, _ = ws
        argv = ["prep", "--corpus", str(root / "syn" / "corpus.jsonl"),
                "--config", _write(root, "fuzz-cfg.json", json.dumps(cfg)),
                "--out", str(root / "fuzz-prep")]
        assert _exit_code(argv) in (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(data=VOCAB_BYTES)
    def test_any_vocab_bytes(self, ws, data):
        root, cfg = ws
        data_dir = root / "fuzz-data"
        if not data_dir.exists():
            shutil.copytree(root / "prep", data_dir)
        (data_dir / "vocab.tsv").write_bytes(data)
        argv = ["train-lm", "--data", str(data_dir), "--out", str(root / "fuzz-lm"),
                "--epochs", "1", "--batch-size", "8", "--bptt", "20", "--config", str(cfg)]
        assert _exit_code(argv) in (0, 3)


class TestOutRoot:
    def test_env_var_default(self, ws, tmp_path, monkeypatch, capsys):
        root, _ = ws
        monkeypatch.setenv("OPSCAN_OUT", str(tmp_path / "envroot"))
        assert main(["prep", "--corpus", str(root / "syn" / "corpus.jsonl"),
                     "--seed", "1"]) == 0
        assert (tmp_path / "envroot" / "prep" / "split.json").exists()
