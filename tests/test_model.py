from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan import autodiff as ad
from opscan import kernels as K
from opscan import model as M
from opscan.autodiff import backward
from opscan.optim import Adam

from gradcheck import grad_check, sum_all
from helpers import encoder, head_parameters, kernel_step
from oracle_lstm import cell_scalar

NO_DROP = M.Dropouts(emb=0.0, input=0.0, hidden=0.0, weight=0.0, head=0.0)
ALL_DROP = M.Dropouts(emb=0.2, input=0.25, hidden=0.25, weight=0.5, head=0.1)


def tiny_encoder(vocab=9, emb=6, hidden=8, layers=2, dropouts=NO_DROP, dtype="f64", seed=0):
    return encoder(vocab, emb_size=emb, hidden_size=hidden, n_layers=layers,
                   dropouts=dropouts, dtype=dtype, seed=seed)


def record_masks(monkeypatch) -> list:
    """Record (shape, p, mask) of every keep mask the model draws."""
    drawn = []
    draw = M.keep_mask

    def recording(rng, shape, p, dtype):
        mask = draw(rng, shape, p, dtype)
        drawn.append((tuple(shape), p, mask))
        return mask

    monkeypatch.setattr(M, "keep_mask", recording)
    return drawn


class TestCellStep:
    """One step of the LSTM kernel (kernels.lstm_seq_forward at T = 1), with
    and without for_backward."""

    def test_matches_scalar_oracle_100_instances(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            B, D, H = (int(rng.integers(1, 5)) for _ in range(3))
            H = max(H, 1)
            x = rng.normal(size=(B, D))
            h = rng.normal(size=(B, H))
            c = rng.normal(size=(B, H))
            wx = rng.normal(size=(D, 4 * H))
            wh = rng.normal(size=(H, 4 * H))
            b = rng.normal(size=4 * H)
            h_ref, c_ref = cell_scalar(x, h, c, wx, wh, b)
            for for_backward in (True, False):
                h_new, c_new = kernel_step(x, h, c, wx, wh, b, for_backward)
                np.testing.assert_allclose(h_new, h_ref, atol=1e-12)
                np.testing.assert_allclose(c_new, c_ref, atol=1e-12)

    def test_zero_everything_gives_zero_h(self):
        z = np.zeros
        for for_backward in (True, False):
            h, c = kernel_step(z((2, 3)), z((2, 4)), z((2, 4)), z((3, 16)), z((4, 16)), z(16),
                               for_backward)
            assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_zero_weights_nonzero_cell(self):
        # gates all 0.5, g = 0: c' = 0.5 * 2 = 1, h' = 0.5 * tanh(1)
        z = np.zeros
        c = np.full((1, 1), 2.0)
        for for_backward in (True, False):
            h_new, c_new = kernel_step(z((1, 1)), z((1, 1)), c, z((1, 4)), z((1, 4)), z(4),
                                       for_backward)
            assert c_new[0, 0] == pytest.approx(1.0, abs=1e-15)
            assert h_new[0, 0] == pytest.approx(0.5 * np.tanh(1.0), abs=1e-15)


class TestLstmSequence:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_carried_state_is_a_copy_of_the_last_step(self, monkeypatch, frozen):
        """(h_last, c_last) equal hs[-1] and the last cell, gates[-1, 4], share
        no memory with the kernel's buffers, and stay so through a backward;
        with frozen weights the kernel keeps only the last step's row."""
        real, made = K.lstm_seq_forward, []
        monkeypatch.setattr(K, "lstm_seq_forward", lambda *a: made.append(real(*a)) or made[-1])
        rng = np.random.default_rng(21)
        T, B, D, H = 5, 2, 3, 4
        x = ad.Tensor(rng.normal(size=(T, B, D)))
        wx, wh, b = (ad.Parameter(rng.normal(size=shape) / 2, name) for name, shape in
                     (("wx", (D, 4 * H)), ("wh", (H, 4 * H)), ("b", (4 * H,))))
        for p in (wx, wh, b):
            p.frozen = frozen
        h0, c0 = rng.normal(size=(2, B, H))
        out, (h_last, c_last) = M.lstm_sequence(x, wx, wh, b, h0, c0)
        (hs, gates), = made
        assert len(gates) == (1 if frozen else T + 1)
        assert np.array_equal(out.data, hs[1:])
        for a in (h_last, c_last):
            assert not np.shares_memory(a, hs) and not np.shares_memory(a, gates)
        last = hs[-1].copy(), gates[-1, 4].copy()
        if not frozen:
            backward(sum_all(out))
            assert all(p.grad is not None for p in (wx, wh, b))
        assert np.array_equal(h_last, last[0]) and np.array_equal(c_last, last[1])
        assert np.array_equal(h_last, hs[-1]) and np.array_equal(c_last, gates[-1, 4])


class TestMasks:
    def test_keep_mask_rate(self):
        rng = np.random.default_rng(0)
        m = M.keep_mask(rng, 10_000, 0.5, np.float64)
        assert abs(m.mean() - 0.5) < 0.05
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_keep_mask_p0_identity(self):
        rng = np.random.default_rng(0)
        assert np.all(M.keep_mask(rng, 100, 0.0, np.float64) == 1.0)

    def test_dropout_expectation(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(np.full(64, 3.0))
        acc = np.zeros(64)
        n = 10_000
        for _ in range(n):
            acc += ad.apply_mask(x, M.keep_mask(rng, 64, 0.3, np.float64), 1.0 / 0.7).data
        np.testing.assert_allclose(acc / n, x.data, rtol=0.02)

    def test_masks_drawn_in_order_of_application(self, monkeypatch):
        """One training forward draws each site's mask, with its shape, in the
        order the sites apply them, one after another from the rng."""
        keep_mask = M.keep_mask
        drawn = record_masks(monkeypatch)
        enc = tiny_encoder(dropouts=ALL_DROP)
        d, B = ALL_DROP, 4
        ids = np.random.default_rng(0).integers(0, 9, (5, B))
        encoder_sites = [
            ((9, 1), d.emb),  # embedding rows
            ((1, B, 6), d.input),
            (enc.layers[0].wh.shape, d.weight),
            ((1, B, 8), d.hidden),  # between layers 0 and 1
            (enc.layers[1].wh.shape, d.weight),
        ]
        M.LanguageModel(enc, vocab_hash=None, seed=1).forward(ids, rng=np.random.default_rng(3))
        lm_sites = encoder_sites + [((1, B, 6), d.hidden)]  # LM output
        M.Classifier(enc, n_classes=4, head_hidden=7, vocab_hash=None, seed=2).forward(
            ids, np.full(B, 5), rng=np.random.default_rng(3))
        clf_sites = encoder_sites + [((B, 7), d.head)]
        assert [(shape, p) for shape, p, _ in drawn] == lm_sites + clf_sites
        for sites, masks in ((lm_sites, drawn[: len(lm_sites)]),
                             (clf_sites, drawn[len(lm_sites) :])):
            replay = np.random.default_rng(3)
            for (shape, p), (_, _, mask) in zip(sites, masks):
                np.testing.assert_array_equal(mask, keep_mask(replay, shape, p, np.float64))

    def test_no_drop_draws_no_masks(self, monkeypatch):
        drawn = record_masks(monkeypatch)
        enc = tiny_encoder(dropouts=NO_DROP)
        ids = np.zeros((3, 4), dtype=np.int64)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        M.LanguageModel(enc, vocab_hash=None, seed=1).forward(ids, rng=rng)
        M.Classifier(enc, n_classes=4, head_hidden=50, vocab_hash=None, seed=2).forward(
            ids, np.full(4, 3), rng=rng)
        assert drawn == [] and rng.bit_generator.state == before

    def test_weight_drop_rate(self, monkeypatch):
        drawn = record_masks(monkeypatch)
        enc = tiny_encoder(dropouts=M.Dropouts(0, 0, 0, 0.5, 0))
        rng = np.random.default_rng(7)
        for _ in range(50):
            enc.forward(np.zeros((1, 1), dtype=np.int64), rng=rng)
        rates = [mask.mean() for shape, _, mask in drawn if shape == enc.layers[0].wh.shape]
        assert len(rates) == 50
        assert abs(1.0 - np.mean(rates) - 0.5) < 0.05

    def test_dropped_embedding_row_zero_everywhere(self):
        enc = tiny_encoder(dropouts=M.Dropouts(emb=0.5, input=0, hidden=0, weight=0, head=0))
        # the embedding-row mask is the first draw of a forward pass
        rows = M.keep_mask(np.random.default_rng(11), (9, 1), 0.5, np.float64)
        dropped = np.where(rows[:, 0] == 0.0)[0]
        assert dropped.size  # p=0.5 over 9 rows: seed chosen so some drop
        token = int(dropped[0])
        ids = np.full((5, 2), token)
        x = enc.embed(ids, np.random.default_rng(11))
        assert np.all(x.data == 0.0)
        # a surviving row is scaled by 1/(1-p)
        kept = int(np.where(rows[:, 0] == 1.0)[0][0])
        x2 = enc.embed(np.full((1, 1), kept), np.random.default_rng(11))
        np.testing.assert_allclose(x2.data[0, 0], enc.emb.data[kept] * 2.0, rtol=1e-12)

    def test_variational_mask_constant_over_time(self):
        enc = tiny_encoder(dropouts=M.Dropouts(0, 0.4, 0, 0, 0))
        ids = np.zeros((6, 3), dtype=np.int64)
        x = enc.embed(ids, np.random.default_rng(5))
        # every timestep of a sequence sees the same dropped coordinates
        zeros_t0 = x.data[0] == 0.0
        assert zeros_t0.any() and not zeros_t0.all()
        for t in range(1, 6):
            np.testing.assert_array_equal(x.data[t] == 0.0, zeros_t0)


class TestEncoder:
    def test_output_shapes_and_state(self):
        enc = tiny_encoder()
        ids = np.random.default_rng(0).integers(0, 9, (7, 3))
        out, state = enc.forward(ids)
        assert out.shape == (7, 3, 6)  # last layer ties to emb size
        assert len(state) == 2
        assert state[0][0].shape == (3, 8) and state[1][0].shape == (3, 6)

    def test_untied_last_width(self):
        enc = encoder(9, emb_size=6, hidden_size=8, n_layers=2, tie_last=False,
                      dropouts=NO_DROP, dtype="f64")
        out, _ = enc.forward(np.zeros((2, 1), dtype=np.int64))
        assert out.shape == (2, 1, 8)

    def test_eval_deterministic_bitwise(self):
        enc = tiny_encoder()
        ids = np.random.default_rng(1).integers(0, 9, (5, 2))
        a, _ = enc.forward(ids)
        b, _ = enc.forward(ids)
        assert np.array_equal(a.data, b.data)

    def test_state_carry_equals_single_pass(self):
        enc = tiny_encoder()
        ids = np.random.default_rng(2).integers(0, 9, (8, 2))
        full, _ = enc.forward(ids)
        first, state = enc.forward(ids[:4])
        second, _ = enc.forward(ids[4:], state=state)
        np.testing.assert_allclose(second.data, full.data[4:], atol=1e-12)

    def test_forget_bias_starts_at_one(self):
        enc = tiny_encoder()
        H = enc.layers[0].hidden
        np.testing.assert_array_equal(enc.layers[0].b.data[H : 2 * H], 1.0)
        np.testing.assert_array_equal(enc.layers[0].b.data[:H], 0.0)

    def test_param_names_and_groups(self):
        enc = tiny_encoder()
        names = [p.name for p in enc.parameters()]
        assert names == ["emb", "lstm0.wx", "lstm0.wh", "lstm0.b",
                         "lstm1.wx", "lstm1.wh", "lstm1.b"]
        assert [p.layer_group for p in enc.parameters()] == [0, 1, 1, 1, 2, 2, 2]

    def test_bad_ids_shape(self):
        with pytest.raises(ValueError):
            tiny_encoder().forward(np.zeros(3, dtype=np.int64))


class TestLanguageModel:
    def test_initial_loss_near_log_vocab(self):
        vocab = 30
        enc = encoder(vocab, emb_size=16, hidden_size=16, n_layers=2,
                      dropouts=NO_DROP, dtype="f64")
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, vocab, (10, 4))
        targets = rng.integers(1, vocab, (10, 4))
        loss, _ = lm.loss(ids, targets)
        assert abs(loss.item() - np.log(vocab)) / np.log(vocab) < 0.15

    def test_tied_decoder_is_embedding_storage(self):
        enc = tiny_encoder()
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        assert lm.dec_w is None
        ids = np.zeros((3, 1), dtype=np.int64)
        before, _ = lm.forward(ids)
        enc.emb.data[:, :] += 0.1  # mutating the embedding moves the decoder
        after, _ = lm.forward(ids)
        assert not np.allclose(before.data, after.data)

    def test_untied_has_own_projection(self):
        enc = encoder(9, emb_size=6, hidden_size=8, n_layers=1, tie_last=False,
                      dropouts=NO_DROP, dtype="f64")
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        assert lm.dec_w is not None and lm.dec_w.shape == (8, 9)

    def test_overfits_tiny_repeating_stream(self):
        vocab = 4
        enc = encoder(vocab, emb_size=12, hidden_size=12, n_layers=1,
                      dropouts=NO_DROP, dtype="f64", seed=1)
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        stream = np.tile([2, 3], 25)  # strict alternation
        ids = stream[:-1].reshape(1, -1).T.reshape(-1, 1)[:10].reshape(10, 1)
        targets = stream[1:11].reshape(10, 1)
        opt = Adam(lm.parameters(), weight_decay=0.0)
        loss_val = None
        for _ in range(200):
            opt.zero_grad()
            loss, _ = lm.loss(ids, targets)
            backward(loss)
            opt.step(0.01)
            loss_val = loss.item()
        assert loss_val < 0.1


class TestClassifier:
    def make(self, dtype="f64", dropouts=NO_DROP):
        enc = tiny_encoder(dropouts=dropouts, dtype=dtype)
        return M.Classifier(enc, n_classes=4, head_hidden=10, vocab_hash=None, seed=2)

    def test_logits_shape_and_proba(self):
        clf = self.make()
        ids = np.random.default_rng(0).integers(0, 9, (6, 3))
        lengths = np.array([6, 4, 2])
        logits = clf.forward(ids, lengths)
        assert logits.shape == (3, 4)
        proba = clf.predict_proba(ids, lengths)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0)

    def test_untrained_loss_near_log4(self):
        clf = self.make()
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 9, (8, 6))
        lengths = np.full(6, 8)
        labels = rng.integers(0, 4, 6)
        loss = clf.loss(ids, lengths, labels)
        assert abs(loss.item() - np.log(4.0)) / np.log(4.0) < 0.15

    def test_padding_invariance(self):
        clf = self.make()
        rng = np.random.default_rng(2)
        ids = rng.integers(1, 9, (5, 2))
        lengths = np.array([5, 3])
        base = clf.forward(ids, lengths).data
        padded = np.vstack([ids, np.zeros((5, 2), dtype=ids.dtype)])
        again = clf.forward(padded, lengths).data
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_eval_bitwise_deterministic(self):
        clf = self.make()
        ids = np.random.default_rng(3).integers(0, 9, (7, 4))
        lengths = np.array([7, 7, 5, 1])
        a = clf.forward(ids, lengths).data
        b = clf.forward(ids, lengths).data
        assert np.array_equal(a, b)

    def test_frozen_encoder_gets_no_grads(self):
        clf = self.make()
        for p in clf.encoder.parameters():
            p.frozen = True
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 9, (5, 3))
        loss = clf.loss(ids, np.full(3, 5), rng.integers(0, 4, 3), rng=rng)
        backward(loss)
        assert all(p.grad is None for p in clf.encoder.parameters())
        assert all(p.grad is not None for p in head_parameters(clf))


class TestWindowedForward:
    """With no parameter requiring a gradient, Classifier.forward runs the
    encoder in windows of model._WINDOW_POSITIONS positions and pools them
    as they come; it must score as the taped forward over the whole batch."""

    CLF = M.Classifier(tiny_encoder(vocab=9, dtype="f32", seed=3), n_classes=4,
                       head_hidden=10, vocab_hash=None, seed=2)

    def frozen_forward(self, ids, lengths):
        params = self.CLF.parameters()
        for p in params:
            p.frozen = True
        try:
            return self.CLF.forward(ids, lengths).data
        finally:
            for p in params:
                p.frozen = False

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), B=st.integers(1, 5), T=st.integers(1, 30),
           budget=st.integers(1, 40))
    def test_matches_the_taped_forward(self, data, B, T, budget):
        steps = max(1, budget // B)
        # lengths of 1, of T, on a window edge, or anywhere; every id after a
        # length is a real token, not PAD
        edges = list(range(steps, T + 1, steps))
        lengths = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([1, T] + edges), st.integers(1, T)),
            min_size=B, max_size=B)))
        ids = np.random.default_rng(T * 41 + B).integers(1, 9, (T, B))
        taped = self.CLF.forward(ids, lengths).data
        with mock.patch.object(M, "_WINDOW_POSITIONS", budget), \
                mock.patch.object(K, "lstm_seq_forward", wraps=K.lstm_seq_forward) as fw:
            windowed = self.frozen_forward(ids, lengths)
        assert fw.call_count == -(-T // steps) * self.CLF.encoder.n_layers
        if steps >= T:
            np.testing.assert_array_equal(windowed, taped)
        else:
            np.testing.assert_allclose(windowed, taped, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("bad", [0, 6])
    def test_length_out_of_range_raises_on_both_paths(self, bad):
        ids = np.ones((5, 2), dtype=np.int64)
        lengths = np.array([3, bad])
        with pytest.raises(ad.GradError, match="length out of range"):
            self.CLF.forward(ids, lengths)
        with mock.patch.object(M, "_WINDOW_POSITIONS", 4), \
                pytest.raises(ad.GradError, match="length out of range"):
            self.frozen_forward(ids, lengths)


class TestTransfer:
    def make_lm(self, seed=0):
        enc = tiny_encoder(seed=seed)
        return M.LanguageModel(enc, vocab_hash="aaa111", seed=1)

    def transfer(self, lm):
        return M.Classifier(M.transfer_encoder(lm, lm.encoder.dropouts), n_classes=4,
                            head_hidden=50, vocab_hash=lm.vocab_hash, seed=2)

    def test_copies_values_head_fresh_encoder_frozen(self):
        lm = self.make_lm()
        clf = self.transfer(lm)
        for a, b in zip(clf.encoder.parameters(), lm.encoder.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
            assert a is not b
            assert a.frozen
        assert not any(p.frozen for p in head_parameters(clf))
        assert clf.vocab_hash == "aaa111"

    def test_copy_is_independent(self):
        lm = self.make_lm()
        clf = self.transfer(lm)
        lm.encoder.emb.data += 1.0
        assert not np.allclose(clf.encoder.emb.data, lm.encoder.emb.data)

    def test_forward_smoke(self):
        lm = self.make_lm()
        clf = self.transfer(lm)
        proba = clf.predict_proba(np.zeros((4, 2), dtype=np.int64), np.array([4, 2]))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)


def redraw(params, rng, scale=0.7):
    # default init leaves some true gradients at the FD noise floor
    # (~|loss|*1e-16/eps); check at a point where every coordinate matters
    for p in params:
        p.data[:] = rng.normal(scale=scale, size=p.shape)


class TestGradChecks:
    """Composite checks at float64: every dropout site active, masks fixed."""

    TOL = 1e-4

    def test_two_step_lstm_all_dropouts(self):
        enc = tiny_encoder(vocab=7, emb=5, hidden=6, layers=2, dropouts=ALL_DROP)
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        redraw(lm.parameters(), np.random.default_rng(42))
        ids = np.random.default_rng(8).integers(0, 7, (2, 3))
        targets = np.random.default_rng(9).integers(1, 7, (2, 3))

        def loss_fn():
            # fresh generator per call: identical masks on every evaluation
            loss, _ = lm.loss(ids, targets, rng=np.random.default_rng(123))
            return loss

        err = grad_check(loss_fn, lm.parameters(), eps=1e-5, max_coords=6)
        assert err <= self.TOL

    def test_full_classifier_head(self):
        enc = tiny_encoder(vocab=7, emb=5, hidden=6, layers=2, dropouts=ALL_DROP)
        clf = M.Classifier(enc, n_classes=4, head_hidden=8, vocab_hash=None, seed=2)
        redraw(clf.parameters(), np.random.default_rng(43))
        rng = np.random.default_rng(10)
        ids = rng.integers(1, 7, (6, 3))
        lengths = np.array([6, 4, 3])
        labels = np.array([0, 2, 3])

        def loss_fn():
            return clf.loss(ids, lengths, labels, rng=np.random.default_rng(77))

        err = grad_check(loss_fn, clf.parameters(), eps=1e-5, max_coords=6)
        assert err <= self.TOL
