from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opscan import kernels as K

import ref_recurrence
from oracle_lstm import sequence_scalar


def random_case(rng, T=3, B=2, D=3, H=4, dtype=np.float64):
    x = rng.normal(size=(T, B, D)).astype(dtype)
    wx = (rng.normal(size=(D, 4 * H)) / np.sqrt(D)).astype(dtype)
    wh = (rng.normal(size=(H, 4 * H)) / np.sqrt(H)).astype(dtype)
    b = rng.normal(size=4 * H).astype(dtype)
    h0 = rng.normal(size=(B, H)).astype(dtype)
    c0 = rng.normal(size=(B, H)).astype(dtype)
    return x, wx, wh, b, h0, c0


class TestForward:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            case = random_case(rng)
            h_seq, _, _ = K.lstm_seq_forward(*case)
            h_ref, h_last, _ = sequence_scalar(*case)
            np.testing.assert_allclose(h_seq, h_ref, atol=1e-12)
            np.testing.assert_allclose(h_seq[-1], h_last, atol=1e-12)

    def test_zero_weights_give_zero_h(self):
        T, B, D, H = 4, 3, 5, 6
        x = np.random.default_rng(1).normal(size=(T, B, D))
        z = np.zeros
        h_seq, c_seq, _ = K.lstm_seq_forward(
            x, z((D, 4 * H)), z((H, 4 * H)), z(4 * H), z((B, H)), z((B, H))
        )
        assert np.all(h_seq == 0.0)
        assert np.all(c_seq == 0.0)

    def test_float32_stays_float32(self):
        case64 = random_case(np.random.default_rng(3))
        case32 = [a.astype(np.float32) for a in case64]
        out32 = K.lstm_seq_forward(*case32)
        dh = np.ones_like(out32[0])
        grads = K.lstm_seq_backward(dh, *case32[:3], *case32[4:], *out32)
        assert all(a.dtype == np.float32 for a in (*out32, *grads))
        for a, b in zip(out32, K.lstm_seq_forward(*case64)):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_without_backward_keeps_only_the_last_step(self):
        case = random_case(np.random.default_rng(11), T=5, B=3, D=4, H=6)
        h_seq, c_seq, gates = K.lstm_seq_forward(*case)
        h_only, c_last, g_last = K.lstm_seq_forward(*case, for_backward=False)
        assert c_last.shape == (1, 3, 6) and g_last.shape == (1, 3, 24)
        assert np.array_equal(h_only, h_seq)
        assert np.array_equal(c_last[0], c_seq[-1]) and np.array_equal(g_last[0], gates[-1])

    def test_gate_ranges(self):
        rng = np.random.default_rng(4)
        case = random_case(rng, T=5, B=3, D=4, H=4)
        h_seq, c_seq, gates = K.lstm_seq_forward(*case)
        H = 4
        sig_part = np.concatenate([gates[:, :, : 2 * H], gates[:, :, 3 * H :]], axis=2)
        assert np.all(sig_part > 0) and np.all(sig_part < 1)
        assert np.all(np.abs(gates[:, :, 2 * H : 3 * H]) < 1)
        assert np.all(np.abs(h_seq) < 1)  # |h| = |o * tanh(c)| < 1

    def test_shape_errors(self):
        rng = np.random.default_rng(5)
        x, wx, wh, b, h0, c0 = random_case(rng)
        with pytest.raises(ValueError):
            K.lstm_seq_forward(x, wx[:, :-1], wh, b, h0, c0)
        with pytest.raises(ValueError):
            K.lstm_seq_forward(x, wx, wh, b, h0[:1], c0)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        case = random_case(rng, T=3, B=2, D=3, H=4)
        weight = rng.normal(size=(3, 2, 4))

        def loss(*arrays):
            h_seq, _, _ = K.lstm_seq_forward(*arrays)
            return float((h_seq * weight).sum())

        h_seq, c_seq, gates = K.lstm_seq_forward(*case)
        grads = K.lstm_seq_backward(
            weight.copy(), case[0], case[1], case[2], case[4], case[5],
            h_seq, c_seq, gates,
        )
        eps = 1e-6
        for arg_idx, g_ad in zip([0, 1, 2, 4, 5], [grads[i] for i in [0, 1, 2, 4, 5]]):
            arr = case[arg_idx]
            flat = arr.reshape(-1)
            g_flat = g_ad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                f_plus = loss(*case)
                flat[k] = orig - eps
                f_minus = loss(*case)
                flat[k] = orig
                g_fd = (f_plus - f_minus) / (2 * eps)
                rel = abs(g_flat[k] - g_fd) / max(abs(g_flat[k]), abs(g_fd), 1e-12)
                assert rel < 1e-6, (arg_idx, k, rel)
        # bias gradient, separately (arg index 3)
        flat = case[3]
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = loss(*case)
            flat[k] = orig - eps
            f_minus = loss(*case)
            flat[k] = orig
            g_fd = (f_plus - f_minus) / (2 * eps)
            rel = abs(grads[3][k] - g_fd) / max(abs(grads[3][k]), abs(g_fd), 1e-12)
            assert rel < 1e-6, ("bias", k, rel)

    def test_skipped_gradients_leave_the_rest_unchanged(self):
        rng = np.random.default_rng(9)
        case = random_case(rng, T=4, B=2, D=3, H=5)
        x, wx, wh, b, h0, c0 = case
        fw = K.lstm_seq_forward(*case)
        dh = rng.normal(size=fw[0].shape)
        full = K.lstm_seq_backward(dh, x, wx, wh, h0, c0, *fw)
        for needs in [(False, True, True, True), (True, False, True, False),
                      (False, False, False, True)]:
            part = K.lstm_seq_backward(dh, x, wx, wh, h0, c0, *fw, needs=needs)
            for need, a, b in zip(needs + (True, True), part, full):
                assert (a is None) if not need else np.array_equal(a, b)

    def test_initial_state_grads_flow(self):
        rng = np.random.default_rng(8)
        case = random_case(rng, T=2, B=1, D=2, H=3)
        h_seq, c_seq, gates = K.lstm_seq_forward(*case)
        dh = np.ones_like(h_seq)
        *_, dh0, dc0 = K.lstm_seq_backward(
            dh, case[0], case[1], case[2], case[4], case[5], h_seq, c_seq, gates
        )
        assert np.any(dh0 != 0) and np.any(dc0 != 0)



def run_kernels(case, dh, for_backward, needs):
    """Forward outputs, plus the backward's when for_backward is set."""
    x, wx, wh, b, h0, c0 = case
    fw = K.lstm_seq_forward(*case, for_backward=for_backward)
    if not for_backward:
        return fw
    return fw + K.lstm_seq_backward(dh, x, wx, wh, h0, c0, *fw, needs=needs)


class TestMatchesReferenceLoops:
    """The buffered time loops give bit-identical outputs to the plain
    per-step loops in ref_recurrence, whatever the shape, dtype, pruning or
    backward block length (set through the scratch budget)."""

    @settings(max_examples=80, deadline=None)
    @given(T=st.integers(1, 40), B=st.integers(1, 5), D=st.integers(1, 6), H=st.integers(1, 9),
           dtype=st.sampled_from([np.float32, np.float64]), for_backward=st.booleans(),
           needs=st.tuples(*[st.booleans()] * 4), budget=st.integers(1, 20_000),
           scale=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
    @example(T=1, B=1, D=1, H=1, dtype=np.float32, for_backward=True,
             needs=(True, True, True, True), budget=1, scale=1.0, seed=0)
    @example(T=7, B=1, D=3, H=4, dtype=np.float64, for_backward=True,
             needs=(True, False, True, False), budget=10**9, scale=1.0, seed=1)
    @example(T=37, B=3, D=2, H=5, dtype=np.float32, for_backward=True,
             needs=(False, False, False, True), budget=5_000, scale=10.0, seed=2)
    def test_bit_identical(self, T, B, D, H, dtype, for_backward, needs, budget, scale, seed):
        rng = np.random.default_rng(seed)
        case = [a * dtype(scale) for a in random_case(rng, T, B, D, H, dtype)]
        dh = rng.normal(size=(T, B, H)).astype(dtype)
        with mock.patch.object(K, "_BW_SCRATCH_BYTES", budget):
            got = run_kernels(case, dh, for_backward, needs)
        with mock.patch.object(K, "_fw_recurrence", ref_recurrence.fw_recurrence), \
                mock.patch.object(K, "_bw_recurrence", ref_recurrence.bw_recurrence):
            want = run_kernels(case, dh, for_backward, needs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))

    def test_sigmoid_matches_reference(self):
        rng = np.random.default_rng(12)
        for dtype in (np.float32, np.float64):
            a = (rng.normal(size=(5, 37)) * 40).astype(dtype)
            got = K.sigmoid(a)
            assert got.dtype == dtype and np.array_equal(got, ref_recurrence.sigmoid(a))
