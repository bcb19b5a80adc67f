import importlib.util
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opscan import kernels as K

import ref_recurrence
from gradcheck import sigmoid
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
            hs, _ = K.lstm_seq_forward(*case, True)
            h_ref, h_last, _ = sequence_scalar(*case)
            assert np.array_equal(hs[0], case[4])
            np.testing.assert_allclose(hs[1:], h_ref, atol=1e-12)
            np.testing.assert_allclose(hs[-1], h_last, atol=1e-12)

    def test_zero_weights_give_zero_h(self):
        T, B, D, H = 4, 3, 5, 6
        x = np.random.default_rng(1).normal(size=(T, B, D))
        z = np.zeros
        hs, gates = K.lstm_seq_forward(
            x, z((D, 4 * H)), z((H, 4 * H)), z(4 * H), z((B, H)), z((B, H)), True
        )
        assert np.all(hs == 0.0)
        assert np.all(gates[:, 4] == 0.0)

    def test_float32_stays_float32(self):
        case64 = random_case(np.random.default_rng(3))
        case32 = [a.astype(np.float32) for a in case64]
        out32 = K.lstm_seq_forward(*case32, True)
        dh = np.ones_like(out32[0][1:])
        grads = K.lstm_seq_backward(dh, *case32[:3], *out32, (True,) * 4)
        assert all(a.dtype == np.float32 for a in (*out32, *grads))
        for a, b in zip(defined(*out32), defined(*K.lstm_seq_forward(*case64, True))):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_without_backward_keeps_only_the_last_step(self):
        case = random_case(np.random.default_rng(11), T=5, B=3, D=4, H=6)
        hs, gates = K.lstm_seq_forward(*case, True)
        h_only, g_last = K.lstm_seq_forward(*case, False)
        assert gates.shape == (6, 5, 3, 6) and g_last.shape == (1, 5, 3, 6)
        assert np.array_equal(h_only, hs)
        # the one row's c_prev slot ends holding the last cell
        assert np.array_equal(g_last[0, 4], gates[-1, 4])
        assert np.array_equal(g_last[0, :4], gates[-2, :4])

    def test_gate_ranges(self):
        rng = np.random.default_rng(4)
        case = random_case(rng, T=5, B=3, D=4, H=4)
        hs, gates = K.lstm_seq_forward(*case, True)
        sig_part = gates[:-1, :3]
        assert np.all(sig_part > 0) and np.all(sig_part < 1)
        assert np.all(np.abs(gates[:-1, 3]) < 1)
        assert np.all(np.abs(hs[1:]) < 1)  # |h| = |o * tanh(c)| < 1


class TestFusedGates:
    """The gates come from one tanh: sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5."""

    def test_sigmoid_close_to_float64_logistic(self):
        a = np.linspace(-40, 40, 200_001, dtype=np.float32)
        want = 1.0 / (1.0 + np.exp(-a.astype(np.float64)))
        got = sigmoid(a).data
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1.2e-7

    def test_sigmoid_saturates_exactly_without_warning(self):
        for dtype in (np.float32, np.float64):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                got = sigmoid(np.array([-1e4, 1e4], dtype=dtype)).data
            assert got.dtype == dtype and got.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 4])
    def test_g_columns_are_tanh_of_preactivation(self, dtype, B):
        T, D, H = 9, 5, 6
        x, wx, wh, b, h0, c0 = case = random_case(np.random.default_rng(13), T, B, D, H, dtype)
        hs, gates = K.lstm_seq_forward(*case, True)
        xp = (x.reshape(T * B, D) @ wx).reshape(T, B, 4 * H)
        xp += b
        g_cols = slice(2 * H, 3 * H)
        for t in range(T):
            a = xp[t] + np.dot(hs[t], wh)
            assert np.array_equal(gates[t, 3], np.tanh(a[:, g_cols]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 4])
    def test_gates_are_gate_major(self, dtype, B):
        """gates is C-contiguous (T + 1, 5, B, H); slot q < 4 of step t is
        gate q of a plain (B, 4H) step on the reordered weights, and slot 4
        the cell before the step: c0 in row 0, and in row t + 1 the cell
        f * c_prev + i * g that step t leads to, whose o * tanh is hs[t + 1]."""
        T, D, H = 7, 5, 6
        case = random_case(np.random.default_rng(14), T, B, D, H, dtype)
        hs, gates = K.lstm_seq_forward(*case, True)
        assert gates.shape == (T + 1, 5, B, H) and gates.flags.c_contiguous
        x, wx, wh, b, h0, c0 = case
        assert np.array_equal(gates[0, 4], c0)
        wx, wh, b = (K._fused_gate_copy(w) for w in (wx, wh, b))
        xp = (x.reshape(T * B, D) @ wx).reshape(T, B, 4 * H)
        xp += b
        for t in range(T):
            a = np.tanh(xp[t] + np.dot(hs[t], wh))
            a[:, : 3 * H] = a[:, : 3 * H] * dtype(0.5) + dtype(0.5)
            for q in range(4):
                assert np.array_equal(gates[t, q], a[:, q * H : (q + 1) * H])
            i, f, o, g, c_prev = gates[t]
            assert np.array_equal(gates[t + 1, 4], f * c_prev + i * g)
            assert np.array_equal(hs[t + 1], o * np.tanh(gates[t + 1, 4]))

    def test_fused_gate_copy_reorders_and_halves(self):
        H = 3
        w = np.random.default_rng(15).normal(size=(2, 4 * H))
        i, f, g, o = np.split(w, 4, axis=-1)
        got = K._fused_gate_copy(w)
        assert got.flags.c_contiguous and not np.shares_memory(got, w)
        assert np.array_equal(got, np.concatenate((i * 0.5, f * 0.5, o * 0.5, g), axis=-1))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        case = random_case(rng, T=3, B=2, D=3, H=4)
        weight = rng.normal(size=(3, 2, 4))

        def loss(*arrays):
            hs, _ = K.lstm_seq_forward(*arrays, True)
            return float((hs[1:] * weight).sum())

        hs, gates = K.lstm_seq_forward(*case, True)
        grads = K.lstm_seq_backward(
            weight.copy(), case[0], case[1], case[2], hs, gates, (True,) * 4,
        )
        eps = 1e-6
        for arg_idx, g_ad in zip([0, 1, 2], grads[:3]):
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
        fw = K.lstm_seq_forward(*case, True)
        dh = rng.normal(size=fw[0][1:].shape)
        full = K.lstm_seq_backward(dh, x, wx, wh, *fw, (True,) * 4)
        assert len(full) == 4
        for needs in [(False, True, True, True), (True, False, True, False),
                      (False, False, False, True)]:
            part = K.lstm_seq_backward(dh, x, wx, wh, *fw, needs)
            for need, a, b in zip(needs, part, full, strict=True):
                assert (a is None) if not need else np.array_equal(a, b)


def defined(hs, gates):
    """The forward's outputs without the slots it leaves unwritten: with
    every step's rows, the last row holds only the last cell."""
    if len(gates) == 1:
        return hs, gates
    return hs, gates[:-1], gates[-1, 4]


def run_kernels(case, dh, for_backward, needs):
    """Forward outputs, plus the backward's when for_backward is set."""
    x, wx, wh, b, h0, c0 = case
    fw = K.lstm_seq_forward(*case, for_backward)
    if not for_backward:
        return defined(*fw)
    return defined(*fw) + K.lstm_seq_backward(dh, x, wx, wh, *fw, needs)


class TestMatchesReferenceLoops:
    """The buffered time loops give bit-identical outputs to the plain
    per-step loops in ref_recurrence, whatever the shape, dtype, pruning or
    block length of either loop (set through the scratch budget)."""

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
    # several forward blocks: 20 of 2 steps at B = 1, 17 of 1-2 steps at B = 3
    @example(T=40, B=1, D=6, H=9, dtype=np.float64, for_backward=True,
             needs=(True, True, True, True), budget=1, scale=1.0, seed=3)
    @example(T=33, B=3, D=6, H=5, dtype=np.float32, for_backward=False,
             needs=(True, True, True, True), budget=700, scale=1.0, seed=4)
    def test_bit_identical(self, T, B, D, H, dtype, for_backward, needs, budget, scale, seed):
        rng = np.random.default_rng(seed)
        case = [a * dtype(scale) for a in random_case(rng, T, B, D, H, dtype)]
        dh = rng.normal(size=(T, B, H)).astype(dtype)
        with mock.patch.object(K, "_SCRATCH_BYTES", budget):
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
            got = sigmoid(a).data
            assert got.dtype == dtype and np.array_equal(got, ref_recurrence.sigmoid(a))


class TestBenchKernels:
    """benchmarks/bench_kernels.py, which the benchmark harness's kernel
    microbenchmark runs, stays on the kernels' signatures."""

    @pytest.mark.parametrize("T, B", [(3, 1), (5, 2)])
    def test_times_both_kernels(self, T, B):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
        spec = importlib.util.spec_from_file_location("bench_kernels", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        inp = bench.make_inputs(T, B, 3, 4, np.float32)
        times = bench.time_backend(K.active_backend(), inp, 1)
        assert len(times) == 2 and all(math.isfinite(t) and t > 0 for t in times)
