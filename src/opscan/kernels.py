"""Fused LSTM sequence kernels: the training hot loop.

The time recurrence is the only part of the model that cannot be expressed
as a few large matmuls, so it lives here as a plain numpy time loop.
Everything around it (input projections, weight-gradient matmuls) is
batched BLAS in the public wrappers.

Packed layout: the four gates are concatenated along the last weight axis
in the order [input, forget, cell, output], so wx is (D, 4H), wh is
(H, 4H), b is (4H,). States are (B, H); sequences are time-major (T, B, *).

Contract of the two time loops:
  - outputs are bit-identical to the plain per-step loops kept in
    tests/ref_recurrence.py: every product and sum keeps its operands and
    their order, e.g. ((dc * g) * i) * (1 - i);
  - no timestep allocates: every ufunc and the recurrent dot write into
    buffers made once per call, and constants are 0-d arrays of the data's
    dtype;
  - the backward computes its per-step factors a block of steps at a time,
    in scratch bounded by _BW_SCRATCH_BYTES, never in full (T, B, 4H) copies.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


# Bytes of per-block scratch in the backward loop: enough steps per block
# to amortise the block's own calls (17 at B=16, H=64 in float32), few
# enough that the block and the recurrent matrix stay in cache (4 steps at
# H=256). A full-length copy ran slower at H=256.
_BW_SCRATCH_BYTES = 1 << 20


def _constants(dtype) -> tuple[np.ndarray, np.ndarray]:
    """0-d zero and one of ``dtype``: ufuncs take them without converting a
    Python float on every call."""
    return np.zeros((), dtype), np.ones((), dtype)


def _sigmoid(a, out, work, zero, one):
    """exp(min(a,0)) / (1 + exp(-|a|)) into ``out``; ``work`` is (2, *a.shape)
    scratch that holds numerator and denominator, so one exp call covers both."""
    num, den = work
    np.minimum(a, zero, out=num)
    np.abs(a, den)
    np.negative(den, den)
    np.exp(work, work)
    np.add(one, den, den)
    return np.divide(num, den, out)


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function as exp(min(a,0)) / (1 + exp(-|a|)): no large exponents."""
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    return _sigmoid(a, np.empty_like(a), np.empty((2,) + a.shape, a.dtype), *_constants(a.dtype))


def _fw_recurrence(xp, wh, h0, c0, h_seq, c_seq, gates):
    """Forward time loop. xp already holds x @ wx + b, shape (T, B, 4H).

    Fills h_seq (T, B, H). c_seq (T or 1, B, H) and the post-activation
    gates (T or 1, B, 4H) receive every step, or, with one row, the latest.
    """
    T, B, H4 = xp.shape
    H = H4 // 4
    dt = xp.dtype
    zero, one = _constants(dt)
    a = np.empty((B, H4), dtype=dt)
    work = np.empty((2, B, H4), dtype=dt)
    tmp = np.empty((B, H), dtype=dt)
    a_g = a[:, 2 * H : 3 * H]
    # At small B the loop is bound by call overhead, so every view it reads
    # is made here, ufuncs are bound to locals and outputs passed by position.
    rows = [(gates[k], c_seq[k]) + tuple(gates[k, :, q * H : (q + 1) * H] for q in range(4))
            for k in range(len(c_seq))]
    dot, add, mul, tanh = np.dot, np.add, np.multiply, np.tanh
    h_prev, c_prev = h0, c0
    for t, (x_t, h_t) in enumerate(zip(xp, h_seq)):
        gate, c, i, f, g, o = rows[t % len(rows)]
        dot(h_prev, wh, a)
        add(x_t, a, a)
        _sigmoid(a, gate, work, zero, one)
        tanh(a_g, g)
        mul(i, g, tmp)
        mul(f, c_prev, c)
        add(c, tmp, c)
        tanh(c, tmp)
        h_prev = mul(o, tmp, h_t)
        c_prev = c


def _bw_recurrence(dh_seq, wh_t, gates, c_seq, c0, da_all, dh0, dc0):
    """Reverse time loop: gate pre-activation grads into da_all (T, B, 4H).

    wh_t is the transposed recurrent matrix (4H, H), C-contiguous. dh0/dc0
    receive the gradients flowing into the initial state.

    What a step reads but does not carry (the gates, tanh(c), 1 - tanh(c)^2,
    1 - gate, 1 - g^2, c_prev) is laid out gate-major, (4 or 2, B, H), for a
    block of steps at a time, so that each step works on contiguous pairs of
    gates: [i, f] as ((dc * [g, c_prev]) * [i, f]) * [1-i, 1-f] and [g, o] as
    ([dc, do] * [i, o]) * [1-g^2, 1-o], the same products in the same order
    as one gate at a time. Blocks hold at most _BW_SCRATCH_BYTES.
    """
    T, B, H = dh_seq.shape
    dt = dh_seq.dtype
    zero, one = _constants(dt)
    # The six block arrays below hold 15 (B, H) rows per step.
    n_blk = max(1, min(T, _BW_SCRATCH_BYTES // (15 * B * H * dt.itemsize)))
    gm_blk = np.empty((n_blk, 4, B, H), dtype=dt)   # [i, f, g, o]
    om_blk = np.empty((n_blk, 4, B, H), dtype=dt)   # [1-i, 1-f, 1-g^2, 1-o]
    gc_blk = np.empty((n_blk, 2, B, H), dtype=dt)   # [g, c_prev]
    io_blk = np.empty((n_blk, 2, B, H), dtype=dt)   # [i, o]
    to_blk = np.empty((n_blk, 2, B, H), dtype=dt)   # [tanh(c), o]
    dtc_blk = np.empty((n_blk, B, H), dtype=dt)     # 1 - tanh(c)^2
    # Carried: w[0] is dc, w[1] do, w[2] dh * o * (1 - tanh(c)^2).
    w = np.zeros((3, B, H), dtype=dt)
    dc = w[0]
    da_gm = np.empty((4, B, H), dtype=dt)           # one step's da, gate-major
    da_gm_t = da_gm.transpose(1, 0, 2)
    dh = np.empty((B, H), dtype=dt)
    dh0[...] = zero
    g4 = gates.reshape(T, B, 4, H)
    da4 = da_all.reshape(T, B, 4, H)
    dot, add, mul = np.dot, np.add, np.multiply
    for end in range(T, 0, -n_blk):
        start = max(0, end - n_blk)
        n = end - start
        gm, om, gc, io, to, dtc = (a[:n] for a in (gm_blk, om_blk, gc_blk, io_blk, to_blk, dtc_blk))
        np.copyto(gm, g4[start:end].transpose(0, 2, 1, 3))
        np.subtract(one, gm, om)
        mul(gm[:, 2], gm[:, 2], om[:, 2])
        np.subtract(one, om[:, 2], om[:, 2])
        np.tanh(c_seq[start:end], to[:, 0])
        np.copyto(to[:, 1], gm[:, 3])
        mul(to[:, 0], to[:, 0], dtc)
        np.subtract(one, dtc, dtc)
        np.copyto(gc[:, 0], gm[:, 2])
        if start > 0:
            np.copyto(gc[:, 1], c_seq[start - 1 : end - 1])
        else:
            np.copyto(gc[1:, 1], c_seq[: end - 1])
            np.copyto(gc[0, 1], c0)
        np.copyto(io[:, 0], gm[:, 0])
        np.copyto(io[:, 1], gm[:, 3])
        for s in range(n - 1, -1, -1):
            t = start + s
            add(dh_seq[t], dh0, dh)
            mul(dh, to[s], w[1:])
            mul(w[2], dtc[s], w[2])
            add(dc, w[2], dc)
            mul(dc, gc[s], da_gm[:2])
            mul(da_gm[:2], gm[s, :2], da_gm[:2])
            mul(da_gm[:2], om[s, :2], da_gm[:2])
            mul(w[:2], io[s], da_gm[2:])
            mul(da_gm[2:], om[s, 2:], da_gm[2:])
            np.copyto(da4[t], da_gm_t)
            dot(da_all[t], wh_t, dh0)
            mul(dc, gm[s, 1], dc)
    dc0[...] = dc


def lstm_seq_forward(x, wx, wh, b, h0, c0, for_backward=True):
    """Run the LSTM over a full sequence.

    x (T, B, D); returns (h_seq, c_seq, gates) with h_seq/c_seq (T, B, H)
    and post-activation gates (T, B, 4H), all fresh C-contiguous arrays.
    Without for_backward, c_seq and gates hold only the last step (one row
    each): the backward needs every step, a carried state only the last.
    """
    T, B, D = x.shape
    H = wh.shape[0]
    if wx.shape != (D, 4 * H) or wh.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ValueError("packed weight shapes do not match input width")
    if h0.shape != (B, H) or c0.shape != (B, H):
        raise ValueError("state shapes do not match batch")
    xp = np.ascontiguousarray(x).reshape(T * B, D) @ wx
    xp += b
    xp = np.ascontiguousarray(xp.reshape(T, B, 4 * H))
    kept = T if for_backward else 1
    h_seq = np.empty((T, B, H), dtype=x.dtype)
    c_seq = np.empty((kept, B, H), dtype=x.dtype)
    gates = np.empty((kept, B, 4 * H), dtype=x.dtype)
    _fw_recurrence(xp, np.ascontiguousarray(wh), np.ascontiguousarray(h0), np.ascontiguousarray(c0), h_seq, c_seq, gates)
    return h_seq, c_seq, gates


def lstm_seq_backward(dh_seq, x, wx, wh, h0, c0, h_seq, c_seq, gates,
                      needs=(True, True, True, True)):
    """Gradients of the sequence run.

    dh_seq (T, B, H) is the upstream gradient on every hidden output.
    Returns (dx, dwx, dwh, db, dh0, dc0). ``needs`` says which of dx, dwx,
    dwh and db to compute; each one not needed is returned as None. Carried
    state is treated as a constant input: its gradient is reported, never
    propagated further.
    """
    T, B, H = dh_seq.shape
    D = x.shape[2]
    need_x, need_wx, need_wh, need_b = needs
    da_all = np.empty((T, B, 4 * H), dtype=dh_seq.dtype)
    dh0 = np.empty((B, H), dtype=dh_seq.dtype)
    dc0 = np.empty((B, H), dtype=dh_seq.dtype)
    wh_t = np.ascontiguousarray(wh.T)
    _bw_recurrence(np.ascontiguousarray(dh_seq), wh_t, gates, c_seq, np.ascontiguousarray(c0), da_all, dh0, dc0)
    da2 = da_all.reshape(T * B, 4 * H)
    dx = dwx = dwh = db = None
    if need_x:
        dx = (da2 @ wx.T).reshape(T, B, D)
    if need_wx:
        dwx = np.ascontiguousarray(x).reshape(T * B, D).T @ da2
    if need_wh:
        h_prev = np.concatenate([h0[None], h_seq[:-1]], axis=0).reshape(T * B, H)
        dwh = h_prev.T @ da2
    if need_b:
        db = da2.sum(axis=0)
    return dx, dwx, dwh, db, dh0, dc0
