"""Fused LSTM sequence kernels: the training hot loop.

The time recurrence is the only part of the model that cannot be expressed
as a few large matmuls, so it lives here as a plain numpy time loop.
Everything around it (input projections, weight-gradient matmuls) is
batched BLAS in the public wrappers.

Packed layout: the four gates are concatenated along the last weight axis
in the order [input, forget, cell, output], so wx is (D, 4H), wh is
(H, 4H), b is (4H,). States are (B, H); sequences are time-major (T, B, *).
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function as exp(min(a,0)) / (1 + exp(-|a|)): no large exponents."""
    return np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))


def _fw_recurrence(xp, wh, h0, c0, h_seq, c_seq, gates):
    """Forward time loop. xp already holds x @ wx + b, shape (T, B, 4H).

    Fills h_seq (T, B, H). c_seq (T or 1, B, H) and the post-activation
    gates (T or 1, B, 4H) receive every step, or, with one row, the latest.
    """
    T = xp.shape[0]
    H = wh.shape[0]
    rows = len(c_seq)
    for t in range(T):
        k = t % rows
        h_prev = h_seq[t - 1] if t > 0 else h0
        c_prev = c_seq[(t - 1) % rows] if t > 0 else c0
        a = xp[t] + np.dot(h_prev, wh)
        gates[k] = sigmoid(a)
        gates[k, :, 2 * H : 3 * H] = np.tanh(a[:, 2 * H : 3 * H])
        i = gates[k, :, :H]
        f = gates[k, :, H : 2 * H]
        g = gates[k, :, 2 * H : 3 * H]
        o = gates[k, :, 3 * H :]
        c_seq[k] = f * c_prev + i * g
        h_seq[t] = o * np.tanh(c_seq[k])


def _bw_recurrence(dh_seq, wh_t, gates, c_seq, c0, da_all, dh0, dc0):
    """Reverse time loop: gate pre-activation grads into da_all (T, B, 4H).

    wh_t is the transposed recurrent matrix (4H, H), C-contiguous. dh0/dc0
    receive the gradients flowing into the initial state and double as the
    loop-carried accumulators (in-place updates keep the dtype fixed).
    """
    T, B, H = dh_seq.shape
    dh0[:] = 0.0
    dc0[:] = 0.0
    for t in range(T - 1, -1, -1):
        i = gates[t, :, :H]
        f = gates[t, :, H : 2 * H]
        g = gates[t, :, 2 * H : 3 * H]
        o = gates[t, :, 3 * H :]
        c_prev = c_seq[t - 1] if t > 0 else c0
        tc = np.tanh(c_seq[t])
        dh = dh_seq[t] + dh0
        do = dh * tc
        dc0[:] = dc0 + dh * o * (1.0 - tc * tc)
        da_all[t, :, :H] = (dc0 * g) * i * (1.0 - i)
        da_all[t, :, H : 2 * H] = (dc0 * c_prev) * f * (1.0 - f)
        da_all[t, :, 2 * H : 3 * H] = (dc0 * i) * (1.0 - g * g)
        da_all[t, :, 3 * H :] = do * o * (1.0 - o)
        dh0[:] = np.dot(da_all[t], wh_t)
        dc0[:] = dc0 * f


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
