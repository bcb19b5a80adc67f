"""Fused LSTM sequence kernels: the training hot loop.

The time recurrence is the only part of the model that cannot be expressed
as a few large matmuls, so it lives here as a plain numpy time loop.
Everything around it (input projections, weight-gradient matmuls) is
batched BLAS in the public wrappers.

Packed layout: the four gates are concatenated along the last weight axis
in the order [input, forget, cell, output], so wx is (D, 4H), wh is
(H, 4H), b is (4H,). States are (B, H); sequences are time-major (T, B, *).

Gate activations are fused (Appleyard et al. 2016, arXiv:1604.01946): the
sigmoid is computed as sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, so one tanh
over the whole (B, 4H) block gives all four gates. The forward makes copies
of wx, wh and b once per call with their columns reordered to [i, f, o, g]
and the i, f and o ones halved (exact in floating point).

Slot layout: h0 in hs[0], c0 in gates[0, 4]. hs (T + 1, B, H) holds the
hidden states, step t's output in hs[t + 1]. gates holds gate-major rows of
five (B, H) slots, gates[t] = [i, f, o, g, c_prev], so every call works on
contiguous rows and each pair or triple of slots a step combines is one
contiguous block. Step t writes c into the c_prev slot of row t + 1, so
gates has T + 1 rows, the last holding only the last cell; without
for_backward there is one row, and its c_prev slot is updated in place. A
forward step is nine calls:

  1. pre = hs[t] @ wh             5. [i, f, o] += 0.5
  2. pre += x_t                   6. [i*g, f*c_prev] = [i, f] * [g, c_prev]
  3. slots 0-3 = tanh(pre)        7. c = f*c_prev + i*g, into the next c_prev
  4. [i, f, o] *= 0.5             8. tanh(c)
                                  9. hs[t + 1] = o * tanh(c)

The backward reads the stored slots as they are, so it does not depend on
how they were computed, and writes gate gradients in packed [i, f, g, o]
order.

Contract of the two time loops:
  - outputs are bit-identical to the plain per-step loops kept in
    tests/ref_recurrence.py, which use the same fused formula: every
    product and sum keeps its operands and their order, e.g.
    ((dc * g) * i) * (1 - i);
  - no timestep allocates: every ufunc and the recurrent dot write into
    buffers made once per call, and constants are 0-d arrays of the data's
    dtype;
  - both loops work a block of steps at a time, on one block schedule
    (_blocks) that bounds their scratch by _SCRATCH_BYTES, never in full
    (T, B, 4H) copies: the forward streams its input projection
    x @ wx + b block by block into one reused buffer, and the backward
    computes its per-step factors the same way.
"""

from __future__ import annotations

import itertools

import numpy as np


def active_backend() -> str:
    return "numpy"


# Bytes of per-block scratch in both time loops: the forward's input
# projection, 4 (B, H) rows per step, and the backward's factors, 7 rows:
# enough steps per block to amortise the block's own calls, few enough that
# the block and the recurrent matrix stay in cache. A full-length copy ran
# slower at H=256.
_SCRATCH_BYTES = 1 << 20


def _blocks(T: int, B: int, step_bytes: int) -> list[tuple[int, int]]:
    """(start, end) of the blocks of steps a time loop works in, at
    step_bytes of scratch a step: as few blocks as keep each within
    _SCRATCH_BYTES, of equal length within one step. At B = 1 each block is
    at least two steps long: numpy sends a one-row product to gemv, which
    rounds unlike the GEMM of a longer block, and the forward's input
    projection is one product a block."""
    n = -(-T // max(1, _SCRATCH_BYTES // step_bytes))
    if B == 1:
        n = min(n, T // 2)
    n = max(1, n)
    bounds = [T * k // n for k in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def _fw_recurrence(xp, wh, hs, gates):
    """Forward time loop over T steps, a whole sequence or a block of one.
    xp already holds x @ wx + b, shape (T, B, 4H), and xp and wh come with
    their columns in [i, f, o, g] order and the i, f and o ones halved.

    hs (T + 1, B, H) holds h0 in hs[0] on entry; step t reads hs[t] and
    writes h into hs[t + 1]. gates (T + 1 or 1, 5, B, H) holds c0 in
    gates[0, 4] on entry; step t writes [i, f, o, g] into row t and c into
    the c_prev slot of row t + 1, or, with one row, all into row 0.
    """
    T, B, H4 = xp.shape
    H = H4 // 4
    n = len(gates)
    half = np.asarray(0.5, xp.dtype)
    pre = np.empty((B, H4), dtype=xp.dtype)
    pre_bgh = pre.reshape(B, 4, H)
    prod = np.empty((2 * B, H), dtype=xp.dtype)     # [i*g, f*c_prev]
    ig, fc = prod[:B], prod[B:]
    # At small B the loop is bound by call overhead, so it iterates views of
    # the whole call, made here (with one row, the same views every step),
    # ufuncs are bound to locals and outputs passed by position.
    g = gates[: min(n, T)]
    views = (g[:, :4].transpose(0, 2, 1, 3), g[:, :3].reshape(-1, 3 * B, H),
             g[:, :2].reshape(-1, 2 * B, H), g[:, 3:].reshape(-1, 2 * B, H),
             g[:, 2], gates[1:, 4] if n > 1 else gates[:, 4])
    if n == 1:
        views = [itertools.repeat(v[0]) for v in views]
    dot, add, mul, tanh = np.dot, np.add, np.multiply, np.tanh
    for x_t, h_prev, h_t, gate_bgh, ifo, i_f, g_c, o, c in zip(xp, hs, hs[1:], *views):
        dot(h_prev, wh, pre)
        add(x_t, pre, pre)
        tanh(pre_bgh, gate_bgh)
        mul(ifo, half, ifo)
        add(ifo, half, ifo)
        mul(i_f, g_c, prod)
        add(fc, ig, c)
        tanh(c, ig)
        mul(o, ig, h_t)


def _bw_recurrence(dh_seq, wh_t, gates, da_all):
    """Reverse time loop: gate pre-activation grads into da_all (T, B, 4H),
    in packed [i, f, g, o] order.

    wh_t is the transposed recurrent matrix (4H, H), C-contiguous. gates
    are the forward's rows [i, f, o, g, c_prev], (T + 1, 5, B, H): the cell
    step t leads to is the c_prev slot of row t + 1. The carried state is a
    constant input, so the gradient reaching it is dropped.

    Each step works on pairs of (B, H) slots: [i, f] as
    ((dc * [g, c_prev]) * [i, f]) * [1-i, 1-f], reading [g, c_prev] and
    [i, f] straight from gates, and [g, o] as ([dc, do] * [i, o]) *
    [1-g^2, 1-o], the same products in the same order as one gate at a time.
    What else a step reads (1 - gate, 1 - g^2, tanh(c), 1 - tanh(c)^2) is
    computed for a block of steps at a time (_blocks, 7 (B, H) rows a step).
    """
    T, B, H = dh_seq.shape
    dt = dh_seq.dtype
    one = np.ones((), dt)
    blocks = _blocks(T, B, 7 * B * H * dt.itemsize)
    n_blk = max(end - start for start, end in blocks)
    om_blk = np.empty((n_blk, 4, B, H), dtype=dt)   # [1-i, 1-f, 1-g^2, 1-o]
    to_blk = np.empty((n_blk, 2, B, H), dtype=dt)   # [tanh(c), o]
    dtc_blk = np.empty((n_blk, B, H), dtype=dt)     # 1 - tanh(c)^2
    # Carried: w[0] is dc, w[1] do, w[2] dh * o * (1 - tanh(c)^2); dh_next
    # the gradient on h from the step after.
    w = np.zeros((3, B, H), dtype=dt)
    dc, dc_do, do_dho, dho = w[0], w[:2], w[1:], w[2]
    dh_next = np.zeros((B, H), dtype=dt)
    da_gm = np.empty((4, B, H), dtype=dt)           # one step's da, gate-major
    da_if, da_go = da_gm[:2], da_gm[2:]
    da_gm_t = da_gm.transpose(1, 0, 2)
    dh = np.empty((B, H), dtype=dt)
    da4 = da_all.reshape(T, B, 4, H)
    dot, add, mul = np.dot, np.add, np.multiply
    for start, end in reversed(blocks):
        n = end - start
        gm = gates[start:end]                       # [i, f, o, g, c_prev]
        om, to, dtc = (a[:n] for a in (om_blk, to_blk, dtc_blk))
        np.subtract(one, gm[:, :2], om[:, :2])
        np.subtract(one, gm[:, 2], om[:, 3])
        mul(gm[:, 3], gm[:, 3], om[:, 2])
        np.subtract(one, om[:, 2], om[:, 2])
        np.tanh(gates[start + 1 : end + 1, 4], to[:, 0])
        np.copyto(to[:, 1], gm[:, 2])
        mul(to[:, 0], to[:, 0], dtc)
        np.subtract(one, dtc, dtc)
        rev = gm[::-1]
        steps = zip(dh_seq[start:end][::-1], to[::-1], dtc[::-1], rev[:, 3:], rev[:, :2],
                    om[::-1, :2], rev[:, 0:3:2], om[::-1, 2:], da4[start:end][::-1],
                    da_all[start:end][::-1], rev[:, 1])
        for dh_t, to_t, dtc_t, gc_t, if_t, omif_t, io_t, omgo_t, da4_t, da_t, f_t in steps:
            add(dh_t, dh_next, dh)
            mul(dh, to_t, do_dho)
            mul(dho, dtc_t, dho)
            add(dc, dho, dc)
            mul(dc, gc_t, da_if)
            mul(da_if, if_t, da_if)
            mul(da_if, omif_t, da_if)
            mul(dc_do, io_t, da_go)
            mul(da_go, omgo_t, da_go)
            np.copyto(da4_t, da_gm_t)
            dot(da_t, wh_t, dh_next)
            mul(dc, f_t, dc)


def _fused_gate_copy(w: np.ndarray) -> np.ndarray:
    """C-contiguous copy of a packed weight or bias with its columns
    reordered from [i, f, g, o] to [i, f, o, g] and the i, f and o ones
    halved, so that the time loop's tanh yields 0.5 * a for them."""
    H = w.shape[-1] // 4
    w = np.concatenate((w[..., : 2 * H], w[..., 3 * H :], w[..., 2 * H : 3 * H]), axis=-1)
    w[..., : 3 * H] *= 0.5
    return w


def lstm_seq_forward(x, wx, wh, b, h0, c0, for_backward):
    """Run the LSTM over a full sequence x (T, B, D).

    Returns (hs, gates). hs (T + 1, B, H) is C-contiguous: h0 in hs[0],
    then the hidden output of every step. gates holds the gate-major rows
    (T + 1, 5, B, H) of [i, f, o, g, c_prev]: c0 in gates[0, 4], and row T
    only the last cell, in its c_prev slot. Without for_backward there is
    one row, (1, 5, B, H): the last step's gates, with the last cell in its
    c_prev slot. Either way hs[-1] and gates[-1, 4] are the last state. The
    backward needs every step, a carried state only the last.

    Precondition: the shapes agree: model.LstmLayer and load_checkpoint fix
    the weights, the previous window (or a scalar 0) the states.
    """
    T, B, D = x.shape
    H = wh.shape[0]
    wx, wh, b = (_fused_gate_copy(w) for w in (wx, wh, b))
    x = np.ascontiguousarray(x)
    hs = np.empty((T + 1, B, H), dtype=x.dtype)
    hs[0] = h0
    gates = np.empty((T + 1 if for_backward else 1, 5, B, H), dtype=x.dtype)
    gates[0, 4] = c0
    # The input projection x @ wx + b is made a block of steps at a time,
    # into one reused buffer.
    blocks = _blocks(T, B, 4 * B * H * x.dtype.itemsize)
    xp_blk = np.empty((max(end - start for start, end in blocks), B, 4 * H), dtype=x.dtype)
    for start, end in blocks:
        xp = xp_blk[: end - start]
        np.matmul(x[start:end].reshape(-1, D), wx, out=xp.reshape(-1, 4 * H))
        xp += b
        _fw_recurrence(xp, wh, hs[start : end + 1],
                       gates[start : end + 1] if for_backward else gates)
    return hs, gates


def lstm_seq_backward(dh_seq, x, wx, wh, hs, gates, needs):
    """Gradients of the sequence run, from the forward's hs and gates.

    dh_seq (T, B, H) is the upstream gradient on every hidden output.
    Returns (dx, dwx, dwh, db). ``needs`` says which of them to compute;
    each one not needed is returned as None. The initial state is a
    constant input: no gradient is computed for it.
    """
    T, B, H = dh_seq.shape
    D = x.shape[2]
    need_x, need_wx, need_wh, need_b = needs
    da_all = np.empty((T, B, 4 * H), dtype=dh_seq.dtype)
    _bw_recurrence(np.ascontiguousarray(dh_seq), np.ascontiguousarray(wh.T), gates, da_all)
    da2 = da_all.reshape(T * B, 4 * H)
    dx = dwx = dwh = db = None
    if need_x:
        dx = (da2 @ wx.T).reshape(T, B, D)
    if need_wx:
        dwx = np.ascontiguousarray(x).reshape(T * B, D).T @ da2
    if need_wh:
        dwh = hs[:-1].reshape(T * B, H).T @ da2
    if need_b:
        db = da2.sum(axis=0)
    return dx, dwx, dwh, db
