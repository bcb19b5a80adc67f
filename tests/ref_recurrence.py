"""Reference LSTM time loops (test-only).

The straightforward numpy form of ``kernels._fw_recurrence`` and
``kernels._bw_recurrence``: every step allocates its temporaries and uses
Python-float constants. The package loops write into preallocated buffers
instead and must produce bit-identical outputs, so these keep the exact
order of every product and sum.
"""

import numpy as np


def sigmoid(a):
    return np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a)))


def fw_recurrence(xp, wh, h0, c0, h_seq, c_seq, gates):
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


def bw_recurrence(dh_seq, wh_t, gates, c_seq, c0, da_all, dh0, dc0):
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
