"""Reference LSTM time loops (test-only).

The straightforward numpy form of ``kernels._fw_recurrence`` and
``kernels._bw_recurrence``: every step allocates its temporaries and uses
Python-float constants. The package loops write into preallocated buffers
instead and must produce bit-identical outputs, so these keep the exact
order of every product and sum, and the same fused gate formula:
sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, with xp and wh arriving with their
columns in [i, f, o, g] order and the i, f and o ones already halved. Gates
are stored gate-major, (T + 1 or 1, 5, B, H) rows of [i, f, o, g, c_prev]:
step t writes c into the c_prev slot of row t + 1, or of the one row.
"""

import numpy as np


def sigmoid(a):
    return 0.5 * np.tanh(0.5 * a) + 0.5


def fw_recurrence(xp, wh, h0, h_seq, gates):
    T, B = xp.shape[:2]
    H = wh.shape[0]
    rows = len(gates)
    for t in range(T):
        k = t % rows
        h_prev = h_seq[t - 1] if t > 0 else h0
        gates[k, :4] = np.tanh(xp[t] + np.dot(h_prev, wh)).reshape(B, 4, H).transpose(1, 0, 2)
        gates[k, :3] = 0.5 * gates[k, :3] + 0.5
        i, f, o, g, c_prev = gates[k]
        c = f * c_prev + i * g
        gates[(t + 1) % rows, 4] = c
        h_seq[t] = o * np.tanh(c)


def bw_recurrence(dh_seq, wh_t, gates, c_seq, da_all, dh0, dc0):
    T, B, H = dh_seq.shape
    dh0[:] = 0.0
    dc0[:] = 0.0
    for t in range(T - 1, -1, -1):
        i, f, o, g, c_prev = gates[t]
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
