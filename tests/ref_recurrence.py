"""Reference LSTM time loops (test-only).

The straightforward numpy form of ``kernels._fw_recurrence`` and
``kernels._bw_recurrence``: every step allocates its temporaries and uses
Python-float constants. The package loops write into preallocated buffers
instead and must produce bit-identical outputs, so these keep the exact
order of every product and sum, and the same fused gate formula:
sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, with xp and wh arriving with their
columns in [i, f, o, g] order and the i, f and o ones already halved. Gates
are stored gate-major, (T + 1 or 1, 5, B, H) rows of [i, f, o, g, c_prev]:
step t writes c into the c_prev slot of row t + 1, or of the one row. hs
(T + 1, B, H) holds h0 in hs[0], and step t writes h into hs[t + 1].
"""

import numpy as np


def sigmoid(a):
    return 0.5 * np.tanh(0.5 * a) + 0.5


def fw_recurrence(xp, wh, hs, gates):
    T, B = xp.shape[:2]
    H = wh.shape[0]
    rows = len(gates)
    for t in range(T):
        k = t % rows
        gates[k, :4] = np.tanh(xp[t] + np.dot(hs[t], wh)).reshape(B, 4, H).transpose(1, 0, 2)
        gates[k, :3] = 0.5 * gates[k, :3] + 0.5
        i, f, o, g, c_prev = gates[k]
        c = f * c_prev + i * g
        gates[(t + 1) % rows, 4] = c
        hs[t + 1] = o * np.tanh(c)


def bw_recurrence(dh_seq, wh_t, gates, da_all):
    T, B, H = dh_seq.shape
    dh_next = np.zeros((B, H), dh_seq.dtype)  # the gradient on h from the step after
    dc = np.zeros((B, H), dh_seq.dtype)
    for t in range(T - 1, -1, -1):
        i, f, o, g, c_prev = gates[t]
        tc = np.tanh(gates[t + 1, 4])
        dh = dh_seq[t] + dh_next
        do = dh * tc
        dc[:] = dc + dh * o * (1.0 - tc * tc)
        da_all[t, :, :H] = (dc * g) * i * (1.0 - i)
        da_all[t, :, H : 2 * H] = (dc * c_prev) * f * (1.0 - f)
        da_all[t, :, 2 * H : 3 * H] = (dc * i) * (1.0 - g * g)
        da_all[t, :, 3 * H :] = do * o * (1.0 - o)
        dh_next[:] = np.dot(da_all[t], wh_t)
        dc[:] = dc * f
