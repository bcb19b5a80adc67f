"""A fixed computation that gauges how fast the machine runs at the moment.

On a shared virtual machine the same code runs up to a third slower for
stretches of seconds to minutes, whenever the neighbours are busy. No
statistic taken over one run's wall times removes a slow stretch that
covers the whole run. So every timed call is bracketed by passes of this
reference, untimed, and the benchmark reports its timings scaled to the
speed at which a pass takes its nominal time:
``seconds * nominal / R``, where R is the median of all the run's
reference samples. One factor per run leaves the ratios between a run's
timings as measured.

A pass is what opscan's hot path does, written once here: an LSTM layer's
forward recurrence, and on the training workloads its backward one, at
the workload's kernel shape over a few timesteps. It is the benchmark's
own code, not opscan's, so the scaled times show every change to opscan.
The pass runs on one BLAS thread, whatever opscan sets: a pass on two
threads swung with the load on the other vCPU far more than opscan's
calls did, and a change to opscan's thread settings must not move the
reference.
"""

from __future__ import annotations

import ctypes
import statistics
import time

import numpy as np

STEPS = 16  # timesteps per pass

_clock = time.perf_counter


def _thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy loaded,
    or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    return get, put
    return None, None


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    get, _ = _thread_calls()
    return int(get()) if get else None


class Reference:
    def __init__(self, shape: tuple, nominal_s: float):
        """``shape`` is (T, B, D, H, runs backward), T cut to STEPS."""
        T, B, D, H, self.backward = shape
        T = min(T, STEPS)
        self.nominal_s = nominal_s
        self._get, self._set = _thread_calls()
        self.samples: list[float] = []  # mean seconds per pass, one per sample()
        rng = np.random.default_rng(0)
        bound = 1.0 / np.sqrt(H)
        self.x = rng.normal(0, 0.5, (T, B, D)).astype(np.float32)
        self.wx = rng.uniform(-bound, bound, (D, 4 * H)).astype(np.float32)
        self.wh = rng.uniform(-bound, bound, (H, 4 * H)).astype(np.float32)

    def once(self) -> float:
        """Seconds for one pass."""
        x, wx, wh = self.x, self.wx, self.wh
        T, B, D = x.shape
        H = wh.shape[0]
        t0 = _clock()
        xw = (x.reshape(T * B, D) @ wx).reshape(T, B, 4 * H)
        h = np.zeros((B, H), np.float32)
        c = np.zeros((B, H), np.float32)
        hs, cs, acts = [h], [c], []
        for t in range(T):
            g = xw[t] + h @ wh
            s = 1.0 / (1.0 + np.exp(-g[:, : 3 * H]))
            u = np.tanh(g[:, 3 * H :])
            c = s[:, H : 2 * H] * c + s[:, :H] * u
            h = s[:, 2 * H :] * np.tanh(c)
            hs.append(h)
            cs.append(c)
            acts.append((s, u))
        if self.backward:
            dwh = np.zeros_like(wh)
            dgs = np.empty((T, B, 4 * H), np.float32)
            dh = np.ones((B, H), np.float32)
            dc = np.zeros((B, H), np.float32)
            for t in reversed(range(T)):
                s, u = acts[t]
                tc = np.tanh(cs[t + 1])
                dc = dc + dh * s[:, 2 * H :] * (1.0 - tc * tc)
                ds = np.concatenate([dc * u, dc * cs[t], dh * tc], axis=1) * s * (1.0 - s)
                dgs[t] = np.concatenate([ds, dc * s[:, :H] * (1.0 - u * u)], axis=1)
                dwh += hs[t].T @ dgs[t]
                dh = dgs[t] @ wh.T
                dc = dc * s[:, H : 2 * H]
            x.reshape(T * B, D).T @ dgs.reshape(T * B, 4 * H)
        return _clock() - t0

    def sample(self, seconds: float) -> None:
        """Time passes for about ``seconds`` and keep their mean."""
        now = int(self._get()) if self._get else None
        pinned = now is not None and now != 1
        if pinned:
            self._set(1)
        try:
            times = [self.once()]
            while sum(times) < seconds:
                times.append(self.once())
            self.samples.append(statistics.fmean(times))
        finally:
            if pinned:
                self._set(now)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference's nominal speed."""
        return seconds * self.nominal_s / statistics.median(self.samples)
