"""Adam over named Parameters.

Weight decay is decoupled: the shrinkage term lr * wd * w is
applied beside the gradient step, never folded into the gradient. Frozen
parameters are skipped entirely, values and state both.

Per-parameter learning rates come from Parameter.layer_group: step() takes
either one lr or a sequence indexed by group.

The moment decays and the denominator's epsilon are fixed: BETAS and EPS.
step() may replace beta1 for one step (a one-cycle momentum schedule).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Parameter


BETAS = (0.9, 0.99)
EPS = 1e-7


class NumericalError(RuntimeError):
    pass


def _check_finite(p: Parameter) -> np.ndarray:
    g = p.grad
    if g is None:
        return None
    if not np.all(np.isfinite(g)):
        raise NumericalError(f"non-finite gradient in parameter {p.name!r}")
    return g


def _resolve_lr(lr, group: int) -> float:
    if np.ndim(lr) == 0:
        return float(lr)
    return float(lr[group])


class Adam:
    """Adam with bias correction and decoupled weight decay, state keyed by p.name.

    A step updates each parameter's m and v in place and builds the update
    in two scratch arrays that every parameter of one dtype shares, sized
    by the largest of them: no step allocates per parameter. It computes
    the same products in the same order as the plain formula
    m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g,
    w -= lr * m_hat / (sqrt(v_hat) + EPS), then w -= lr * wd * w.
    """

    def __init__(self, params: Sequence[Parameter], weight_decay: float):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.state: dict[str, dict] = {}
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def _buffers(self, p: Parameter) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays of p's shape and dtype."""
        data = p.data
        if data.dtype not in self._scratch:
            size = max(q.data.size for q in self.params if q.data.dtype == data.dtype)
            self._scratch[data.dtype] = np.empty((2, size), data.dtype)
        buf = self._scratch[data.dtype]
        return buf[0, : data.size].reshape(data.shape), buf[1, : data.size].reshape(data.shape)

    def step(self, lr, beta1: float | None = None) -> None:
        b1 = BETAS[0] if beta1 is None else beta1
        b2 = BETAS[1]
        for p in self.params:
            if p.frozen:
                continue
            g = _check_finite(p)
            if g is None:
                continue
            st = self.state.get(p.name)
            if st is None:
                st = self.state[p.name] = {
                    "m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0
                }
            st["t"] += 1
            t = st["t"]
            m, v = st["m"], st["v"]
            s, u = self._buffers(p)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            step_lr = _resolve_lr(lr, p.layer_group)
            np.divide(m, 1.0 - b1**t, out=s)
            np.multiply(s, step_lr, out=s)
            np.divide(v, 1.0 - b2**t, out=u)
            np.sqrt(u, out=u)
            np.add(u, EPS, out=u)
            np.divide(s, u, out=s)
            np.subtract(p.data, s, out=p.data)
            if self.weight_decay:
                np.multiply(p.data, step_lr * self.weight_decay, out=s)
                np.subtract(p.data, s, out=p.data)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

