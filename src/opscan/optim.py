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
    """Adam with bias correction and decoupled weight decay, state keyed by p.name."""

    def __init__(self, params: Sequence[Parameter], weight_decay: float):
        self.params = list(params)
        self.weight_decay = weight_decay
        self.state: dict[str, dict] = {}

    def step(self, lr, beta1: float | None = None) -> None:
        b1 = BETAS[0] if beta1 is None else beta1
        b2 = BETAS[1]
        for p in self.params:
            if p.frozen:
                continue
            g = _check_finite(p)
            if g is None:
                continue
            st = self.state.setdefault(
                p.name, {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
            )
            st["t"] += 1
            t = st["t"]
            st["m"] = b1 * st["m"] + (1.0 - b1) * g
            st["v"] = b2 * st["v"] + (1.0 - b2) * g * g
            m_hat = st["m"] / (1.0 - b1**t)
            v_hat = st["v"] / (1.0 - b2**t)
            step_lr = _resolve_lr(lr, p.layer_group)
            p.data -= step_lr * m_hat / (np.sqrt(v_hat) + EPS)
            if self.weight_decay:
                p.data -= step_lr * self.weight_decay * p.data

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

