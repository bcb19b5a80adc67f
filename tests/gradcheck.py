"""Autodiff ops that only the tests use: the scalar losses the
finite-difference checks differentiate (sum_all, mul), three activations
the checks cover (sigmoid, tanh, log_softmax) and the check itself
(grad_check, with zero_grads and GradCheckError). No opscan command runs
any of them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from opscan.autodiff import Parameter, Tensor, _as_tensor, _record, _unbroadcast, backward


class GradCheckError(RuntimeError):
    """The loss a gradient check differentiates is not finite."""


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def bw():
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

    return _record(out, bw)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function as 0.5 * tanh(0.5 * x) + 0.5: one tanh, no large
    exponents, and the formula the LSTM kernels' gates use."""
    x = _as_tensor(x)
    s = 0.5 * np.tanh(0.5 * x.data) + 0.5
    out = Tensor(s, (x,))

    def bw():
        x.accumulate(out.grad * s * (1.0 - s))

    return _record(out, bw)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y, (x,))

    def bw():
        x.accumulate(out.grad * (1.0 - y * y))

    return _record(out, bw)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - logsum
    out = Tensor(y, (x,))

    def bw():
        g = out.grad
        x.accumulate(g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return _record(out, bw)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.asarray(x.data.sum()), (x,))

    def bw():
        x.accumulate(np.broadcast_to(out.grad, x.data.shape))

    return _record(out, bw)


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    max_coords: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between autodiff and central finite differences.

    loss_fn must rebuild the graph deterministically on every call (fix any
    dropout masks). Large parameters are probed at max_coords sampled
    coordinates. Relative error: |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-12).
    """
    rng = rng or np.random.default_rng(0)
    zero_grads(params)
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise GradCheckError("non-finite loss")
    backward(loss)
    analytic = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params}

    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = range(n) if n <= max_coords else sorted(rng.choice(n, max_coords, replace=False))
        g_flat = analytic[p.name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn().data)
            flat[i] = orig - eps
            f_minus = float(loss_fn().data)
            flat[i] = orig
            g_fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(g_flat[i] - g_fd) / max(abs(g_flat[i]), abs(g_fd), 1e-12)
            worst = max(worst, err)
    return worst
