"""Oracles for the training step's scatter and update.

The plain forms of what autodiff's embedding and max-pool backward,
``Tensor.accumulate`` and ``optim.Adam.step`` compute: an unbuffered
scatter-add into zeros, a zeroed first gradient, and an Adam step that
allocates every intermediate. The code in ``src`` does the same arithmetic
in the same order without them, so its results must equal these bit for bit.
"""

import numpy as np

from opscan.optim import BETAS, EPS


def embedding_grad(matrix: np.ndarray, ids: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The gradient of matrix[ids] for an upstream gradient of its shape."""
    g = np.zeros_like(matrix)
    np.add.at(g, ids.reshape(-1), upstream.reshape(-1, matrix.shape[1]))
    return g


def masked_max_grad(x: np.ndarray, mask: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The gradient of the max of x (T, B, H) over the valid steps of mask
    (T, B), ties to the earliest step, for an upstream gradient (B, H)."""
    idx = np.where(mask[:, :, None], x, -np.inf).argmax(axis=0)
    b_ix, h_ix = np.indices(idx.shape)
    g = np.zeros_like(x)
    np.add.at(g, (idx, b_ix, h_ix), upstream)
    return g


def accumulate(grad: np.ndarray | None, data: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient after adding g to grad (None: no gradient yet) of a
    tensor holding data."""
    if grad is None:
        grad = np.zeros_like(data)
    grad += g
    return grad


class Adam:
    """Adam over (name, data, grad, layer_group, frozen) records, each
    intermediate a fresh array."""

    def __init__(self, weight_decay: float):
        self.weight_decay = weight_decay
        self.state: dict[str, dict] = {}

    def step(self, params, lr, beta1=None) -> None:
        b1 = BETAS[0] if beta1 is None else beta1
        b2 = BETAS[1]
        for p in params:
            if p.frozen or p.grad is None:
                continue
            g = p.grad
            st = self.state.setdefault(
                p.name, {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data), "t": 0}
            )
            st["t"] += 1
            t = st["t"]
            st["m"] = b1 * st["m"] + (1.0 - b1) * g
            st["v"] = b2 * st["v"] + (1.0 - b2) * g * g
            m_hat = st["m"] / (1.0 - b1**t)
            v_hat = st["v"] / (1.0 - b2**t)
            step_lr = float(lr) if np.ndim(lr) == 0 else float(lr[p.layer_group])
            p.data -= step_lr * m_hat / (np.sqrt(v_hat) + EPS)
            if self.weight_decay:
                p.data -= step_lr * self.weight_decay * p.data
