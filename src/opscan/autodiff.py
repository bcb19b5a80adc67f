"""Reverse-mode automatic differentiation over numpy arrays.

Tensors record the op graph as they are built (parents plus a backward
closure); backward() walks it once in reverse topological order and
accumulates gradients additively, so fan-out just works. Gradients live in
the same dtype as the data: float64 for checking, float32 for training.

One rule prunes the graph: a tensor requires a gradient only if one of its
ancestors is a Parameter that is not frozen. Only such a tensor gets a
backward closure, a closure accumulates only into parents that require a
gradient, and backward() never visits the rest. A pass over frozen
parameters alone (inference, or the frozen layers of a fine-tuning stage)
therefore records no tape and holds no activation longer than the forward
pass needs it.

The tape that is recorded lives for one backward() and no longer.
backward() takes each node off the graph once its closure has run, so an
activation is released by reference count, without the collector, when
the last closure that reads it is done. Only the Parameter gradients, and
the loss's value, survive the call: a training loop that keeps its last
loss bound while the next forward pass runs holds no tape beside it.

The LSTM sequence op is not here; it is a fused kernel (see kernels.py)
that model.py wraps into a graph node with a custom backward closure.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class GradError(RuntimeError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_backward_done")

    def __init__(self, data, parents: tuple = ()):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = any(p.requires_grad for p in parents)
        self._backward: Callable[[], None] | None = None
        # Without a gradient to carry, a node links only to the parameters
        # it reads: upstream activations are then freed as soon as the
        # forward pass moves past them.
        self._parents = (
            parents if self.requires_grad else tuple(p for p in parents if isinstance(p, Parameter))
        )
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        """Add g into .grad. The first gradient is 0 + g in one pass, into
        an array of the data's shape and dtype that never aliases g."""
        if self.grad is None:
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Named leaf tensor. layer_group indexes discriminative-lr groups.

    A frozen parameter is one that does not require a gradient.
    """

    __slots__ = ("name", "layer_group")

    def __init__(self, data, name: str, layer_group: int = 0):
        super().__init__(data)
        self.name = name
        self.layer_group = layer_group
        self.requires_grad = True

    @property
    def frozen(self) -> bool:
        return not self.requires_grad

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self.requires_grad = not value

    def __repr__(self):
        state = " frozen" if self.frozen else ""
        return f"Parameter({self.name}, shape={self.data.shape}{state})"


def backward(loss: Tensor) -> None:
    """Populate .grad on everything reachable from loss that requires one.

    loss must be scalar. backward consumes the graph as it walks it: once a
    node's closure has run, the node loses its closure, its parent links
    and, unless it is a Parameter, its gradient. An activation is therefore
    released as soon as the last closure that reads it has run, and only
    the Parameter gradients and loss's value outlive the call. A second call
    on the same loss without re-running the forward pass is an error.
    """
    if loss.data.size != 1:
        raise GradError(f"backward needs a scalar, got shape {loss.data.shape}")
    if loss._backward_done:
        raise GradError("backward already ran on this graph; re-run the forward pass")
    loss._backward_done = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward()
        # Every node that reads this one has already run, so nothing needs
        # its closure, links or gradient again: drop them, and whatever
        # only they held is freed by reference count.
        node._backward = None
        node._parents = ()
        if not isinstance(node, Parameter):
            node.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, bw: Callable[[], None]) -> Tensor:
    """Attach bw as out's backward only if out requires a gradient; otherwise
    the closure, and the arrays it holds, go away with the op's frame."""
    if out.requires_grad:
        out._backward = bw
    return out


# ---------------------------------------------------------------- primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data @ b.data, (a, b))

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _record(out, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def bw():
        if a.requires_grad:
            a.accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(out.grad, b.data.shape))

    return _record(out, bw)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0), (x,))

    def bw():
        x.accumulate(out.grad * (x.data > 0))

    return _record(out, bw)


def embedding_lookup(matrix: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = matrix[ids[...]]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= matrix.data.shape[0]):
        raise GradError("embedding id out of range")
    out = Tensor(matrix.data[ids], (matrix,))

    def bw():
        # Each id's rows are summed in the order they occur, (0 + r0) + r1
        # ..., as an unbuffered scatter-add would: a stable sort groups them
        # and one reduce per id runs down its rows one after another. numpy
        # would sum a lone column pairwise instead, so it gets a twin.
        v, e = matrix.data.shape
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        rows = out.grad.reshape(-1, e)[order]
        if e == 1:
            rows = np.concatenate((rows, rows), axis=1)
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        g = np.zeros((v, rows.shape[1]), dtype=matrix.data.dtype)
        bounds = starts.tolist() + [len(flat)]
        for i, lo, hi in zip(sorted_ids[starts].tolist(), bounds, bounds[1:]):
            np.add.reduce(rows[lo:hi], axis=0, out=g[i])
        matrix.accumulate(g[:, :e])

    return _record(out, bw)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def bw():
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(offset, offset + size)
                t.accumulate(out.grad[tuple(index)])
            offset += size

    return _record(out, bw)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape), (x,))

    def bw():
        x.accumulate(out.grad.reshape(x.data.shape))

    return _record(out, bw)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.T, (x,))

    def bw():
        x.accumulate(out.grad.T)

    return _record(out, bw)


def apply_mask(x: Tensor, mask: np.ndarray, scale: float = 1.0) -> Tensor:
    """Elementwise x * mask * scale with a constant 0/1 mask.

    This is the single dropout mechanism: inverted scaling happens via
    scale = 1 / (1 - p). mask must broadcast to x without enlarging it.
    """
    x = _as_tensor(x)
    factor = np.asarray(mask, dtype=x.data.dtype) * x.data.dtype.type(scale)
    data = x.data * factor
    if data.shape != x.data.shape:
        raise GradError("mask must not enlarge the input")
    out = Tensor(data, (x,))

    def bw():
        x.accumulate(out.grad * factor)

    return _record(out, bw)


def masked_mean_over_time(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of x (T, B, H) over the valid timesteps of a 0/1 mask (T, B)."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=x.data.dtype)
    counts = mask.sum(axis=0)  # (B,)
    if np.any(counts == 0):
        raise GradError("a sequence has no valid timesteps")
    m3 = mask[:, :, None]
    out = Tensor(np.sum(x.data, axis=0, where=m3 != 0) / counts[:, None], (x,))

    def bw():
        x.accumulate(out.grad[None, :, :] * m3 / counts[None, :, None])

    return _record(out, bw)


def masked_max_over_time(x: Tensor, mask: np.ndarray) -> Tensor:
    """Max of x (T, B, H) over valid timesteps; ties route to the earliest."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if np.any(mask.sum(axis=0) == 0):
        raise GradError("a sequence has no valid timesteps")
    out = Tensor(np.max(x.data, axis=0, where=mask[:, :, None], initial=-np.inf), (x,))

    def bw():
        idx = np.where(mask[:, :, None], x.data, -np.inf).argmax(axis=0)  # (B, H)
        b_ix, h_ix = np.indices(idx.shape)
        g = np.zeros_like(x.data)
        g[idx, b_ix, h_ix] += out.grad  # each (b, h) is written once
        x.accumulate(g)

    return _record(out, bw)


def last_over_time(x: Tensor, lengths: np.ndarray) -> Tensor:
    """out[b] = x[lengths[b] - 1, b] for x of shape (T, B, H)."""
    x = _as_tensor(x)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.min() < 1 or lengths.max() > x.data.shape[0]:
        raise GradError("length out of range")
    b_ix = np.arange(x.data.shape[1])
    out = Tensor(x.data[lengths - 1, b_ix], (x,))

    def bw():
        g = np.zeros_like(x.data)
        g[lengths - 1, b_ix] += out.grad
        x.accumulate(g)

    return _record(out, bw)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood over rows whose target is not ignore_id.

    logits (N, K), targets (N,) integer class ids.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n, k = logits.data.shape
    if targets.shape != (n,):
        raise GradError(f"targets shape {targets.shape} does not match logits rows {n}")
    keep = np.ones(n, dtype=bool) if ignore_id is None else targets != ignore_id
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise GradError("every target is ignored")
    if targets[keep].min() < 0 or targets[keep].max() >= k:
        raise GradError("target class out of range")

    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsum
    picked = log_probs[np.arange(n), targets.clip(0, k - 1)]
    loss_val = -(picked * keep).sum() / n_keep
    out = Tensor(np.asarray(loss_val, dtype=logits.data.dtype), (logits,))

    def bw():
        g = np.exp(log_probs)
        g[np.arange(n), targets.clip(0, k - 1)] -= 1.0
        g *= keep[:, None]
        logits.accumulate(g * (out.grad / n_keep))

    return _record(out, bw)
