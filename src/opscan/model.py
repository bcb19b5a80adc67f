"""Sequence models: weight-dropped LSTM encoder, tied next-token decoder,
pooled classification head.

Regularization is all mask-based and train-only:
  - embedding dropout zeroes whole rows of the embedding matrix per forward
    pass (a dropped token id embeds to zero everywhere it appears);
  - variational dropout draws one (1, B, d) mask per sequence per site and
    reuses it at every time step;
  - weight drop (DropConnect) zeroes entries of each layer's recurrent
    matrix, one mask per forward pass shared by all time steps.
Survivors are scaled by 1/(1-p), so evaluation is plain identity.

Each site draws its mask from an explicit rng where the mask is applied
(``dropout``), so masks come off the rng in the order the forward pass
applies them; that is what makes gradient checks and same-seed reruns
exactly reproducible. The rng alone marks a training pass: every forward
and loss takes an optional one, and rng=None is evaluation.

An encoder is described by Encoder.SHAPE_KEYS, with its dtype as a DTYPES
code; a config, a checkpoint header and a transferred copy all build one
from that description (Encoder.shape()).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels as K
from .autodiff import Parameter, Tensor

# dtype code -> the numpy dtype it names: the one spelling of a float width
# that a config, a checkpoint header and Encoder accept.
DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


def keep_mask(rng: np.random.Generator, shape, p: float, dtype) -> np.ndarray:
    """0/1 keep mask with drop probability p, 0 <= p < 1."""
    return (rng.random(shape) >= p).astype(dtype)


def dropout(x: Tensor, rng: np.random.Generator | None, p: float, shape) -> Tensor:
    """x times a fresh keep mask of `shape` (broadcast against x), survivors
    scaled by 1/(1-p). Identity, drawing nothing, when rng is None
    (evaluation) or p is 0."""
    if rng is None or not p:
        return x
    return ad.apply_mask(x, keep_mask(rng, shape, p, x.dtype), 1.0 / (1.0 - p))


def lstm_sequence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, h0, c0):
    """Fused LSTM graph node over x (T, B, D).

    Returns (out, (h_last, c_last)): out is a (T, B, H) Tensor on the tape,
    the view hs[1:] of the kernel's hidden states; the final state is
    detached numpy copies of hs[-1] and gates[-1, 4], ready to carry into
    the next window. When no input requires a gradient, the node gets no
    backward and the kernel keeps no per-step cells or gates; otherwise the
    kernel backward computes only the gradients of the inputs that require
    one.
    """
    inputs = (x, wx, wh, b)
    needs = tuple(t.requires_grad for t in inputs)
    hs, gates = K.lstm_seq_forward(x.data, wx.data, wh.data, b.data, h0, c0, any(needs))
    out = Tensor(hs[1:], inputs)
    if out.requires_grad:

        def bw():
            grads = K.lstm_seq_backward(out.grad, x.data, wx.data, wh.data, hs, gates, needs)
            for t, g in zip(inputs, grads):
                if g is not None:
                    t.accumulate(g)

        out._backward = bw
    return out, (hs[-1].copy(), gates[-1, 4].copy())


def _rng(seed: int | None) -> np.random.Generator | None:
    """The init rng for ``seed``; None for a model whose values a
    checkpoint load fills, which then draws nothing."""
    return None if seed is None else np.random.default_rng(seed)


def _uniform(rng: np.random.Generator | None, bound: float, shape, dtype) -> np.ndarray:
    """U(-bound, bound) drawn from rng, or, without one, an allocated array
    left for the caller to fill."""
    if rng is None:
        return np.empty(shape, dtype)
    return rng.uniform(-bound, bound, shape).astype(dtype)


@dataclass
class Dropouts:
    emb: float
    input: float
    hidden: float
    weight: float
    head: float


class LstmLayer:
    def __init__(self, index: int, d_in: int, hidden: int, dtype, rng):
        bound = 1.0 / np.sqrt(hidden)
        group = index + 1  # group 0 is the embedding
        self.hidden = hidden
        self.wx = Parameter(_uniform(rng, bound, (d_in, 4 * hidden), dtype),
                            f"lstm{index}.wx", group)
        self.wh = Parameter(_uniform(rng, bound, (hidden, 4 * hidden), dtype),
                            f"lstm{index}.wh", group)
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden : 2 * hidden] = 1.0  # forget gate starts open
        self.b = Parameter(b, f"lstm{index}.b", group)

    def params(self) -> list[Parameter]:
        return [self.wx, self.wh, self.b]


class Encoder:
    """Stacked weight-dropped LSTM over embedded token ids.

    With tie_last the last layer's width equals the embedding size so a
    decoder can share the embedding matrix. dtype is a DTYPES code. seed=None
    allocates the weights without drawing them, for a caller that fills
    every value.
    """

    # The arguments that describe an encoder's shape: shape() returns them.
    SHAPE_KEYS = ("vocab_size", "emb_size", "hidden_size", "n_layers", "tie_last", "dtype")

    def __init__(self, vocab_size: int, emb_size: int, hidden_size: int, n_layers: int,
                 dropouts: Dropouts, tie_last: bool, dtype: str, seed: int | None):
        if min(emb_size, hidden_size, n_layers) < 1:
            raise ValueError("emb_size, hidden_size and n_layers must be >= 1")
        if dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}, got {dtype!r}")
        rng = _rng(seed)
        self.vocab_size = vocab_size
        self.emb_size = emb_size
        self.hidden_size = hidden_size
        self.n_layers = n_layers
        self.tie_last = tie_last
        self.dropouts = dropouts
        self.dtype = DTYPES[dtype]
        self.emb = Parameter(_uniform(rng, 0.1, (vocab_size, emb_size), self.dtype), "emb", 0)
        self.layers: list[LstmLayer] = []
        d_in = emb_size
        for l in range(n_layers):
            hidden = emb_size if (tie_last and l == n_layers - 1) else hidden_size
            self.layers.append(LstmLayer(l, d_in, hidden, self.dtype, rng))
            d_in = hidden
        self.out_size = d_in

    def shape(self) -> dict:
        """SHAPE_KEYS and their values, dtype as its DTYPES code: how a config
        and a checkpoint header spell this encoder."""
        shape = {key: getattr(self, key) for key in self.SHAPE_KEYS}
        shape["dtype"] = next(code for code, dt in DTYPES.items() if dt == self.dtype)
        return shape

    def parameters(self) -> list[Parameter]:
        out = [self.emb]
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def initial_state(self, batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
        return [
            (
                np.zeros((batch_size, layer.hidden), dtype=self.dtype),
                np.zeros((batch_size, layer.hidden), dtype=self.dtype),
            )
            for layer in self.layers
        ]

    def embed(self, ids: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        """Token ids (T, B) -> embedded inputs (T, B, emb_size).

        With an rng, applies embedding dropout (whole rows) then the
        input-site variational mask.
        """
        d = self.dropouts
        emb = dropout(self.emb, rng, d.emb, (self.vocab_size, 1))
        x = ad.embedding_lookup(emb, ids)
        return dropout(x, rng, d.input, (1, ids.shape[1], self.emb_size))

    def forward(
        self,
        ids: np.ndarray,
        state: list | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, list]:
        """ids (T, B) int -> hidden outputs (T, B, out_size), new state.

        rng=None is evaluation mode. The returned state is detached; pass
        it back in to carry across consecutive windows of the same streams.
        """
        ids = np.asarray(ids)
        if state is None:
            state = self.initial_state(ids.shape[1])
        d = self.dropouts
        x = self.embed(ids, rng)
        new_state = []
        for l, layer in enumerate(self.layers):
            wh = dropout(layer.wh, rng, d.weight, layer.wh.shape)
            h0, c0 = state[l]
            x, last = lstm_sequence(x, layer.wx, wh, layer.b, h0, c0)
            new_state.append(last)
            if l < self.n_layers - 1:
                x = dropout(x, rng, d.hidden, (1, ids.shape[1], layer.hidden))
        return x, new_state


class LanguageModel:
    """Encoder plus next-token decoder. The decoder projection is the
    embedding matrix itself when tied (mutating one mutates the other).
    seed=None allocates the decoder without drawing it."""

    KIND = "lm"  # its checkpoint header's kind
    HEAD_KEYS = ()  # the constructor arguments its header adds to the encoder's

    def __init__(self, encoder: Encoder, vocab_hash: str | None, seed: int | None):
        self.encoder = encoder
        self.vocab_hash = vocab_hash
        rng = _rng(seed)
        dec_group = encoder.n_layers + 1
        if encoder.tie_last:
            self.dec_w = None
        else:
            bound = 1.0 / np.sqrt(encoder.out_size)
            self.dec_w = Parameter(
                _uniform(rng, bound, (encoder.out_size, encoder.vocab_size), encoder.dtype),
                "decoder.w", dec_group,
            )
        self.dec_b = Parameter(
            np.zeros(encoder.vocab_size, dtype=encoder.dtype), "decoder.b", dec_group
        )

    def parameters(self) -> list[Parameter]:
        out = self.encoder.parameters()
        if self.dec_w is not None:
            out.append(self.dec_w)
        out.append(self.dec_b)
        return out

    def forward(
        self,
        ids: np.ndarray,
        state: list | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, list]:
        """ids (T, B) -> logits (T*B, vocab), new state; rng=None is evaluation."""
        enc = self.encoder
        out, new_state = enc.forward(ids, state, rng)
        out = dropout(out, rng, enc.dropouts.hidden, (1, out.shape[1], enc.out_size))
        flat = ad.reshape(out, (-1, enc.out_size))
        proj = ad.transpose(enc.emb) if self.dec_w is None else self.dec_w
        logits = ad.add(ad.matmul(flat, proj), self.dec_b)
        return logits, new_state

    def loss(
        self,
        ids: np.ndarray,
        targets: np.ndarray,
        state: list | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, list]:
        """Mean next-token loss over every target; no target is PAD, as
        corpus.lm_batches concatenates unpadded sequences."""
        logits, new_state = self.forward(ids, state, rng)
        loss = ad.cross_entropy(logits, np.asarray(targets).reshape(-1))
        return loss, new_state


# Positions (steps × rows) per encoder window of a forward that records no
# backward: a worker holds this many hidden outputs of a layer at a time,
# however long its batch. A batch wider than this runs one step per window.
_WINDOW_POSITIONS = 2048


class Classifier:
    """Encoder plus pooled head: concat(last, max, mean) -> hidden -> logits.
    seed=None allocates the head without drawing it."""

    KIND = "clf"
    HEAD_KEYS = ("n_classes", "head_hidden")

    def __init__(self, encoder: Encoder, n_classes: int, head_hidden: int,
                 vocab_hash: str | None, seed: int | None):
        self.encoder = encoder
        self.n_classes = n_classes
        self.head_hidden = head_hidden
        self.vocab_hash = vocab_hash
        rng = _rng(seed)
        group = encoder.n_layers + 1
        rep = 3 * encoder.out_size
        b1 = 1.0 / np.sqrt(rep)
        b2 = 1.0 / np.sqrt(head_hidden)
        self.w1 = Parameter(_uniform(rng, b1, (rep, head_hidden), encoder.dtype), "head.w1", group)
        self.b1 = Parameter(np.zeros(head_hidden, dtype=encoder.dtype), "head.b1", group)
        self.w2 = Parameter(_uniform(rng, b2, (head_hidden, n_classes), encoder.dtype),
                            "head.w2", group)
        self.b2 = Parameter(np.zeros(n_classes, dtype=encoder.dtype), "head.b2", group)

    @property
    def n_groups(self) -> int:
        return self.encoder.n_layers + 2

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + [self.w1, self.b1, self.w2, self.b2]

    def forward(
        self,
        ids: np.ndarray,
        lengths: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """ids (T, B) left-aligned with trailing padding, lengths (B,) -> logits (B, K);
        rng=None is evaluation.

        Pooling only reads positions before each sequence's length, so
        trailing padding can never change the logits. Outside training, with
        no parameter requiring a gradient (the scoring pass freezes them all),
        the encoder runs in windows of at most _WINDOW_POSITIONS positions (at
        least one step each), the LSTM state carried from window to window,
        and ``ad.Pools`` folds each window in as it comes, so no (T, B, H)
        output is held whole; otherwise ``ad.pool_over_time`` pools the whole
        output as one window, on the tape.
        """
        ids = np.asarray(ids)
        lengths = np.asarray(lengths, dtype=np.int64)
        T, B = ids.shape
        enc = self.encoder
        if rng is None and not any(p.requires_grad for p in self.parameters()):
            pools, state = ad.Pools(lengths, enc.out_size, enc.dtype), None
            steps = max(1, _WINDOW_POSITIONS // B)
            for start in range(0, T, steps):
                out, state = enc.forward(ids[start : start + steps], state)
                pools.add(out.data)  # the window's own array, free to overwrite
            rep = Tensor(pools.value())
        else:
            rep = ad.pool_over_time(enc.forward(ids, None, rng)[0], lengths)
        hid = ad.relu(ad.add(ad.matmul(rep, self.w1), self.b1))
        hid = dropout(hid, rng, enc.dropouts.head, (B, self.head_hidden))
        return ad.add(ad.matmul(hid, self.w2), self.b2)

    def loss(self, ids, lengths, labels, rng=None) -> Tensor:
        logits = self.forward(ids, lengths, rng)
        return ad.cross_entropy(logits, np.asarray(labels))

    def predict_proba(self, ids, lengths) -> np.ndarray:
        logits = self.forward(ids, lengths).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)


# checkpoint header kind -> the model class it names
MODELS = {cls.KIND: cls for cls in (LanguageModel, Classifier)}


def transfer_encoder(lm: LanguageModel, dropouts: Dropouts) -> Encoder:
    """A copy of the LM's encoder, its shape and values, with ``dropouts``
    for its rates.

    The copy arrives frozen (training stage 0); unfreeze gradually via
    trainer.gradual_unfreeze.
    """
    enc = Encoder(**lm.encoder.shape(), dropouts=dropouts, seed=None)
    for mine, theirs in zip(enc.parameters(), lm.encoder.parameters()):
        mine.data[:] = theirs.data
        mine.frozen = True
    return enc
