"""Versioned binary persistence for language models and classifiers.

Layout: 4-byte magic ``OPSC``, u32 version, u32 header length, UTF-8 JSON
header, then the raw little-endian bytes of every parameter in header
manifest order. The header carries the model kind, hyperparameters, the
vocabulary (tokens + content hash), caller metadata, and a manifest of
(name, shape, dtype) records, so a truncated body names the exact
parameter that came up short.

The header JSON is serialized with sorted keys and no whitespace, and
loading preserves metadata verbatim, so save -> load -> save produces a
byte-identical file.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .artifacts import write_atomic
from .corpus import CorpusError, Vocab
from .model import DTYPES, MODELS, Dropouts, Encoder

MAGIC = b"OPSC"
VERSION = 1

_HEADER_KEYS = ("kind", "vocab_hash", "vocab", "hyperparams", "metadata", "params")


class CheckpointError(Exception):
    """Unreadable, mismatched, or corrupt checkpoint."""


def save_checkpoint(model, path, vocab: Vocab | None = None, metadata: dict | None = None) -> None:
    """Write the model to ``path``.

    ``vocab`` embeds the token list and pins its content hash; it must be
    the vocabulary the model was built or loaded against. ``metadata``
    defaults to whatever a previous load attached, keeping round-trips
    byte-identical. Every parameter is in its encoder's dtype.
    """
    hyperparams = {**model.encoder.shape(), "dropouts": asdict(model.encoder.dropouts),
                   **{key: getattr(model, key) for key in model.HEAD_KEYS}}
    code = hyperparams["dtype"]
    params = model.parameters()
    header = {
        "kind": model.KIND,
        "vocab_hash": model.vocab_hash if vocab is None else vocab.content_hash(),
        "vocab": None if vocab is None else vocab.itos,
        "hyperparams": hyperparams,
        "metadata": metadata if metadata is not None else getattr(model, "checkpoint_meta", {}),
        "params": [{"name": p.name, "shape": list(p.shape), "dtype": code} for p in params],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    wire = DTYPES[code].newbyteorder("<")  # little-endian on any host
    # streamed chunk by chunk: joined, they would hold a copy of every parameter at once
    write_atomic(path, itertools.chain(
        (MAGIC, struct.pack("<II", VERSION, len(blob)), blob),
        (np.ascontiguousarray(p.data).astype(wire, copy=False).tobytes() for p in params)))


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh)


def _read_header(fh) -> dict:
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
    raw = fh.read(8)
    if len(raw) < 8:
        raise CheckpointError("truncated header")
    version, length = struct.unpack("<II", raw)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    blob = fh.read(length)
    if len(blob) < length:
        raise CheckpointError("truncated header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"corrupt header: no {', '.join(missing)}")
    return header


def vocab_from_header(header: dict) -> Vocab | None:
    """Rebuild the embedded vocabulary, verifying its hash. None if absent."""
    tokens = header.get("vocab")
    if tokens is None:
        return None
    if not isinstance(tokens, list) or tokens[: len(Vocab.RESERVED)] != list(Vocab.RESERVED):
        raise CheckpointError("embedded vocabulary lacks the reserved tokens")
    try:
        vocab = Vocab(tokens[len(Vocab.RESERVED) :])
    except (CorpusError, TypeError) as exc:  # duplicate or unhashable tokens
        raise CheckpointError(f"embedded vocabulary is corrupt: {exc}") from exc
    if header.get("vocab_hash") not in (None, vocab.content_hash()):
        raise CheckpointError("embedded vocabulary does not match its recorded hash")
    return vocab


def _rebuild(header: dict, n_records: int):
    """The model the header describes, its parameters allocated but not
    drawn (seed=None): the body read fills every one of them. An n_layers
    whose three records per layer the manifest's n_records cannot hold is
    refused before any layer is built."""
    hp = header["hyperparams"]
    try:
        if 3 * hp["n_layers"] > n_records:
            raise ValueError(f"n_layers {hp['n_layers']} needs more than the manifest's "
                             f"{n_records} parameter records")
        enc = Encoder(**{key: hp[key] for key in Encoder.SHAPE_KEYS},
                      dropouts=Dropouts(**hp["dropouts"]), seed=None)
        cls = MODELS[header["kind"]]
        return cls(enc, **{key: hp[key] for key in cls.HEAD_KEYS},
                   vocab_hash=header["vocab_hash"], seed=None)
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        raise CheckpointError(f"corrupt header: bad hyperparameters ({exc!r})") from exc


def _manifest(header: dict) -> list[tuple[str, list, np.dtype]]:
    """(name, shape, wire dtype) of every parameter record in the header."""
    try:
        return [
            (entry["name"], entry["shape"], DTYPES[entry["dtype"]].newbyteorder("<"))
            for entry in header["params"]
        ]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt header: bad parameter manifest ({exc!r})") from exc


def load_checkpoint(path, kind: str | None = None, vocab: Vocab | None = None):
    """Reconstruct the saved model.

    ``kind`` asserts what the caller expects (a key of model.MODELS); ``vocab``
    cross-checks the header hash against an external vocabulary. The
    model's ``checkpoint_meta`` is the header's metadata and its
    ``checkpoint_vocab`` the embedded vocabulary (None if absent). Every
    parameter value must be finite.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        # a list or object kind is unhashable, so no lookup in MODELS may meet it
        if not isinstance(header["kind"], str) or header["kind"] not in MODELS:
            raise CheckpointError(f"unknown model kind {header['kind']!r}")
        if kind is not None and header["kind"] != kind:
            raise CheckpointError(f"expected a {kind!r} checkpoint, found {header['kind']!r}")
        if vocab is not None and header["vocab_hash"] != vocab.content_hash():
            raise CheckpointError("checkpoint was built against a different vocabulary")
        embedded = vocab_from_header(header)

        manifest = _manifest(header)
        model = _rebuild(header, len(manifest))
        for tokens in (vocab, embedded):
            if tokens is not None and len(tokens) > model.encoder.vocab_size:
                raise CheckpointError(f"a vocabulary of {len(tokens)} tokens does not fit "
                                      f"the model's vocab_size {model.encoder.vocab_size}")
        by_name = {p.name: p for p in model.parameters()}
        if set(by_name) != {name for name, _, _ in manifest}:
            raise CheckpointError("parameter manifest does not match the model architecture")
        for name, shape, dt in manifest:
            param = by_name[name]
            if list(param.shape) != shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {shape}, expected {list(param.shape)}"
                )
            nbytes = math.prod(shape) * dt.itemsize
            chunk = fh.read(nbytes)
            if len(chunk) < nbytes:
                raise CheckpointError(f"truncated body in parameter record {name!r}")
            values = np.frombuffer(chunk, dtype=dt)
            if not np.isfinite(values).all():
                raise CheckpointError(f"parameter record {name!r} holds a non-finite value")
            param.data[:] = values.reshape(shape)
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last parameter record")

    model.checkpoint_meta = header["metadata"]
    model.checkpoint_vocab = embedded
    return model
