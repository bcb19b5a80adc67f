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

import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import CorpusError, Vocab
from .model import Classifier, Dropouts, Encoder, LanguageModel

MAGIC = b"OPSC"
VERSION = 1

_NP_DTYPE = {"f32": np.float32, "f64": np.float64}
_WIRE_DTYPE = {"f32": "<f4", "f64": "<f8"}  # little-endian on any host
_DTYPE_CODE = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_HEADER_KEYS = ("kind", "vocab_hash", "vocab", "hyperparams", "metadata", "params")


class CheckpointError(Exception):
    """Unreadable, mismatched, or corrupt checkpoint."""


def kind_of(model) -> str:
    if isinstance(model, Classifier):
        return "clf"
    if isinstance(model, LanguageModel):
        return "lm"
    raise CheckpointError(f"cannot checkpoint a {type(model).__name__}")


def _hyperparams(model) -> dict:
    enc = model.encoder
    hp = {
        "vocab_size": enc.vocab_size,
        "emb_size": enc.emb_size,
        "hidden_size": enc.hidden_size,
        "n_layers": enc.n_layers,
        "tie_last": enc.tie_last,
        "dtype": _DTYPE_CODE[enc.dtype],
        "dropouts": asdict(enc.dropouts),
    }
    if isinstance(model, Classifier):
        hp["n_classes"] = model.n_classes
        hp["head_hidden"] = model.head_hidden
    return hp


def save_checkpoint(model, path, vocab: Vocab | None = None, metadata: dict | None = None) -> None:
    """Write the model to ``path``.

    ``vocab`` embeds the token list and pins its content hash; when the
    model already carries a vocab hash the two must agree. ``metadata``
    defaults to whatever a previous load attached, keeping round-trips
    byte-identical.
    """
    kind = kind_of(model)
    params = model.parameters()
    manifest = []
    for p in params:
        code = _DTYPE_CODE.get(p.data.dtype)
        if code is None:
            raise CheckpointError(f"parameter {p.name!r} has unsupported dtype {p.data.dtype}")
        manifest.append({"name": p.name, "shape": list(p.shape), "dtype": code})

    vocab_hash = model.vocab_hash
    tokens = None
    if vocab is not None:
        if vocab_hash is not None and vocab.content_hash() != vocab_hash:
            raise CheckpointError("model was built against a different vocabulary")
        vocab_hash = vocab.content_hash()
        tokens = vocab.itos

    header = {
        "kind": kind,
        "vocab_hash": vocab_hash,
        "vocab": tokens,
        "hyperparams": _hyperparams(model),
        "metadata": metadata if metadata is not None else getattr(model, "checkpoint_meta", {}),
        "params": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Written beside path and renamed over it: a reader, or a crash, sees
    # either the previous file or the complete new one, never a partial one.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(blob)))
            fh.write(blob)
            for p, entry in zip(params, manifest):
                wire = _WIRE_DTYPE[entry["dtype"]]
                fh.write(np.ascontiguousarray(p.data).astype(wire, copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh)[0]


def _read_header(fh) -> tuple[dict, int]:
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"corrupt header: no {', '.join(missing)}")
    return header, 12 + length


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


def _rebuild(header: dict):
    hp = header["hyperparams"]
    try:
        enc = Encoder(
            hp["vocab_size"],
            emb_size=hp["emb_size"],
            hidden_size=hp["hidden_size"],
            n_layers=hp["n_layers"],
            dropouts=Dropouts(**hp["dropouts"]),
            tie_last=hp["tie_last"],
            dtype=_NP_DTYPE[hp["dtype"]],
        )
        if header["kind"] == "clf":
            return Classifier(
                enc,
                n_classes=hp["n_classes"],
                head_hidden=hp["head_hidden"],
                vocab_hash=header["vocab_hash"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt header: bad hyperparameters ({exc!r})") from exc
    return LanguageModel(enc, vocab_hash=header["vocab_hash"])


def _manifest(header: dict) -> list[tuple[str, list, np.dtype]]:
    """(name, shape, wire dtype) of every parameter record in the header."""
    try:
        return [
            (entry["name"], entry["shape"], np.dtype(_WIRE_DTYPE[entry["dtype"]]))
            for entry in header["params"]
        ]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt header: bad parameter manifest ({exc!r})") from exc


def load_checkpoint(path, kind: str | None = None, vocab: Vocab | None = None):
    """Reconstruct the saved model.

    ``kind`` asserts what the caller expects ("lm" or "clf"); ``vocab``
    cross-checks the header hash against an external vocabulary. The
    model's ``checkpoint_meta`` is the header's metadata and its
    ``checkpoint_vocab`` the embedded vocabulary (None if absent). Every
    parameter value must be finite.
    """
    with open(path, "rb") as fh:
        header, _ = _read_header(fh)
        if header["kind"] not in ("lm", "clf"):
            raise CheckpointError(f"unknown model kind {header['kind']!r}")
        if kind is not None and header["kind"] != kind:
            raise CheckpointError(f"expected a {kind!r} checkpoint, found {header['kind']!r}")
        if vocab is not None and header["vocab_hash"] != vocab.content_hash():
            raise CheckpointError("checkpoint was built against a different vocabulary")
        embedded = vocab_from_header(header)

        model = _rebuild(header)
        by_name = {p.name: p for p in model.parameters()}
        manifest = _manifest(header)
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
