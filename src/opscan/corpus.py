"""Corpus handling: ingestion, normal-class dedup, stratified splits, vocab, batching.

The corpus file format is line-delimited JSON, one contract per line:

    {"address": "0xabc...", "bytecode": "6080...", "label": 1}
    {"address": "0xdef...", "tokens": ["PUSH1", "ADD"], "label": 4}

Raw labels are 1=Suicidal, 2=Prodigal, 3=Greedy, 4=Normal; label 5 marks
contracts flagged in more than one category and is skipped at ingestion
(counted, not an error). Internally labels are 0-based class indices
aligned with ``metrics.CLASS_NAMES``. A token is never a reserved vocabulary
name and holds no tab, CR, LF or lone surrogate, so vocab.tsv can hold it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifacts import write_atomic
from .disasm import DisasmError, disassemble
from .metrics import CLASS_NAMES, N_CLASSES

NORMAL = 3  # class index of the only label that gets deduplicated

_RAW_TO_CLASS = {1: 0, 2: 1, 3: 2, 4: 3}
_RAW_SKIPPED = 5


class CorpusError(ValueError):
    """Malformed corpus data; the message names its 1-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True, slots=True)
class ContractRecord:
    address: str
    tokens: tuple[str, ...]
    label: int  # 0..3, indexes CLASS_NAMES


@dataclass(slots=True)
class IngestStats:
    per_class: list[int] = field(default_factory=lambda: [0] * N_CLASSES)
    skipped: int = 0


def _admit(tokens: list, known: dict[str, str], line: int) -> tuple[str, ...]:
    """Check the tokens of one record that ``known`` does not hold yet, add
    them to it, and return the record's tokens as ``known``'s str objects."""
    if not all(isinstance(t, str) for t in tokens):
        raise CorpusError("'tokens' must be a list of strings", line)
    for t in tokens:
        if t not in known:
            # A vocab.tsv line holds no tab, CR or LF, and UTF-8 no lone surrogate.
            if t in Vocab.RESERVED or re.search("[\t\r\n\ud800-\udfff]", t):
                raise CorpusError(f"token {t!r} is reserved or cannot be a vocab.tsv entry", line)
            known[t] = t
    return tuple(map(known.__getitem__, tokens))


def _record_from_line(obj: dict, line: int, known: dict[str, str]) -> ContractRecord | None:
    address = obj.get("address")
    if not isinstance(address, str) or not address:
        raise CorpusError("missing or empty 'address'", line)
    raw = obj.get("label")
    # type(), not isinstance(): JSON true is a bool, and bool is an int
    if type(raw) is not int or not 1 <= raw <= _RAW_SKIPPED:
        raise CorpusError(f"label must be an integer 1..5, got {raw!r}", line)
    if raw == _RAW_SKIPPED:
        return None
    if "tokens" in obj:
        tokens = obj["tokens"]
        if not isinstance(tokens, list):
            raise CorpusError("'tokens' must be a list of strings", line)
        try:
            tokens = tuple(map(known.__getitem__, tokens))
        except (KeyError, TypeError):  # a token not seen yet, or unhashable
            tokens = _admit(tokens, known, line)
    elif "bytecode" in obj:
        if not isinstance(obj["bytecode"], str):
            raise CorpusError("'bytecode' must be a hex string", line)
        try:
            tokens = disassemble(obj["bytecode"])
        except DisasmError as exc:
            raise CorpusError(f"bad bytecode: {exc}", line) from exc
    else:
        raise CorpusError("record needs 'tokens' or 'bytecode'", line)
    if not tokens:
        raise CorpusError("empty opcode sequence", line)
    return ContractRecord(address, tuple(tokens), _RAW_TO_CLASS[raw])


def ingest(path) -> tuple[list[ContractRecord], IngestStats]:
    """Read a corpus file. Returns (records, stats); label-5 lines are counted
    into ``stats.skipped`` and dropped. Addresses must be unique.

    The ``tokens`` of all records from one call share one str object per
    distinct token, and each distinct token is checked once, when it first
    appears. A split then holds about 9 bytes per token, its tuple slots,
    instead of one str per occurrence."""
    records: list[ContractRecord] = []
    stats = IngestStats()
    seen: set[str] = set()
    known: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"invalid JSON: {exc.msg}", line_no) from exc
            except RecursionError as exc:
                raise CorpusError("JSON nested too deeply", line_no) from exc
            if not isinstance(obj, dict):
                raise CorpusError("record must be a JSON object", line_no)
            rec = _record_from_line(obj, line_no, known)
            if rec is None:
                stats.skipped += 1
                continue
            if rec.address in seen:
                raise CorpusError(f"duplicate address {rec.address!r}", line_no)
            seen.add(rec.address)
            records.append(rec)
            stats.per_class[rec.label] += 1
    return records, stats


def dedup_normals(records: Sequence[ContractRecord]) -> list[ContractRecord]:
    """Drop Normal records whose exact token sequence was already seen.

    Vulnerable classes are kept verbatim (duplicates and all); the first
    occurrence of each distinct normal sequence wins. Order is preserved.
    """
    seen: set[tuple[str, ...]] = set()
    out: list[ContractRecord] = []
    for rec in records:
        if rec.label == NORMAL:
            if rec.tokens in seen:
                continue
            seen.add(rec.tokens)
        out.append(rec)
    return out


@dataclass(slots=True)
class Split:
    train: list[ContractRecord]
    valid: list[ContractRecord]
    test: list[ContractRecord]
    seed: int
    ratios: tuple[float, float, float]

    def save_manifest(self, path) -> None:
        manifest = {
            "seed": self.seed,
            "ratios": list(self.ratios),
            "train": [r.address for r in self.train],
            "valid": [r.address for r in self.valid],
            "test": [r.address for r in self.test],
        }
        write_atomic(path, json.dumps(manifest, indent=1, allow_nan=False) + "\n")


def _split_counts(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    # floor the train and test shares; valid absorbs the rounding remainder.
    # A split that flooring empties takes one record from train if train can
    # spare it, else from the largest split, which for n >= 3 always can.
    counts = [int(ratios[0] * n), 0, int(ratios[2] * n)]
    counts[1] = n - counts[0] - counts[2]
    for k in (2, 1, 0):
        if counts[k] == 0:
            counts[0 if counts[0] > 1 else counts.index(max(counts))] -= 1
            counts[k] = 1
    return tuple(counts)


def stratified_split(records: Sequence[ContractRecord], ratios: tuple[float, float, float],
                     seed: int) -> Split:
    """Shuffle and split each class independently at the given ratios.

    Each class uses its own generator keyed on (seed, class), so a class's
    assignment does not depend on which other classes are present.
    """
    by_class: dict[int, list[ContractRecord]] = {}
    for rec in records:
        by_class.setdefault(rec.label, []).append(rec)
    split = Split([], [], [], seed=seed, ratios=tuple(ratios))
    for label in sorted(by_class):
        group = by_class[label]
        n = len(group)
        if n < 3:
            raise CorpusError(
                f"class {CLASS_NAMES[label]!r} has {n} records; need >= 3 to fill every split"
            )
        n_train, n_valid, n_test = _split_counts(n, split.ratios)
        order = np.random.default_rng([seed, label]).permutation(n)
        split.train.extend(group[i] for i in order[:n_train])
        split.valid.extend(group[i] for i in order[n_train : n_train + n_valid])
        split.test.extend(group[i] for i in order[n_train + n_valid :])
    return split


class Vocab:
    """Token/id bijection with reserved ids PAD=0, UNK=1, BOS=2.

    Reserved names are lowercase and bracketed so they can never collide
    with opcode mnemonics.
    """

    PAD = 0
    UNK = 1
    BOS = 2
    RESERVED = ("<pad>", "<unk>", "<bos>")

    def __init__(self, tokens: Iterable[str]):
        self.itos: list[str] = list(self.RESERVED) + list(tokens)
        self.stoi: dict[str, int] = {t: i for i, t in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise CorpusError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.itos)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for i, tok in enumerate(self.itos):
            h.update(f"{tok}\t{i}\n".encode())
        return h.hexdigest()

    def save(self, path) -> None:
        write_atomic(path, (f"{tok}\t{i}\n" for i, tok in enumerate(self.itos)))

    @classmethod
    def load(cls, path) -> "Vocab":
        itos: list[str] = []
        try:
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"vocab file is not UTF-8 text ({exc.reason})") from exc
        for line_no, line in enumerate(lines, start=1):
            try:
                tok, idx = line.rstrip("\n").split("\t")
                idx = int(idx)
            except ValueError as exc:
                raise CorpusError("expected 'token<TAB>integer id'", line_no) from exc
            if idx != line_no - 1:
                raise CorpusError(f"id {idx} out of order", line_no)
            itos.append(tok)
        if itos[: len(cls.RESERVED)] != list(cls.RESERVED):
            raise CorpusError("vocab file does not start with the reserved tokens")
        return cls(itos[len(cls.RESERVED) :])


def build_vocab(train_records: Sequence[ContractRecord], min_freq: int) -> Vocab:
    """Count tokens over the training split; ids go to tokens with frequency
    >= min_freq, ordered by descending frequency then lexicographically."""
    if not train_records:
        raise CorpusError("cannot build a vocabulary from an empty training split")
    counts: Counter[str] = Counter()
    for rec in train_records:
        counts.update(rec.tokens)
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocab(kept)


def numericalize(tokens: Sequence[str], vocab: Vocab) -> np.ndarray:
    """Map tokens to ids with a BOS prefix; unknown tokens become UNK."""
    ids = np.empty(len(tokens) + 1, dtype=np.int64)
    ids[0] = vocab.BOS
    ids[1:] = np.fromiter(map(vocab.stoi.get, tokens, itertools.repeat(vocab.UNK)),
                          dtype=np.int64, count=len(tokens))
    return ids


def lm_batches(
    id_seqs: Sequence[np.ndarray], batch_size: int, bptt: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Concatenate sequences into ``batch_size`` continuous lanes and walk
    them in bptt-sized steps.

    Yields (x, y) of shape (batch_size, bptt) where y is x shifted one
    position forward within its lane. Consecutive steps continue each lane,
    so recurrent state can carry across them.
    """
    stream = np.concatenate(list(id_seqs)) if id_seqs else np.empty(0, dtype=np.int64)
    if stream.size < batch_size * (bptt + 1):
        raise CorpusError(
            f"need at least batch_size*(bptt+1) = {batch_size * (bptt + 1)} tokens, "
            f"got {stream.size}"
        )
    lane_len = stream.size // batch_size
    lanes = stream[: lane_len * batch_size].reshape(batch_size, lane_len)
    for step in range((lane_len - 1) // bptt):
        lo = step * bptt
        yield lanes[:, lo : lo + bptt], lanes[:, lo + 1 : lo + bptt + 1]


def clipped(id_seqs: Sequence[np.ndarray], max_len: int | None) -> list[np.ndarray]:
    """The sequences as int64 arrays, each cut to its first max_len ids."""
    seqs = [np.asarray(s, dtype=np.int64) for s in id_seqs]
    return seqs if max_len is None else [s[:max_len] for s in seqs]


def _longest_first(seqs: Sequence[np.ndarray]) -> list[int]:
    return sorted(range(len(seqs)), key=lambda i: seqs[i].size, reverse=True)


def padded(seqs: Sequence[np.ndarray], rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(ids, lengths) of the sequences seqs[rows]: ids (len(rows), width),
    width the longest one's length, with PAD after each row's ids."""
    lengths = np.array([seqs[i].size for i in rows], dtype=np.int64)
    ids = np.full((len(rows), lengths.max()), Vocab.PAD, dtype=np.int64)
    for row, i in enumerate(rows):
        ids[row, : lengths[row]] = seqs[i]
    return ids, lengths


def row_batches(seqs: Sequence[np.ndarray], rows: int) -> list[list[int]]:
    """Indices of seqs, longest first, cut into batches of at most ``rows``."""
    order = _longest_first(seqs)
    return [order[start : start + rows] for start in range(0, len(order), rows)]


def clf_batches(
    id_seqs: Sequence[np.ndarray],
    labels: Sequence[int],
    batch_size: int,
    max_len: int | None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bucket sequences by length and pad each batch to its own maximum.

    Yields (ids, lengths, labels) with ids of shape (batch, width); PAD fills
    the tail of shorter rows. Sequences longer than max_len are truncated to
    their first max_len ids.
    """
    seqs = clipped(id_seqs, max_len)
    for rows in row_batches(seqs, batch_size):
        yield *padded(seqs, rows), np.asarray([labels[i] for i in rows], dtype=np.int64)
