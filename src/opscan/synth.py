"""Synthetic labeled corpus with planted opcode motifs.

Each record is uniform opcode noise with one class-specific motif spliced
in several times. The four motifs are permutations of the same 12-token
multiset, so class identity lives purely in token order: bag-of-opcode
statistics are identical across classes, and telling them apart requires
a model that actually reads sequences. Records are emitted in the corpus
JSONL format with real bytecode (PUSH immediates included), so the full
ingest path, disassembler included, gets exercised.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .artifacts import write_atomic
from .corpus import NORMAL, ContractRecord
from .opcodes import BYTE_OF, OPCODES

# Background noise: common mnemonics seen in almost any real contract.
NOISE_POOL: tuple[str, ...] = (
    "PUSH1", "PUSH2", "DUP1", "DUP2", "SWAP1", "POP", "ADD", "MUL", "SUB",
    "MSTORE", "MLOAD", "SLOAD", "SSTORE", "JUMP", "JUMPI", "JUMPDEST",
    "ISZERO", "EQ", "LT", "GT", "AND", "OR", "CALLDATALOAD", "CALLDATASIZE",
)

# One shared multiset of distinctive mnemonics; the class motifs below are
# four fixed permutations of it.
MOTIF_TOKENS: tuple[str, ...] = (
    "CALLER", "CALLVALUE", "BALANCE", "SELFDESTRUCT", "CALLCODE", "CREATE2",
    "EXTCODEHASH", "RETURNDATASIZE", "ORIGIN", "GASPRICE", "COINBASE",
    "TIMESTAMP",
)

CLASS_MOTIFS: tuple[tuple[str, ...], ...] = (
    ("CALLER", "RETURNDATASIZE", "EXTCODEHASH", "GASPRICE", "TIMESTAMP",
     "SELFDESTRUCT", "CREATE2", "BALANCE", "CALLCODE", "COINBASE",
     "CALLVALUE", "ORIGIN"),
    ("CREATE2", "TIMESTAMP", "BALANCE", "CALLCODE", "GASPRICE",
     "RETURNDATASIZE", "CALLVALUE", "ORIGIN", "EXTCODEHASH", "COINBASE",
     "SELFDESTRUCT", "CALLER"),
    ("COINBASE", "ORIGIN", "TIMESTAMP", "CREATE2", "CALLCODE", "CALLER",
     "RETURNDATASIZE", "GASPRICE", "BALANCE", "SELFDESTRUCT", "EXTCODEHASH",
     "CALLVALUE"),
    ("EXTCODEHASH", "SELFDESTRUCT", "COINBASE", "BALANCE", "ORIGIN",
     "CREATE2", "CALLVALUE", "CALLCODE", "TIMESTAMP", "CALLER",
     "RETURNDATASIZE", "GASPRICE"),
)


def _planted_sequence(rng: np.random.Generator, motif: tuple[str, ...],
                      mean_len: int, jitter: int, plants: int) -> tuple[str, ...]:
    length = int(rng.integers(mean_len - jitter, mean_len + jitter + 1))
    toks = [NOISE_POOL[j] for j in rng.integers(0, len(NOISE_POOL), size=length)]
    # One plant per equal-width span keeps copies intact and spread out.
    span = length // plants
    if span < len(motif):
        raise ValueError(
            f"sequence length {length} too short for {plants} plants of {len(motif)} tokens"
        )
    for k in range(plants):
        pos = k * span + int(rng.integers(0, span - len(motif) + 1))
        toks[pos:pos + len(motif)] = motif
    return tuple(toks)


def synth_records(per_class: int, seed: int, mean_len: int, jitter: int, plants: int,
                  dup_normals: int) -> list[ContractRecord]:
    """Generate per_class records for each of the 4 classes, plus optional
    exact duplicates of normal records (fresh addresses, same tokens) for
    exercising dedup downstream."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if not 0 <= dup_normals <= per_class:
        raise ValueError("dup_normals must be between 0 and per_class")
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    if mean_len - jitter < 1:
        raise ValueError("need mean_len - jitter >= 1")
    if plants < 1:
        raise ValueError("plants must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[ContractRecord] = []
    counter = 0
    for label, motif in enumerate(CLASS_MOTIFS):
        for _ in range(per_class):
            toks = _planted_sequence(rng, motif, mean_len, jitter, plants)
            out.append(ContractRecord(f"0x{counter:040x}", toks, label))
            counter += 1
    normals = [r for r in out if r.label == NORMAL]
    for i in range(dup_normals):
        out.append(ContractRecord(f"0x{counter:040x}", normals[i].tokens, NORMAL))
        counter += 1
    return out


def to_bytecode(tokens: tuple[str, ...], rng: np.random.Generator) -> str:
    """Hex encoding of the token sequence; PUSH immediates are random bytes."""
    parts = bytearray()
    for tok in tokens:
        byte = BYTE_OF[tok]
        parts.append(byte)
        width = OPCODES[byte][1]
        if width:
            parts.extend(int(b) for b in rng.integers(0, 256, size=width))
    return parts.hex()


def write_corpus(records: list[ContractRecord], path: str | Path, seed: int) -> None:
    """Write records as corpus JSONL with bytecode payloads and 1-based labels."""
    rng = np.random.default_rng(seed)
    write_atomic(path, (json.dumps({"address": rec.address,
                                    "bytecode": to_bytecode(rec.tokens, rng),
                                    "label": rec.label + 1},
                                   sort_keys=True, allow_nan=False) + "\n"
                        for rec in records))
