"""Table-driven EVM bytecode disassembler.

Produces the opcode token stream a contract's runtime bytecode spells out,
in one pass over the decoded bytes. PUSH immediates are skipped, never
tokenized: the token sequence is the instruction skeleton only, which is
what the sequence models consume.
"""

from __future__ import annotations

import re

from .opcodes import OPCODES, INVALID

_NON_HEX = re.compile(r"[^0-9a-fA-F]")

# (mnemonic, immediate width) for every byte value; undefined bytes -> INVALID.
_TABLE = tuple(OPCODES.get(byte, (INVALID, 0)) for byte in range(256))


class DisasmError(ValueError):
    """Malformed bytecode. byte_offset points at the offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def decode_hex(bytecode: str) -> bytes:
    """Hex string (optional 0x prefix) to bytes, with offset-bearing errors."""
    text = bytecode.strip()
    if text[:2] in ("0x", "0X"):
        text = text[2:]
    bad = _NON_HEX.search(text)
    if bad:
        raise DisasmError(f"non-hex character {bad.group()!r}", bad.start() // 2)
    if len(text) % 2:
        raise DisasmError("odd-length hex string", len(text) // 2)
    return bytes.fromhex(text)


def disassemble(bytecode: str, collapse_push: bool = False) -> list[str]:
    """Token sequence for a hex-encoded bytecode string, in one table pass.

    Each byte's mnemonic is emitted and its PUSH immediate skipped. A PUSH
    whose immediate runs past the end of the code is still emitted, and the
    pass stops there. collapse_push folds PUSH1..PUSH32 into a single PUSH
    token.
    """
    code = decode_hex(bytecode)
    tokens = []
    i, n = 0, len(code)
    while i < n:
        name, width = _TABLE[code[i]]
        tokens.append("PUSH" if collapse_push and width else name)
        i += 1 + width
    return tokens
