"""EVM opcode table: byte value -> (mnemonic, immediate_bytes).

Istanbul-vintage instruction set. Only the PUSH family carries immediate
bytes; everything else has zero. Bytes absent from the table are not valid
instructions and disassemble to the INVALID token.
"""

from __future__ import annotations

# Reserved mnemonic for undefined bytes. 0xfe (the designated invalid
# instruction) maps to the same token, so the token set stays closed.
INVALID = "INVALID"

OPCODES: dict[int, tuple[str, int]] = {
    # Stop and arithmetic
    0x00: ("STOP", 0),
    0x01: ("ADD", 0),
    0x02: ("MUL", 0),
    0x03: ("SUB", 0),
    0x04: ("DIV", 0),
    0x05: ("SDIV", 0),
    0x06: ("MOD", 0),
    0x07: ("SMOD", 0),
    0x08: ("ADDMOD", 0),
    0x09: ("MULMOD", 0),
    0x0A: ("EXP", 0),
    0x0B: ("SIGNEXTEND", 0),
    # Comparison and bitwise logic
    0x10: ("LT", 0),
    0x11: ("GT", 0),
    0x12: ("SLT", 0),
    0x13: ("SGT", 0),
    0x14: ("EQ", 0),
    0x15: ("ISZERO", 0),
    0x16: ("AND", 0),
    0x17: ("OR", 0),
    0x18: ("XOR", 0),
    0x19: ("NOT", 0),
    0x1A: ("BYTE", 0),
    0x1B: ("SHL", 0),
    0x1C: ("SHR", 0),
    0x1D: ("SAR", 0),
    # Keccak
    0x20: ("SHA3", 0),
    # Environment
    0x30: ("ADDRESS", 0),
    0x31: ("BALANCE", 0),
    0x32: ("ORIGIN", 0),
    0x33: ("CALLER", 0),
    0x34: ("CALLVALUE", 0),
    0x35: ("CALLDATALOAD", 0),
    0x36: ("CALLDATASIZE", 0),
    0x37: ("CALLDATACOPY", 0),
    0x38: ("CODESIZE", 0),
    0x39: ("CODECOPY", 0),
    0x3A: ("GASPRICE", 0),
    0x3B: ("EXTCODESIZE", 0),
    0x3C: ("EXTCODECOPY", 0),
    0x3D: ("RETURNDATASIZE", 0),
    0x3E: ("RETURNDATACOPY", 0),
    0x3F: ("EXTCODEHASH", 0),
    # Block
    0x40: ("BLOCKHASH", 0),
    0x41: ("COINBASE", 0),
    0x42: ("TIMESTAMP", 0),
    0x43: ("NUMBER", 0),
    0x44: ("DIFFICULTY", 0),
    0x45: ("GASLIMIT", 0),
    0x46: ("CHAINID", 0),
    0x47: ("SELFBALANCE", 0),
    # Stack, memory, storage, flow
    0x50: ("POP", 0),
    0x51: ("MLOAD", 0),
    0x52: ("MSTORE", 0),
    0x53: ("MSTORE8", 0),
    0x54: ("SLOAD", 0),
    0x55: ("SSTORE", 0),
    0x56: ("JUMP", 0),
    0x57: ("JUMPI", 0),
    0x58: ("PC", 0),
    0x59: ("MSIZE", 0),
    0x5A: ("GAS", 0),
    0x5B: ("JUMPDEST", 0),
    # Push (the only opcodes with immediates)
    **{0x60 + i: (f"PUSH{i + 1}", i + 1) for i in range(32)},
    # Dup and swap
    **{0x80 + i: (f"DUP{i + 1}", 0) for i in range(16)},
    **{0x90 + i: (f"SWAP{i + 1}", 0) for i in range(16)},
    # Logging
    **{0xA0 + i: (f"LOG{i}", 0) for i in range(5)},
    # System
    0xF0: ("CREATE", 0),
    0xF1: ("CALL", 0),
    0xF2: ("CALLCODE", 0),
    0xF3: ("RETURN", 0),
    0xF4: ("DELEGATECALL", 0),
    0xF5: ("CREATE2", 0),
    0xFA: ("STATICCALL", 0),
    0xFD: ("REVERT", 0),
    0xFE: (INVALID, 0),
    0xFF: ("SELFDESTRUCT", 0),
}

# Mnemonic -> byte value, for encoding synthetic bytecode. INVALID encodes
# as 0xfe (it is also the token for any undefined byte).
BYTE_OF: dict[str, int] = {name: byte for byte, (name, _) in OPCODES.items()}

