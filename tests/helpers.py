"""Accessors over opscan objects that only the tests use."""

from opscan.opcodes import INVALID, OPCODES


def lookup(byte: int) -> tuple[str, int]:
    """Mnemonic and immediate width for a byte value; INVALID if undefined."""
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"not a byte value: {byte}")
    return OPCODES.get(byte, (INVALID, 0))


def token_set(collapse_push: bool = False) -> set[str]:
    """Every token the disassembler can emit."""
    names = {INVALID}
    for name, _ in OPCODES.values():
        if collapse_push and name.startswith("PUSH"):
            name = "PUSH"
        names.add(name)
    return names


def head_parameters(clf) -> list:
    """The classifier head's parameters, in parameters() order."""
    return [clf.w1, clf.b1, clf.w2, clf.b2]
