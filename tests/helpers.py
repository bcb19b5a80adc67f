"""Accessors over opscan objects that only the tests use."""

from opscan import kernels as K
from opscan import model as M
from opscan.config import RunConfig
from opscan.opcodes import INVALID, OPCODES

SHIPPED = RunConfig()  # the values every command uses unless a config or flag sets them


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


def reference_tokens(code: bytes, collapse_push: bool = False) -> list[str]:
    """Tokens of a plain address-order walk over OPCODES.

    Each PUSH skips its immediate; one cut short by the end of the code
    still counts, and the walk stops there. An oracle for disasm.disassemble.
    """
    tokens = []
    i = 0
    while i < len(code):
        name, width = OPCODES.get(code[i], (INVALID, 0))
        if collapse_push and name.startswith("PUSH"):
            name = "PUSH"
        tokens.append(name)
        i += 1 + width
    return tokens


def kernel_step(x, h, c, wx, wh, b, for_backward: bool):
    """One LSTM step of x (B, D) from state (h, c), run through
    kernels.lstm_seq_forward at T = 1; returns (h_new, c_new)."""
    hs, gates = K.lstm_seq_forward(x[None], wx, wh, b, h, c, for_backward)
    return hs[1], gates[-1, 4]


def head_parameters(clf) -> list:
    """The classifier head's parameters, in parameters() order."""
    return [clf.w1, clf.b1, clf.w2, clf.b2]


def encoder(vocab_size: int, **kwargs) -> M.Encoder:
    """model.Encoder over vocab_size ids, with SHIPPED's shapes, rates, dtype
    and seed for every argument that kwargs leaves out."""
    args = {key: getattr(SHIPPED, key) for key in M.Encoder.SHAPE_KEYS if key != "vocab_size"}
    args.update(dropouts=SHIPPED.dropouts(), seed=SHIPPED.seed)
    return M.Encoder(vocab_size, **{**args, **kwargs})
