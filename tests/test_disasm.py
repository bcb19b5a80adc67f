import string

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opscan.disasm import DisasmError, decode_hex, disassemble
from opscan.opcodes import BYTE_OF, INVALID, OPCODES

from canon_table import CANON, PUSH_FIXTURE_HEX, PUSH_FIXTURE_TOKENS, canon_token
from helpers import lookup, reference_tokens, token_set

# Random code, sometimes ending in a PUSH whose immediate is cut short.
TRUNCATED_PUSH = st.builds(
    lambda push, tail: bytes([push]) + tail[: push - 0x60],
    st.integers(0x60, 0x7F), st.binary(max_size=31))
CODE = st.builds(bytes.__add__, st.binary(max_size=96), st.just(b"") | TRUNCATED_PUSH)
NON_HEX = st.characters().filter(lambda c: c not in string.hexdigits and not c.isspace())


class TestTable:
    def test_spot_checks(self):
        assert OPCODES[0x01] == ("ADD", 0)
        assert OPCODES[0x05] == ("SDIV", 0)
        assert OPCODES[0x16] == ("AND", 0)

    def test_push_widths(self):
        for k in range(1, 33):
            assert OPCODES[0x60 + k - 1] == (f"PUSH{k}", k)

    def test_only_push_has_immediates(self):
        for byte, (name, width) in OPCODES.items():
            if not name.startswith("PUSH"):
                assert width == 0, name

    def test_mnemonics_unique(self):
        names = [name for name, _ in OPCODES.values()]
        assert len(names) == len(set(names))

    def test_matches_canon_transcription(self):
        assert OPCODES == CANON

    def test_lookup_undefined(self):
        assert lookup(0x0C) == (INVALID, 0)
        with pytest.raises(ValueError):
            lookup(256)

    def test_token_set_collapse(self):
        full = token_set()
        collapsed = token_set(collapse_push=True)
        assert "PUSH7" in full and "PUSH" not in full
        assert "PUSH" in collapsed and "PUSH7" not in collapsed
        assert len(full) - len(collapsed) == 31

    def test_byte_of_round_trip(self):
        for name, byte in BYTE_OF.items():
            assert OPCODES[byte][0] == name


class TestDisassemble:
    def test_all_256_single_bytes(self):
        for byte in range(256):
            assert disassemble(f"{byte:02x}") == [canon_token(byte)], hex(byte)

    def test_push_fixture(self):
        assert disassemble(PUSH_FIXTURE_HEX) == PUSH_FIXTURE_TOKENS

    def test_0x_prefix_and_case(self):
        assert disassemble("0x6080") == ["PUSH1"]
        assert disassemble("0X60FF61") == ["PUSH1", "PUSH2"]

    def test_truncated_push_emits_and_stops(self):
        assert disassemble("7f1234") == ["PUSH32"]
        assert disassemble("60") == ["PUSH1"]
        assert disassemble("005b61aa") == ["STOP", "JUMPDEST", "PUSH2"]

    def test_empty(self):
        assert disassemble("") == []
        assert disassemble("0x") == []

    def test_odd_length_names_offset(self):
        with pytest.raises(DisasmError) as exc:
            disassemble("60805")
        assert exc.value.byte_offset == 2

    def test_non_hex_char_names_offset(self):
        with pytest.raises(DisasmError) as exc:
            disassemble("60g0")
        assert exc.value.byte_offset == 1
        with pytest.raises(DisasmError):
            decode_hex("zz")

    def test_collapse_push_flag(self):
        tokens = disassemble(PUSH_FIXTURE_HEX, collapse_push=True)
        assert tokens == ["PUSH" if t.startswith("PUSH") else t for t in PUSH_FIXTURE_TOKENS]

    def test_deterministic_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            code = rng.integers(0, 256, size=rng.integers(0, 64)).astype(np.uint8)
            hexstr = bytes(code).hex()
            tokens = disassemble(hexstr)
            assert tokens == disassemble(hexstr)
            assert len(tokens) <= len(code)
            assert all(t in token_set() for t in tokens)

    def test_tokens_never_contain_immediates(self):
        # 0x33 = CALLER would appear if PUSH immediates were tokenized
        assert disassemble("6133335b") == ["PUSH2", "JUMPDEST"]

    @settings(max_examples=300, deadline=None)
    @given(code=CODE)
    def test_matches_reference_walk(self, code):
        assert disassemble(code.hex()) == reference_tokens(code)
        assert disassemble(code.hex(), collapse_push=True) == reference_tokens(code, True)

    @settings(max_examples=300, deadline=None)
    @given(prefix=st.sampled_from(["", "0x", "0X"]), head=st.text(string.hexdigits),
           bad=NON_HEX, tail=st.text(max_size=8))
    def test_non_hex_offset_is_first_bad_index_halved(self, prefix, head, bad, tail):
        assume(prefix or (head + bad)[:2] not in ("0x", "0X"))
        with pytest.raises(DisasmError) as exc:
            decode_hex(prefix + head + bad + tail)
        assert exc.value.byte_offset == len(head) // 2
        assert f"non-hex character {bad!r}" in str(exc.value)
