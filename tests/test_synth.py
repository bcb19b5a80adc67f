"""Generator checks: determinism, planted structure, corpus-format round-trip."""

import collections
import hashlib

import numpy as np
import pytest

from opscan import cli
from opscan import corpus as C
from opscan import synth as S
from opscan.disasm import disassemble

_FLAGS = vars(cli._parser().parse_args(["synth"]))  # the synth command's flag defaults


def records(**kwargs):
    """synth.synth_records with the synth command's flag defaults for every
    size that kwargs leaves out."""
    sizes = {k: _FLAGS[k] for k in ("per_class", "mean_len", "jitter", "plants", "dup_normals")}
    return S.synth_records(**{**sizes, **kwargs})


def _contains(haystack: tuple[str, ...], needle: tuple[str, ...]) -> int:
    n, m = len(haystack), len(needle)
    count = 0
    i = 0
    while i <= n - m:
        if haystack[i:i + m] == needle:
            count += 1
            i += m
        else:
            i += 1
    return count


class TestRecords:
    def test_counts_and_labels(self):
        recs = records(per_class=5, seed=0)
        assert len(recs) == 20
        assert collections.Counter(r.label for r in recs) == {0: 5, 1: 5, 2: 5, 3: 5}

    def test_addresses_unique(self):
        recs = records(per_class=9, seed=4, dup_normals=3)
        addrs = [r.address for r in recs]
        assert len(set(addrs)) == len(addrs)

    def test_lengths_within_band(self):
        recs = records(per_class=30, seed=1, mean_len=120, jitter=40)
        for r in recs:
            assert 80 <= len(r.tokens) <= 160

    def test_each_record_carries_its_motif(self):
        recs = records(per_class=12, seed=2, plants=4)
        for r in recs:
            assert _contains(r.tokens, S.CLASS_MOTIFS[r.label]) >= 4

    def test_motifs_share_one_multiset(self):
        bags = [collections.Counter(m) for m in S.CLASS_MOTIFS]
        assert all(b == collections.Counter(S.MOTIF_TOKENS) for b in bags)
        assert len(set(S.CLASS_MOTIFS)) == 4

    def test_motif_tokens_disjoint_from_noise(self):
        assert not set(S.MOTIF_TOKENS) & set(S.NOISE_POOL)

    def test_deterministic(self):
        a = records(per_class=8, seed=11)
        b = records(per_class=8, seed=11)
        assert a == b
        c = records(per_class=8, seed=12)
        assert a != c

    def test_dup_normals_appends_exact_copies(self):
        recs = records(per_class=6, seed=3, dup_normals=2)
        assert len(recs) == 26
        normals = [r for r in recs if r.label == C.NORMAL]
        assert len(normals) == 8
        assert normals[6].tokens == normals[0].tokens
        assert normals[7].tokens == normals[1].tokens
        assert C.dedup_normals(recs) == recs[:24]

    def test_per_class_zero_rejected(self):
        with pytest.raises(ValueError):
            records(per_class=0, seed=0)

    def test_dup_normals_bounds(self):
        with pytest.raises(ValueError):
            records(per_class=3, dup_normals=4, seed=0)
        with pytest.raises(ValueError):
            records(per_class=3, dup_normals=-1, seed=0)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError, match="need mean_len - jitter >= 1"):
            records(per_class=2, mean_len=30, jitter=30, seed=0)
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            records(per_class=2, mean_len=30, jitter=-1, seed=0)

    def test_too_short_for_plants(self):
        with pytest.raises(ValueError, match="too short"):
            records(per_class=2, seed=0, mean_len=20, jitter=0, plants=4)


class TestBytecode:
    def test_disassembles_back_to_tokens(self):
        recs = records(per_class=4, seed=5)
        rng = np.random.default_rng(0)
        for r in recs:
            assert tuple(disassemble(S.to_bytecode(r.tokens, rng))) == r.tokens

    def test_push_immediates_consumed(self):
        rng = np.random.default_rng(1)
        hexstr = S.to_bytecode(("PUSH2", "ADD"), rng)
        # 1 opcode byte + 2 immediate bytes + 1 opcode byte
        assert len(hexstr) == 8
        assert disassemble(hexstr) == ["PUSH2", "ADD"]


class TestWriteCorpus:
    def test_file_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        S.write_corpus(records(per_class=50, seed=7), p1, seed=7)
        S.write_corpus(records(per_class=50, seed=7), p2, seed=7)
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()

    def test_ingest_reads_back_tokens_and_labels(self, tmp_path):
        path = tmp_path / "c.jsonl"
        recs = records(per_class=3, seed=9)
        S.write_corpus(recs, path, seed=9)
        back, stats = C.ingest(path)
        assert stats.skipped == 0
        assert [r.tokens for r in back] == [r.tokens for r in recs]
        assert [r.label for r in back] == [r.label for r in recs]
