import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan import corpus as C
from opscan.corpus import ContractRecord, CorpusError, Vocab

from helpers import SHIPPED, token_set


def rec(address, tokens, label=3):
    return ContractRecord(address, tuple(tokens), label)


def write_corpus(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


class TestIngest:
    def test_three_lines_one_skipped(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [
            {"address": "0x1", "tokens": ["ADD"], "label": 1},
            {"address": "0x2", "tokens": ["MUL"], "label": 5},
            {"address": "0x3", "tokens": ["POP"], "label": 4},
        ])
        records, stats = C.ingest(f)
        assert len(records) == 2
        assert stats.skipped == 1
        assert stats.per_class == [1, 0, 0, 1]
        assert records[0].label == 0 and records[1].label == 3

    def test_empty_file(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("")
        records, stats = C.ingest(f)
        assert records == [] and stats.per_class == [0, 0, 0, 0] and stats.skipped == 0

    def test_bytecode_is_disassembled(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [{"address": "0x1", "bytecode": "6001600201", "label": 2}])
        records, _ = C.ingest(f)
        assert records[0].tokens == ("PUSH1", "PUSH1", "ADD")

    def test_malformed_json_names_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text('{"address": "0x1", "tokens": ["ADD"], "label": 1}\n{nope\n')
        with pytest.raises(CorpusError, match="line 2"):
            C.ingest(f)

    def test_bad_label_names_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [{"address": "0x1", "tokens": ["ADD"], "label": 6}])
        with pytest.raises(CorpusError, match="line 1"):
            C.ingest(f)

    def test_duplicate_address_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [
            {"address": "0x1", "tokens": ["ADD"], "label": 1},
            {"address": "0x1", "tokens": ["MUL"], "label": 2},
        ])
        with pytest.raises(CorpusError, match="duplicate address"):
            C.ingest(f)

    def test_empty_tokens_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [{"address": "0x1", "tokens": [], "label": 1}])
        with pytest.raises(CorpusError, match="empty opcode sequence"):
            C.ingest(f)

    def test_missing_payload_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [{"address": "0x1", "label": 1}])
        with pytest.raises(CorpusError, match="tokens.*bytecode"):
            C.ingest(f)

    def test_bad_bytecode_names_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus(f, [{"address": "0x1", "bytecode": "60xx", "label": 1}])
        with pytest.raises(CorpusError, match="line 1: bad bytecode"):
            C.ingest(f)

    def test_blank_lines_ignored(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text('{"address": "0x1", "tokens": ["ADD"], "label": 1}\n\n')
        records, _ = C.ingest(f)
        assert len(records) == 1


class TestDedupNormals:
    def test_mixed_set_by_hand(self):
        # 10 normals over 4 distinct sequences, plus 2 identical suicidal records
        seqs = ["AB", "CD", "AB", "EF", "CD", "AB", "GH", "EF", "CD", "AB"]
        records = [rec(f"0x{i}", tuple(s), label=3) for i, s in enumerate(seqs)]
        records += [rec("0xs1", ("PP",), label=0), rec("0xs2", ("PP",), label=0)]
        out = C.dedup_normals(records)
        normals = [r for r in out if r.label == 3]
        assert len(normals) == 4
        assert [r.address for r in normals] == ["0x0", "0x1", "0x3", "0x6"]  # first wins
        assert sum(r.label == 0 for r in out) == 2  # vulnerable dupes untouched

    def test_idempotent(self):
        records = [rec(f"0x{i}", ("ADD",) if i % 2 else ("MUL",)) for i in range(6)]
        once = C.dedup_normals(records)
        assert C.dedup_normals(once) == once

    def test_preserves_relative_order(self):
        records = [
            rec("0xa", ("ADD",), 3), rec("0xb", ("MUL",), 1),
            rec("0xc", ("ADD",), 3), rec("0xd", ("POP",), 3),
        ]
        assert [r.address for r in C.dedup_normals(records)] == ["0xa", "0xb", "0xd"]


def synthetic_class(label, n, start=0):
    return [rec(f"0x{label}_{start + i}", (f"T{i}",), label) for i in range(n)]


class TestStratifiedSplit:
    def test_class_of_twenty(self):
        records = sum((synthetic_class(lbl, 20) for lbl in range(4)), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=0)
        for label in range(4):
            sizes = tuple(sum(r.label == label for r in part)
                          for part in (split.train, split.valid, split.test))
            assert sizes == (14, 3, 3)

    def test_class_of_seven(self):
        # floor(0.7*7)=4 train, floor(0.15*7)=1 test, valid takes the remainder
        records = sum((synthetic_class(lbl, 7) for lbl in range(4)), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=0)
        sizes = tuple(sum(r.label == 0 for r in part)
                      for part in (split.train, split.valid, split.test))
        assert sizes == (4, 2, 1)

    def test_class_of_three_fills_every_split(self):
        records = sum((synthetic_class(lbl, 3) for lbl in range(4)), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=0)
        for part in (split.train, split.valid, split.test):
            for label in range(4):
                assert sum(r.label == label for r in part) == 1

    @pytest.mark.parametrize("ratios", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (0.05, 0.05, 0.9)])
    def test_extreme_ratios_fill_every_split(self, ratios):
        for n in (3, 4, 12):
            split = C.stratified_split(synthetic_class(2, n), ratios, seed=0)
            sizes = [len(part) for part in (split.train, split.valid, split.test)]
            assert min(sizes) >= 1 and sum(sizes) == n, (n, sizes)

    def test_too_small_class_rejected(self):
        records = synthetic_class(0, 2) + synthetic_class(3, 10)
        with pytest.raises(CorpusError, match="Suicidal"):
            C.stratified_split(records, SHIPPED.ratios(), seed=0)

    def test_partition(self):
        rng = np.random.default_rng(0)
        records = sum((synthetic_class(lbl, int(rng.integers(5, 40))) for lbl in range(4)), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=9)
        combined = split.train + split.valid + split.test
        assert len(combined) == len(records)
        assert {r.address for r in combined} == {r.address for r in records}

    def test_deterministic_and_seed_sensitive(self):
        records = sum((synthetic_class(lbl, 25) for lbl in range(4)), [])
        a = C.stratified_split(records, SHIPPED.ratios(), seed=3)
        b = C.stratified_split(records, SHIPPED.ratios(), seed=3)
        c = C.stratified_split(records, SHIPPED.ratios(), seed=4)
        assert [r.address for r in a.train] == [r.address for r in b.train]
        assert [r.address for r in a.train] != [r.address for r in c.train]
        # sizes never depend on the seed
        assert len(a.train) == len(c.train) and len(a.test) == len(c.test)

    def test_class_membership_independent_of_other_classes(self):
        alone = C.stratified_split(synthetic_class(2, 12) + synthetic_class(3, 12),
                                   SHIPPED.ratios(), seed=5)
        mixed = C.stratified_split(
            synthetic_class(0, 8) + synthetic_class(2, 12) + synthetic_class(3, 12),
            SHIPPED.ratios(), seed=5)
        greedy = lambda part: [r.address for r in part if r.label == 2]
        assert greedy(alone.train) == greedy(mixed.train)
        assert greedy(alone.test) == greedy(mixed.test)

    def test_reference_class_sizes_within_one(self):
        counts = {0: 5801, 1: 1461, 2: 1207, 3: 32408}
        records = sum((synthetic_class(lbl, n) for lbl, n in counts.items()), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=0)
        expected_test = {0: 870, 1: 220, 2: 181, 3: 4860}
        for label, want in expected_test.items():
            got = sum(r.label == label for r in split.test)
            assert abs(got - want) <= 1, (label, got, want)

    def test_manifest_roundtrip(self, tmp_path):
        records = sum((synthetic_class(lbl, 10) for lbl in range(4)), [])
        split = C.stratified_split(records, SHIPPED.ratios(), seed=11)
        path = tmp_path / "split.json"
        split.save_manifest(path)
        data = json.loads(path.read_text())
        assert data["seed"] == 11
        assert data["ratios"] == [0.70, 0.15, 0.15]
        assert data["train"] == [r.address for r in split.train]
        assert set(data) == {"seed", "ratios", "train", "valid", "test"}


class TestVocab:
    def test_reserved_layout(self):
        v = C.build_vocab([rec("0x1", ("ADD", "ADD", "ADD", "AND"), 0)], SHIPPED.min_freq)
        assert v.itos[:3] == ["<pad>", "<unk>", "<bos>"]
        assert (v.PAD, v.UNK, v.BOS) == (0, 1, 2)
        assert len(v) == 5
        assert v.stoi["ADD"] == 3 and v.stoi["AND"] == 4

    def test_reserved_never_collide_with_mnemonics(self):
        assert not set(Vocab.RESERVED) & token_set()

    def test_frequency_then_lexicographic(self):
        # freq: POP=3, ADD=2, MUL=2, DUP1=1, AND=1 → POP, ADD, MUL, AND, DUP1
        toks = ["POP", "ADD", "MUL", "POP", "ADD", "MUL", "POP", "DUP1", "AND"]
        v = C.build_vocab([rec("0x1", tuple(toks), 0)], SHIPPED.min_freq)
        assert v.itos[3:] == ["POP", "ADD", "MUL", "AND", "DUP1"]

    def test_min_freq_prunes(self):
        v = C.build_vocab([rec("0x1", ("ADD", "ADD", "POP"), 0)], min_freq=2)
        assert "POP" not in v.stoi
        assert list(C.numericalize(["POP"], v)) == [v.BOS, v.UNK]

    def test_empty_train_rejected(self):
        with pytest.raises(CorpusError):
            C.build_vocab([], SHIPPED.min_freq)

    def test_save_load_roundtrip(self, tmp_path):
        v = C.build_vocab([rec("0x1", ("ADD", "MUL", "ADD"), 0)], SHIPPED.min_freq)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        w = Vocab.load(path)
        assert w.itos == v.itos
        assert w.content_hash() == v.content_hash()

    def test_content_hash_is_file_hash(self, tmp_path):
        import hashlib
        v = C.build_vocab([rec("0x1", ("ADD",), 0)], SHIPPED.min_freq)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == v.content_hash()

    def test_hash_changes_with_content(self):
        a = C.build_vocab([rec("0x1", ("ADD",), 0)], SHIPPED.min_freq)
        b = C.build_vocab([rec("0x1", ("MUL",), 0)], SHIPPED.min_freq)
        assert a.content_hash() != b.content_hash()

    def test_load_rejects_tampered_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        for bad_id in ("7", "three"):
            path.write_text(f"<pad>\t0\n<unk>\t1\n<bos>\t2\nADD\t{bad_id}\n")
            with pytest.raises(CorpusError, match="line 4"):
                Vocab.load(path)


class TestNumericalize:
    def test_empty_gives_bos(self):
        v = C.build_vocab([rec("0x1", ("ADD",), 0)], SHIPPED.min_freq)
        assert C.numericalize([], v).tolist() == [v.BOS]

    def test_known_token(self):
        v = C.build_vocab([rec("0x1", ("ADD",), 0)], SHIPPED.min_freq)
        assert C.numericalize(["ADD"], v).tolist() == [v.BOS, 3]

    def test_unknown_maps_to_unk(self):
        v = C.build_vocab([rec("0x1", ("ADD",), 0)], SHIPPED.min_freq)
        assert C.numericalize(["ZZZ"], v).tolist() == [v.BOS, v.UNK]

    def test_ids_always_in_range(self):
        v = C.build_vocab([rec("0x1", ("ADD", "MUL", "POP"), 0)], SHIPPED.min_freq)
        ids = C.numericalize(["ADD", "WAT", "POP", "MUL", "NOPE"], v)
        assert ids.max() < len(v) and ids.min() >= 0


class TestLmBatches:
    def test_five_token_stream(self):
        stream = [np.array([10, 11, 12, 13, 14], dtype=np.int64)]
        got = list(C.lm_batches(stream, batch_size=1, bptt=2))
        assert len(got) == 2
        np.testing.assert_array_equal(got[0][0], [[10, 11]])
        np.testing.assert_array_equal(got[0][1], [[11, 12]])
        np.testing.assert_array_equal(got[1][0], [[12, 13]])
        np.testing.assert_array_equal(got[1][1], [[13, 14]])

    def test_hundred_token_stream_step_count(self):
        stream = [np.arange(100, dtype=np.int64)]
        got = list(C.lm_batches(stream, batch_size=2, bptt=10))
        assert len(got) == 4  # lanes of 50, floor((50-1)/10)

    def test_lanes_are_contiguous_chunks(self):
        stream = [np.arange(100, dtype=np.int64)]
        (x0, _), *_ = C.lm_batches(stream, batch_size=2, bptt=10)
        assert x0[0, 0] == 0 and x0[1, 0] == 50

    def test_shift_property_exhaustive(self):
        rng = np.random.default_rng(1)
        seqs = [rng.integers(0, 50, size=rng.integers(5, 30)) for _ in range(8)]
        lanes = np.concatenate(seqs)
        for x, y in C.lm_batches(seqs, batch_size=3, bptt=7):
            assert x.shape == y.shape == (3, 7)
            np.testing.assert_array_equal(x[:, 1:], y[:, :-1])

    def test_consecutive_steps_continue_each_lane(self):
        seqs = [np.arange(60, dtype=np.int64)]
        steps = list(C.lm_batches(seqs, batch_size=2, bptt=5))
        for (xa, _), (xb, _) in zip(steps, steps[1:]):
            np.testing.assert_array_equal(xa[:, -1] + 1, xb[:, 0])

    def test_too_few_tokens(self):
        with pytest.raises(CorpusError, match="at least"):
            list(C.lm_batches([np.arange(5)], batch_size=2, bptt=3))


class TestClfBatches:
    def seqs(self, lengths):
        rng = np.random.default_rng(0)
        return [rng.integers(3, 40, size=n).astype(np.int64) for n in lengths]

    def test_padding_to_batch_max(self):
        seqs = self.seqs([3, 5])
        (ids, lengths, labels), = C.clf_batches(seqs, [0, 1], batch_size=2, max_len=None)
        assert ids.shape == (2, 5)
        assert lengths.tolist() == [5, 3]  # sorted long-first
        assert np.all(ids[1, 3:] == Vocab.PAD)
        assert labels.tolist() == [1, 0]

    def test_truncation_keeps_head(self):
        seqs = [np.arange(20, dtype=np.int64)]
        (ids, lengths, _), = C.clf_batches(seqs, [0], batch_size=1, max_len=10)
        assert lengths[0] == 10
        np.testing.assert_array_equal(ids[0], np.arange(10))

    def test_batch_count_ceiling(self):
        seqs = self.seqs([4] * 10)
        got = list(C.clf_batches(seqs, list(range(10)) , batch_size=4, max_len=None))
        assert [b[0].shape[0] for b in got] == [4, 4, 2]

    def test_labels_follow_their_rows(self):
        lengths = [9, 2, 7, 4, 11]
        seqs = self.seqs(lengths)
        batches = list(C.clf_batches(seqs, [10, 20, 30, 40, 50], batch_size=2, max_len=None))
        seen = {}
        for ids, lens, labels in batches:
            for row in range(ids.shape[0]):
                seen[int(labels[row])] = int(lens[row])
        assert seen == {10: 9, 20: 2, 30: 7, 40: 4, 50: 11}


class TestRowBatches:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 120), max_size=40), rows=st.integers(1, 12))
    def test_capped_and_longest_first(self, lengths, rows):
        seqs = [np.zeros(n, dtype=np.int64) for n in lengths]
        batches = C.row_batches(seqs, rows)
        order = [i for batch in batches for i in batch]
        assert sorted(order) == list(range(len(seqs)))
        sizes = [seqs[i].size for i in order]
        assert sizes == sorted(sizes, reverse=True)
        # every batch but the last is full
        assert [len(batch) for batch in batches[:-1]] == [rows] * (len(batches) - 1)
        assert not batches or 1 <= len(batches[-1]) <= rows

    def test_padded_rows_follow_the_indices(self):
        seqs = [np.arange(3, dtype=np.int64) + 5, np.arange(6, dtype=np.int64) + 9]
        ids, lengths = C.padded(seqs, [1, 0])
        assert lengths.tolist() == [6, 3]
        np.testing.assert_array_equal(ids, [[9, 10, 11, 12, 13, 14], [5, 6, 7, 0, 0, 0]])
