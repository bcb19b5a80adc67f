import json
import struct

import numpy as np
import pytest

from opscan import checkpoint as ckpt
from opscan import corpus as C
from opscan import model as M
from opscan.checkpoint import CheckpointError, load_checkpoint, read_header, save_checkpoint
from opscan.corpus import ContractRecord


def small_vocab():
    records = [ContractRecord("0x1", ("ADD", "MUL", "POP", "ADD"), 0)]
    return C.build_vocab(records)


def make_lm(vocab, dtype=np.float64, seed=3):
    enc = M.Encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=2, dtype=dtype, seed=seed)
    return M.LanguageModel(enc, vocab_hash=vocab.content_hash())


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


def make_clf(vocab, dtype=np.float64, seed=4):
    enc = M.Encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=2, dtype=dtype, seed=seed)
    return M.Classifier(enc, n_classes=4, head_hidden=5, vocab_hash=vocab.content_hash())


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lm_parameters_bit_identical(self, tmp_path, dtype):
        vocab = small_vocab()
        lm = make_lm(vocab, dtype=dtype)
        path = tmp_path / "lm.ckpt"
        save_checkpoint(lm, path, vocab=vocab)
        back = load_checkpoint(path, kind="lm")
        for a, b in zip(lm.parameters(), back.parameters()):
            assert a.name == b.name
            assert a.data.dtype == b.data.dtype
            np.testing.assert_array_equal(a.data, b.data)

    def test_clf_round_trip(self, tmp_path):
        vocab = small_vocab()
        clf = make_clf(vocab)
        path = tmp_path / "clf.ckpt"
        save_checkpoint(clf, path, vocab=vocab)
        back = load_checkpoint(path, kind="clf")
        assert back.n_classes == 4 and back.head_hidden == 5
        ids = np.array([[3, 4], [4, 3], [5, 0]])
        np.testing.assert_array_equal(
            back.predict_proba(ids, np.array([3, 2])),
            clf.predict_proba(ids, np.array([3, 2])),
        )

    def test_save_load_save_byte_identical(self, tmp_path):
        vocab = small_vocab()
        lm = make_lm(vocab)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(lm, a, vocab=vocab, metadata={"run": "x"})
        save_checkpoint(load_checkpoint(a), b, vocab=vocab)
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_preserved(self, tmp_path):
        vocab = small_vocab()
        lm = make_lm(vocab)
        path = tmp_path / "lm.ckpt"
        save_checkpoint(lm, path, metadata={"note": "hello", "step": 7})
        back = load_checkpoint(path)
        assert back.checkpoint_meta == {"note": "hello", "step": 7}

    def test_untied_decoder_round_trips(self, tmp_path):
        vocab = small_vocab()
        enc = M.Encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=1,
                        tie_last=False, dtype=np.float64)
        lm = M.LanguageModel(enc)
        path = tmp_path / "untied.ckpt"
        save_checkpoint(lm, path)
        back = load_checkpoint(path, kind="lm")
        assert back.dec_w is not None
        np.testing.assert_array_equal(back.dec_w.data, lm.dec_w.data)

    def test_dropout_config_round_trips(self, tmp_path):
        vocab = small_vocab()
        drops = M.Dropouts(emb=0.11, input=0.22, hidden=0.33, weight=0.44, head=0.05)
        enc = M.Encoder(len(vocab), emb_size=4, hidden_size=4, n_layers=1,
                        dropouts=drops, dtype=np.float32)
        path = tmp_path / "d.ckpt"
        save_checkpoint(M.LanguageModel(enc), path)
        assert load_checkpoint(path).encoder.dropouts == drops


class TestHeader:
    def test_readable_without_body(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path, vocab=vocab)
        header = read_header(path)
        assert header["kind"] == "lm"
        assert header["vocab_hash"] == vocab.content_hash()
        assert header["vocab"] == vocab.itos
        assert header["hyperparams"]["n_layers"] == 2
        names = [e["name"] for e in header["params"]]
        assert names[0] == "emb" and "lstm1.wh" in names

    def test_embedded_vocab_reconstructs(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path, vocab=vocab)
        rebuilt = ckpt.vocab_from_header(read_header(path))
        assert rebuilt.itos == vocab.itos


class TestRefusals:
    def test_kind_mismatch(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path)
        with pytest.raises(CheckpointError, match="expected a 'clf'"):
            load_checkpoint(path, kind="clf")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kind", "hyperparams"])
    def test_header_missing_key(self, tmp_path, key):
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(small_vocab()), path)
        rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["params"][1].pop("name"),
        lambda h: h["params"][1].pop("shape"),
        lambda h: h["params"][1].pop("dtype"),
        lambda h: h["params"][1].update(dtype="f16"),
        lambda h: h.update(params=[["emb"]]),
    ], ids=["no-name", "no-shape", "no-dtype", "unknown-dtype", "not-an-object"])
    def test_bad_manifest_entry(self, tmp_path, edit):
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(small_vocab()), path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_header_missing_hyperparameter(self, tmp_path):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab()), path)
        rewrite_header(path, lambda h: h["hyperparams"].pop("head_hidden"))
        with pytest.raises(CheckpointError, match="head_hidden"):
            load_checkpoint(path)

    def test_out_of_range_hyperparameter(self, tmp_path):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab()), path)
        rewrite_header(path, lambda h: h["hyperparams"].update(n_layers=0))
        with pytest.raises(CheckpointError, match="hyperparameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["vocab"].append(h["vocab"][-1]),
        lambda h: h["vocab"].append(["ADD"]),
        lambda h: h.update(vocab=7),
    ], ids=["duplicate", "unhashable", "not-a-list"])
    def test_corrupt_embedded_vocab(self, tmp_path, edit):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab()), path, vocab=small_vocab())
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_named(self, tmp_path, value):
        clf = make_clf(small_vocab(), dtype=np.float32)
        clf.w2.data[1, 2] = value
        path = tmp_path / "clf.ckpt"
        save_checkpoint(clf, path)
        with pytest.raises(CheckpointError, match="'head.w2' holds a non-finite"):
            load_checkpoint(path)

    def test_embedded_vocab_attached(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(vocab), path, vocab=vocab)
        assert load_checkpoint(path).checkpoint_vocab.itos == vocab.itos
        save_checkpoint(make_clf(vocab), path)
        assert load_checkpoint(path).checkpoint_vocab is None

    def test_vocab_mismatch_refused(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path, vocab=vocab)
        other = C.build_vocab([ContractRecord("0x2", ("SSTORE", "SLOAD"), 0)])
        with pytest.raises(CheckpointError, match="different vocabulary"):
            load_checkpoint(path, vocab=other)

    def test_truncated_body_names_parameter(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(CheckpointError, match="truncated body in parameter record"):
            load_checkpoint(path)

    def test_badly_truncated_body_names_first_missing(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        lm = make_lm(vocab)
        save_checkpoint(lm, path)
        header_len = len(path.read_bytes()) - sum(p.data.nbytes for p in lm.parameters())
        emb_bytes = lm.encoder.emb.data.nbytes
        path.write_bytes(path.read_bytes()[: header_len + emb_bytes + 8])
        with pytest.raises(CheckpointError, match="lstm0.wx"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_save_rejects_foreign_vocab(self, tmp_path):
        vocab = small_vocab()
        lm = make_lm(vocab)
        other = C.build_vocab([ContractRecord("0x2", ("SSTORE",), 0)])
        with pytest.raises(CheckpointError, match="different vocabulary"):
            save_checkpoint(lm, tmp_path / "x.ckpt", vocab=other)

    def test_save_rejects_non_model(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(object(), tmp_path / "x.ckpt")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        vocab = small_vocab()
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab, seed=3), path)
        before = path.read_bytes()

        class DiskFull:
            """File whose fourth write (the first parameter record) fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 4:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(ckpt, "open", lambda p, mode: DiskFull(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(make_lm(vocab, seed=5), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["lm.ckpt"]
