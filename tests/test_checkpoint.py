import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest

from opscan import checkpoint as ckpt
from opscan import cli
from opscan import corpus as C
from opscan import model as M
from opscan.checkpoint import CheckpointError, load_checkpoint, read_header, save_checkpoint
from opscan.corpus import ContractRecord

from helpers import SHIPPED, encoder


def small_vocab():
    records = [ContractRecord("0x1", ("ADD", "MUL", "POP", "ADD"), 0)]
    return C.build_vocab(records, SHIPPED.min_freq)


def make_lm(vocab, dtype="f64", seed=3, n_layers=2):
    enc = encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=n_layers, dtype=dtype, seed=seed)
    return M.LanguageModel(enc, vocab_hash=vocab.content_hash(), seed=1)


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + length :])


def grow_vocab(header, token="PUSH33"):
    """Append a token to the embedded vocabulary and recompute its hash, so
    the vocabulary is consistent but longer than the model's vocab_size.
    PUSH33 is no opcode, so no corpus vocabulary holds it."""
    header["vocab"].append(token)
    header["vocab_hash"] = C.Vocab(header["vocab"][len(C.Vocab.RESERVED):]).content_hash()


def make_clf(vocab, dtype="f64", seed=4):
    enc = encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=2, dtype=dtype, seed=seed)
    return M.Classifier(enc, n_classes=4, head_hidden=5, vocab_hash=vocab.content_hash(), seed=2)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["f32", "f64"], ids=["float32", "float64"])
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
        enc = encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=1,
                      tie_last=False, dtype="f64")
        lm = M.LanguageModel(enc, vocab_hash=None, seed=1)
        path = tmp_path / "untied.ckpt"
        save_checkpoint(lm, path)
        back = load_checkpoint(path, kind="lm")
        assert back.dec_w is not None
        np.testing.assert_array_equal(back.dec_w.data, lm.dec_w.data)

    def test_load_draws_from_no_rng(self, tmp_path, monkeypatch):
        vocab = small_vocab()
        untied = M.LanguageModel(encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=1,
                                         tie_last=False), vocab_hash=None, seed=1)
        saved = []
        for name, model in (("clf", make_clf(vocab)), ("lm", untied)):
            save_checkpoint(model, tmp_path / f"{name}.ckpt", vocab=vocab)
            saved.append((tmp_path / f"{name}.ckpt", model))

        class NoDraws:
            def __getattr__(self, method):
                raise AssertionError(f"drew from an rng ({method})")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        with pytest.raises(AssertionError, match="drew"):
            make_clf(vocab)  # a fresh model does draw, so the stand-in catches draws
        for path, model in saved:
            back = load_checkpoint(path)
            for a, b in zip(model.parameters(), back.parameters()):
                assert a.name == b.name and np.array_equal(a.data, b.data)

    def test_dropout_config_round_trips(self, tmp_path):
        vocab = small_vocab()
        drops = M.Dropouts(emb=0.11, input=0.22, hidden=0.33, weight=0.44, head=0.05)
        enc = encoder(len(vocab), emb_size=4, hidden_size=4, n_layers=1,
                      dropouts=drops, dtype="f32")
        path = tmp_path / "d.ckpt"
        save_checkpoint(M.LanguageModel(enc, vocab_hash=None, seed=1), path)
        assert load_checkpoint(path).encoder.dropouts == drops

    # sha256 of each file test_file_bytes_pinned saves: a change here is a
    # change of the checkpoint format, header or body
    PINNED = {
        ("lm", "f32"): "7d97a59a7d3476a348a3ebf27ea871a96553e292b3be6e04816e2b605925139d",
        ("clf", "f32"): "520c16aab8edb7d609e054db06cc1077793c6ffc68e635b1359eec379ecafd7c",
        ("transferred", "f32"): "b5d04f599f93a4c497923f1a10691a43c5fb7e7d9847531d53c96d7b1eca198e",
        ("lm", "f64"): "cfa452b39ccd715c688280817e53522f9cd42308ed0e606ea9696ce8631a92a3",
        ("clf", "f64"): "51a9b21421a14d89c884c0ddd73f458bc777e640890e47345ac24024b2031456",
        ("transferred", "f64"): "7fef3a56a6d832948e89f899875dca061e327bd481af4289de68f0d07ce5e1ba",
    }

    def test_file_bytes_pinned(self, tmp_path):
        """A round trip compares a file with its own reload, so it cannot see
        a header or body that drifts from one version of the code to the
        next; these hashes can."""
        vocab = small_vocab()
        drops = M.Dropouts(emb=0.1, input=0.2, hidden=0.3, weight=0.4, head=0.05)
        digests = {}
        for dtype in ("f32", "f64"):
            lm = make_lm(vocab, dtype=dtype)
            transferred = M.Classifier(M.transfer_encoder(lm, drops), n_classes=4, head_hidden=5,
                                       vocab_hash=vocab.content_hash(), seed=2)
            for kind, model in (("lm", lm), ("clf", make_clf(vocab, dtype=dtype)),
                                ("transferred", transferred)):
                path = tmp_path / f"{kind}-{dtype}.ckpt"
                save_checkpoint(model, path, vocab=vocab)
                digests[kind, dtype] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == self.PINNED


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

    # a kind that is a list or an object is unhashable: no model table may look it up
    @pytest.mark.parametrize("value", ["svm", ["clf"], {"clf": 1}],
                             ids=["unknown", "list", "object"])
    def test_header_unknown_kind(self, tmp_path, value):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab()), path)
        rewrite_header(path, lambda h: h.update(kind=value))
        with pytest.raises(CheckpointError, match=re.escape(f"unknown model kind {value!r}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["params"][1].pop("name"),
        lambda h: h["params"][1].pop("shape"),
        lambda h: h["params"][1].pop("dtype"),
        lambda h: h["params"][1].update(dtype="f16"),
        lambda h: h["params"][1].update(dtype=["f32"]),
        lambda h: h.update(params=[["emb"]]),
    ], ids=["no-name", "no-shape", "no-dtype", "unknown-dtype", "unhashable-dtype",
            "not-an-object"])
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

    @pytest.mark.parametrize("make, changes", [
        (make_clf, dict(n_layers=0)),
        (make_clf, dict(emb_size=0)),
        # a tied one-layer LM never reads hidden_size, and still refuses 0
        (lambda vocab: make_lm(vocab, n_layers=1), dict(hidden_size=0)),
        # a size no allocation can hold: the encoder's embedding
        (make_clf, dict(vocab_size=10**15)),
        # an empty embedding is refused before the LM's decoder, which no
        # allocation could hold, is built
        (make_lm, dict(vocab_size=10**15, emb_size=0, tie_last=False)),
    ], ids=["no-layers", "no-emb-width", "no-hidden-width", "clf-vocab-unallocatable",
            "lm-empty-embedding-before-decoder"])
    def test_out_of_range_hyperparameter(self, tmp_path, make, changes):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make(small_vocab()), path)
        rewrite_header(path, lambda h: h["hyperparams"].update(changes))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError, match="hyperparameters"):
                load_checkpoint(path)
        assert not caught, [str(w.message) for w in caught]

    def test_layers_beyond_the_manifest_refused_before_any_is_built(self, tmp_path,
                                                                    monkeypatch, capsys):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab(), dtype="f32"), path, vocab=small_vocab())
        rewrite_header(path, lambda h: h["hyperparams"].update(n_layers=10**4))
        built = []

        class CountedLayer(M.LstmLayer):
            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(M, "LstmLayer", CountedLayer)
        assert cli.main(["predict", "--checkpoint", str(path), "--bytecode", "6001"]) == 4
        assert "n_layers" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("edit", [
        lambda h: h["vocab"].append(h["vocab"][-1]),
        lambda h: h["vocab"].append(["ADD"]),
        lambda h: h.update(vocab=7),
        grow_vocab,
    ], ids=["duplicate", "unhashable", "not-a-list", "longer-than-model"])
    def test_corrupt_embedded_vocab(self, tmp_path, edit):
        path = tmp_path / "clf.ckpt"
        save_checkpoint(make_clf(small_vocab()), path, vocab=small_vocab())
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match="vocabulary"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_named(self, tmp_path, value):
        clf = make_clf(small_vocab(), dtype="f32")
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
        other = C.build_vocab([ContractRecord("0x2", ("SSTORE", "SLOAD"), 0)], SHIPPED.min_freq)
        with pytest.raises(CheckpointError, match="different vocabulary"):
            load_checkpoint(path, vocab=other)

    def test_given_vocab_longer_than_model_refused(self, tmp_path):
        vocab = small_vocab()
        longer = C.Vocab(vocab.itos[len(C.Vocab.RESERVED):] + ["PUSH1"])
        path = tmp_path / "lm.ckpt"
        save_checkpoint(make_lm(vocab), path)
        rewrite_header(path, lambda h: h.update(vocab_hash=longer.content_hash()))
        with pytest.raises(CheckpointError, match=f"{len(longer)} tokens .* {len(vocab)}"):
            load_checkpoint(path, kind="lm", vocab=longer)

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
