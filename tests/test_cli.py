"""End-to-end command tests driven through main(argv) -> exit code."""

import contextlib
import io
import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscan import checkpoint as ckpt_mod
from opscan import corpus as C
from opscan import model as M
from opscan import optim
from opscan.autodiff import Parameter
from opscan.cli import main
from opscan.disasm import disassemble
from opscan.model import Classifier

from ref_eval import HEADLINE, HEADLINE_TOL_PP, REF_CM
from test_checkpoint import rewrite_header

SMALL_CFG = {
    "emb_size": 16, "hidden_size": 16, "n_layers": 2, "head_hidden": 12,
    "p_emb": 0.02, "p_input": 0.05, "p_hidden": 0.05, "p_weight": 0.1,
    "p_head": 0.0,
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One tiny pipeline run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    assert main(["synth", "--per-class", "12", "--seed", "7",
                 "--out", str(root / "syn")]) == 0
    assert main(["prep", "--corpus", str(root / "syn" / "corpus.jsonl"),
                 "--seed", "0", "--out", str(root / "prep")]) == 0
    assert main(["train-lm", "--data", str(root / "prep"), "--out", str(root / "lm"),
                 "--seed", "2", "--epochs", "1", "--batch-size", "8", "--bptt", "20",
                 "--max-lr", "0.05", "--config", str(cfg)]) == 0
    assert main(["train-clf", "--data", str(root / "prep"),
                 "--lm", str(root / "lm" / "lm_best.ckpt"), "--out", str(root / "clf"),
                 "--seed", "1", "--epochs", "1", "--batch-size", "8",
                 "--config", str(cfg)]) == 0
    return root, cfg


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--per-class", "50", "--seed", "7",
                         "--out", str(tmp_path / name)]) == 0
        a = (tmp_path / "a" / "corpus.jsonl").read_bytes()
        b = (tmp_path / "b" / "corpus.jsonl").read_bytes()
        assert a == b

    def test_dup_normals_in_file(self, tmp_path):
        assert main(["synth", "--per-class", "6", "--dup-normals", "3",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "corpus.jsonl").read_text().strip().splitlines()
        assert len(lines) == 27

    def test_config_echoed(self, tmp_path):
        assert main(["synth", "--per-class", "2", "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["seed"] == 9


class TestDisasm:
    def test_stdout_tokens(self, capsys):
        assert main(["disasm", "--bytecode", "6001600201"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == ["PUSH1", "PUSH1", "ADD"]

    def test_collapse_push(self, capsys):
        assert main(["disasm", "--bytecode", "6001", "--collapse-push"]) == 0
        assert capsys.readouterr().out.strip() == "PUSH"

    def test_input_file(self, tmp_path, capsys):
        src = tmp_path / "code.hex"
        src.write_text("0x6001\n")
        assert main(["disasm", "--input", str(src)]) == 0
        assert capsys.readouterr().out.strip() == "PUSH1"

    def test_bad_hex_is_input_error(self, capsys):
        assert main(["disasm", "--bytecode", "zz"]) == 3

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["disasm"]) == 2
        src = tmp_path / "x.hex"
        src.write_text("6001")
        assert main(["disasm", "--bytecode", "6001", "--input", str(src)]) == 2


class TestPrep:
    def test_outputs(self, ws):
        root, _ = ws
        prep = root / "prep"
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.tsv",
                     "split.json", "prep.json", "config.json"):
            assert (prep / name).exists(), name
        summary = json.loads((prep / "prep.json").read_text())
        sizes = summary["split_sizes"]
        assert sizes["train"] + sizes["valid"] + sizes["test"] == summary["after_dedup"]

    def test_split_files_are_corpus_format(self, ws):
        root, _ = ws
        records, stats = C.ingest(root / "prep" / "train.jsonl")
        assert stats.skipped == 0
        assert len(records) == json.loads(
            (root / "prep" / "prep.json").read_text())["split_sizes"]["train"]

    def test_vocab_loads_and_matches_hash(self, ws):
        root, _ = ws
        vocab = C.Vocab.load(root / "prep" / "vocab.tsv")
        summary = json.loads((root / "prep" / "prep.json").read_text())
        assert vocab.content_hash() == summary["vocab_hash"]


class TestSplitCmd:
    def test_manifest_written(self, ws, tmp_path):
        root, _ = ws
        assert main(["split", "--corpus", str(root / "syn" / "corpus.jsonl"),
                     "--seed", "4", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "split.json").read_text())
        assert set(manifest) >= {"train", "valid", "test", "seed", "ratios"}
        assert manifest["seed"] == 4


def poison_head_gradient(monkeypatch) -> list:
    """Make every optimizer step see an infinite gradient on the last
    parameter; returns the list that collects that parameter's name."""
    real_step = optim.Adam.step
    poisoned = []

    def poisoned_step(self, *args, **kwargs):
        head = self.params[-1]  # trainable in every unfreeze stage
        head.grad = np.full_like(head.data, np.inf)
        poisoned.append(head.name)
        real_step(self, *args, **kwargs)

    monkeypatch.setattr(optim.Adam, "step", poisoned_step)
    return poisoned


class TestTraining:
    def test_lm_outputs(self, ws):
        root, _ = ws
        for name in ("lm_best.ckpt", "history.jsonl", "config.json"):
            assert (root / "lm" / name).exists(), name

    def test_clf_outputs(self, ws):
        root, _ = ws
        for name in ("clf_best.ckpt", "history.jsonl", "fbeta.csv", "config.json"):
            assert (root / "clf" / name).exists(), name

    @pytest.mark.parametrize("command", ["train-lm", "train-clf"])
    def test_nonfinite_gradient_abort_is_explained(self, ws, tmp_path, monkeypatch,
                                                   capsys, command):
        root, cfg = ws
        poisoned = poison_head_gradient(monkeypatch)
        assert main([command, "--data", str(root / "prep"), "--out", str(tmp_path),
                     "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert f"non-finite gradient in parameter {poisoned[0]!r}" in err
        assert "epoch 1, " in err and "no checkpoint written" in err
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.parametrize("command", ["train-lm", "train-clf"])
    def test_aborted_rerun_leaves_no_earlier_artifacts(self, ws, tmp_path, monkeypatch,
                                                       command):
        root, cfg = ws
        argv = [command, "--data", str(root / "prep"), "--out", str(tmp_path),
                "--epochs", "1", "--batch-size", "8", "--config", str(cfg)]
        assert main(argv) == 0
        assert list(tmp_path.glob("*_best.ckpt"))
        poison_head_gradient(monkeypatch)
        assert main(argv) == 5
        assert not list(tmp_path.glob("*_best.ckpt"))
        assert not (tmp_path / "fbeta.csv").exists()

    def test_clf_random_encoder(self, ws, tmp_path):
        root, cfg = ws
        assert main(["train-clf", "--data", str(root / "prep"), "--out", str(tmp_path),
                     "--seed", "3", "--epochs", "1", "--batch-size", "8",
                     "--config", str(cfg)]) == 0
        assert (tmp_path / "clf_best.ckpt").exists()


class TestLrFind:
    def test_lm_mode(self, ws, tmp_path, capsys):
        root, cfg = ws
        assert main(["lr-find", "--data", str(root / "prep"), "--model", "lm",
                     "--out", str(tmp_path), "--steps", "30", "--lr-end", "0.5",
                     "--batch-size", "4", "--seed", "0", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert np.isfinite(payload["suggestion"])
        assert (tmp_path / "lr_find.csv").read_text().startswith("lr,loss")

    def test_too_few_points_is_numerical_failure(self, ws, tmp_path, capsys):
        root, cfg = ws
        assert main(["lr-find", "--data", str(root / "prep"), "--model", "lm",
                     "--out", str(tmp_path), "--steps", "8", "--lr-end", "1e-5",
                     "--batch-size", "4", "--config", str(cfg)]) == 5


class TestEvalPredictionsFile:
    def test_reference_matrix_reproduces_headline(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        with open(path, "w") as fh:
            for i, row in enumerate(REF_CM):
                for j, count in enumerate(row):
                    for _ in range(count):
                        fh.write(json.dumps({"actual": i + 1, "predicted": j + 1}) + "\n")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        tol = HEADLINE_TOL_PP
        assert rep["accuracy"] * 100 == pytest.approx(HEADLINE["accuracy"], abs=tol)
        for c in range(4):
            assert rep["per_class"][c]["recall"] * 100 == pytest.approx(
                HEADLINE["recall"][c], abs=tol)
            assert rep["per_class"][c]["precision"] * 100 == pytest.approx(
                HEADLINE["precision"][c], abs=tol)
            assert rep["per_class"][c]["fbeta"] * 100 == pytest.approx(
                HEADLINE["fbeta"][c], abs=tol)
        assert rep["weighted"]["fbeta"] * 100 == pytest.approx(
            HEADLINE["weighted_fbeta"], abs=tol)
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "confusion.csv").exists()

    def test_scores_add_roc_files(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        rows = [
            {"actual": 1, "predicted": 1, "scores": [0.9, 0.05, 0.03, 0.02]},
            {"actual": 2, "predicted": 2, "scores": [0.1, 0.8, 0.05, 0.05]},
            {"actual": 3, "predicted": 3, "scores": [0.1, 0.1, 0.7, 0.1]},
            {"actual": 4, "predicted": 4, "scores": [0.05, 0.05, 0.1, 0.8]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 0
        for label in (1, 2, 3, 4):
            assert (tmp_path / f"roc_type{label}.csv").exists()

    def test_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"actual": 1}\n')
        assert main(["eval", "--predictions", str(path), "--out", str(tmp_path)]) == 3

    def test_needs_exactly_one_mode(self, tmp_path, ws):
        root, _ = ws
        assert main(["eval", "--out", str(tmp_path)]) == 2
        assert main(["eval", "--predictions", "x", "--checkpoint", "y",
                     "--out", str(tmp_path)]) == 2


class TestEvalCheckpoint:
    def test_writes_full_report(self, ws, tmp_path, capsys):
        root, _ = ws
        assert main(["eval", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--data", str(root / "prep"), "--split", "valid",
                     "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "metrics.json").read_text())
        assert set(rep) == {"accuracy", "per_class", "weighted"}
        assert all(r["auc"] is not None for r in rep["per_class"])
        for label in (1, 2, 3, 4):
            assert (tmp_path / f"roc_type{label}.csv").exists()

    def test_lm_checkpoint_refused(self, ws, tmp_path):
        root, _ = ws
        assert main(["eval", "--checkpoint", str(root / "lm" / "lm_best.ckpt"),
                     "--data", str(root / "prep"), "--out", str(tmp_path)]) == 4


class TestInferenceRecordsNoTape:
    def test_eval_and_predict_record_no_backward(self, ws, tmp_path, monkeypatch):
        root, _ = ws
        nodes = []  # every classifier output and LSTM layer output
        real_forward, real_lstm = Classifier.forward, M.lstm_sequence

        def forward(self, *args, **kwargs):
            nodes.append(real_forward(self, *args, **kwargs))
            return nodes[-1]

        def lstm_sequence(*args):
            out, state = real_lstm(*args)
            nodes.append(out)
            return out, state

        monkeypatch.setattr(Classifier, "forward", forward)
        monkeypatch.setattr(M, "lstm_sequence", lstm_sequence)
        ckpt = str(root / "clf" / "clf_best.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--data", str(root / "prep"),
                     "--split", "valid", "--out", str(tmp_path)]) == 0
        assert main(["predict", "--checkpoint", ckpt, "--bytecode", "6001600201331450"]) == 0
        assert len(nodes) >= 6
        for out in nodes:
            # Nothing is recorded: no closure, and no link to an activation.
            assert out._backward is None and not out.requires_grad
            assert all(isinstance(p, Parameter) for p in out._parents)


class TestPredict:
    def test_known_bytecode(self, ws, capsys):
        root, _ = ws
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", "6001600201331450"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["type"] in ("Suicidal", "Prodigal", "Greedy", "Normal")
        assert result["label"] in (1, 2, 3, 4)

    def test_all_unknown_tokens_still_a_distribution(self, ws, capsys):
        root, _ = ws
        vocab = C.Vocab.load(root / "prep" / "vocab.tsv")
        hexstr = "08090b"  # ADDMOD MULMOD SIGNEXTEND: absent from the synth pools
        assert all(vocab.id(t) == C.Vocab.UNK for t in disassemble(hexstr))
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", hexstr]) == 0
        result = json.loads(capsys.readouterr().out)
        probs = list(result["probabilities"].values())
        assert len(probs) == 4
        assert all(p >= 0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_lm_checkpoint_refused(self, ws, capsys):
        root, _ = ws
        assert main(["predict", "--checkpoint", str(root / "lm" / "lm_best.ckpt"),
                     "--bytecode", "6001"]) == 4

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--bytecode", "6001"]) == 3


class TestLoadsOnce:
    def test_predict_parses_the_header_once(self, ws, monkeypatch, capsys):
        root, _ = ws
        counts = {"headers": 0, "vocabs": 0}
        real_read, real_init = ckpt_mod._read_header, C.Vocab.__init__

        def read(fh):
            counts["headers"] += 1
            return real_read(fh)

        def init(self, tokens):
            counts["vocabs"] += 1
            real_init(self, tokens)

        monkeypatch.setattr(ckpt_mod, "_read_header", read)
        monkeypatch.setattr(C.Vocab, "__init__", init)
        assert main(["predict", "--checkpoint", str(root / "clf" / "clf_best.ckpt"),
                     "--bytecode", "6001600201331450"]) == 0
        assert counts == {"headers": 1, "vocabs": 1}

    def test_eval_reads_only_the_scored_split(self, ws, tmp_path):
        root, _ = ws
        ckpt = str(root / "clf" / "clf_best.ckpt")
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        for name in ("train.jsonl", "valid.jsonl", "vocab.tsv"):
            (data / name).unlink()
        for prep, out in ((root / "prep", "full"), (data, "test-only")):
            assert main(["eval", "--checkpoint", ckpt, "--data", str(prep), "--split", "test",
                         "--out", str(tmp_path / out)]) == 0
        full, alone = ((tmp_path / d / "metrics.json").read_text() for d in ("full", "test-only"))
        assert alone == full


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weight_exits_4(self, ws, tmp_path, capsys, value):
        root, _ = ws
        clf = ckpt_mod.load_checkpoint(root / "clf" / "clf_best.ckpt")
        clf.w2.data[0, 0] = value
        path = tmp_path / "clf.ckpt"
        ckpt_mod.save_checkpoint(clf, path, vocab=clf.checkpoint_vocab)
        assert main(["predict", "--checkpoint", str(path), "--bytecode", "6001600201331450"]) == 4
        captured = capsys.readouterr()
        assert "head.w2" in captured.err and captured.out == ""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_predicts_or_exits_4(self, ws, data):
        """Any truncation or single bit flip gives a valid prediction or exit 4:
        never a traceback, never a non-finite probability."""
        root, _ = ws
        raw = (root / "clf" / "clf_best.ckpt").read_bytes()
        header_end = 12 + struct.unpack("<I", raw[8:12])[0]
        # Half the draws land in the magic, lengths and JSON header.
        at = data.draw(st.integers(0, header_end - 1) | st.integers(0, len(raw) - 1))
        if data.draw(st.booleans(), label="truncate"):
            corrupt = raw[:at]
        else:
            bit = data.draw(st.integers(0, 7), label="bit")
            corrupt = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]
        path = root / "corrupt.ckpt"
        path.write_bytes(corrupt)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["predict", "--checkpoint", str(path), "--bytecode", "6001600201331450"])
        assert rc in (0, 4)
        if rc == 0:
            probs = json.loads(out.getvalue(), parse_constant=_reject_constant)["probabilities"]
            assert all(math.isfinite(p) and 0 <= p <= 1 for p in probs.values())
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-5)


class TestExitCodes:
    def test_unknown_config_key(self, ws, tmp_path, capsys):
        """A misspelt key, a wrong-typed value or a non-positive lr exits 2."""
        root, _ = ws
        bad = tmp_path / "bad.json"
        for text in ('{"emb_sizee": 8}', '{"emb_size": "64"}', '{"max_lr": -1}'):
            bad.write_text(text)
            assert main(["train-lm", "--data", str(root / "prep"),
                         "--out", str(tmp_path), "--config", str(bad)]) == 2, text

    def test_non_integer_vocab_id(self, ws, tmp_path, capsys):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        vocab = data / "vocab.tsv"
        vocab.write_text(vocab.read_text().replace("<bos>\t2", "<bos>\ttwo"))
        assert main(["train-lm", "--data", str(data), "--out", str(tmp_path)]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_vocab(self, ws, tmp_path, capsys):
        root, _ = ws
        data = shutil.copytree(root / "prep", tmp_path / "prep")
        (data / "vocab.tsv").write_bytes(b"<pad>\t0\n<unk>\t1\n\xff\xfe\t2\n")
        assert main(["train-lm", "--data", str(data), "--out", str(tmp_path)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["kind", "hyperparams"])
    def test_checkpoint_header_missing_key(self, ws, tmp_path, capsys, key):
        root, _ = ws
        path = tmp_path / "clf.ckpt"
        path.write_bytes((root / "clf" / "clf_best.ckpt").read_bytes())
        rewrite_header(path, lambda h: h.pop(key))
        assert main(["predict", "--checkpoint", str(path), "--bytecode", "6001"]) == 4
        assert key in capsys.readouterr().err

    def test_missing_corpus(self, tmp_path, capsys):
        assert main(["prep", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path)]) == 3

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train-lm"])  # --data missing
        assert exc.value.code == 2


class TestOutRoot:
    def test_env_var_default(self, ws, tmp_path, monkeypatch, capsys):
        root, _ = ws
        monkeypatch.setenv("OPSCAN_OUT", str(tmp_path / "envroot"))
        assert main(["split", "--corpus", str(root / "syn" / "corpus.jsonl"),
                     "--seed", "1"]) == 0
        assert (tmp_path / "envroot" / "split" / "split.json").exists()
