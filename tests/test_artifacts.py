"""Every file opscan writes goes through artifacts.write_atomic: a write
that fails partway leaves the previous file and no temporary file."""

import contextlib
import errno
from pathlib import Path
from types import SimpleNamespace

import pytest

from opscan import artifacts
from opscan import corpus as C
from opscan import model as M
from opscan import trainer as T
from opscan.artifacts import write_atomic
from opscan.checkpoint import save_checkpoint
from opscan.cli import main
from opscan.config import RunConfig
from opscan.synth import synth_records, write_corpus

from helpers import encoder

OLD = b"an earlier run's bytes\n"


def _classifier(vocab):
    enc = encoder(len(vocab), emb_size=6, hidden_size=8, n_layers=1, seed=0)
    return M.Classifier(enc, n_classes=4, head_hidden=5, vocab_hash=vocab.content_hash(),
                        seed=2)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny corpus, its vocabulary and splits, a predictions file with
    scores and a classifier checkpoint: the inputs of every writer below."""
    root = tmp_path_factory.mktemp("artifacts")
    records = synth_records(per_class=6, seed=0, mean_len=30, jitter=5, plants=2,
                            dup_normals=0)
    write_corpus(records, root / "corpus.jsonl", seed=0)
    vocab = C.build_vocab(records, 1)
    data = ([C.numericalize(r.tokens, vocab) for r in records], [r.label for r in records])
    (root / "preds.jsonl").write_text("".join(
        f'{{"actual": {i % 4 + 1}, "predicted": {i % 3 + 1}, "scores": [{i % 5}, 1, 2, 3]}}\n'
        for i in range(20)))
    save_checkpoint(_classifier(vocab), root / "clf.ckpt", vocab=vocab)
    return SimpleNamespace(root=root, records=records, vocab=vocab, data=data)


def _cli(*argv):
    """A writer that runs one command, which reports the failed write as exit 3."""
    def run(w, out):
        assert main([a.format(root=w.root) for a in argv] + ["--out", str(out)]) == 3
    return run


def _train_clf(w, out):
    T.train_clf(_classifier(w.vocab), w.data, w.data, RunConfig(epochs=1, batch_size=4),
                out_dir=out, vocab=w.vocab)


_PREP = _cli("prep", "--corpus", "{root}/corpus.jsonl")
_EVAL = _cli("eval", "--predictions", "{root}/preds.jsonl")

# artifact -> (a writer(world, out dir) that writes it into out, the bytes the
# target holds after its write fails: the previous file's, or what the run
# made of it before that write: a trainer empties history.jsonl and deletes
# its best checkpoint and fbeta.csv first, so a rerun never mixes two runs)
WRITERS = {
    "corpus.jsonl": (lambda w, out: write_corpus(w.records, out / "corpus.jsonl", seed=0), OLD),
    "train.jsonl": (_PREP, OLD),
    "vocab.tsv": (_PREP, OLD),
    "split.json": (_PREP, OLD),
    "prep.json": (_PREP, OLD),
    "config.json": (_PREP, OLD),
    "disasm.txt": (_cli("disasm", "--bytecode", "6001600201"), OLD),
    "metrics.json": (_EVAL, OLD),
    "confusion.csv": (_EVAL, OLD),
    "roc_type1.csv": (_EVAL, OLD),
    "prediction.json": (_cli("predict", "--checkpoint", "{root}/clf.ckpt",
                             "--bytecode", "6001600201"), OLD),
    "lr_find.csv": (lambda w, out: T.LrFinderResult(
        [1e-3, 1e-2], [2.0, 1.5], 1e-3, False).write_csv(out / "lr_find.csv"), OLD),
    "history.jsonl": (_train_clf, b""),
    "fbeta.csv": (_train_clf, None),
    "clf_best.ckpt": (_train_clf, None),
    "lm.ckpt": (lambda w, out: save_checkpoint(
        M.LanguageModel(encoder(len(w.vocab), emb_size=6, hidden_size=8, n_layers=1, seed=5),
                        vocab_hash=None, seed=1), out / "lm.ckpt"), OLD),
}


class _DiskFull:
    """A file that takes half of its first non-empty write and then fails,
    as a full disk would."""

    def __init__(self, fh, failed: list):
        self.fh, self.failed = fh, failed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, data):
        if not data:
            return 0
        self.fh.write(data[: len(data) // 2])
        self.failed.append(Path(self.fh.name).name)
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(world, tmp_path, monkeypatch, name):
    writer, kept = WRITERS[name]
    target = tmp_path / name
    target.write_bytes(OLD)
    failed = []

    def disk_full_for_target(path, mode):
        fh = open(path, mode)
        return _DiskFull(fh, failed) if Path(path).name in (name, f"{name}.tmp") else fh

    monkeypatch.setattr(artifacts, "open", disk_full_for_target, raising=False)
    with contextlib.suppress(OSError):
        writer(world, tmp_path)
    monkeypatch.undo()
    assert len(failed) == 1
    assert (target.read_bytes() if target.exists() else None) == kept
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_failing_chunk_source_keeps_previous_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(OLD)

    def chunks():
        yield "a first chunk\n"
        raise ValueError("chunk source failed")

    with pytest.raises(ValueError, match="chunk source failed"):
        write_atomic(target, chunks())
    assert target.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_text_is_utf8_with_its_line_ends(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(target, ["a,é\r\n", b"\x00\x01\n"])
    assert target.read_bytes() == "a,é\r\n".encode() + b"\x00\x01\n"
