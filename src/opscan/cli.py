"""Command-line surface tying the pipeline together.

Commands: synth, disasm, prep, lr-find, train-lm, train-clf, eval,
predict. Every command accepts --seed and --out. Without --out, disasm and
predict write no file, and the others write to <root>/<command>, where
<root> is $OPSCAN_OUT or ./runs.

Exit codes: 0 ok, 2 bad usage or malformed config, 3 bad input data or a
missing file, 4 checkpoint error, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from . import trainer as trainer_mod
from .artifacts import write_atomic
# read_header and vocab_from_header stay bound here, unused, because the
# traced benchmark run (perfbench/layers.py) wraps them on this module.
from .checkpoint import CheckpointError, load_checkpoint, read_header, vocab_from_header  # noqa: F401
from .config import ConfigError, RunConfig
from .corpus import CorpusError, Vocab
from .disasm import DisasmError, disassemble
from .model import Classifier, Encoder, LanguageModel, transfer_encoder
from .optim import NumericalError

OUT_ROOT_ENV = "OPSCAN_OUT"


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# shared plumbing

def _resolve_out(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        root = os.environ.get(OUT_ROOT_ENV, "runs")
        out = Path(root) / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults), each key overridden by the flag
    of the same name when that flag is given."""
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    return cfg.replaced(**{key: value for key, value in vars(args).items() if key in keys})


def _read_split(data_dir: str | Path, name: str, vocab: Vocab) -> tuple[list, list[int]]:
    """Token ids and labels of one split of a prep output directory."""
    records, _ = corpus_mod.ingest(Path(data_dir) / f"{name}.jsonl")
    ids = [corpus_mod.numericalize(r.tokens, vocab) for r in records]
    return ids, [r.label for r in records]


def _encoder_from_config(cfg: RunConfig, vocab_size: int) -> Encoder:
    """An encoder of cfg's shapes over vocab_size ids, drawn from cfg's seed."""
    shape = {key: getattr(cfg, key) for key in Encoder.SHAPE_KEYS if key != "vocab_size"}
    try:
        return Encoder(vocab_size, **shape, dropouts=cfg.dropouts(), seed=cfg.seed)
    except MemoryError as exc:
        raise ConfigError(f"encoder sizes too large to allocate: {exc}") from exc


def _new_model(kind: str, enc: Encoder, cfg: RunConfig, vocab: Vocab
               ) -> LanguageModel | Classifier:
    """An LM ("lm", decoder drawn from seed + 1) or classifier ("clf", head
    drawn from seed + 2) over enc and vocab: the model lr-find, train-lm and
    train-clf start from."""
    try:
        if kind == "lm":
            return LanguageModel(enc, vocab_hash=vocab.content_hash(), seed=cfg.seed + 1)
        return Classifier(enc, n_classes=metrics_mod.N_CLASSES, head_hidden=cfg.head_hidden,
                          vocab_hash=vocab.content_hash(), seed=cfg.seed + 2)
    except MemoryError as exc:
        raise ConfigError(f"model sizes too large to allocate: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = _load_config(args)
    try:
        records = synth_mod.synth_records(
            per_class=args.per_class,
            seed=cfg.seed,
            mean_len=args.mean_len,
            jitter=args.jitter,
            plants=args.plants,
            dup_normals=args.dup_normals,
        )
    except (ValueError, MemoryError) as exc:  # MemoryError: sizes no allocation holds
        raise UsageError(str(exc)) from exc
    out = _resolve_out(args, "synth")
    path = out / "corpus.jsonl"
    synth_mod.write_corpus(records, path, seed=cfg.seed)
    cfg.write(out)
    print(f"wrote {len(records)} records to {path}")
    return 0


def _bytecode(args) -> str:
    """The hex of --bytecode, or of the --input file: exactly one is given."""
    if (args.bytecode is None) == (args.input is None):
        raise UsageError("exactly one of --bytecode or --input is required")
    if args.bytecode is not None:
        return args.bytecode
    return Path(args.input).read_text(encoding="utf-8").strip()


def cmd_disasm(args) -> int:
    tokens = disassemble(_bytecode(args), collapse_push=args.collapse_push)
    text = "\n".join(tokens)
    print(text)
    if args.out:
        out = _resolve_out(args, "disasm")
        write_atomic(out / "disasm.txt", text + "\n")
    return 0


def cmd_prep(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, "prep")
    records, stats = corpus_mod.ingest(args.corpus)
    deduped = corpus_mod.dedup_normals(records)
    split = corpus_mod.stratified_split(deduped, ratios=cfg.ratios(), seed=cfg.seed)
    vocab = corpus_mod.build_vocab(split.train, min_freq=cfg.min_freq)
    for name in ("train", "valid", "test"):
        write_atomic(out / f"{name}.jsonl", (
            json.dumps({"address": r.address, "tokens": list(r.tokens), "label": r.label + 1},
                       sort_keys=True, allow_nan=False) + "\n" for r in getattr(split, name)))
    vocab.save(out / "vocab.tsv")
    split.save_manifest(out / "split.json")
    summary = {
        "ingested": len(records),
        "skipped": stats.skipped,
        "per_class": stats.per_class,
        "after_dedup": len(deduped),
        "split_sizes": {n: len(getattr(split, n)) for n in ("train", "valid", "test")},
        "vocab_size": len(vocab),
        "vocab_hash": vocab.content_hash(),
    }
    write_atomic(out / "prep.json",
                 json.dumps(summary, indent=1, sort_keys=True, allow_nan=False) + "\n")
    cfg.write(out)
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


def cmd_lr_find(args) -> int:
    min_steps = trainer_mod.LR_FIND_MIN_POINTS
    if not (args.steps >= min_steps and 0 < args.lr_start < args.lr_end < np.inf):
        raise UsageError(f"need --steps >= {min_steps} and 0 < --lr-start < --lr-end, all finite")
    cfg = _load_config(args)
    out = _resolve_out(args, "lr-find")
    vocab = Vocab.load(Path(args.data) / "vocab.tsv")
    ids, labels = _read_split(args.data, "train", vocab)
    model = _new_model(args.model, _encoder_from_config(cfg, len(vocab)), cfg, vocab)
    # the models' training loss streams, batches in their stored order
    if args.model == "lm":
        batches = corpus_mod.lm_batches(ids, cfg.batch_size, cfg.bptt)
        epoch_losses = trainer_mod.lm_losses
    else:
        batches = corpus_mod.clf_batches(ids, labels, cfg.batch_size, cfg.max_len)
        epoch_losses = functools.partial(trainer_mod.clf_losses, shuffle=False)
    batches = trainer_mod.checked_split("train", batches)
    losses = trainer_mod.cycle(functools.partial(epoch_losses, model, batches), cfg.seed)
    result = trainer_mod.lr_find(model.parameters(), losses, lr_start=args.lr_start,
                                 lr_end=args.lr_end, max_steps=args.steps)
    result.write_csv(out / "lr_find.csv")
    cfg.write(out)
    print(json.dumps({"suggestion": result.suggestion,
                      "stopped_early": result.stopped_early}, allow_nan=False))
    return 0


def _report(result, metric: str) -> int:
    """A training run's exit code: 0 after printing its best ``metric`` and
    epoch, or 5 after saying on stderr why it aborted and what it kept."""
    if result.aborted:
        kept = ("no checkpoint written" if result.best_epoch is None
                else f"best checkpoint (epoch {result.best_epoch}) kept")
        print(f"training aborted: {result.abort_reason}; {kept}", file=sys.stderr)
        return 5
    print(json.dumps({f"best_{metric}": result.best_metric,
                      "best_epoch": result.best_epoch}, allow_nan=False))
    return 0


def cmd_train_lm(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, "train-lm")
    vocab = Vocab.load(Path(args.data) / "vocab.tsv")
    train_ids, _ = _read_split(args.data, "train", vocab)
    valid_ids, _ = _read_split(args.data, "valid", vocab)
    lm = _new_model("lm", _encoder_from_config(cfg, len(vocab)), cfg, vocab)
    cfg.write(out)
    return _report(trainer_mod.train_lm(lm, train_ids, valid_ids, cfg, out_dir=out, vocab=vocab),
                   "valid_loss")


def cmd_train_clf(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, "train-clf")
    vocab = Vocab.load(Path(args.data) / "vocab.tsv")
    train_data = _read_split(args.data, "train", vocab)
    valid_data = _read_split(args.data, "valid", vocab)
    if args.lm:
        enc = transfer_encoder(load_checkpoint(args.lm, kind="lm", vocab=vocab), cfg.dropouts())
        cfg = cfg.with_shapes_of(enc)
    else:
        enc = _encoder_from_config(cfg, len(vocab))
    clf = _new_model("clf", enc, cfg, vocab)
    cfg.write(out)
    return _report(trainer_mod.train_clf(clf, train_data, valid_data, cfg, out_dir=out,
                                         vocab=vocab), "valid_fbeta")


def _row_scores(value, n_classes: int) -> np.ndarray | None:
    """A prediction row's scores as float64, or None unless they are a list of
    n_classes JSON numbers (no bool, no string) each finite as a float64."""
    if not isinstance(value, list) or len(value) != n_classes \
            or not all(type(v) in (int, float) for v in value):
        return None
    try:
        arr = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        return None
    return arr if np.isfinite(arr).all() else None


def _eval_predictions_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    n_classes = metrics_mod.N_CLASSES
    actual, predicted, scores = [], [], []
    first_unscored = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise CorpusError(f"line {lineno}: JSON nested too deeply") from exc
            if not isinstance(row, dict):
                row = {}
            pair = row.get("actual"), row.get("predicted")
            # type(), not isinstance(): JSON true is a bool, and bool is an int
            if not all(type(v) is int and 1 <= v <= n_classes for v in pair):
                raise CorpusError(
                    f"line {lineno}: actual/predicted must be integers in 1..{n_classes}")
            actual.append(pair[0] - 1)
            predicted.append(pair[1] - 1)
            if "scores" in row:
                row_scores = _row_scores(row["scores"], n_classes)
                if row_scores is None:
                    raise CorpusError(f"line {lineno}: scores must be {n_classes} finite numbers")
                scores.append(row_scores)
            elif first_unscored is None:
                first_unscored = lineno
    if not actual:
        raise CorpusError(f"{path}: no prediction rows")
    if scores and first_unscored is not None:
        raise CorpusError(f"line {first_unscored}: no scores, though other rows carry them")
    score_arr = np.asarray(scores, dtype=np.float64) if scores else None
    return np.asarray(actual), np.asarray(predicted), score_arr


def _load_for_inference(path) -> tuple[Classifier, Vocab]:
    """A classifier checkpoint of the metrics' class count and its embedded
    vocabulary."""
    clf = load_checkpoint(path, kind="clf")
    if clf.checkpoint_vocab is None:
        raise CheckpointError(f"{path}: no vocabulary embedded")
    if clf.n_classes != metrics_mod.N_CLASSES:
        raise CheckpointError(f"{path}: a classifier of {clf.n_classes} classes, "
                              f"not {metrics_mod.N_CLASSES}")
    return clf, clf.checkpoint_vocab


def cmd_eval(args) -> int:
    if (args.predictions is None) == (args.checkpoint is None):
        raise UsageError("exactly one of --predictions or --checkpoint is required")
    if args.checkpoint and not args.data:
        raise UsageError("--checkpoint needs --data")
    cfg = _load_config(args)
    out = _resolve_out(args, "eval")
    if args.predictions:
        actual, predicted, scores = _eval_predictions_file(args.predictions)
    else:
        clf, vocab = _load_for_inference(args.checkpoint)
        ids, actual = _read_split(args.data, args.split, vocab)
        scores = trainer_mod.classify(clf, trainer_mod.checked_split(args.split, ids),
                                      cfg.max_len)
        predicted = np.argmax(scores, axis=1)
    cm = metrics_mod.confusion_matrix(predicted, actual)
    rep = metrics_mod.report(cm, scores=scores, labels=actual)
    write_atomic(out / "metrics.json", rep.to_json() + "\n")
    metrics_mod.write_confusion_csv(cm, out / "confusion.csv")
    for c in rep.per_class:
        roc_path = out / f"roc_type{c.label}.csv"
        if c.roc is None:
            roc_path.unlink(missing_ok=True)  # an earlier run's curve
        else:
            metrics_mod.write_roc_csv(c.label, c.roc, roc_path)
    cfg.write(out)
    print(rep.to_json())
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    hexstr = _bytecode(args)
    clf, vocab = _load_for_inference(args.checkpoint)
    tokens = disassemble(hexstr)
    if not tokens:
        raise CorpusError("bytecode disassembles to zero opcodes")
    probs = trainer_mod.classify(clf, [corpus_mod.numericalize(tokens, vocab)], cfg.max_len)[0]
    label = int(np.argmax(probs))
    result = {
        "label": label + 1,
        "type": metrics_mod.CLASS_NAMES[label],
        "probabilities": {name: float(p)
                          for name, p in zip(metrics_mod.CLASS_NAMES, probs)},
    }
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    if args.out:
        out = _resolve_out(args, "predict")
        write_atomic(out / "prediction.json",
                     json.dumps(result, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser

def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="rng seed (overrides config)")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--config", default=None, help="JSON config file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use. Parsing never changes it, so every
    main() call in a process shares one instead of rebuilding eight
    subparsers."""
    parser = argparse.ArgumentParser(
        prog="opscan",
        description="Opcode-sequence vulnerability classifier pipeline",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--mean-len", type=int, default=120)
    p.add_argument("--jitter", type=int, default=40)
    p.add_argument("--plants", type=int, default=4)
    p.add_argument("--dup-normals", type=int, default=0)
    _common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("disasm", help="disassemble bytecode hex to mnemonics")
    p.add_argument("--bytecode", default=None)
    p.add_argument("--input", default=None, help="file containing bytecode hex")
    p.add_argument("--collapse-push", action="store_true")
    _common(p)
    p.set_defaults(func=cmd_disasm)

    p = subs.add_parser("prep", help="ingest, dedup, split, build vocab")
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-freq", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_prep)

    p = subs.add_parser("lr-find", help="learning-rate range test")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--model", choices=("lm", "clf"), default="lm")
    p.add_argument("--lr-start", type=float, default=1e-7)
    p.add_argument("--lr-end", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_lr_find)

    p = subs.add_parser("train-lm", help="pretrain the next-opcode language model")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--bptt", type=int, default=None)
    p.add_argument("--max-lr", type=float, default=None)
    _common(p)
    p.set_defaults(func=cmd_train_lm)

    p = subs.add_parser("train-clf", help="fine-tune the 4-class classifier")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--lm", default=None, help="LM checkpoint to transfer from")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr-hi", type=float, default=None)
    p.add_argument("--epochs-per-stage", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_train_clf)

    p = subs.add_parser("eval", help="score a checkpoint or a predictions file")
    p.add_argument("--predictions", default=None,
                   help="JSONL with 1-based actual/predicted (+ optional scores)")
    p.add_argument("--checkpoint", default=None, help="classifier checkpoint")
    p.add_argument("--data", default=None, help="prep output directory")
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    _common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("predict", help="classify one bytecode string")
    p.add_argument("--checkpoint", required=True, help="classifier checkpoint")
    p.add_argument("--bytecode", default=None)
    p.add_argument("--input", default=None, help="file containing bytecode hex")
    _common(p)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # a non-finite value is reported once, by its exit code and message,
        # not also by numpy's RuntimeWarnings on the way there, from any thread
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, DisasmError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
