"""Command-line surface tying the pipeline together.

Commands: synth, disasm, prep, split, lr-find, train-lm, train-clf, eval,
predict. Every command accepts --seed and --out; when --out is omitted the
output directory defaults to $OPSCAN_OUT/<command> (or ./runs/<command>).

Exit codes: 0 ok, 2 bad usage or malformed config, 3 bad input data or a
missing file, 4 checkpoint error, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import synth as synth_mod
from . import trainer as trainer_mod
# read_header and vocab_from_header stay bound here, unused, because the
# traced benchmark run (perfbench/layers.py) wraps them on this module.
from .checkpoint import CheckpointError, load_checkpoint, read_header, vocab_from_header  # noqa: F401
from .config import ConfigError, RunConfig
from .corpus import CorpusError, Vocab
from .disasm import DisasmError, disassemble
from .model import Classifier, Encoder, LanguageModel, transfer_encoder
from .optim import NumericalError
from .trainer import TrainerError

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


def _load_config(args, **flag_overrides) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = dict(flag_overrides)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cfg.replaced(**overrides)


def _read_split_dir(data_dir: str | Path) -> tuple[Vocab, dict[str, list]]:
    """Load a prep output directory: vocab plus the three record lists."""
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.tsv")
    splits = {}
    for name in ("train", "valid", "test"):
        records, _ = corpus_mod.ingest(data_dir / f"{name}.jsonl")
        splits[name] = records
    return vocab, splits


def _ids_and_labels(records, vocab) -> tuple[list[np.ndarray], list[int]]:
    ids = [corpus_mod.numericalize(r.tokens, vocab) for r in records]
    return ids, [r.label for r in records]


def _write_records_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            line = {"address": rec.address, "tokens": list(rec.tokens),
                    "label": rec.label + 1}
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _encoder_from_config(cfg: RunConfig, vocab_size: int) -> Encoder:
    return Encoder(
        vocab_size,
        emb_size=cfg.emb_size,
        hidden_size=cfg.hidden_size,
        n_layers=cfg.n_layers,
        dropouts=cfg.dropouts(),
        tie_last=cfg.tie_last,
        dtype=cfg.np_dtype(),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, "synth")
    records = synth_mod.synth_records(
        per_class=args.per_class,
        seed=cfg.seed,
        mean_len=args.mean_len,
        jitter=args.jitter,
        plants=args.plants,
        dup_normals=args.dup_normals,
    )
    path = out / "corpus.jsonl"
    synth_mod.write_corpus(records, path, seed=cfg.seed)
    cfg.write(out)
    print(f"wrote {len(records)} records to {path}")
    return 0


def cmd_disasm(args) -> int:
    if (args.bytecode is None) == (args.input is None):
        raise UsageError("exactly one of --bytecode or --input is required")
    hexstr = args.bytecode if args.bytecode else Path(args.input).read_text().strip()
    tokens = disassemble(hexstr, collapse_push=args.collapse_push)
    text = "\n".join(tokens)
    print(text)
    if args.out:
        out = _resolve_out(args, "disasm")
        (out / "disasm.txt").write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_prep(args) -> int:
    cfg = _load_config(args, min_freq=args.min_freq)
    out = _resolve_out(args, "prep")
    records, stats = corpus_mod.ingest(args.corpus)
    deduped = corpus_mod.dedup_normals(records)
    split = corpus_mod.stratified_split(deduped, ratios=cfg.ratios(), seed=cfg.seed)
    vocab = corpus_mod.build_vocab(split.train, min_freq=cfg.min_freq)
    for name in ("train", "valid", "test"):
        _write_records_jsonl(getattr(split, name), out / f"{name}.jsonl")
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
    (out / "prep.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    cfg.write(out)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_split(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, "split")
    records, _ = corpus_mod.ingest(args.corpus)
    deduped = corpus_mod.dedup_normals(records)
    split = corpus_mod.stratified_split(deduped, ratios=cfg.ratios(), seed=cfg.seed)
    split.save_manifest(out / "split.json")
    cfg.write(out)
    sizes = {n: len(getattr(split, n)) for n in ("train", "valid", "test")}
    print(json.dumps(sizes, sort_keys=True))
    return 0


def cmd_lr_find(args) -> int:
    cfg = _load_config(args, batch_size=args.batch_size)
    out = _resolve_out(args, "lr-find")
    vocab, splits = _read_split_dir(args.data)
    train_ids, train_labels = _ids_and_labels(splits["train"], vocab)
    if args.model == "lm":
        lm = LanguageModel(_encoder_from_config(cfg, len(vocab)),
                           vocab_hash=vocab.content_hash(), seed=cfg.seed + 1)
        params = lm.parameters()
        steps = trainer_mod.lm_loss_steps(lm, train_ids, cfg.batch_size, cfg.bptt,
                                          seed=cfg.seed)
    else:
        clf = Classifier(_encoder_from_config(cfg, len(vocab)), n_classes=4,
                         head_hidden=cfg.head_hidden, vocab_hash=vocab.content_hash(),
                         seed=cfg.seed + 2)
        params = clf.parameters()
        steps = _clf_loss_steps(clf, train_ids, train_labels, cfg)
    result = trainer_mod.lr_find(params, steps, lr_start=args.lr_start,
                                 lr_end=args.lr_end, max_steps=args.steps)
    result.write_csv(out / "lr_find.csv")
    cfg.write(out)
    print(json.dumps({"suggestion": result.suggestion,
                      "stopped_early": result.stopped_early}))
    return 0


def _clf_loss_steps(clf, id_seqs, labels, cfg):
    epoch = 0
    while True:
        rng = np.random.default_rng([cfg.seed, epoch])
        for ids, lengths, labs in corpus_mod.clf_batches(id_seqs, labels,
                                                         cfg.batch_size, cfg.max_len):
            def make_loss(ids=ids, lengths=lengths, labs=labs, rng=rng):
                return clf.loss(ids.T, lengths, labs, train=True, rng=rng)

            yield make_loss
        epoch += 1


def _report_abort(result) -> int:
    if result.best_epoch is None:
        kept = "no checkpoint written"
    else:
        kept = f"best checkpoint (epoch {result.best_epoch}) kept"
    print(f"training aborted: {result.abort_reason}; {kept}", file=sys.stderr)
    return 5


def cmd_train_lm(args) -> int:
    cfg = _load_config(args, epochs=args.epochs, batch_size=args.batch_size,
                       bptt=args.bptt, max_lr=args.max_lr)
    out = _resolve_out(args, "train-lm")
    vocab, splits = _read_split_dir(args.data)
    train_ids, _ = _ids_and_labels(splits["train"], vocab)
    valid_ids, _ = _ids_and_labels(splits["valid"], vocab)
    lm = LanguageModel(_encoder_from_config(cfg, len(vocab)),
                       vocab_hash=vocab.content_hash(), seed=cfg.seed + 1)
    cfg.write(out)
    result = trainer_mod.train_lm(
        lm, train_ids, valid_ids,
        epochs=cfg.epochs, batch_size=cfg.batch_size, bptt=cfg.bptt,
        max_lr=cfg.max_lr, weight_decay=cfg.weight_decay, seed=cfg.seed,
        out_dir=out, vocab=vocab,
        schedule_overrides={"warmup_frac": cfg.warmup_frac},
    )
    if result.aborted:
        return _report_abort(result)
    print(json.dumps({"best_valid_loss": result.best_metric,
                      "best_epoch": result.best_epoch}))
    return 0


def cmd_train_clf(args) -> int:
    cfg = _load_config(args, epochs=args.epochs, batch_size=args.batch_size,
                       lr_hi=args.lr_hi, epochs_per_stage=args.epochs_per_stage)
    out = _resolve_out(args, "train-clf")
    vocab, splits = _read_split_dir(args.data)
    train_data = _ids_and_labels(splits["train"], vocab)
    valid_data = _ids_and_labels(splits["valid"], vocab)
    if args.lm:
        lm = load_checkpoint(args.lm, kind="lm", vocab=vocab)
        clf = transfer_encoder(lm, vocab_hash=vocab.content_hash(),
                               head_hidden=cfg.head_hidden, seed=cfg.seed + 2)
    else:
        clf = Classifier(_encoder_from_config(cfg, len(vocab)), n_classes=4,
                         head_hidden=cfg.head_hidden, vocab_hash=vocab.content_hash(),
                         seed=cfg.seed + 2)
    cfg.write(out)
    result = trainer_mod.train_clf(
        clf, train_data, valid_data,
        epochs=cfg.epochs, batch_size=cfg.batch_size, max_len=cfg.max_len,
        lr_lo=cfg.lr_lo, lr_hi=cfg.lr_hi, weight_decay=cfg.weight_decay,
        epochs_per_stage=cfg.epochs_per_stage, seed=cfg.seed,
        out_dir=out, vocab=vocab,
        schedule_overrides={"warmup_frac": cfg.warmup_frac},
    )
    if result.aborted:
        return _report_abort(result)
    print(json.dumps({"best_valid_fbeta": result.best_metric,
                      "best_epoch": result.best_epoch}))
    return 0


def _eval_predictions_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    actual, predicted, scores = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: not valid JSON ({exc.msg})") from exc
            try:
                actual.append(int(row["actual"]) - 1)
                predicted.append(int(row["predicted"]) - 1)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"line {lineno}: needs integer actual/predicted") from exc
            if "scores" in row:
                scores.append(row["scores"])
    if not actual:
        raise CorpusError(f"{path}: no prediction rows")
    score_arr = np.asarray(scores, dtype=np.float64) if len(scores) == len(actual) else None
    return np.asarray(actual), np.asarray(predicted), score_arr


def _write_report(out: Path, rep, cm, curves) -> None:
    (out / "metrics.json").write_text(rep.to_json() + "\n", encoding="utf-8")
    metrics_mod.write_confusion_csv(cm, out / "confusion.csv")
    for label, curve in curves.items():
        metrics_mod.write_roc_csv({label: curve}, out / f"roc_type{label}.csv")


def _load_for_inference(path) -> tuple[Classifier, Vocab]:
    """A classifier checkpoint and its embedded vocabulary. Every parameter
    is frozen, so forward passes record no backward closures."""
    clf = load_checkpoint(path, kind="clf")
    vocab = clf.checkpoint_vocab
    if vocab is None:
        raise CheckpointError(f"{path}: no vocabulary embedded")
    for p in clf.parameters():
        p.frozen = True
    return clf, vocab


def cmd_eval(args) -> int:
    if (args.predictions is None) == (args.checkpoint is None):
        raise UsageError("exactly one of --predictions or --checkpoint is required")
    if args.checkpoint and not args.data:
        raise UsageError("--checkpoint needs --data")
    cfg = _load_config(args, batch_size=args.batch_size)
    out = _resolve_out(args, "eval")

    if args.predictions:
        actual, predicted, scores = _eval_predictions_file(args.predictions)
        cm = metrics_mod.confusion_matrix(predicted, actual)
        rep = metrics_mod.report(cm, scores=scores,
                                 labels=actual if scores is not None else None)
        curves = {}
        if scores is not None:
            curves = {c + 1: metrics_mod.roc_curve(scores[:, c], actual == c)
                      for c in range(cm.shape[0])}
    else:
        clf, vocab = _load_for_inference(args.checkpoint)
        records, _ = corpus_mod.ingest(Path(args.data) / f"{args.split}.jsonl")
        ids, labels = _ids_and_labels(records, vocab)
        actual_list, prob_rows = [], []
        for bids, lengths, labs in corpus_mod.clf_batches(ids, labels, cfg.batch_size,
                                                          cfg.max_len):
            prob_rows.append(clf.predict_proba(bids.T, lengths))
            actual_list.append(labs)
        actual = np.concatenate(actual_list)
        probs = np.concatenate(prob_rows)
        predicted = np.argmax(probs, axis=1)
        cm = metrics_mod.confusion_matrix(predicted, actual)
        rep = metrics_mod.report(cm, scores=probs, labels=actual)
        curves = {c + 1: metrics_mod.roc_curve(probs[:, c], actual == c)
                  for c in range(cm.shape[0])}

    _write_report(out, rep, cm, curves)
    cfg.write(out)
    print(rep.to_json())
    return 0


def cmd_predict(args) -> int:
    if (args.bytecode is None) == (args.input is None):
        raise UsageError("exactly one of --bytecode or --input is required")
    clf, vocab = _load_for_inference(args.checkpoint)
    hexstr = args.bytecode if args.bytecode else Path(args.input).read_text().strip()
    tokens = disassemble(hexstr)
    if not tokens:
        raise CorpusError("bytecode disassembles to zero opcodes")
    ids = corpus_mod.numericalize(tokens, vocab)
    probs = clf.predict_proba(ids[:, None], np.array([len(ids)]))[0]
    label = int(np.argmax(probs))
    result = {
        "label": label + 1,
        "type": metrics_mod.CLASS_NAMES[label],
        "probabilities": {name: float(p)
                          for name, p in zip(metrics_mod.CLASS_NAMES, probs)},
    }
    print(json.dumps(result, sort_keys=True))
    if args.out:
        out = _resolve_out(args, "predict")
        (out / "prediction.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# parser

def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="rng seed (overrides config)")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
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

    p = subs.add_parser("split", help="write a stratified split manifest")
    p.add_argument("--corpus", required=True)
    _common(p)
    p.set_defaults(func=cmd_split)

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
    p.add_argument("--batch-size", type=int, default=None)
    _common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("predict", help="classify one bytecode string")
    p.add_argument("--checkpoint", required=True, help="classifier checkpoint")
    p.add_argument("--bytecode", default=None)
    p.add_argument("--input", default=None, help="file containing bytecode hex")
    _common(p)
    p.set_defaults(func=cmd_predict)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use. Parsing never changes it, so every
    main() call in a process shares one instead of rebuilding nine
    subparsers."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, DisasmError, metrics_mod.MetricsError,
            FileNotFoundError, NotADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, TrainerError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
