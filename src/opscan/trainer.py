"""Training orchestration: LR finder, one-cycle schedule, discriminative
per-group learning rates, gradual unfreezing, and the LM / classifier
trainers.

Each training policy is coded once. ``_step`` is the optimizer step of
train_lm, train_clf and lr_find. ``_fit`` is the epoch loop of both
trainers: history.jsonl, best-epoch selection, the best checkpoint and
the abort bookkeeping. ``lm_losses`` and ``clf_losses`` are each model's
one-epoch loss stream, which lr_find consumes through ``cycle``.
``_score`` is the one scoring pass of validation, eval and predict.

A split with no batch raises corpus.CorpusError naming it before the
first epoch. A non-finite loss or gradient ends a run early, and
TrainResult.abort_reason names the step.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from .artifacts import write_atomic
from .autodiff import Parameter, Tensor, backward
from .checkpoint import save_checkpoint
from .config import RunConfig
from .corpus import CorpusError
from .metrics import MetricsReport, confusion_matrix, report
from .model import Classifier, LanguageModel
from .optim import Adam, NumericalError


class TrainerError(RuntimeError):
    """Schedule misuse or a training run that cannot proceed."""


# ---------------------------------------------------------------------------
# schedules

START_DIV = 25.0  # a one-cycle starts at max_lr / START_DIV
FINAL_DIV = 1e4  # and ends at max_lr / FINAL_DIV
MOM_HI, MOM_LO = 0.95, 0.85  # the bounds of its momentum (Adam beta1)


@dataclass(frozen=True)
class OneCycleSchedule:
    """Cosine warmup from max_lr/START_DIV to max_lr over the warmup
    fraction of steps, then cosine decay to max_lr/FINAL_DIV. Momentum
    (Adam beta1) cycles inversely between MOM_HI and MOM_LO."""

    max_lr: float
    total_steps: int
    warmup_frac: float

    def __post_init__(self):
        if self.total_steps < 3:
            raise TrainerError("one-cycle needs at least 3 steps")
        if self.max_lr <= 0:
            raise TrainerError("max_lr must be positive")
        if not 0 < self.warmup_frac < 1:
            raise TrainerError("warmup_frac must lie in (0, 1)")

    @property
    def warm_end(self) -> int:
        last = self.total_steps - 1
        return min(max(1, round(self.warmup_frac * last)), last - 1)

    def _check(self, step: int) -> None:
        if not 0 <= step < self.total_steps:
            raise TrainerError(f"step {step} outside schedule of {self.total_steps} steps")

    @staticmethod
    def _cosine(lo: float, hi: float, t: float) -> float:
        return lo + (hi - lo) * (1.0 - math.cos(math.pi * t)) / 2.0

    def lr(self, step: int) -> float:
        self._check(step)
        warm = self.warm_end
        if step <= warm:
            return self._cosine(self.max_lr / START_DIV, self.max_lr, step / warm)
        t = (step - warm) / (self.total_steps - 1 - warm)
        return self._cosine(self.max_lr, self.max_lr / FINAL_DIV, t)

    def momentum(self, step: int) -> float:
        self._check(step)
        warm = self.warm_end
        if step <= warm:
            return self._cosine(MOM_HI, MOM_LO, step / warm)
        t = (step - warm) / (self.total_steps - 1 - warm)
        return self._cosine(MOM_LO, MOM_HI, t)


def discriminative_lrs(n_groups: int, lr_lo: float, lr_hi: float) -> list[float]:
    """Geometric ramp of per-group max learning rates, embedding -> head."""
    if n_groups < 1:
        raise TrainerError("need at least one parameter group")
    if lr_lo <= 0 or lr_lo > lr_hi:
        raise TrainerError(f"require 0 < lr_lo <= lr_hi, got ({lr_lo}, {lr_hi})")
    if n_groups == 1:
        return [lr_hi]
    ratio = lr_hi / lr_lo
    return [lr_lo * ratio ** (i / (n_groups - 1)) for i in range(n_groups)]


def gradual_unfreeze(model, stage: int):
    """Stage 0 freezes the whole encoder; each further stage unfreezes one
    more encoder group from the top (last LSTM layer first, embedding last).
    Head / decoder parameters are always trainable."""
    encoder = model.encoder
    top = encoder.n_layers  # encoder groups are 0 (embedding) .. n_layers
    if not 0 <= stage <= top + 1:
        raise TrainerError(f"stage must lie in 0..{top + 1}, got {stage}")
    for p in encoder.parameters():
        p.frozen = p.layer_group < top + 1 - stage
    return model


# ---------------------------------------------------------------------------
# the optimizer step and the loss streams

def _step(opt: Adam, loss: Tensor, raw: float, lr, beta1: float | None = None) -> str | None:
    """One optimizer step on ``loss``, whose value is ``raw``: backward, Adam
    at ``lr`` and ``beta1``, zero_grad. Returns None, or why no step was
    taken: a non-finite loss or a non-finite gradient."""
    if not math.isfinite(raw):
        return f"non-finite training loss {raw}"
    backward(loss)
    try:
        opt.step(lr=lr, beta1=beta1)
    except NumericalError as exc:
        return str(exc)
    opt.zero_grad()
    return None


def checked_split(name: str, items: Iterable) -> list:
    """The items (records or batches) of split ``name`` as a list. Raises
    CorpusError naming the split when it has none, or when corpus.lm_batches
    finds it too short for one window."""
    try:
        out = list(items)
    except CorpusError as exc:
        raise CorpusError(f"{name} split: {exc}") from exc
    if not out:
        raise CorpusError(f"{name} split is empty")
    return out


def lm_losses(lm: LanguageModel, batches: Sequence, rng: np.random.Generator
              ) -> Iterator[tuple[Tensor, int]]:
    """One epoch of LM training: the loss of each corpus.lm_batches batch in
    order, the recurrent state carried across them, each of weight 1."""
    state = None
    for x, y in batches:
        loss, state = lm.loss(x.T, y.T, state, rng=rng)
        yield loss, 1


def clf_losses(clf: Classifier, batches: Sequence, rng: np.random.Generator,
               shuffle: bool = True) -> Iterator[tuple[Tensor, int]]:
    """One epoch of classifier training: the loss of each corpus.clf_batches
    batch, weighted by its size. ``shuffle`` first draws the batch order
    from ``rng``; without it the batches come in their stored order."""
    for i in rng.permutation(len(batches)) if shuffle else range(len(batches)):
        ids, lengths, labs = batches[i]
        yield clf.loss(ids.T, lengths, labs, rng=rng), len(labs)


def cycle(epoch_losses: Callable[[np.random.Generator], Iterable[tuple[Tensor, int]]],
          seed: int) -> Iterator[Tensor]:
    """Endless loss stream for lr_find: epoch after epoch of ``epoch_losses``,
    epoch e (from 0) drawing from rng [seed, e]. Each epoch must yield."""
    for epoch in itertools.count():
        for loss, _ in epoch_losses(np.random.default_rng([seed, epoch])):
            yield loss


# ---------------------------------------------------------------------------
# learning-rate finder

@dataclass
class LrFinderResult:
    lrs: list[float]
    losses: list[float]  # bias-corrected EMA of the raw losses
    suggestion: float
    stopped_early: bool

    def write_csv(self, path) -> None:
        write_atomic(path, ["lr,loss\n"] + [f"{lr!r},{loss!r}\n"
                                            for lr, loss in zip(self.lrs, self.losses)])


LR_FIND_MIN_POINTS = 10  # finite points lr_find needs to suggest an lr
_LR_FIND_BETA = 0.98  # lr_find's EMA weight of the previous smoothed loss
_LR_FIND_DIVERGENCE = 4.0  # lr_find stops at a smoothed loss this many times its best


def lr_find(params: Sequence[Parameter], losses: Iterable[Tensor], lr_start: float,
            lr_end: float, max_steps: int) -> LrFinderResult:
    """Ramp the learning rate geometrically, one mini-batch per step, and
    suggest the lr at the steepest descent of the smoothed loss.

    ``losses`` yields one mini-batch loss per step, computed as it is drawn
    (``cycle`` makes one from a model's training stream). Weights are
    restored bitwise before returning; the throwaway optimizer never leaks
    state.
    """
    if not (max_steps >= LR_FIND_MIN_POINTS and 0 < lr_start < lr_end < math.inf):
        raise TrainerError(f"need max_steps >= {LR_FIND_MIN_POINTS} and 0 < lr_start < lr_end")
    snapshot = [p.data.copy() for p in params]
    opt = Adam(params, weight_decay=0.0)
    opt.zero_grad()
    ratio = (lr_end / lr_start) ** (1.0 / (max_steps - 1))
    lrs, smoothed = [], []
    beta, avg, best, stopped = _LR_FIND_BETA, 0.0, math.inf, False
    try:
        for i, loss in enumerate(itertools.islice(losses, max_steps)):
            lr = lr_start * ratio**i
            raw = loss.item()
            if math.isfinite(raw):
                avg = beta * avg + (1.0 - beta) * raw
                sm = avg / (1.0 - beta ** (i + 1))
                lrs.append(lr)
                smoothed.append(sm)
                stopped = sm > _LR_FIND_DIVERGENCE * best
                best = min(best, sm)
            if stopped or _step(opt, loss, raw, lr) is not None:
                stopped = True
                break
    finally:
        for p, snap in zip(params, snapshot):
            p.data[:] = snap
    if len(lrs) < LR_FIND_MIN_POINTS:
        raise TrainerError(
            f"only {len(lrs)} finite points recorded before divergence; try a smaller lr_start"
        )
    keep = len(lrs) - 5  # the last points sit in the blow-up region
    diffs = np.diff(smoothed[:keep])
    suggestion = lrs[int(np.argmin(diffs))]
    return LrFinderResult(lrs, smoothed, suggestion, stopped)


# ---------------------------------------------------------------------------
# the epoch loop

@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_metric: float | None = None
    best_epoch: int | None = None
    abort_reason: str | None = None  # why training stopped early, naming the step

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def _fit(model, opt: Adam, epochs: int, plans: Iterator, validate: Callable[[], tuple],
         metric: str, out_dir, vocab, *artifacts: str) -> TrainResult:
    """The epoch loop of both trainers.

    It first writes an empty history.jsonl and deletes ``artifacts`` (the best
    checkpoint's name first), so a rerun into the same directory holds one
    run even if it stops before writing its own. Only then does it start
    ``plans``, a generator that checks the splits and yields one ``(losses,
    hyper, where)`` per epoch: the epoch's stream of (loss, weight), step
    i's (lr, beta1) and step i's name in an abort reason. Each completed
    epoch appends {"epoch", "train_loss", "valid_loss", "valid_fbeta"}
    (from ``validate()``) to the history, rewrites history.jsonl whole from
    it, and the best one by ``metric``
    (lowest valid_loss, highest valid_fbeta) is checkpointed. A non-finite
    loss or gradient ends the run with result.abort_reason. Either way the
    model is left holding the best epoch's weights.
    """
    result = TrainResult()
    if out_dir is not None:
        write_atomic(Path(out_dir) / "history.jsonl", "")
        for name in artifacts:
            (Path(out_dir) / name).unlink(missing_ok=True)
    if epochs == 0:
        return result
    params = model.parameters()
    better = operator.lt if metric == "valid_loss" else operator.gt
    best_snap = None
    for epoch, (losses, hyper, where) in enumerate(plans, start=1):
        total, n = 0.0, 0
        for i, (loss, weight) in enumerate(losses):
            raw = loss.item()
            result.abort_reason = _step(opt, loss, raw, *hyper(i))
            if result.aborted:
                result.abort_reason += f" at epoch {epoch}, {where(i)}"
                break
            total += raw * weight
            n += weight
        if result.aborted:
            break
        valid_loss, valid_fbeta = validate()
        entry = {"epoch": epoch, "train_loss": total / n, "valid_loss": valid_loss,
                 "valid_fbeta": valid_fbeta}
        result.history.append(entry)
        if out_dir is not None:
            write_atomic(Path(out_dir) / "history.jsonl",
                         (json.dumps(e, sort_keys=True) + "\n" for e in result.history))
        if result.best_metric is None or better(entry[metric], result.best_metric):
            result.best_metric, result.best_epoch = entry[metric], epoch
            best_snap = [p.data.copy() for p in params]
            if out_dir is not None:
                save_checkpoint(model, Path(out_dir) / artifacts[0], vocab=vocab)
    if best_snap is not None:
        for p, snap in zip(params, best_snap):
            p.data[:] = snap
    return result


@contextlib.contextmanager
def _frozen(params: Sequence[Parameter]) -> Iterator[None]:
    """Freeze every parameter for the block and restore each flag after it,
    also when the block raises: a pass inside records no backward closures,
    and its LSTM kernels keep no per-step gates or cells."""
    flags = [p.frozen for p in params]
    for p in params:
        p.frozen = True
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.frozen = flag


# ---------------------------------------------------------------------------
# the two trainers

def _lm_valid_loss(lm: LanguageModel, valid_seqs, batch_size: int, bptt: int) -> float:
    total, n, state = 0.0, 0, None
    with _frozen(lm.parameters()):
        for x, y in corpus_mod.lm_batches(valid_seqs, batch_size, bptt):
            loss, state = lm.loss(x.T, y.T, state)
            total += loss.item()
            n += 1
    return total / n


def train_lm(lm: LanguageModel, train_seqs: Sequence[np.ndarray],
             valid_seqs: Sequence[np.ndarray], cfg: RunConfig, out_dir=None,
             vocab=None) -> TrainResult:
    """Next-opcode pretraining with one one-cycle over all steps (at least 3).

    Hyperparameters come from cfg. Both splits must hold one (batch_size,
    bptt + 1) window. valid_fbeta stays None in the history; the best epoch
    is the one of lowest validation loss. An abort names the epoch, the
    step and its lr. See _fit for the rest.
    """
    epochs, batch_size, bptt = cfg.epochs, cfg.batch_size, cfg.bptt

    def plans():
        batches = checked_split("train", corpus_mod.lm_batches(train_seqs, batch_size, bptt))
        checked_split("valid", corpus_mod.lm_batches(valid_seqs, batch_size, bptt))
        sched = OneCycleSchedule(cfg.max_lr, max(3, epochs * len(batches)), cfg.warmup_frac)
        for epoch in range(1, epochs + 1):
            first = (epoch - 1) * len(batches)  # the schedule step of the epoch's first batch
            yield (lm_losses(lm, batches, np.random.default_rng([cfg.seed, epoch])),
                   lambda i: (sched.lr(first + i), sched.momentum(first + i)),
                   lambda i: f"step {first + i}, lr {sched.lr(first + i):.6g}")

    return _fit(lm, Adam(lm.parameters(), weight_decay=cfg.weight_decay), epochs,
                plans(), lambda: (_lm_valid_loss(lm, valid_seqs, batch_size, bptt), None),
                "valid_loss", out_dir, vocab, "lm_best.ckpt")


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None. The symbols are looked up through ctypes on numpy's own extension
    module, so they resolve to the library numpy calls."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")  # numpy 2.x
             or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    try:
        dll = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _for_each(work: Callable, items: Sequence) -> None:
    """work(item) for every item, on a pool of one thread per usable core up
    to one per item, with OpenBLAS on one thread for the pass and its count
    restored after it. Unpinned, the BLAS threads and the workers contend
    for the same cores. With one core or one item, or no OpenBLAS found, the
    items run in order on the calling thread. The first exception, in item
    order, cancels the items not yet started and propagates once every
    worker has stopped."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(items))
    blas = _blas_thread_calls() if workers > 1 else None
    if blas is None:
        for item in items:
            work(item)
        return
    # imported here: at module top it would load logging into every CLI start
    from concurrent.futures import ThreadPoolExecutor

    get, put = blas
    count = get()
    put(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(work, items):
                pass
    finally:
        put(count)


# Contracts per scoring batch. At this width each LSTM step's numpy calls
# run long enough that two workers overlap instead of queueing on the GIL;
# Classifier.forward's windows keep each worker's memory flat whatever the
# batch's longest contract.
_BATCH_ROWS = 128


def _score(clf: Classifier, id_seqs: Sequence[np.ndarray], max_len: int | None,
           fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """The one scoring pass: (N, n_classes) rows fn(ids (T, B), lengths) of
    id_seqs, in input order. Contracts go longest first in batches of at
    most _BATCH_ROWS (corpus.row_batches), each padded to its longest one,
    through _for_each; each batch writes only its own rows, so the result
    does not depend on which thread scored it. Every parameter is frozen
    for the pass, so Classifier.forward runs each batch in windows of
    model._WINDOW_POSITIONS positions."""
    seqs = corpus_mod.clipped(id_seqs, max_len)
    out = np.empty((len(seqs), clf.n_classes))

    def score(rows):
        ids, lengths = corpus_mod.padded(seqs, rows)
        out[rows] = fn(ids.T, lengths)

    with _frozen(clf.parameters()):
        _for_each(score, corpus_mod.row_batches(seqs, _BATCH_ROWS))
    return out


def evaluate_classifier(
    clf: Classifier,
    id_seqs: Sequence[np.ndarray],
    labels: Sequence[int],
    max_len: int | None,
) -> tuple[float, MetricsReport]:
    """Mean loss plus a full metrics report over one labeled split, from the
    logits of the scoring pass. The loss is taken from the logits as
    cross_entropy takes it, never as -log of a probability."""
    if len(id_seqs) == 0:
        raise TrainerError("evaluation split is empty")
    logits = _score(clf, id_seqs, max_len, lambda ids, lengths: clf.forward(ids, lengths).data)
    labels = np.asarray(labels, dtype=np.int64)
    loss = ad.cross_entropy(logits, labels).item()
    return loss, report(confusion_matrix(np.argmax(logits, axis=1), labels, clf.n_classes))


def classify(clf: Classifier, id_seqs: Sequence[np.ndarray], max_len: int | None) -> np.ndarray:
    """(N, n_classes) class probabilities of id_seqs, in input order, from
    Classifier.predict_proba on the scoring pass: what eval and predict
    report."""
    return _score(clf, id_seqs, max_len, clf.predict_proba)


def train_clf(clf: Classifier, train_data: tuple[Sequence[np.ndarray], Sequence[int]],
              valid_data: tuple[Sequence[np.ndarray], Sequence[int]], cfg: RunConfig,
              out_dir=None, vocab=None) -> TrainResult:
    """Fine-tune with gradual unfreezing and discriminative learning rates.

    Hyperparameters come from cfg. Epochs walk the unfreeze stages
    (``epochs_per_stage`` each, head-only first); remaining epochs train
    fully unfrozen. Every stage runs its own one-cycle (at least 3 steps),
    and every epoch draws a fresh batch order. The best epoch is the one of
    highest validation weighted F_beta, and fbeta.csv lists each completed
    epoch's. An abort names the epoch, the stage, the step within it and
    the head's lr. See _fit for the rest.
    """
    valid_ids, valid_labels = valid_data
    epochs, epochs_per_stage, max_len = cfg.epochs, cfg.epochs_per_stage, cfg.max_len

    def plans():
        batches = checked_split("train",
                                corpus_mod.clf_batches(*train_data, cfg.batch_size, max_len))
        checked_split("valid", valid_ids)
        max_stage = clf.encoder.n_layers + 1
        group_lrs = discriminative_lrs(clf.n_groups, cfg.lr_lo, cfg.lr_hi)
        for epoch0 in range(epochs):
            stage = min(epoch0 // epochs_per_stage, max_stage)
            gradual_unfreeze(clf, stage)
            start = stage * epochs_per_stage  # the stage's first epoch
            span = epochs - start if stage == max_stage else min(epochs_per_stage, epochs - start)
            sched = OneCycleSchedule(cfg.lr_hi, max(3, span * len(batches)), cfg.warmup_frac)
            first = (epoch0 - start) * len(batches)
            yield (clf_losses(clf, batches, np.random.default_rng([cfg.seed, epoch0])),
                   lambda i: ([g * (sched.lr(first + i) / cfg.lr_hi) for g in group_lrs],
                              sched.momentum(first + i)),
                   lambda i: f"stage {stage} step {first + i}, head lr {sched.lr(first + i):.6g}")

    def validate():
        valid_loss, rep = evaluate_classifier(clf, valid_ids, valid_labels, max_len)
        return valid_loss, rep.weighted["fbeta"]

    result = _fit(clf, Adam(clf.parameters(), weight_decay=cfg.weight_decay), epochs,
                  plans(), validate, "valid_fbeta", out_dir, vocab, "clf_best.ckpt", "fbeta.csv")
    if out_dir is not None and result.history:
        write_atomic(Path(out_dir) / "fbeta.csv", ["epoch,fbeta\n"] + [
            f"{e['epoch']},{e['valid_fbeta']!r}\n" for e in result.history])
    return result
