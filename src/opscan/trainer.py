"""Training orchestration: LR finder, one-cycle schedule, discriminative
per-group learning rates, gradual unfreezing, and the LM / classifier
epoch loops with history tracking and best-checkpoint selection.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from .autodiff import Parameter, Tensor, backward
from .checkpoint import save_checkpoint
from .metrics import MetricsReport, confusion_matrix, report
from .model import Classifier, LanguageModel
from .optim import Adam, NumericalError


class TrainerError(RuntimeError):
    """Schedule misuse or a training run that cannot proceed."""


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class OneCycleSchedule:
    """Cosine warmup from max_lr/start_div to max_lr over the warmup
    fraction of steps, then cosine decay to max_lr/final_div. Momentum
    (Adam beta1) cycles inversely between mom_hi and mom_lo."""

    max_lr: float
    total_steps: int
    warmup_frac: float = 0.3
    start_div: float = 25.0
    final_div: float = 1e4
    mom_hi: float = 0.95
    mom_lo: float = 0.85

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
            return self._cosine(self.max_lr / self.start_div, self.max_lr, step / warm)
        t = (step - warm) / (self.total_steps - 1 - warm)
        return self._cosine(self.max_lr, self.max_lr / self.final_div, t)

    def momentum(self, step: int) -> float:
        self._check(step)
        warm = self.warm_end
        if step <= warm:
            return self._cosine(self.mom_hi, self.mom_lo, step / warm)
        t = (step - warm) / (self.total_steps - 1 - warm)
        return self._cosine(self.mom_lo, self.mom_hi, t)


def one_cycle_lr(step: int, schedule: OneCycleSchedule) -> float:
    return schedule.lr(step)


def discriminative_lrs(n_groups: int, lr_lo: float = 0.0044, lr_hi: float = 0.04) -> list[float]:
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
# learning-rate finder

@dataclass
class LrFinderResult:
    lrs: list[float]
    losses: list[float]  # bias-corrected EMA of the raw losses
    raw_losses: list[float]
    suggestion: float
    stopped_early: bool

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("lr,loss\n")
            for lr, loss in zip(self.lrs, self.losses):
                fh.write(f"{lr!r},{loss!r}\n")


def lr_find(
    params: Sequence[Parameter],
    loss_steps: Iterable[Callable[[], Tensor]],
    lr_start: float = 1e-7,
    lr_end: float = 10.0,
    max_steps: int = 100,
    beta: float = 0.98,
    divergence: float = 4.0,
) -> LrFinderResult:
    """Ramp the learning rate geometrically, one mini-batch per step, and
    suggest the lr at the steepest descent of the smoothed loss.

    ``loss_steps`` yields zero-argument callables, each computing one
    mini-batch loss. Weights are restored bitwise before returning; the
    throwaway optimizer never leaks state.
    """
    if max_steps < 2 or lr_start <= 0 or lr_end <= lr_start:
        raise TrainerError("need max_steps >= 2 and 0 < lr_start < lr_end")
    snapshot = [p.data.copy() for p in params]
    opt = Adam(params, lr=lr_start)
    ratio = (lr_end / lr_start) ** (1.0 / (max_steps - 1))
    lrs: list[float] = []
    smoothed: list[float] = []
    raw_losses: list[float] = []
    avg = 0.0
    best = math.inf
    stopped = False
    try:
        for i, make_loss in enumerate(loss_steps):
            if i >= max_steps:
                break
            lr = lr_start * ratio**i
            opt.zero_grad()
            loss = make_loss()
            raw = loss.item()
            if not math.isfinite(raw):
                stopped = True
                break
            avg = beta * avg + (1.0 - beta) * raw
            sm = avg / (1.0 - beta ** (i + 1))
            lrs.append(lr)
            smoothed.append(sm)
            raw_losses.append(raw)
            if sm > divergence * best:
                stopped = True
                break
            best = min(best, sm)
            backward(loss)
            try:
                opt.step(lr=lr)
            except NumericalError:
                stopped = True
                break
    finally:
        for p, snap in zip(params, snapshot):
            p.data[:] = snap
    if len(lrs) < 10:
        raise TrainerError(
            f"only {len(lrs)} finite points recorded before divergence; try a smaller lr_start"
        )
    keep = len(lrs) - 5  # the last points sit in the blow-up region
    diffs = np.diff(smoothed[:keep])
    suggestion = lrs[int(np.argmin(diffs))]
    return LrFinderResult(lrs, smoothed, raw_losses, suggestion, stopped)


def lm_loss_steps(
    lm: LanguageModel,
    id_seqs: Sequence[np.ndarray],
    batch_size: int,
    bptt: int,
    seed: int = 0,
) -> Iterator[Callable[[], Tensor]]:
    """Endless stream of LM mini-batch loss closures for lr_find, cycling
    over the data with fresh shuffling-free epochs and per-epoch state."""
    epoch = 0
    while True:
        rng = np.random.default_rng([seed, epoch])
        carry = {"state": None}
        for x, y in corpus_mod.lm_batches(id_seqs, batch_size, bptt):

            def make_loss(x=x, y=y, carry=carry, rng=rng):
                loss, carry["state"] = lm.loss(x.T, y.T, carry["state"], train=True, rng=rng)
                return loss

            yield make_loss
        epoch += 1


# ---------------------------------------------------------------------------
# epoch loops

@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_metric: float | None = None
    best_epoch: int | None = None
    abort_reason: str | None = None  # why training stopped early, naming the step

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def _start_run(out_dir: Path | None, *artifacts: str) -> None:
    """Empty history.jsonl and delete the named artifacts of an earlier run,
    so a rerun into the same directory holds one run even if it aborts
    before writing its own."""
    if out_dir is not None:
        (Path(out_dir) / "history.jsonl").write_text("", encoding="utf-8")
        for name in artifacts:
            (Path(out_dir) / name).unlink(missing_ok=True)


def _append_history(out_dir: Path | None, entry: dict) -> None:
    if out_dir is None:
        return
    with open(Path(out_dir) / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


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


def _lm_valid_loss(lm: LanguageModel, valid_seqs, batch_size: int, bptt: int) -> float:
    total = 0.0
    n = 0
    state = None
    with _frozen(lm.parameters()):
        for x, y in corpus_mod.lm_batches(valid_seqs, batch_size, bptt):
            loss, state = lm.loss(x.T, y.T, state)
            total += loss.item()
            n += 1
    if n == 0:
        raise TrainerError("validation stream produced no batches")
    return total / n


def train_lm(
    lm: LanguageModel,
    train_seqs: Sequence[np.ndarray],
    valid_seqs: Sequence[np.ndarray],
    epochs: int,
    batch_size: int = 16,
    bptt: int = 70,
    max_lr: float = 0.03,
    weight_decay: float = 0.0,
    seed: int = 0,
    out_dir=None,
    vocab=None,
    schedule_overrides: dict | None = None,
) -> TrainResult:
    """Next-opcode pretraining with one-cycle over all steps.

    History gets one {"epoch", "train_loss", "valid_loss", "valid_fbeta"}
    entry per completed epoch (valid_fbeta stays None for the LM). On a
    non-finite loss or gradient the run aborts, result.abort_reason says
    where, and the best weights so far are kept. The model is left holding
    the best-validation-loss weights.
    """
    result = TrainResult()
    _start_run(out_dir, "lm_best.ckpt")
    if epochs == 0:
        return result
    steps_per_epoch = sum(1 for _ in corpus_mod.lm_batches(train_seqs, batch_size, bptt))
    if steps_per_epoch == 0:
        raise TrainerError("training stream produced no batches")
    sched = OneCycleSchedule(max_lr, epochs * steps_per_epoch, **(schedule_overrides or {}))
    opt = Adam(lm.parameters(), lr=max_lr, weight_decay=weight_decay)
    params = lm.parameters()
    best_snap = None
    step = 0
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng([seed, epoch])
        state = None
        total = 0.0
        n = 0
        for x, y in corpus_mod.lm_batches(train_seqs, batch_size, bptt):
            loss, state = lm.loss(x.T, y.T, state, train=True, rng=rng)
            raw = loss.item()
            lr = sched.lr(step)
            if not math.isfinite(raw):
                result.abort_reason = f"non-finite training loss {raw}"
                break
            backward(loss)
            try:
                opt.step(lr=lr, beta1=sched.momentum(step))
            except NumericalError as exc:
                result.abort_reason = str(exc)
                break
            opt.zero_grad()
            total += raw
            n += 1
            step += 1
        if result.aborted:
            result.abort_reason += f" at epoch {epoch}, step {step}, lr {lr:.6g}"
            break
        valid_loss = _lm_valid_loss(lm, valid_seqs, batch_size, bptt)
        entry = {
            "epoch": epoch,
            "train_loss": total / n,
            "valid_loss": valid_loss,
            "valid_fbeta": None,
        }
        result.history.append(entry)
        _append_history(out_dir, entry)
        if result.best_metric is None or valid_loss < result.best_metric:
            result.best_metric = valid_loss
            result.best_epoch = epoch
            best_snap = [p.data.copy() for p in params]
            if out_dir is not None:
                save_checkpoint(lm, Path(out_dir) / "lm_best.ckpt", vocab=vocab)
    if best_snap is not None:
        for p, snap in zip(params, best_snap):
            p.data[:] = snap
    return result


def evaluate_classifier(
    clf: Classifier,
    id_seqs: Sequence[np.ndarray],
    labels: Sequence[int],
    batch_size: int = 64,
    max_len: int | None = None,
) -> tuple[float, MetricsReport]:
    """Mean loss plus a full metrics report over one labeled split."""
    total = 0.0
    predicted: list[np.ndarray] = []
    actual: list[np.ndarray] = []
    n = 0
    with _frozen(clf.parameters()):
        for ids, lengths, labs in corpus_mod.clf_batches(id_seqs, labels, batch_size, max_len):
            logits = clf.forward(ids.T, lengths)
            loss = ad.cross_entropy(logits, np.asarray(labs))
            total += loss.item() * len(labs)
            predicted.append(np.argmax(logits.data, axis=1))
            actual.append(labs)
            n += len(labs)
    if n == 0:
        raise TrainerError("evaluation split is empty")
    cm = confusion_matrix(np.concatenate(predicted), np.concatenate(actual), clf.n_classes)
    return total / n, report(cm)


def train_clf(
    clf: Classifier,
    train_data: tuple[Sequence[np.ndarray], Sequence[int]],
    valid_data: tuple[Sequence[np.ndarray], Sequence[int]],
    epochs: int,
    batch_size: int = 16,
    max_len: int | None = None,
    lr_lo: float = 0.0044,
    lr_hi: float = 0.04,
    weight_decay: float = 0.0,
    epochs_per_stage: int = 1,
    seed: int = 0,
    out_dir=None,
    vocab=None,
    schedule_overrides: dict | None = None,
) -> TrainResult:
    """Fine-tune with gradual unfreezing and discriminative learning rates.

    Epochs walk the unfreeze stages (``epochs_per_stage`` each, head-only
    first); remaining epochs train fully unfrozen. Every stage runs its own
    one-cycle. Best checkpoint = highest validation weighted F_beta; the
    model is left holding those weights. An abort is reported as in train_lm.
    """
    result = TrainResult()
    _start_run(out_dir, "clf_best.ckpt", "fbeta.csv")
    if epochs == 0:
        return result
    train_ids, train_labels = train_data
    valid_ids, valid_labels = valid_data
    batches = list(corpus_mod.clf_batches(train_ids, train_labels, batch_size, max_len))
    if not batches:
        raise TrainerError("training split produced no batches")
    steps_per_epoch = len(batches)
    max_stage = clf.encoder.n_layers + 1
    group_lrs = discriminative_lrs(clf.encoder.n_layers + 2, lr_lo, lr_hi)

    def stage_of(epoch0: int) -> int:
        return min(epoch0 // epochs_per_stage, max_stage)

    def stage_span(stage: int) -> int:
        if stage < max_stage:
            return min(epochs_per_stage, epochs - stage * epochs_per_stage)
        return epochs - max_stage * epochs_per_stage

    opt = Adam(clf.parameters(), lr=lr_hi, weight_decay=weight_decay)
    params = clf.parameters()
    best_snap = None
    fbeta_rows: list[tuple[int, float]] = []
    sched = None
    local_step = 0
    for epoch0 in range(epochs):
        stage = stage_of(epoch0)
        gradual_unfreeze(clf, stage)
        if epoch0 == 0 or stage != stage_of(epoch0 - 1):
            sched = OneCycleSchedule(
                lr_hi,
                max(3, stage_span(stage) * steps_per_epoch),
                **(schedule_overrides or {}),
            )
            local_step = 0
        rng = np.random.default_rng([seed, epoch0])
        order = rng.permutation(len(batches))
        total = 0.0
        count = 0
        for bi in order:
            ids, lengths, labs = batches[bi]
            loss = clf.loss(ids.T, lengths, labs, train=True, rng=rng)
            raw = loss.item()
            s = min(local_step, sched.total_steps - 1)
            if not math.isfinite(raw):
                result.abort_reason = f"non-finite training loss {raw}"
                break
            backward(loss)
            factor = sched.lr(s) / lr_hi
            try:
                opt.step(lr=[g * factor for g in group_lrs], beta1=sched.momentum(s))
            except NumericalError as exc:
                result.abort_reason = str(exc)
                break
            opt.zero_grad()
            total += raw * len(labs)
            count += len(labs)
            local_step += 1
        if result.aborted:
            result.abort_reason += (f" at epoch {epoch0 + 1}, stage {stage} step {s}, "
                                    f"head lr {sched.lr(s):.6g}")
            break
        valid_loss, rep = evaluate_classifier(clf, valid_ids, valid_labels, batch_size, max_len)
        fbeta = rep.weighted["fbeta"]
        entry = {
            "epoch": epoch0 + 1,
            "train_loss": total / count,
            "valid_loss": valid_loss,
            "valid_fbeta": fbeta,
        }
        result.history.append(entry)
        _append_history(out_dir, entry)
        fbeta_rows.append((epoch0 + 1, fbeta))
        if result.best_metric is None or fbeta > result.best_metric:
            result.best_metric = fbeta
            result.best_epoch = epoch0 + 1
            best_snap = [p.data.copy() for p in params]
            if out_dir is not None:
                save_checkpoint(clf, Path(out_dir) / "clf_best.ckpt", vocab=vocab)
    if out_dir is not None and fbeta_rows:
        with open(Path(out_dir) / "fbeta.csv", "w", encoding="utf-8") as fh:
            fh.write("epoch,fbeta\n")
            for epoch, fb in fbeta_rows:
                fh.write(f"{epoch},{fb!r}\n")
    if best_snap is not None:
        for p, snap in zip(params, best_snap):
            p.data[:] = snap
    return result
