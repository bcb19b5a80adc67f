"""The three workloads: set-up, the measured operation, and the gates.

Every call goes through opscan's public entry point, ``opscan.cli.main``,
in-process. Set-up makes the inputs from the seed (``synth``, ``prep``)
and builds the checkpoint the workload starts from. The checkpoints are
freshly initialised models saved with opscan's own ``save_checkpoint``:
the work a step does does not depend on the weight values, and set-up
stays free of training, so that the traced set-up adds nothing to the
kernel numbers (on ``serve`` the backward kernels must read 0).

Gates run outside the timed regions. Each CLI call is one attempted
operation; it fails when it exits non-zero or when a gate rejects its
output. The final checkpoint round-trip is one more operation.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import Reference

clock = time.perf_counter

# Seconds of reference passes right before and right after a timed call:
# more around the calls that take seconds, about two passes around a predict.
LONG_REF_S = 0.1
SHORT_REF_S = 0.0006

# Probabilities from a B=1 forward pass and from a padded batch differ only
# by f32 rounding in the BLAS calls.
PROB_ATOL = 1e-5


@dataclass
class Call:
    command: str
    rc: int
    seconds: float
    stdout: str
    ok: bool = True


@dataclass
class Runner:
    """Calls ``opscan.cli.main`` in-process and tallies operations."""

    op: object  # the imported opscan package
    reference: Reference
    calls: list[Call] = field(default_factory=list)
    extra_attempted: int = 0
    extra_failed: int = 0
    errors: list[str] = field(default_factory=list)

    def cli(self, *argv, ref_s: float = 0.0) -> Call:
        """One CLI call; with ``ref_s``, reference passes run for that long
        right before and right after it, untimed (see reference.py)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        if ref_s:
            self.reference.sample(ref_s)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.op.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback escaping opscan is a failed call
            rc = -1
            err.write(traceback.format_exc())
        call = Call(argv[0], rc, clock() - t0, out.getvalue())
        if ref_s:
            self.reference.sample(ref_s)
        self.calls.append(call)
        if rc != 0:
            self.reject(call, f"{argv[0]} exited {rc}: {err.getvalue()[-400:]}")
        return call

    def reject(self, call: Call, why: str) -> None:
        if call.ok:
            call.ok = False
            self.errors.append(why)

    def gate(self, ok: bool, why: str) -> None:
        """A correctness check that is an operation of its own."""
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1
            self.errors.append(why)

    @property
    def attempted(self) -> int:
        return len(self.calls) + self.extra_attempted

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.calls) + self.extra_failed


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """One workload at one seed. Subclasses fill in the operation."""

    name = ""
    # synth sizes and the opscan config (RunConfig keys) per scale
    sizes: dict[str, dict] = {}
    config: dict[str, dict] = {}
    # (T, B, D, H, runs backward) of the kernel microbench, per scale; the
    # full one is also the reference's (see reference.py)
    kernel_shape: dict[str, tuple] = {}
    # Seconds per reference pass at which timings are reported: the median
    # pass over ten runs on a 2-vCPU Xeon VM (see reference.py).
    reference_s = 0.0

    def __init__(self, runner: Runner, seed: int, scale: str, work: Path):
        self.r = runner
        self.op = runner.op
        self.seed = seed
        self.scale = scale
        self.work = work
        self.size = self.sizes[scale]
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config[scale]), encoding="utf-8")
        self.sampling = True

    # ------------------------------------------------------------ set-up

    def setup(self, d: Path) -> None:
        """Make the inputs from the seed and the starting checkpoint."""
        s = self.size
        self._must(self.r.cli("synth", "--per-class", s["per_class"], "--mean-len",
                              s["mean_len"], "--jitter", s["jitter"], "--seed", self.seed,
                              "--out", d / "synth"))
        self._must(self.r.cli("prep", "--corpus", d / "synth" / "corpus.jsonl",
                              "--config", self.config_path, "--seed", self.seed,
                              "--out", d / "prep"))
        self.data = d / "prep"

    def _must(self, call: Call) -> None:
        if call.rc != 0:
            raise RuntimeError(f"set-up failed: {self.r.errors[-1]}")

    def build_checkpoint(self, kind: str, path: Path) -> None:
        """Save a freshly initialised model the way train-lm/train-clf build it."""
        op = self.op
        cfg = op.config.RunConfig.from_file(self.config_path).replaced(seed=self.seed)
        vocab = op.corpus.Vocab.load(self.data / "vocab.tsv")
        enc = op.cli._encoder_from_config(cfg, len(vocab))
        if kind == "lm":
            model = op.model.LanguageModel(enc, vocab_hash=vocab.content_hash(),
                                           seed=cfg.seed + 1)
        else:
            model = op.model.Classifier(enc, n_classes=4, head_hidden=cfg.head_hidden,
                                        vocab_hash=vocab.content_hash(), seed=cfg.seed + 2)
        op.checkpoint.save_checkpoint(model, path, vocab=vocab)

    def prepare(self) -> None:
        """Benchmark bookkeeping on the set-up's outputs (not timed)."""

    def split(self, name: str) -> tuple[list, list[np.ndarray]]:
        """Records of one prep split and their opscan token ids."""
        op = self.op
        vocab = op.corpus.Vocab.load(self.data / "vocab.tsv")
        records, _ = op.corpus.ingest(self.data / f"{name}.jsonl")
        return records, [op.corpus.numericalize(r.tokens, vocab) for r in records]

    # ------------------------------------------------------------ measuring

    def measure(self, seconds: float, between=()) -> None:
        """Repeat the operation for about ``seconds``, stopping before a
        repetition that would overrun. The first one is a warm-up and is not
        sampled; at least one more always is. The ``between`` tasks run one
        after each repetition, and their time does not count against the
        window.
        """
        pending = list(between)
        end = clock() + seconds
        self.sampling = False
        dt = self.round()
        self.sampling = True
        sampled = 0
        while True:
            if pending:
                t0 = clock()
                pending.pop(0)()
                end += clock() - t0
            if sampled and clock() + dt > end:
                break
            dt = self.round()
            sampled += 1
        for task in pending:
            task()

    def round(self) -> float:
        """One repetition of the measured operation; returns its wall time."""
        raise NotImplementedError

    def finish(self) -> None:
        """Gates on the run's final outputs."""

    def end_to_end(self) -> tuple[dict, dict]:
        """(BENCHMARK.json metrics, {name: (value, unit, note)} under the workload's names)."""
        raise NotImplementedError

    def effective_config(self) -> dict:
        return json.loads((self.last_out / "config.json").read_text(encoding="utf-8"))

    # ------------------------------------------------------------ shared gates

    def roundtrip_gate(self, ckpt: Path) -> None:
        """save -> load -> save must reproduce the checkpoint byte for byte."""
        again = self.work / "roundtrip.ckpt"
        ck = self.op.checkpoint
        try:
            model = ck.load_checkpoint(ckpt)
            ck.save_checkpoint(model, again, vocab=ck.vocab_from_header(ck.read_header(ckpt)))
            same = again.read_bytes() == ckpt.read_bytes()
        except Exception as exc:  # any error here is a failed gate
            same = False
            self.r.errors.append(f"round-trip of {ckpt.name}: {exc!r}")
        self.r.gate(same, f"{ckpt.name} is not byte-identical after load and save")

    def history_gate(self, call: Call, out: Path) -> list[dict]:
        """Every loss in history.jsonl must be finite."""
        if not call.ok:
            return []
        rows = [json.loads(line) for line in
                (out / "history.jsonl").read_text(encoding="utf-8").splitlines()]
        finite = bool(rows) and all(
            math.isfinite(row[k]) for row in rows for k in ("train_loss", "valid_loss"))
        if not finite:
            self.r.reject(call, f"{call.command}: non-finite loss in {out / 'history.jsonl'}")
        return rows


class Train(Workload):
    """A training command repeated on the same data with the same seed."""

    command = ""
    epochs: dict[str, int] = {}

    def __init__(self, *a):
        super().__init__(*a)
        self.samples: list[float] = []
        self.n_op = 0

    def round(self) -> float:
        self.n_op += 1
        out = fresh_dir(self.work / f"{self.command}-{self.n_op % 2}")
        # Start each call from a clean heap, as a fresh opscan process would:
        # autodiff graphs are reference cycles that only the collector frees.
        gc.collect()
        call = self.r.cli(self.command, "--data", self.data, "--config", self.config_path,
                          "--epochs", self.epochs[self.scale], "--seed", self.seed,
                          "--out", out, *self.extra_args(), ref_s=LONG_REF_S)
        rows = self.history_gate(call, out)
        if call.ok:
            self.loss = self.loss_of(call, rows)
            self.last_out = out
            if self.sampling:
                self.samples.append(call.seconds)
        return call.seconds

    def extra_args(self) -> tuple:
        return ()

    def end_to_end(self):
        mid = statistics.median(self.samples)
        scaled = self.r.reference.scale(mid)
        common = {"tokens_per_s": self.work_tokens / scaled,
                  "latency_ms": 1e3 * scaled / self.steps,
                  "loss_nats": self.loss}
        named = {f"{self.command}_calls": (len(self.samples), "count", "")}
        named.update(self.named(scaled, mid, min(self.samples)))
        return common, named

    def samples_line(self) -> str:
        return f"{self.command}_s={self.samples}"


class Pretrain(Train):
    name = "pretrain"
    command = "train-lm"
    sizes = {
        "full": {"per_class": 100, "mean_len": 120, "jitter": 40},
        "tiny": {"per_class": 20, "mean_len": 60, "jitter": 10},
    }
    config = {
        "full": {},  # opscan defaults: emb 64, hidden 64, 3 layers, batch 16, bptt 70
        "tiny": {"emb_size": 16, "hidden_size": 16, "batch_size": 4, "bptt": 20},
    }
    # Short calls give the median more samples per run; after one epoch the
    # validation loss still splits into two plateaus by seed, after two it
    # agrees within a few percent.
    epochs = {"full": 2, "tiny": 1}
    kernel_shape = {"full": (70, 16, 64, 64, True), "tiny": (20, 4, 16, 16, True)}
    reference_s = 2.2e-3

    def prepare(self):
        cfg = self.config[self.scale]
        batch, bptt = cfg.get("batch_size", 16), cfg.get("bptt", 70)
        _, ids = self.split("train")
        steps = sum(1 for _ in self.op.corpus.lm_batches(ids, batch, bptt))
        self.steps = steps * self.epochs[self.scale]
        self.work_tokens = self.steps * batch * bptt

    def loss_of(self, call, rows):
        return json.loads(call.stdout)["best_valid_loss"]

    def named(self, scaled, mid, best):
        n = self.work_tokens
        return {
            "lm_tokens_per_s": (n / scaled, "tokens/s",
                                f"median call, scaled; as measured: median {n / mid!r}, "
                                f"fastest {n / best!r}"),
            "lm_valid_loss": (self.loss, "nats", ""),
        }

    def finish(self):
        self.roundtrip_gate(self.last_out / "lm_best.ckpt")


class Finetune(Train):
    name = "finetune"
    command = "train-clf"
    sizes = {
        # 7 per class leaves 16 training contracts: one batch per epoch, so
        # that the batch order drawn from the seed cannot change peak memory.
        "full": {"per_class": 7, "mean_len": 240, "jitter": 40},
        "tiny": {"per_class": 4, "mean_len": 60, "jitter": 10},
    }
    # With 16 training contracts the default lr_hi 0.04 makes the validation
    # loss swing between seeds; a tenth of it keeps the quality guard steady
    # and leaves the work per step unchanged.
    lrs = {"lr_lo": 0.0004, "lr_hi": 0.004}
    config = {
        "full": {"emb_size": 128, "hidden_size": 256, **lrs},
        "tiny": {"emb_size": 16, "hidden_size": 32, "batch_size": 4, **lrs},
    }
    # 3 layers: unfreeze stages 0..4 take one epoch each, then one fully
    # unfrozen epoch.
    epochs = {"full": 6, "tiny": 6}
    kernel_shape = {"full": (241, 16, 256, 256, True), "tiny": (61, 4, 32, 32, True)}
    reference_s = 20.5e-3

    def setup(self, d):
        super().setup(d)
        self.lm = d / "lm.ckpt"
        self.build_checkpoint("lm", self.lm)

    def extra_args(self):
        return ("--lm", self.lm)

    def prepare(self):
        records, ids = self.split("train")
        epochs = self.epochs[self.scale]
        batch = self.config[self.scale].get("batch_size", 16)
        self.steps = math.ceil(len(records) / batch) * epochs
        self.work_tokens = sum(len(i) for i in ids) * epochs
        self.work_contracts = len(records) * epochs

    def loss_of(self, call, rows):
        return rows[-1]["valid_loss"]

    def named(self, scaled, mid, best):
        n = self.work_contracts
        return {
            "clf_contracts_per_s": (n / scaled, "contracts/s",
                                    f"median call, scaled; as measured: median {n / mid!r}, "
                                    f"fastest {n / best!r}"),
            "clf_valid_loss": (self.loss, "nats", ""),
        }

    def finish(self):
        self.roundtrip_gate(self.last_out / "clf_best.ckpt")


class Serve(Workload):
    """Rounds of one eval over the test split and a block of single predicts."""

    name = "serve"
    sizes = {
        "full": {"per_class": 360, "mean_len": 120, "jitter": 40},
        "tiny": {"per_class": 8, "mean_len": 60, "jitter": 10},
    }
    # The test split takes 70% so that eval scores over 1,000 contracts.
    ratios = {"train_ratio": 0.15, "valid_ratio": 0.15, "test_ratio": 0.7}
    config = {"full": dict(ratios), "tiny": {"emb_size": 16, "hidden_size": 16, **ratios}}
    kernel_shape = {"full": (121, 1, 64, 64, False), "tiny": (61, 1, 16, 16, False)}
    reference_s = 0.30e-3
    min_predicts = {"full": 1000, "tiny": 10}
    # Predicts per round: with 125, a 30 s run samples 8 evals (their median
    # is the least steady timing here) and 1,000 predicts in about 50 s.
    block = {"full": 125, "tiny": 5}

    def __init__(self, *a):
        super().__init__(*a)
        self.eval_samples: list[float] = []
        self.blocks: list[list[float]] = []
        self.nll: list[float] = []

    def setup(self, d):
        super().setup(d)
        self.ckpt = d / "clf.ckpt"
        self.build_checkpoint("clf", self.ckpt)

    def prepare(self):
        records, ids = self.split("test")
        self.n_test = len(records)
        self.eval_tokens = sum(len(i) for i in ids)
        with open(self.data.parent / "synth" / "corpus.jsonl", encoding="utf-8") as fh:
            bytecode = {row["address"]: row["bytecode"] for row in map(json.loads, fh)}
        # Every block predicts the same contracts, spread over all classes,
        # so that blocks are comparable with each other.
        stride = max(1, len(records) // self.block[self.scale])
        picked = list(zip(records, ids))[::stride][: self.block[self.scale]]
        self.inputs = [(bytecode[r.address], r.label, i.tobytes()) for r, i in picked]
        self.expected = self._batched_probabilities()

    def _batched_probabilities(self) -> dict[bytes, np.ndarray]:
        """Probabilities eval computes, captured from one untimed eval call."""
        captured = {}
        clf_cls = self.op.model.Classifier
        original = clf_cls.predict_proba

        def capture(clf, ids, lengths):
            probs = original(clf, ids, lengths)
            for row, n, p in zip(ids.T, lengths, probs):
                captured[row[:n].tobytes()] = p
            return probs

        clf_cls.predict_proba = capture
        try:
            call = self.r.cli("eval", "--checkpoint", self.ckpt, "--data", self.data,
                              "--config", self.config_path, "--seed", self.seed,
                              "--out", fresh_dir(self.work / "eval-gate"))
        finally:
            clf_cls.predict_proba = original
        self._must(call)
        return captured

    def eval_call(self) -> float:
        self.last_out = out = self.work / "eval"
        gc.collect()
        call = self.r.cli("eval", "--checkpoint", self.ckpt, "--data", self.data,
                          "--config", self.config_path, "--seed", self.seed, "--out", out,
                          ref_s=LONG_REF_S)
        if call.ok:
            with open(out / "confusion.csv", encoding="utf-8") as fh:
                scored = sum(int(v) for row in list(fh)[1:] for v in row.split(",")[1:])
            if scored != self.n_test:
                self.r.reject(call, f"eval confusion matrix sums to {scored}, "
                                    f"not {self.n_test}")
            elif self.sampling:
                self.eval_samples.append(call.seconds)
        return call.seconds

    def predict_call(self, hexstr: str, label: int, key: bytes, block: list) -> float:
        call = self.r.cli("predict", "--checkpoint", self.ckpt, "--bytecode", hexstr,
                          ref_s=SHORT_REF_S)
        if call.ok:
            got = json.loads(call.stdout)["probabilities"]
            probs = np.array([got[name] for name in self.op.metrics.CLASS_NAMES])
            if not np.allclose(probs, self.expected[key], rtol=0, atol=PROB_ATOL):
                self.r.reject(call, f"predict probabilities {probs} differ from eval's "
                                    f"{self.expected[key]}")
            else:
                block.append(call.seconds)
                self.nll.append(-math.log(probs[label]))
        return call.seconds

    def round(self):
        t = self.eval_call()
        block: list[float] = []
        for hexstr, label, key in self.inputs:
            t += self.predict_call(hexstr, label, key, block)
        if self.sampling:
            self.blocks.append(block)
        return t

    def measure(self, seconds, between=()):
        super().measure(seconds, between)
        while sum(map(len, self.blocks)) < self.min_predicts[self.scale]:
            self.round()

    def finish(self):
        self.roundtrip_gate(self.ckpt)

    def end_to_end(self):
        scale = self.r.reference.scale
        calls = [t for b in self.blocks for t in b]
        eval_mid = statistics.median(self.eval_samples)
        p50 = statistics.median(calls)
        p99 = statistics.quantiles(calls, n=100, method="inclusive")[98]
        common = {"tokens_per_s": self.eval_tokens / scale(eval_mid),
                  "latency_ms": 1e3 * scale(p50),
                  "loss_nats": statistics.fmean(self.nll)}
        named = {
            "eval_calls": (len(self.eval_samples), "count", ""),
            "eval_contracts_per_s": (self.n_test / scale(eval_mid), "contracts/s",
                                     "median call, scaled; as measured: median "
                                     f"{self.n_test / eval_mid!r}, fastest "
                                     f"{self.n_test / min(self.eval_samples)!r}"),
            "predict_calls": (len(calls), "count", f"in {len(self.blocks)} blocks"),
            "predict_p50_ms": (1e3 * scale(p50), "ms", f"scaled; as measured {1e3 * p50!r}"),
            "predict_p99_ms": (1e3 * scale(p99), "ms", f"scaled; as measured {1e3 * p99!r}"),
        }
        return common, named

    def samples_line(self) -> str:
        return (f"eval_s={self.eval_samples} "
                f"predict_block_p50_s={[statistics.median(b) for b in self.blocks]}")


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Serve)}
