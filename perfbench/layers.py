"""Which opscan calls the traced run wraps, and the per-layer metrics
derived from the spans and counts they record.

Names bound with ``from ... import ...`` are wrapped where they are
called (``trainer.backward``, ``trainer.save_checkpoint``,
``cli.load_checkpoint``, ``cli.read_header``, ``cli.disassemble``,
``corpus.disassemble`` and the like); everything else is wrapped on its
own module or class.

Every per-layer value describes one pass of the workload: the traced set-up
plus the mean of the traced rounds (one round is one repetition of the
workload's measured operation).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from tracing import Tracer

# Forward ops of the autodiff core that model and trainer call through `ad.`.
AUTODIFF_OPS = (
    "add", "apply_mask", "concat", "cross_entropy", "embedding_lookup",
    "last_over_time", "masked_max_over_time", "masked_mean_over_time",
    "matmul", "relu", "reshape", "transpose",
)
COMMANDS = ("synth", "prep", "train-lm", "train-clf", "eval", "predict")
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _param(t, Parameter):
    """The Parameter behind an LSTM weight input (a mask wraps wh in training)."""
    if isinstance(t, Parameter):
        return t
    return next(p for p in t._parents if isinstance(p, Parameter))


def install(tr: Tracer, op) -> None:
    """Wrap opscan's public calls; ``op`` is the imported opscan package."""
    cli, corpus, model, trainer = op.cli, op.corpus, op.model, op.trainer
    ad, K, metrics, synth = op.autodiff, op.kernels, op.metrics, op.synth

    tr.patch(cli, "main", lambda a, k: f"cli.{(a[0] if a else k['argv'])[0]}")

    tr.patch(synth, "synth_records", "synth.records")
    tr.patch(synth, "write_corpus", "synth.write")

    tr.patch(corpus, "ingest", "corpus.ingest")
    tr.patch(corpus, "dedup_normals", "corpus.dedup")
    tr.patch(corpus, "stratified_split", "corpus.split")
    tr.patch(corpus, "build_vocab", "corpus.vocab")
    tr.patch(corpus.Vocab, "load", "corpus.vocab_load")
    tr.patch(corpus, "numericalize", "corpus.numericalize")
    tr.patch_generator(corpus, "lm_batches", "corpus.batch")

    def clf_batch(item):
        ids, lengths, _ = item
        tr.count("corpus.positions", ids.size)
        tr.count("corpus.padded", ids.size - int(lengths.sum()))

    tr.patch_generator(corpus, "clf_batches", "corpus.batch", clf_batch)

    def disasm_bytes(args, kwargs, result):
        text = args[0].strip()
        tr.count("disasm.bytes", (len(text) - 2 * (text[:2] in ("0x", "0X"))) // 2)

    for owner in (corpus, cli):
        tr.patch(owner, "disassemble", "disasm.disassemble", disasm_bytes)

    tr.patch(trainer, "save_checkpoint", "checkpoint.save",
             lambda a, k, r: tr.count("checkpoint.save_bytes", os.path.getsize(a[1])))
    tr.patch(cli, "load_checkpoint", "checkpoint.load")
    tr.patch(cli, "read_header", "checkpoint.read_header")
    tr.patch(cli, "vocab_from_header", "checkpoint.vocab_from_header")

    tr.patch(model.LanguageModel, "forward", "model.forward")
    tr.patch(model.Classifier, "forward", "model.forward")

    def lstm_sequence(fn):
        def traced(x, wx, wh, b, h0, c0):
            out, state = fn(x, wx, wh, b, h0, c0)
            frozen = all(_param(t, ad.Parameter).frozen for t in (wx, wh, b))
            inner = out._backward

            def bw():
                tr.count("model.lstm_bw_frozen" if frozen else "model.lstm_bw_useful")
                inner()

            out._backward = bw
            return out, state
        return traced

    tr.hook(model, "lstm_sequence", lstm_sequence)

    for name in AUTODIFF_OPS:
        tr.patch(ad, name, "autodiff.op")
    tr.patch(trainer, "backward", "autodiff.backward")

    tr.patch(K, "lstm_seq_forward", "kernels.fw",
             lambda a, k, r: tr.count("kernels.fw_steps", a[0].shape[0]))
    tr.patch(K, "lstm_seq_backward", "kernels.bw",
             lambda a, k, r: tr.count("kernels.bw_steps", a[0].shape[0]))

    def params_updated(args, kwargs, result):
        tr.count("optim.params_updated", sum(1 for p in args[0].params if not p.frozen))

    tr.patch(op.optim.Adam, "step", "optim.step", params_updated)

    tr.patch(trainer, "train_lm", "trainer.train")
    tr.patch(trainer, "train_clf", "trainer.train")
    tr.patch(trainer, "_lm_valid_loss", "trainer.valid")
    tr.patch(trainer, "evaluate_classifier", "trainer.valid")

    for owner in (metrics, trainer):
        tr.patch(owner, "report", "metrics.report")
        tr.patch(owner, "confusion_matrix", "metrics.confusion")
    tr.patch(metrics, "roc_curve", "metrics.roc")


def kernel_micro(K, T: int, B: int, D: int, H: int, backward: bool,
                 repeats: int) -> tuple[float, float]:
    """Median µs per timestep of the fused LSTM kernels at one shape, timed
    by ``benchmarks/bench_kernels.py`` on the active backend.

    Returns (forward, backward); backward is 0 when the workload never
    runs it. Call it with the tracer uninstalled: bench_kernels binds the
    kernels when it is first imported.
    """
    sys.path.insert(0, str(BENCHMARKS))
    import bench_kernels

    inp = bench_kernels.make_inputs(T, B, D, H, np.float32)
    fw_s, bw_s = bench_kernels.time_backend(K.active_backend(), inp, repeats)
    us = 1e6 / T
    return fw_s * us, (bw_s * us if backward else 0.0)


def per_layer(tr: Tracer, round_walls: tuple[list, list],
              micro: tuple[float, float]) -> dict[str, float]:
    """Per-layer metric values (units are in BENCHMARK.json) from the traced
    set-up, the (untraced, traced) round wall times and the microbench."""
    tables = [tr.phase_totals("setup"), tr.phase_totals("round")]
    untraced_walls, traced_walls = round_walls
    n_rounds = len(traced_walls)

    def get(which: int, name: str) -> float:
        setup, rounds = tables[0][which], tables[1][which]
        return setup.get(name, 0.0) + rounds.get(name, 0.0) / n_rounds

    self_ms = lambda name: 1e3 * get(0, name)
    total_ms = lambda name: 1e3 * get(1, name)
    n_calls = lambda name: get(2, name)
    count = lambda name: get(3, name)
    span_names = set(tables[0][0]) | set(tables[1][0])

    def module_self_ms(module: str) -> float:
        return sum(self_ms(n) for n in span_names if n.split(".")[0] == module)

    ratio = lambda num, den: num / den if den else 0.0

    fw_ms, bw_ms = total_ms("kernels.fw"), total_ms("kernels.bw")
    frozen, useful = count("model.lstm_bw_frozen"), count("model.lstm_bw_useful")
    m = {
        "kernels.fw_calls": n_calls("kernels.fw"),
        "kernels.fw_steps": count("kernels.fw_steps"),
        "kernels.fw_ms": fw_ms,
        "kernels.fw_us_per_step": ratio(1e3 * fw_ms, count("kernels.fw_steps")),
        "kernels.bw_calls": n_calls("kernels.bw"),
        "kernels.bw_ms": bw_ms,
        "kernels.bw_us_per_step": ratio(1e3 * bw_ms, count("kernels.bw_steps")),
        "kernels.micro_fw_us_per_step": micro[0],
        "kernels.micro_bw_us_per_step": micro[1],
        "model.forward_self_ms": self_ms("model.forward"),
        "model.lstm_bw_frozen_calls": frozen,
        "model.lstm_bw_useful_share": ratio(useful, frozen + useful),
        "autodiff.backward_calls": n_calls("autodiff.backward"),
        "autodiff.backward_self_ms": self_ms("autodiff.backward"),
        "autodiff.op_calls": n_calls("autodiff.op"),
        "autodiff.op_ms": self_ms("autodiff.op"),
        "optim.step_calls": n_calls("optim.step"),
        "optim.step_ms": total_ms("optim.step"),
        "optim.params_updated": count("optim.params_updated"),
        "trainer.steps": n_calls("autodiff.backward"),
        "trainer.valid_ms": total_ms("trainer.valid"),
        "trainer.self_ms": module_self_ms("trainer"),
        "corpus.ingest_ms": total_ms("corpus.ingest"),
        "corpus.batch_ms": total_ms("corpus.batch"),
        "corpus.pad_share": ratio(count("corpus.padded"), count("corpus.positions")),
        "corpus.self_ms": module_self_ms("corpus"),
        "disasm.calls": n_calls("disasm.disassemble"),
        "disasm.bytes": count("disasm.bytes"),
        "disasm.ms": total_ms("disasm.disassemble"),
        "checkpoint.save_calls": n_calls("checkpoint.save"),
        "checkpoint.save_bytes": count("checkpoint.save_bytes"),
        "checkpoint.save_ms": total_ms("checkpoint.save"),
        "checkpoint.load_calls": n_calls("checkpoint.load"),
        "checkpoint.load_ms": sum(total_ms(f"checkpoint.{n}")
                                  for n in ("load", "read_header", "vocab_from_header")),
        "metrics.report_ms": total_ms("metrics.report"),
        "metrics.roc_ms": total_ms("metrics.roc"),
        "metrics.self_ms": module_self_ms("metrics"),
        "synth.ms": module_self_ms("synth"),
        # Fastest against fastest: the machine's slow spells would otherwise
        # swamp an overhead of a few percent.
        "trace.overhead_share": min(traced_walls) / min(untraced_walls) - 1.0,
        "trace.rounds": float(n_rounds),
        "trace.spans": float(len(tr.spans)),
    }
    for cmd in COMMANDS:
        cli_ms = self_ms(f"cli.{cmd}")
        m[f"cli.self_ms.{cmd}"] = cli_ms
        # Share of the command's wall time that spans of opscan's modules
        # account for; the rest is the command's own time.
        m[f"cli.attributed_share.{cmd}"] = ratio(total_ms(f"cli.{cmd}") - cli_ms,
                                                 total_ms(f"cli.{cmd}"))
    return m
