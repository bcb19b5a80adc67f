"""opscan's end-to-end benchmark.

    python3 perfbench/run.py --workload pretrain|finetune|serve --seed N \\
        --seconds S --trace 0|1 [--scale full|tiny]

Run it from the repository root. It imports opscan from ``src/`` next to
this directory, sets up the workload from the seed (several times; the
median counts), measures the workload's operation for about S seconds,
checks the outputs, and prints the metrics of BENCHMARK.json: the
end-to-end ones with ``--trace 0``, the per-layer ones from a traced run
with ``--trace 1``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from reference import Reference, blas_threads  # noqa: E402
from workloads import LONG_REF_S, WORKLOADS, Runner, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5  # set-ups per untraced run, each in a fresh process; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="opscan end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=("pretrain", "finetune", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_opscan():
    """Import opscan from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "opscan" / "cli.py").is_file():
        sys.exit(f"error: no opscan sources under {src}")
    sys.path.insert(0, str(src))
    import opscan.cli  # noqa: F401  (loads every module the pipeline uses)

    if Path(opscan.__file__).resolve().parent != src / "opscan":
        sys.exit(f"error: imported opscan from {opscan.__file__}, not {src}")
    return opscan


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(op, args, workload, threads):
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": op.kernels.active_backend(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "opscan_config": workload.effective_config(),
    }


def setup_elsewhere(args) -> float:
    """Set-up time of one fresh process: imports plus the workload's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1])


def untraced(args, w, runner) -> dict:
    """End-to-end metrics; set-up here is the first of SETUP_REPS."""
    ref = runner.reference
    w.setup(w.work / "setup")
    setup_s = [clock() - T_START]
    ref.sample(LONG_REF_S)
    w.prepare()

    def again():
        setup_s.append(setup_elsewhere(args))
        ref.sample(LONG_REF_S)

    # The other set-ups run spread over the window, so that a slow spell of
    # the machine does not cover all of them.

    w.measure(args.seconds, between=[again] * (SETUP_REPS - 1))
    w.finish()
    values, named = w.end_to_end()
    values["setup_s"] = ref.scale(statistics.median(setup_s))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named.update({
        "setup_s": (values["setup_s"], "s", f"median of {len(setup_s)} set-ups, scaled; "
                                           f"as measured {statistics.median(setup_s)!r}"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB", ""),
        "failed_share": (runner.failed / runner.attempted, "fraction",
                         f"{runner.failed} of {runner.attempted} operations"),
    })
    for name, (value, unit, note) in named.items():
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print(f"samples setup_s={setup_s} {w.samples_line()} "
          f"reference_ms={[1e3 * r for r in ref.samples]}")
    print(f"reference: timings are scaled by {ref.nominal_s * 1e3} ms / "
          f"{statistics.median(ref.samples) * 1e3!r} ms, the median reference pass")
    return values


def traced(args, op, w, threads) -> dict:
    """Per-layer metrics. Set-up runs once untraced and once traced; then
    untraced and traced rounds alternate, and their wall times give the
    tracing overhead."""
    tracer = Tracer()
    w.setup(w.work / "setup-0")
    layers.install(tracer, op)
    try:
        w.setup(w.work / "setup-1")
    finally:
        tracer.uninstall()
    w.prepare()
    w.round()  # warm-up, not timed, as in the untraced run
    tracer.phase = "round"
    walls = ([], [])  # untraced, traced
    deadline = clock() + args.seconds
    while not walls[1] or clock() + walls[0][-1] + walls[1][-1] <= deadline:
        walls[0].append(w.round())
        layers.install(tracer, op)
        try:
            walls[1].append(w.round())
        finally:
            tracer.uninstall()
    w.finish()
    T, B, D, H, backward = w.kernel_shape[args.scale]
    micro = layers.kernel_micro(op.kernels, T, B, D, H, backward,
                                repeats=10 if args.scale == "full" else 2)
    values = layers.per_layer(tracer, walls, micro)
    print(f"kernels micro at T={T} B={B} D={D} H={H}: forward {micro[0]:.3f} "
          f"backward {micro[1]:.3f} us/step, blas_threads={threads}")
    for cmd in layers.COMMANDS:
        if values[f"cli.attributed_share.{cmd}"]:
            print(f"attribution cli.{cmd}: modules cover "
                  f"{values[f'cli.attributed_share.{cmd}']:.4f} of its wall time; "
                  f"tracing overhead {values['trace.overhead_share']:.4f}")
    print(f"samples untraced_round_s={walls[0]} traced_round_s={walls[1]}")
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    tracer.write_spans(results / f"{args.workload}-seed{args.seed}-spans.tsv")
    return values


def run(args) -> int:
    op = import_opscan()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cls = WORKLOADS[args.workload]
        runner = Runner(op, reference=Reference(cls.kernel_shape["full"], cls.reference_s))
        w = cls(runner, args.seed, args.scale, work)
        if args.setup_only:
            w.setup(work / "setup")
            print(clock() - T_START)
            return 0
        threads = blas_threads()
        if args.trace:
            kind, values = "per_layer", traced(args, op, w, threads)
        else:
            kind, values = "end_to_end", untraced(args, w, runner)
        print("environment " + json.dumps(environment(op, args, w, threads), sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in runner.errors:
        print(f"FAILED: {e}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in spec})} "
                           f"do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec}
    for name, m in metrics.items():
        print(f"{kind} {name} = {m['value']!r} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run(parse_args()))
