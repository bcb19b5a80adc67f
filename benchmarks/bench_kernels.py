"""Timing of the fused LSTM sequence kernels.

Runs the forward and backward sequence kernels on realistic training
shapes and prints their medians. Both include the surrounding BLAS work
(input projection, weight-gradient matmuls) as well as the time loop.

Usage: python benchmarks/bench_kernels.py [--bptt 70] [--batch 16 ...]
       [--hidden 64] [--emb 64] [--repeats 20] [--dtype f32]

--batch takes one or more sizes and prints one row per size, e.g.
--batch 1 16 for the single-contract predict shape beside training's.
"""

import argparse
import statistics
import time

import numpy as np

from opscan.kernels import active_backend, lstm_seq_backward, lstm_seq_forward


def make_inputs(T, B, D, H, dtype, seed=0):
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(H)
    return {
        "x": rng.normal(0, 0.5, (T, B, D)).astype(dtype),
        "wx": rng.uniform(-bound, bound, (D, 4 * H)).astype(dtype),
        "wh": rng.uniform(-bound, bound, (H, 4 * H)).astype(dtype),
        "b": np.zeros(4 * H, dtype=dtype),
        "h0": np.zeros((B, H), dtype=dtype),
        "c0": np.zeros((B, H), dtype=dtype),
    }


def time_backend(backend, inp, repeats):
    """Median (forward, backward) seconds. ``backend`` names the kernel
    build being timed; the numpy one, from active_backend(), is the only one."""
    if backend != active_backend():
        raise ValueError(f"no {backend!r} kernel build; only {active_backend()!r}")
    args = [inp[k] for k in ("x", "wx", "wh", "b", "h0", "c0")]
    fw = lambda: lstm_seq_forward(*args, True)
    hs, gates = fw()  # warmup
    dh = np.ones_like(hs[1:])
    bw = lambda: lstm_seq_backward(dh, inp["x"], inp["wx"], inp["wh"], hs, gates, (True,) * 4)
    bw()
    fw_times, bw_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fw()
        fw_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        bw()
        bw_times.append(time.perf_counter() - t0)
    return statistics.median(fw_times), statistics.median(bw_times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bptt", type=int, default=70)
    ap.add_argument("--batch", type=int, nargs="+", default=[16])
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--emb", type=int, default=64)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    args = ap.parse_args()

    dtype = np.float32 if args.dtype == "f32" else np.float64
    print(f"shape: bptt={args.bptt} emb={args.emb} hidden={args.hidden} "
          f"dtype={args.dtype} repeats={args.repeats}")
    header = (f"{'batch':>5} {'forward ms':>11} {'backward ms':>12} "
              f"{'fw us/step':>11} {'bw us/step':>11}")
    print(header)
    print("-" * len(header))
    for batch in args.batch:
        inp = make_inputs(args.bptt, batch, args.emb, args.hidden, dtype)
        fw_s, bw_s = time_backend(active_backend(), inp, args.repeats)
        us = 1e6 / args.bptt
        print(f"{batch:>5} {fw_s * 1e3:>11.3f} {bw_s * 1e3:>12.3f} "
              f"{fw_s * us:>11.2f} {bw_s * us:>11.2f}")


if __name__ == "__main__":
    main()
