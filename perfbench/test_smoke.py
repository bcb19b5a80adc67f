"""Smoke test of the benchmark: every workload at the tiny scale, untraced
and traced, must pass its gates and emit every metric with its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics printed under each workload's own names, with their units.
NAMED = {
    "pretrain": {"lm_tokens_per_s": "tokens/s", "lm_valid_loss": "nats"},
    "finetune": {"clf_contracts_per_s": "contracts/s", "clf_valid_loss": "nats"},
    "serve": {"eval_contracts_per_s": "contracts/s", "predict_p50_ms": "ms",
              "predict_p99_ms": "ms", "predict_calls": "count"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "fraction"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace:
        # The waste later changes target is visible at every size.
        assert (values["model.lstm_bw_frozen_calls"] > 0) == (workload == "finetune")
        assert (values["kernels.bw_calls"] == 0) == (workload == "serve")
    else:
        assert all(v > 0 for v in values.values())
        printed = {line.split()[1]: line.split()[4] for line in lines
                   if line.startswith("metric ")}
        for name, unit in {**NAMED[workload], **COMMON}.items():
            assert printed.get(name) == unit, (name, printed)
    env = json.loads(next(l for l in lines if l.startswith("environment "))[12:])
    assert env["seed"] == 3 and env["blas_threads_env"] is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
