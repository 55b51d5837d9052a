"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmark/test_bench.py -q

Runs every workload through the benchmark command with ``--size smoke``,
once untraced and twice traced.  Checks that every metric BENCHMARK.json
names is emitted with its unit, that the exact counts repeat between the
two traced runs, and that the benchmark refuses to run, without printing a
result, where there are no shelab sources.  Takes about a minute on two
cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("noise.draws", "solver.cell_steps", "estimators.samples", "coeff.clip_active_frac")


def _bench(workload, trace, cwd=ROOT, seed=7):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, proc.stdout
    return result["metrics"]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)
    assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    for metrics in (first, second):
        assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
        assert metrics["solver.self_s"]["value"] >= 0 and metrics["harness.self_s"]["value"] >= 0
        assert 0 < metrics["trace.root_coverage"]["value"] <= 1
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["solver.cell_steps"]["value"] > 0 and first["noise.draws"]["value"] > 0
    # builtin coefficients never reach the expression evaluator
    assert (first["expr.busy_s"]["value"] > 0) == (workload == "lattice_expr")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
