"""shelab benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``src/shelab`` is imported from there.
Each repetition is a fresh worker process (worker.py) that sets up, runs
the workload's CLI commands once and reports its timings; one repetition
runs at a time.  Repetitions start while they are expected to end within
``--seconds`` (at least three untraced ones run regardless), and the
medians are reported.  Times are corrected for the machine's speed in each
repetition, measured with a calibration loop (see README.md, "Machine
speed").

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, with
``trace.overhead_frac`` from the two kinds of wall time.  Every repetition,
traced ones included, must exit 0, pass the workload's output checks and
write result files byte-identical to the other repetitions; one that does
not counts as failed.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the metrics with units, ``failed_frac``, the result-file digests and
the machine.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

END_TO_END = {
    "wall_s": "s",
    "cell_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "noise.calls": "count",
    "noise.draws": "count",
    "noise.busy_s": "s",
    "noise.ns_per_draw": "ns",
    "noise.draws_per_cell_step": "ratio",
    "noise.block_ms": "ms",
    "coeff.calls": "count",
    "coeff.busy_s": "s",
    "coeff.clip_active_frac": "ratio",
    "coeff.constants_s": "s",
    "expr.calls": "count",
    "expr.busy_s": "s",
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "solver.calls": "count",
    "solver.busy_s": "s",
    "solver.self_s": "s",
    "solver.cell_steps": "count",
    "solver.ns_per_cell_step_self": "ns",
    "solver.io_s": "s",
    "solver.io_bytes": "B",
    "estimators.calls": "count",
    "estimators.samples": "count",
    "estimators.busy_s": "s",
    "estimators.ns_per_sample": "ns",
    "estimators.lk_norm_us": "us",
    "bounds.calls": "count",
    "bounds.busy_s": "s",
    "harness.chunks": "count",
    "harness.self_s": "s",
    "harness.worker_util": "ratio",
    "harness.export_s": "s",
    "harness.export_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.root_coverage": "ratio",
}

# worker.calibrate's time on the reference host when nothing else ran there;
# timings are reported at that speed (see README.md, "Machine speed")
CALIBRATION_REF_S = 0.022
MIN_PLAIN = 3  # untraced repetitions per run, whatever --seconds says
MIN_TRACED = 2
BUDGET_S = 150.0  # no repetition starts that is expected to end after this


@dataclass
class Rep:
    traced: bool
    result: dict  # what worker.py wrote; empty when it wrote nothing
    problems: list
    digests: dict  # result file name -> sha256

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _spawn(spec, work: Path, tag: str, timeout: float):
    """Run worker.py on ``spec``; returns (result dict or None, problems)."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(spec_path), str(result_path), repr(start)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [f"{tag}: worker timed out after {timeout:.0f} s"]
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
        return result, [f"{tag}: worker exited {proc.returncode}: {tail[0]}"]
    return result, []


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.is_file()
    }


def run_workload(w: wl.Workload, seed: int, seconds: int, trace: bool, size: str, work: Path):
    cfg = w.make_config(size)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    base = {"src": str(SRC), "config": str(config_path), "seed": seed}

    began = time.monotonic()
    # compiles bytecode and warms the file cache; users pay neither on every call
    _, problems = _spawn({**base, "setup_only": True, "trace": False}, work, "warmup", BUDGET_S)
    if problems:
        return None, problems

    reps, durations = [], []
    deadline = began + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        tag = f"rep{len(reps)}"
        out = work / tag
        t = time.monotonic()
        timeout = max(1.0, BUDGET_S + 25.0 - (t - began))
        result, problems = _spawn(
            {**base, "trace": traced, "argvs": w.argvs(str(out), str(config_path), seed)},
            work, tag, timeout,
        )
        if not problems:
            problems = [f"{tag}: {p}" for p in wl.check_outputs(w.name, cfg, seed, out)]
        reps.append(Rep(traced, result or {}, problems, _digests(out) if out.is_dir() else {}))
        shutil.rmtree(out, ignore_errors=True)
        now = time.monotonic()
        durations.append(now - t)
        n_plain = sum(not r.traced for r in reps)
        n_traced = len(reps) - n_plain
        enough = n_plain >= MIN_PLAIN and (not trace or n_traced >= MIN_TRACED)
        # start no repetition that is expected to end after the deadline
        expected_end = now + median(durations)
        if (enough and expected_end > deadline) or expected_end - began > BUDGET_S:
            break

    # the result files must not depend on the repetition, traced or not
    votes = Counter(tuple(sorted(r.digests.items())) for r in reps if not r.failed)
    reference = dict(votes.most_common(1)[0][0]) if votes else {}
    for i, r in enumerate(reps):
        if not r.failed and r.digests != reference:
            r.problems.append(f"rep{i}: result files differ from the other repetitions")
    return reps, []


def _at_reference_speed(result, key):
    """A repetition's time, scaled by how much slower than the reference its process ran."""
    return result[key] * CALIBRATION_REF_S / result["calibration_s"]


def end_to_end_metrics(reps, w: wl.Workload, cfg: dict):
    good = [r.result for r in reps if not r.failed and not r.traced]
    if not good:
        return None
    work = wl.cell_steps(w.name, cfg)
    values = {
        "wall_s": median([_at_reference_speed(g, "wall_s") for g in good]),
        "cell_steps_per_s": median([work / _at_reference_speed(g, "wall_s") for g in good]),
        "setup_s": median([_at_reference_speed(g, "setup_s") for g in good]),
        "peak_rss_mb": median([g["peak_rss_mb"] for g in good]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(reps):
    traced = [r.result for r in reps if not r.failed and r.traced]
    # each traced repetition against the untraced one just before it, which
    # most likely ran under the same load from outside the benchmark
    pairs = [(_at_reference_speed(b.result, "wall_s"), _at_reference_speed(a.result, "wall_s"))
             for a, b in zip(reps, reps[1:])
             if b.traced and not a.traced and not (a.failed or b.failed)]
    if not pairs:
        return None, None
    values = {name: median([t["layers"][name] for t in traced]) for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = median([t / u for t, u in pairs]) - 1.0
    self_by_layer = {
        layer: median([t["self_by_layer"][layer] for t in traced]) for layer in traced[0]["self_by_layer"]
    }
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B"):
            values[name] = int(values[name])  # exact counts, equal in every traced repetition
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, self_by_layer


# -- machine facts -----------------------------------------------------------------


def _read(path: Path):
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def machine_facts() -> dict:
    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": _git_commit(),
    }


# -- entry point ---------------------------------------------------------------------


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke shrinks every workload for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _report(w, seed, trace, reps, metrics, self_by_layer, facts):
    failed = sum(r.failed for r in reps)
    print(f"workload {w.name}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{len(reps)} repetitions, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<30} {failed / len(reps):.6g} ratio")
    info = {
        "workload": w.name,
        "seed": seed,
        "repetitions": {"untraced": sum(not r.traced for r in reps), "traced": sum(r.traced for r in reps)},
        "failed_frac": failed / len(reps),
        # raw timings of the untraced repetitions, before the speed correction
        "samples": {
            key: [r.result.get(key) for r in reps if not r.failed and not r.traced]
            for key in ("wall_s", "setup_s", "calibration_s")
        },
        "problems": [p for r in reps for p in r.problems],
        "result_sha256": next((r.digests for r in reps if not r.failed), {}),
        "machine": facts,
    }
    if self_by_layer is not None:
        total = sum(self_by_layer.values())
        shares = {k: v / total for k, v in sorted(self_by_layer.items(), key=lambda kv: -kv[1])}
        top = next(iter(shares))
        info["self_share_by_layer"] = shares
        info["top_layer"] = {"observed": top, "predicted": w.predicted_top_layer or None}
        if w.predicted_top_layer and top != w.predicted_top_layer:
            print(f"  prediction not met: largest self time in {top}, predicted {w.predicted_top_layer}")
    print("info " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "shelab" / "__init__.py").is_file():
        print(f"no shelab sources under {SRC}; run from the root of a shelab checkout", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        w = wl.WORKLOADS[name]
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            reps, problems = run_workload(w, args.seed, args.seconds, bool(args.trace), args.size, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if reps is None:
            print("\n".join(problems), file=sys.stderr)
            return 1
        if args.trace:
            metrics, self_by_layer = per_layer_metrics(reps)
        else:
            metrics, self_by_layer = end_to_end_metrics(reps, w, w.make_config(args.size)), None
        if metrics is None:
            print("\n".join(p for r in reps for p in r.problems), file=sys.stderr)
            print(f"{name}: no repetition succeeded; no metrics", file=sys.stderr)
            return 1
        _report(w, args.seed, args.trace, reps, metrics, self_by_layer, facts)
        failed = sum(r.failed for r in reps)
        combined["correct"] = combined["correct"] and failed == 0
        combined["attempted"] += len(reps)
        combined["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass  # another run still uses it
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
