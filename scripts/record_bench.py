"""Record BENCH_<pr>.json: the benchmark on a base revision and on this checkout, in alternating pairs.

    python scripts/record_bench.py --pr N --base HEAD --pairs 10 --seed 901

The base revision is exported with ``git archive`` into a temporary
directory, so an interrupted run leaves no worktree registered in ``.git``.
The change side is this checkout's working tree, copied into a temporary
directory too (its tracked and untracked files, as git lists them, ignored
ones left out), so both sides run from the same kind of tree.  Run the
script before committing a change (``--base HEAD``), or name its parent
afterwards (``--base HEAD~1``).

Pair ``i`` runs ``benchmark/run.py --trace 0`` for every workload of
BENCHMARK.json on both sides with seed ``--seed + i`` and the run length
that BENCHMARK.json sets, the base first in even pairs and the change
first in odd ones; at least ten pairs run.  For each workload and
end-to-end metric the file records both sides' runs, failures, medians and
quartiles, how many pairs the change won (ties and failed runs count for
neither side) and two verdicts (see :func:`summarize`): ``gain`` and
``vs_bound``.  It also records the sha256 of every result file per seed
and side, whether the two sides wrote the same bytes, and the
machine-facts line that ``run.py`` prints.

After the pairs, each side runs every workload once more with
``--trace 1`` at seed 11, and the file records those runs' per-layer
metrics (``traced``): where a change moved the time, one run per side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` under ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def export_checkout(dest: Path) -> None:
    """Copy this checkout's tracked and untracked files, ignored ones left out, as its working tree holds them, under ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                            check=True, capture_output=True).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if (ROOT / name).is_file():  # a tracked file deleted from the working tree is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def describe_checkout() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout
    return f"{head or 'unknown'}{' + uncommitted changes' if dirty.strip() else ''}"


def benchmark_files(root: Path, paths) -> dict:
    files = {}
    for p in ["BENCHMARK.json", *paths]:
        target = root / p
        for f in sorted([target] if target.is_file() else target.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                files[str(f.relative_to(root))] = f.read_bytes()
    return files


MIN_PAIRS = 10  # a gain is judged on at least ten pairs


TRACE_SEED = 11  # seed of the one traced run per side and workload


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One ``benchmark/run.py`` run: its metrics, result digests and machine facts, or its failure.

    Both sides run in the same bytecode state: every ``__pycache__`` under
    the tree's ``src/`` and ``benchmark/`` is deleted before the run and no
    ``.pyc`` is written, so neither tree's own code is ever read from
    bytecode, stale or fresh, while numpy's and the standard library's
    installed bytecode is read as in any other run.
    """
    for tree in ("src", "benchmark"):
        for cache in sorted((root / tree).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {}
    ok = proc.returncode == 0 and summary.get("correct") is True
    return {
        "ok": ok,
        "metrics": {k: v["value"] for k, v in summary.get("metrics", {}).items()} if ok else {},
        "result_sha256": info.get("result_sha256", {}),
        "machine": info.get("machine", {}),
        "error": "" if ok else (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1],
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base_runs, change_runs, better: str, bound: float) -> dict:
    """Medians, quartiles, wins and verdicts of one metric; ``None`` marks a failed run.

    Every pair run counts in the denominator, so a failed run is a pair the
    change did not win.  ``gain`` holds when the change failed no more runs
    than the base, won at least nine tenths of all pairs, and its median is
    better by more than the base's interquartile range.  ``vs_bound`` is
    ``"worse"`` when the change failed more runs than the base or its
    median is worse than the base's by more than ``bound`` (relative);
    otherwise ``"unresolved"`` when either side's interquartile range,
    relative to the base median, exceeds ``bound`` and not every change run
    beats every base run; otherwise ``"within"``.
    """
    n = len(base_runs)
    failed = {"base": sum(v is None for v in base_runs), "change": sum(v is None for v in change_runs)}
    pairs = [(b, c) for b, c in zip(base_runs, change_runs) if b is not None and c is not None]
    if not pairs:
        return {"pairs": n, "completed": 0, "failed": failed, "gain": False,
                "vs_bound": "worse" if failed["change"] > failed["base"] else "unresolved"}
    sign = 1.0 if better == "higher" else -1.0
    base = [b for b in base_runs if b is not None]
    change = [c for c in change_runs if c is not None]
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    more_failures = failed["change"] > failed["base"]
    worse_by = -sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / abs(b_med) if b_med else 0.0
    dominates = min(sign * c for c in change) > max(sign * b for b in base)
    if more_failures or worse_by > bound:
        vs_bound = "worse"
    elif spread > bound and not dominates:
        vs_bound = "unresolved"
    else:
        vs_bound = "within"
    return {
        "pairs": n,
        "completed": len(pairs),
        "failed": failed,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base_runs},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change_runs},
        "change_wins": wins,
        "change_losses": losses,
        "relative_change": (c_med - b_med) / b_med if b_med else None,
        "gain": not more_failures and wins >= 0.9 * n and sign * (c_med - b_med) > (b_q3 - b_q1),
        "vs_bound": vs_bound,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", default=MIN_PAIRS, type=int, help=f"alternating pairs, at least {MIN_PAIRS}")
    parser.add_argument("--seed", required=True, type=int, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [args.seed + i for i in range(args.pairs)]

    with tempfile.TemporaryDirectory(prefix="shelab-bench-base-") as base_tmp, \
            tempfile.TemporaryDirectory(prefix="shelab-bench-change-") as change_tmp:
        sides = {"base": Path(base_tmp), "change": Path(change_tmp)}
        base_commit = export_revision(args.base, sides["base"])
        export_checkout(sides["change"])
        same_benchmark = benchmark_files(sides["base"], spec["paths"]) == benchmark_files(sides["change"], spec["paths"])
        if not same_benchmark:
            print("warning: the benchmark differs between the base and this checkout", file=sys.stderr)
        runs = {w: {side: [] for side in sides} for w in workloads}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in order:
                    r = run_once(sides[side], w, seed, seconds)
                    runs[w][side].append(r)
                    status = "ok" if r["ok"] else f"FAILED: {r['error']}"
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: "
                          f"{r['metrics'].get('wall_s', float('nan')):.4f} s wall {status}", flush=True)
        traced = {w: {side: run_once(root, w, TRACE_SEED, seconds, trace=1) for side, root in sides.items()}
                  for w in workloads}

    machine = next((r["machine"] for w in workloads for r in runs[w]["change"] if r["machine"]), {})
    report = {
        "pr": args.pr,
        "base": base_commit,
        "change": describe_checkout(),
        "settings": {"pairs": args.pairs, "seconds": seconds, "seeds": seeds, "trace": 0,
                     "traced_seed": TRACE_SEED,
                     "command": "python3 benchmark/run.py --workload W --seed S --seconds T --trace 0",
                     "order": "base first in even pairs (counting from 0), change first in odd ones"},
        "benchmark_identical": same_benchmark,
        "machine": machine,
        "workloads": {},
    }
    for w in workloads:
        by_side = runs[w]
        entry = {
            "failed": {side: sum(not r["ok"] for r in rs) for side, rs in by_side.items()},
            "metrics": {},
            "result_sha256": {},
            "traced": {side: r["metrics"] if r["ok"] else {"failed": r["error"]}
                       for side, r in traced[w].items()},
        }
        for name, m in metrics.items():
            values = {side: [r["metrics"].get(name) if r["ok"] else None for r in rs] for side, rs in by_side.items()}
            entry["metrics"][name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                      **summarize(values["base"], values["change"], m["better"], m["bound"])}
        for seed, b, c in zip(seeds, by_side["base"], by_side["change"]):
            same = bool(b["result_sha256"]) and b["result_sha256"] == c["result_sha256"]
            entry["result_sha256"][str(seed)] = {"identical": same, "change": c["result_sha256"],
                                                 **({} if same else {"base": b["result_sha256"]})}
        report["workloads"][w] = entry

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, entry in report["workloads"].items():
        for name, s in entry["metrics"].items():
            if s["completed"]:
                print(f"{w:<14} {name:<17} base {s['base']['median']:.5g} (q1 {s['base']['q1']:.5g}, "
                      f"q3 {s['base']['q3']:.5g})  change {s['change']['median']:.5g}  "
                      f"wins {s['change_wins']}/{s['pairs']}  gain {s['gain']}  {s['vs_bound']} bound")
        identical = all(v["identical"] for v in entry["result_sha256"].values())
        print(f"{w:<14} result files identical at every seed: {identical}; failed runs {entry['failed']}")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
