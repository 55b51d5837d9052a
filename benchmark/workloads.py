"""The benchmark workloads: configs, commands, logical work and output checks.

Each workload is a fixed experiment config plus the CLI commands run on
it.  The seed is not part of the config: ``run.py`` hands the workload seed
to every command through ``--seed``.  ``smoke`` shrinks a workload for the
benchmark's own smoke test; the measured workload is always ``full``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # CLI subcommands, run in order
    config: dict
    smoke: dict = field(default_factory=dict)  # top-level keys replaced at smoke size
    # the layer with the most self time, as predicted before measuring; "" if none
    predicted_top_layer: str = ""

    def make_config(self, size: str) -> dict:
        cfg = copy.deepcopy(self.config)
        if size == "smoke":
            cfg.update(copy.deepcopy(self.smoke))
        return cfg

    def argvs(self, out_dir: str, config_path: str, seed: int):
        return [["--out", out_dir, "--seed", str(seed), command, config_path] for command in self.commands]


# moments_dense copies the pilot moments config (scripts/configs) so that an
# edit there cannot silently change what the benchmark measures.
_PILOT_SHAPE = {
    "b": "zero",
    "sigma": "linear",
    "u0": {"kind": "constant", "value": 1.0},
    "bounded_sigma": False,
    "constants": {"c": 2.0},
    "seed": 1,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moments_dense",
            commands=("verify-moments",),
            config={
                **_PILOT_SHAPE,
                "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
                "replications": 400,
                "levels": [1.0, 2.0],
                "orders": [2.0, 4.0],
                "probes": {"x_stride": 1, "n_times": 5},
            },
            smoke={"replications": 40, "probes": {"x_stride": 1, "n_times": 2},
                   "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.05, "boundary": "dirichlet"}},
            predicted_top_layer="estimators",
        ),
        Workload(
            name="lattice_expr",
            commands=("check-assumptions", "simulate", "uniqueness"),
            config={
                **_PILOT_SHAPE,
                "b": "0.5*sin(x)",
                "sigma": "x/(1+abs(x)/8)",
                "grid": {"R": 8.0, "dx": 0.05, "dt": 0.0025, "T": 1.0, "boundary": "dirichlet"},
                "replications": 4,
                "levels": [1.0, 2.0, 3.0],
                "orders": [2.0],
            },
            smoke={"replications": 2,
                   "grid": {"R": 2.0, "dx": 0.1, "dt": 0.005, "T": 0.1, "boundary": "dirichlet"}},
        ),
    )
}


# -- logical work ------------------------------------------------------------------


def _lattice(cfg):
    g = cfg["grid"]
    return int(round(2.0 * g["R"] / g["dx"])) + 1, int(round(g["T"] / g["dt"]))


def level_solves(name: str, cfg: dict) -> int:
    """Single-level solves of one replication that the experiments ask for."""
    levels, reps = len(cfg["levels"]), cfg["replications"]
    if name == "moments_dense":
        return levels * reps
    # simulate: one per level; uniqueness, per checked replication: two
    # re-parsed solves, a coupled pair at the top and one at the bottom level
    return levels + 6 * min(reps, 4)


def cell_steps(name: str, cfg: dict) -> int:
    """Lattice updates the experiment definition requests; independent of the implementation."""
    points, steps = _lattice(cfg)
    return level_solves(name, cfg) * points * steps


# -- output checks ---------------------------------------------------------------


def _probe_counts(cfg):
    """Probe times and cells of a config whose probes give x_stride and n_times."""
    points, steps = _lattice(cfg)
    probes = cfg["probes"]
    n = probes["n_times"]
    n_t = len({int(round(steps * i / n)) for i in range(1, n + 1)} - {0})
    return n_t, len(range(0, points, probes["x_stride"]))


def _records(out: Path, stem: str, seed: int, expect_n: int, problems: list):
    files = sorted(out.glob(f"{stem}_*.json"))
    if len(files) != 1:
        problems.append(f"expected one {stem} result JSON, found {len(files)}")
        return []
    doc = json.loads(files[0].read_text(encoding="utf-8"))
    records = doc["records"]
    if len(records) != expect_n:
        problems.append(f"{stem}: {len(records)} records, expected {expect_n}")
    if any(r["seed"] != seed for r in records):
        problems.append(f"{stem}: a record carries another seed than {seed}")
    csv_path = files[0].with_suffix(".csv")
    if not csv_path.is_file():
        problems.append(f"{stem}: CSV export missing")
    else:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != len(records) + 1:
            problems.append(f"{stem}: CSV has {len(rows) - 1} rows, JSON {len(records)}")
    return records


def _interval_ok(r):
    est, a, b = r["estimate"], r["ci_lo"], r["ci_hi"]
    return all(v is not None and math.isfinite(v) for v in (est, a, b)) and 0.0 <= a <= est <= b


def check_outputs(name: str, cfg: dict, seed: int, out: Path) -> list:
    """Problems found in one repetition's result files; empty when they are correct."""
    problems = []
    n_levels, n_orders = len(cfg["levels"]), len(cfg["orders"])
    if name == "moments_dense":
        n_t, n_x = _probe_counts(cfg)
        recs = _records(out, "verify-moments", seed, n_levels * n_orders * n_t * n_x, problems)
        if any(r["verdict"] == "violated" for r in recs):
            problems.append("verify-moments: a moment bound is violated")
        if not all(_interval_ok(r) for r in recs):
            problems.append("verify-moments: an estimate lies outside its interval or is not finite")
    else:
        _check_lattice_expr(cfg, seed, out, problems)
    return problems


def _check_lattice_expr(cfg, seed, out, problems):
    points, steps = _lattice(cfg)
    assumptions = list(out.glob("assumptions_*.json"))
    if len(assumptions) != 1 or "verdict" not in json.loads(assumptions[0].read_text(encoding="utf-8")):
        problems.append("check-assumptions: verdict file missing or without a verdict")
    bins = sorted(out.glob("trajectory_N*.bin"))
    if len(bins) != len(cfg["levels"]):
        problems.append(f"simulate: {len(bins)} trajectories, expected {len(cfg['levels'])}")
    header = 7 * 8 + 5 * 8
    for path in bins:
        raw = path.read_bytes()
        if len(raw) != header + (steps + 1) * points * 8:
            problems.append(f"simulate: {path.name} has {len(raw)} bytes")
            continue
        vals = np.frombuffer(raw, dtype="<f8", offset=header).reshape(steps + 1, points)
        if not np.all(vals[0] == cfg["u0"]["value"]) or not np.all(np.isfinite(vals)):
            problems.append(f"simulate: {path.name} does not start at u0 or is not finite")
        if not path.with_suffix(".json").is_file():
            problems.append(f"simulate: {path.name} has no provenance sidecar")
    recs = _records(out, "uniqueness", seed, 3 * min(cfg["replications"], 4), problems)
    if not all(r["verdict"] in ("identical", "recorded") for r in recs):
        problems.append("uniqueness: unexpected verdict")
