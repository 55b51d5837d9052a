"""Experiment orchestration: config ingestion, the four experiments, export.

A single JSON document configures an experiment (coefficients, initial
profile, grid, replication count, clamp levels, moment orders, seed,
regime flag, constants overrides).  Invalid configs are rejected up front
with the violated clause; nothing starts half-way.

Experiments:

* ``run_moment_verification``: Monte Carlo moments vs the closed-form
  moment bounds, compared in log-space.
* ``run_tail_verification``: empirical exceedance probabilities of the
  level-(N+1) solution over the clamp bound e^N vs the tail bounds.
* ``run_truncation_convergence``: coupled differences across clamp levels
  under common noise, with the fitted decay of log(value) against N^(3/2).
* ``run_uniqueness_coupling``: bit-identity of re-parsed/re-solved runs and
  of consecutive clamp levels whose clamps never engage.

Everything an experiment consumes is in the config; no wall-clock, no
environment.  Rendering of results is deterministic (sorted keys, repr
floats), so re-running a config reproduces the output files byte for byte,
regardless of the ``threads`` setting, which only chunks replications.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__
from . import bounds as _bounds
from . import coeff as _coeff
from . import estimators as _est
from . import solver as _solver
from .grid import GridSpec, GridError
from .kernel import InitialCondition
from .noise import NoiseSpec
from . import expr as _expr

__all__ = [
    "ConfigError",
    "ExperimentError",
    "ExportError",
    "ExperimentConfig",
    "Record",
    "ResultSet",
    "run_moment_verification",
    "run_tail_verification",
    "run_truncation_convergence",
    "run_uniqueness_coupling",
    "run_assumption_check",
    "export",
    "CSV_COLUMNS",
]


class ConfigError(ValueError):
    """Config rejected; the message names the violated precondition."""


class ExperimentError(RuntimeError):
    """An experiment-level assertion failed (not a config problem)."""


class ExportError(OSError):
    pass


_CHUNK = 256  # replications solved per batch; never affects results

_TOP_KEYS = {
    "b", "sigma", "u0", "grid", "replications", "levels", "orders", "seed",
    "bounded_sigma", "constants", "probes", "assumption_levels",
}
_CONST_KEYS = {"c", "L_b", "L_sigma", "sigma_sup", "inflate_L_sigma"}
_GRID_KEYS = {"R", "dx", "dt", "T", "boundary"}
_U0_KEYS = {"kind", "value", "a", "b", "source", "bound"}
_PROBE_KEYS = {"x_stride", "times", "n_times"}
# the experiments use e^N, e^(N+1) and 10 e^N of a clamp level N; all stay finite
_MAX_LEVEL = 700.0
# resource budget: a config that parses runs in bounded memory and time
# one solver pass stacks every level an experiment reads: at most 2 len(levels)
# (convergence: {N} and {N+1}); a full-lattice pass holds at most
# max(len(levels), 5) trajectories (simulate: every level; uniqueness: 4 + 1)
_MAX_TRAJECTORY = 1 << 27  # space-time points of the trajectories one pass holds (1 GiB stored)
_MAX_CHUNK_CELLS = 1 << 24  # levels x replications x cells of one solver chunk (128 MiB per array)
_MAX_PROBE_SAMPLES = 1 << 27  # probe samples one pass keeps over all its levels (1 GiB)
_MAX_CELL_STEPS = 10 ** 11  # cell-steps solved per clamp level


def _require(cond, clause):
    if not cond:
        raise ConfigError(clause)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite number; JSON ``true`` is a Python int but not a number here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_number_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    drift: _coeff.Coefficient
    diffusion: _coeff.Coefficient
    u0: InitialCondition
    grid: GridSpec
    replications: int
    levels: tuple
    orders: tuple
    seed: int
    bounded_sigma: bool
    proof_constant: float
    growth_b_override: float | None
    growth_sigma_override: float | None
    sigma_sup_override: float | None
    inflate_diffusion: bool
    probe_x_stride: int
    probe_times: tuple | None  # explicit times, or None for evenly spaced
    probe_n_times: int
    assumption_levels: tuple

    @property
    def config_hash(self) -> str:
        doc = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(doc).hexdigest()

    @property
    def hash16(self) -> str:
        return self.config_hash[:16]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        d = dict(self.raw)
        d["seed"] = int(seed)
        return parse_config(d)


def parse_config(doc: dict) -> ExperimentConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    for key in ("b", "sigma", "u0", "grid", "replications", "levels", "orders", "seed"):
        _require(key in doc, f"config is missing required key {key!r}")

    for name in ("b", "sigma"):
        _require(isinstance(doc[name], str), f"{name!r} must be an expression string or builtin name")
    try:
        drift = _coeff.Coefficient.from_source(doc["b"])
    except _expr.ParseError as err:
        raise ConfigError(f"b: {err}") from err
    try:
        diffusion = _coeff.Coefficient.from_source(doc["sigma"])
    except _expr.ParseError as err:
        raise ConfigError(f"sigma: {err}") from err

    u0_doc = doc["u0"]
    _check_keys(u0_doc, _U0_KEYS, "u0")
    for key in ("value", "a", "b", "bound"):
        if key in u0_doc:
            _require(_is_number(u0_doc[key]), f"u0.{key} must be a number")
    if "source" in u0_doc:
        _require(isinstance(u0_doc["source"], str), "u0.source must be an expression string")
    kind = u0_doc.get("kind")
    try:
        if kind == "constant":
            u0 = InitialCondition.constant(u0_doc["value"])
        elif kind == "indicator":
            u0 = InitialCondition.indicator(u0_doc["a"], u0_doc["b"])
        elif kind == "expr":
            u0 = InitialCondition.from_expression(u0_doc["source"], u0_doc.get("bound"))
        else:
            raise ConfigError(f"u0.kind must be constant, indicator, or expr, got {kind!r}")
    except (KeyError, ValueError, _expr.ParseError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"u0: {err}") from err

    grid_doc = doc["grid"]
    _check_keys(grid_doc, _GRID_KEYS, "grid")
    for key in ("R", "dx", "dt", "T"):
        _require(key in grid_doc, f"grid is missing required key {key!r}")
        _require(_is_number(grid_doc[key]), f"grid.{key} must be a number")
    try:
        grid = GridSpec(
            R=float(grid_doc["R"]),
            dx=float(grid_doc["dx"]),
            dt=float(grid_doc["dt"]),
            T=float(grid_doc["T"]),
            boundary=grid_doc.get("boundary", "dirichlet"),
        )
    except (TypeError, ValueError, GridError) as err:
        raise ConfigError(f"grid: {err}") from err

    reps = doc["replications"]
    _require(_is_int(reps) and reps >= 1, "replications must be a positive integer")

    levels = doc["levels"]
    _require(_is_number_list(levels), "levels must be a non-empty list of numbers")
    _check_clamp_levels(levels, "levels")

    orders = doc["orders"]
    _require(_is_number_list(orders), "orders must be a non-empty list of numbers")
    _require(all(k >= 1 for k in orders), "moment orders must be at least 1")
    _require(
        all(k <= _est.DEFAULT_ORDER_CAP for k in orders),
        f"moment orders above {_est.DEFAULT_ORDER_CAP} are variance-fragile and rejected",
    )

    seed = doc["seed"]
    _require(_is_int(seed) and 0 <= seed < 2 ** 64, "seed must be a 64-bit unsigned integer")

    bounded = doc.get("bounded_sigma", False)
    _require(isinstance(bounded, bool), "bounded_sigma must be a boolean")

    const_doc = doc.get("constants", {})
    _check_keys(const_doc, _CONST_KEYS, "constants")
    c_val = const_doc.get("c", 2.0)
    _require(_is_number(c_val) and c_val > 1, "constants.c must exceed 1")
    for key in ("L_b", "L_sigma", "sigma_sup"):
        if key in const_doc:
            _require(
                _is_number(const_doc[key]) and const_doc[key] >= 0,
                f"constants.{key} must be a non-negative number",
            )
    inflate = const_doc.get("inflate_L_sigma", False)
    _require(isinstance(inflate, bool), "constants.inflate_L_sigma must be a boolean")

    probes_doc = doc.get("probes", {})
    _check_keys(probes_doc, _PROBE_KEYS, "probes")
    stride = probes_doc.get("x_stride", 10)
    _require(_is_int(stride) and stride >= 1, "probes.x_stride must be a positive integer")
    n_times = probes_doc.get("n_times", 20)
    _require(_is_int(n_times) and n_times >= 1, "probes.n_times must be a positive integer")
    times = probes_doc.get("times")
    if times is not None:
        _require(_is_number_list(times), "probes.times must be a non-empty list of numbers")
        _require(all(0 < t <= grid.T * (1 + 1e-12) for t in times), "probe times must lie in (0, T]")

    assumption_levels = doc.get("assumption_levels", [1.0, 2.0, 3.0, 4.0])
    _require(
        _is_number_list(assumption_levels) and len(assumption_levels) >= 4,
        "assumption_levels must list at least 4 clamp levels",
    )
    _check_clamp_levels(assumption_levels, "assumption_levels")
    _check_budget(grid, reps, len(levels), n_times if times is None else len(times), stride)

    return ExperimentConfig(
        raw=doc,
        drift=drift,
        diffusion=diffusion,
        u0=u0,
        grid=grid,
        replications=reps,
        levels=tuple(float(v) for v in levels),
        orders=tuple(float(k) for k in orders),
        seed=seed,
        bounded_sigma=bounded,
        proof_constant=float(c_val),
        growth_b_override=const_doc.get("L_b"),
        growth_sigma_override=const_doc.get("L_sigma"),
        sigma_sup_override=const_doc.get("sigma_sup"),
        inflate_diffusion=inflate,
        probe_x_stride=stride,
        probe_times=None if times is None else tuple(float(t) for t in times),
        probe_n_times=n_times,
        assumption_levels=tuple(float(v) for v in assumption_levels),
    )


def _check_clamp_levels(levels, key):
    _require(all(v >= 0 for v in levels), f"{key}: clamp levels must be non-negative")
    _require(all(b_ > a_ for a_, b_ in zip(levels, levels[1:])), f"{key} must be strictly increasing")
    _require(
        all(v <= _MAX_LEVEL for v in levels),
        f"{key}: clamp levels above {_MAX_LEVEL:g} make e^N overflow",
    )


def _check_budget(grid: GridSpec, reps: int, n_levels: int, n_probe_times: int, x_stride: int):
    points, steps = grid.n_points, grid.n_steps
    probe_points = n_probe_times * ((points - 1) // x_stride + 1)
    stacked = 2 * n_levels
    for what, amount, limit in (
        ("space-time points in one full-lattice pass", points * (steps + 1) * max(n_levels, 5), _MAX_TRAJECTORY),
        ("levels x cells x replications in one solver chunk", stacked * points * min(reps, _CHUNK),
         _MAX_CHUNK_CELLS),
        ("probe samples in one solver pass", stacked * reps * probe_points, _MAX_PROBE_SAMPLES),
        ("cell-steps per clamp level", reps * points * steps, _MAX_CELL_STEPS),
    ):
        _require(amount <= limit, f"resource budget: {amount:.4g} {what} exceed the limit {limit:.4g}")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ExportError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return parse_config(doc)


# -- probes -------------------------------------------------------------------


def _probe_indices(cfg: ExperimentConfig):
    g = cfg.grid
    if cfg.probe_times is not None:
        steps = sorted({g.t_index(t) for t in cfg.probe_times})
        _require(all(s > 0 for s in steps), "probe times snap to t=0; move them into (0, T]")
    else:
        steps = sorted({int(round(g.n_steps * i / cfg.probe_n_times)) for i in range(1, cfg.probe_n_times + 1)})
        steps = [s for s in steps if s > 0]
    xs = np.arange(0, g.n_points, cfg.probe_x_stride)
    return np.asarray(steps, dtype=int), xs


# -- constants ----------------------------------------------------------------


def _growth_constant(psi: _coeff.Coefficient, notes: dict, label: str, override):
    if override is not None:
        notes[label] = "config override"
        return float(override)
    if psi.declared_growth is not None:
        notes[label] = "declared by coefficient"
        return float(psi.declared_growth)
    notes[label] = "grid estimate (lower bound)"
    return _coeff.linear_growth_constant(psi)


def resolve_constants(cfg: ExperimentConfig):
    notes = {}
    growth_b = _growth_constant(cfg.drift, notes, "L_b", cfg.growth_b_override)
    growth_sigma = _growth_constant(cfg.diffusion, notes, "L_sigma", cfg.growth_sigma_override)
    sigma_sup = None
    if cfg.bounded_sigma:
        if cfg.sigma_sup_override is not None:
            sigma_sup = float(cfg.sigma_sup_override)
            notes["sigma_sup"] = "config override"
        elif cfg.diffusion.declared_sup is not None:
            sigma_sup = float(cfg.diffusion.declared_sup)
            notes["sigma_sup"] = "declared by coefficient"
        else:
            sigma_sup = _coeff._sup_abs(cfg.diffusion, 1000.0, _coeff.DEFAULT_TIME_GRID)
            notes["sigma_sup"] = "grid estimate (lower bound)"
    constants = _bounds.ProblemConstants(
        drift_growth=growth_b,
        diffusion_growth=growth_sigma,
        u0_sup=cfg.u0.bound,
        diffusion_sup=sigma_sup,
        proof_constant=cfg.proof_constant,
    )
    if cfg.inflate_diffusion:
        inflated = constants.inflate_diffusion_growth()
        if inflated.diffusion_growth == 0.0:
            inflated = _bounds.ProblemConstants(
                drift_growth=constants.drift_growth,
                diffusion_growth=1.0,
                u0_sup=constants.u0_sup,
                diffusion_sup=constants.diffusion_sup,
                proof_constant=constants.proof_constant,
            )
        if inflated.diffusion_growth != constants.diffusion_growth:
            notes["L_sigma"] = (
                f"inflated from {constants.diffusion_growth!r} to {inflated.diffusion_growth!r}"
            )
        constants = inflated
    return constants, notes


# -- result containers ----------------------------------------------------------

CSV_COLUMNS = (
    "experiment", "N", "k", "t", "x", "estimate", "ci_lo", "ci_hi",
    "bound_log", "verdict", "seed", "config_hash",
)


@dataclass(frozen=True)
class Record:
    experiment: str
    N: float | None
    k: float | None
    t: float | None
    x: float | None
    estimate: float | None
    ci_lo: float | None
    ci_hi: float | None
    bound_log: float | None
    verdict: str
    seed: int
    config_hash: str


_RECORD_FIELDS = tuple(f.name for f in fields(Record))


@dataclass
class ResultSet:
    experiment: str
    records: list
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            # a shallow dict per record: every field is a str, int, float or None
            "records": [{f: getattr(r, f) for f in _RECORD_FIELDS} for r in self.records],
            "diagnostics": self.diagnostics,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResultSet":
        return cls(
            experiment=doc["experiment"],
            records=[Record(**r) for r in doc["records"]],
            diagnostics=doc.get("diagnostics", {}),
            provenance=doc.get("provenance", {}),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json.loads(text))


def _provenance(cfg: ExperimentConfig, experiment, probe_steps, probe_x_idx, constants=None,
                notes=None, aborted=()):
    g = cfg.grid
    prov = {
        "experiment": experiment,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "package_version": __version__,
        "grid": g.describe(),
        "replications": cfg.replications,
        "levels": list(cfg.levels),
        "orders": list(cfg.orders),
        "probe_times": [s * g.dt for s in np.asarray(probe_steps).tolist()],
        "probe_xs": [-g.R + j * g.dx for j in np.asarray(probe_x_idx).tolist()],
        "aborted": [asdict(a) for a in aborted],
    }
    if constants is not None:
        prov["constants"] = {
            "L_b": constants.drift_growth,
            "L_sigma": constants.diffusion_growth,
            "u0_sup": constants.u0_sup,
            "sigma_sup": constants.diffusion_sup,
            "c": constants.proof_constant,
        }
    if notes:
        prov["constants_source"] = notes
    return prov


# -- batch collection -----------------------------------------------------------


def _collect(cfg: ExperimentConfig, levels, probe_steps, probe_x_idx, threads=1):
    """Solve all replications at every given clamp level in one pass per chunk; order-stable."""
    n = cfg.replications
    starts = list(range(0, n, _CHUNK))

    def job(start):
        reps = np.arange(start, min(start + _CHUNK, n), dtype=np.uint64)
        return _solver.solve_batch(
            levels, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid,
            cfg.seed, reps, probe_steps, probe_x_idx,
        )

    try:
        if threads > 1 and len(starts) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(job, starts))
        else:
            parts = [job(s) for s in starts]
    except ArithmeticError as err:
        # coefficient domain violation (log of a non-positive state, ...):
        # the whole batch shares the failure, unlike per-replication overflow
        raise ExperimentError(f"coefficient evaluation failed during simulation: {err}") from err
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merged_with(part)
    return merged


def _abort_budget(aborted, cfg):
    """Abort records of one level's or one coupled pair's run, checked against the 1% budget."""
    frac = len(aborted) / cfg.replications
    if frac > 0.01:
        first = aborted[0]
        raise ExperimentError(
            f"{len(aborted)} of {cfg.replications} replications aborted "
            f"(> 1% budget); first at replication {first.replication}, "
            f"step {first.step}, cell {first.cell}"
        )


# -- experiments ----------------------------------------------------------------


def run_moment_verification(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    constants, notes = resolve_constants(cfg)
    _require(cfg.replications >= 30, "verify-moments needs at least 30 replications for CLT intervals")
    if cfg.bounded_sigma:
        bound_fn = lambda k, t: _bounds.moment_bound_bounded_sigma(k, t, constants)
        for k in cfg.orders:
            _require(k >= 2, f"order k={k:g} below the bounded-regime minimum 2")
    else:
        _require(
            constants.diffusion_growth > 0,
            "moment bounds need a positive diffusion growth constant "
            "(set constants.L_sigma, enable inflate_L_sigma, or use bounded_sigma)",
        )
        k_min = max(2.0, math.sqrt(constants.drift_growth) / constants.diffusion_growth ** 2)
        for k in cfg.orders:
            _require(
                k >= k_min,
                f"order k={k:g} below the admissible minimum {k_min:g} "
                "(enable constants.inflate_L_sigma to widen the range)",
            )
        bound_fn = lambda k, t: _bounds.moment_bound_unbounded_sigma(k, t, constants)

    probe_steps, probe_x_idx = _probe_indices(cfg)
    records = []
    min_margin = math.inf
    aborted_all = []
    batch = _collect(cfg, cfg.levels, probe_steps, probe_x_idx, threads)
    for level in cfg.levels:
        _abort_budget(batch.aborted[(level,)], cfg)
        aborted_all += batch.aborted[(level,)]
        ens = _est.Ensemble.from_batch(batch, cfg.grid, level)
        for k in cfg.orders:
            estimates = iter(_est.moment_estimates(ens, k))
            for pt in ens.probe_times:
                outcome = bound_fn(k, float(pt))
                for px in ens.probe_xs:
                    est = next(estimates)
                    report = _bounds.BoundReport.compare(outcome, est.power_hi)
                    if report.verdict == "dominates" and est.power_hi and est.power_hi > 0:
                        min_margin = min(min_margin, report.bound_log - math.log(est.power_hi))
                    records.append(Record(
                        experiment="verify-moments",
                        N=float(level), k=float(k), t=float(pt), x=float(px),
                        estimate=est.power_mean, ci_lo=est.power_lo, ci_hi=est.power_hi,
                        bound_log=report.bound_log, verdict=report.verdict,
                        seed=cfg.seed, config_hash=cfg.hash16,
                    ))
    violations = sum(r.verdict == "violated" for r in records)
    return ResultSet(
        experiment="verify-moments",
        records=records,
        diagnostics={
            "violations": violations,
            "min_log_margin": None if math.isinf(min_margin) else min_margin,
            "bounded_regime": cfg.bounded_sigma,
        },
        provenance=_provenance(cfg, "verify-moments", probe_steps, probe_x_idx,
                               constants, notes, aborted_all),
    )


def run_tail_verification(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    constants, notes = resolve_constants(cfg)
    if cfg.bounded_sigma:
        bound_fn = lambda N, t: _bounds.tail_bound_bounded_sigma(N, t, constants)
    else:
        _require(
            constants.diffusion_growth > 0,
            "tail bounds need a positive diffusion growth constant in the unbounded regime",
        )
        bound_fn = lambda N, t: _bounds.tail_bound_unbounded_sigma(N, t, constants)

    probe_steps, probe_x_idx = _probe_indices(cfg)
    probe_times = [s * cfg.grid.dt for s in probe_steps]
    _require(
        any(bound_fn(N, t).valid for N in cfg.levels for t in probe_times),
        "no (N, t) combination passes the tail validity predicate",
    )

    records = []
    aborted_all = []
    # the tail statement concerns the level-(N+1) solution against e^N
    batch = _collect(cfg, tuple(sorted({level + 1.0 for level in cfg.levels})), probe_steps, probe_x_idx, threads)
    for level in cfg.levels:
        _abort_budget(batch.aborted[(level + 1.0,)], cfg)
        aborted_all += batch.aborted[(level + 1.0,)]
        ens = _est.Ensemble.from_batch(batch, cfg.grid, level + 1.0)
        threshold = math.exp(level)
        for pt in ens.probe_times:
            outcome = bound_fn(level, float(pt))
            for px in ens.probe_xs:
                tail = _est.tail_probability(ens, threshold, float(pt), float(px))
                report = _bounds.BoundReport.compare(outcome, tail.hi)
                records.append(Record(
                    experiment="verify-tails",
                    N=float(level), k=None, t=float(pt), x=float(px),
                    estimate=tail.p_hat, ci_lo=tail.lo, ci_hi=tail.hi,
                    bound_log=report.bound_log, verdict=report.verdict,
                    seed=cfg.seed, config_hash=cfg.hash16,
                ))
    applicable = [r for r in records if r.verdict != "not-applicable"]
    violations = sum(r.verdict == "violated" for r in applicable)
    return ResultSet(
        experiment="verify-tails",
        records=records,
        diagnostics={
            "violations": violations,
            "applicable_rows": len(applicable),
            "bounded_regime": cfg.bounded_sigma,
        },
        provenance=_provenance(cfg, "verify-tails", probe_steps, probe_x_idx,
                               constants, notes, aborted_all),
    )


def run_truncation_convergence(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    constants, notes = resolve_constants(cfg)
    probe_steps, probe_x_idx = _probe_indices(cfg)
    records = []
    aborted_all = []
    table = {float(k): [] for k in cfg.orders}  # k -> [(N, value, active)]
    plateau_level = None
    union = sorted(set(cfg.levels) | {level + 1.0 for level in cfg.levels})
    batch = _collect(cfg, tuple(union), probe_steps, probe_x_idx, threads)
    for level in sorted(cfg.levels):
        _abort_budget(batch.aborted[(level, level + 1.0)], cfg)
        aborted_all += batch.aborted[(level, level + 1.0)]
        pair = _est.PairEnsemble.from_batch(batch, cfg.grid, level)
        active = bool(np.any(pair.path_max_abs > math.exp(level)))
        max_diff = float(np.max(pair.sup_abs_diff)) if pair.count else math.nan
        if max_diff == 0.0 and plateau_level is None:
            plateau_level = float(level)
        verdict = "active-clamp" if active else "clamp-inactive"
        for k in cfg.orders:
            value = _est.coupled_sup_difference(pair, k, cfg.grid.T)
            table[float(k)].append((float(level), value, active))
            records.append(Record(
                experiment="convergence",
                N=float(level), k=float(k), t=None, x=None,
                estimate=value, ci_lo=None, ci_hi=None,
                bound_log=None, verdict=verdict,
                seed=cfg.seed, config_hash=cfg.hash16,
            ))

    slopes = {}
    for k, rows in table.items():
        pts = [(N ** 1.5, math.log(v)) for N, v, active in rows if active and v > 0]
        if len(pts) >= 2:
            xs = np.array([p[0] for p in pts])
            ys = np.array([p[1] for p in pts])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = None  # undefined with fewer than two active levels
        slopes[repr(float(k))] = slope

    lip_samples = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-Lipschitz warnings already surface elsewhere
            lip_samples = [
                (N, _coeff.level_constants(cfg.drift, cfg.diffusion, N)[1])
                for N in cfg.assumption_levels
            ]
    except ArithmeticError:
        lip_samples = None
    thresholds = _bounds.convergence_thresholds(cfg.grid.T, constants, lip_samples)

    return ResultSet(
        experiment="convergence",
        records=records,
        diagnostics={
            "decay_slopes_vs_N32": slopes,
            "plateau_level": plateau_level,
            "active_levels": sorted({N for rows in table.values() for N, v, a in rows if a}),
            "thresholds": {"c_T": thresholds.c_T, "N_T": thresholds.N_T, "N0": thresholds.N0},
        },
        provenance=_provenance(cfg, "convergence", probe_steps, probe_x_idx,
                               constants, notes, aborted_all),
    )


def run_uniqueness_coupling(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    probe_steps, probe_x_idx = _probe_indices(cfg)
    records = []
    diag = {"checked_replications": [], "active_clamp_rows": 0}
    top, bottom = max(cfg.levels), min(cfg.levels)
    # one pass over every level the b1/s1 comparisons read, one b2/s2 pass at the top
    union = tuple(sorted({bottom, bottom + 1.0, top, top + 1.0}))
    n_checked = min(cfg.replications, 4)

    def fresh_pair():
        # independently constructed coefficient objects: re-parse expression text
        return _coeff.Coefficient.from_source(cfg.raw["b"]), _coeff.Coefficient.from_source(cfg.raw["sigma"])

    for rep in range(n_checked):
        spec = NoiseSpec(seed=cfg.seed, replication=rep, grid=cfg.grid)
        b1, s1 = fresh_pair()
        b2, s2 = fresh_pair()
        sol_1 = _solver.solve_lattice(union, b1, s1, cfg.u0, cfg.grid, spec)
        sol_2 = _solver.solve_lattice((top,), b2, s2, cfg.u0, cfg.grid, spec)

        def views(sol, levels, b, s):
            return _solver.field_trajectories(sol, levels, b, s, cfg.u0, cfg.grid, spec)

        (t_a,) = views(sol_1, (top,), b1, s1)
        (t_b,) = views(sol_2, (top,), b2, s2)
        _assert_identical(t_a, t_b, f"re-parsed coefficients at level {top:g}, replication {rep}")
        records.append(Record(
            experiment="uniqueness", N=float(top), k=None, t=None, x=None,
            estimate=0.0, ci_lo=None, ci_hi=None, bound_log=None,
            verdict="identical", seed=cfg.seed, config_hash=cfg.hash16,
        ))

        clamp_inactive = t_a.path_max_abs < math.exp(top)
        low, high = views(sol_1, (top, top + 1.0), b1, s1)
        if clamp_inactive:
            _assert_identical(low, high, f"levels {top:g} vs {top + 1:g}, replication {rep}")
            records.append(Record(
                experiment="uniqueness", N=float(top), k=None, t=None, x=None,
                estimate=0.0, ci_lo=None, ci_hi=None, bound_log=None,
                verdict="identical", seed=cfg.seed, config_hash=cfg.hash16,
            ))
        else:
            diff = float(np.max(np.abs(high.values - low.values)))
            records.append(Record(
                experiment="uniqueness", N=float(top), k=None, t=None, x=None,
                estimate=diff, ci_lo=None, ci_hi=None, bound_log=None,
                verdict="recorded", seed=cfg.seed, config_hash=cfg.hash16,
            ))
            diag["active_clamp_rows"] += 1

        # documented active-clamp row at the lowest configured level
        if bottom < top:
            low, high = views(sol_1, (bottom, bottom + 1.0), b1, s1)
            diff = float(np.max(np.abs(high.values - low.values)))
            verdict = "recorded" if diff > 0 else "identical"
            if diff > 0:
                diag["active_clamp_rows"] += 1
            records.append(Record(
                experiment="uniqueness", N=float(bottom), k=None, t=None, x=None,
                estimate=diff, ci_lo=None, ci_hi=None, bound_log=None,
                verdict=verdict, seed=cfg.seed, config_hash=cfg.hash16,
            ))
        diag["checked_replications"].append(rep)

    return ResultSet(
        experiment="uniqueness",
        records=records,
        diagnostics=diag,
        provenance=_provenance(cfg, "uniqueness", probe_steps, probe_x_idx),
    )


def _assert_identical(a: _solver.FieldTrajectory, b: _solver.FieldTrajectory, what: str):
    if np.array_equal(a.values, b.values):
        return
    bad = a.values != b.values
    m, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    raise ExperimentError(
        f"pathwise uniqueness violated for {what}: first differing lattice point "
        f"(m={m}, j={j}): {a.values[m, j]!r} vs {b.values[m, j]!r}"
    )


def run_assumption_check(cfg: ExperimentConfig) -> dict:
    verdict = _coeff.check_assumption(cfg.drift, cfg.diffusion, list(cfg.assumption_levels))
    doc = asdict(verdict)
    doc["config_hash"] = cfg.config_hash
    doc["package_version"] = __version__
    return doc


# -- export ---------------------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(results: ResultSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results.records:
        writer.writerow([_fmt(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def render_convergence_plot_csv(results: ResultSet) -> str:
    """One row per (N, k): N^(3/2) against log of the coupled difference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "k", "N_pow_3_2", "log_difference"])
    for r in results.records:
        if r.estimate is None:
            continue
        logv = math.log(r.estimate) if r.estimate > 0 else None
        writer.writerow([_fmt(r.N), _fmt(r.k), _fmt(r.N ** 1.5), _fmt(logv)])
    return buf.getvalue()


def export(results: ResultSet, out_dir, formats=("csv", "json")) -> list:
    """Write result files; returns the written paths."""
    import os

    paths = []
    tag = results.provenance.get("config_hash", "results")[:16]
    base = f"{results.experiment}_{tag}"
    try:
        os.makedirs(out_dir, exist_ok=True)
        if "csv" in formats:
            p = os.path.join(out_dir, base + ".csv")
            with open(p, "w", encoding="utf-8", newline="") as fh:
                fh.write(render_csv(results))
            paths.append(p)
            if results.experiment == "convergence":
                p = os.path.join(out_dir, base + "_plot.csv")
                with open(p, "w", encoding="utf-8", newline="") as fh:
                    fh.write(render_convergence_plot_csv(results))
                paths.append(p)
        if "json" in formats:
            p = os.path.join(out_dir, base + ".json")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(results.to_json())
            paths.append(p)
    except OSError as err:
        raise ExportError(f"cannot write results to {out_dir}: {err}") from err
    return paths
