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
environment.  Rendering of results is deterministic, so re-running a config
reproduces the output files byte for byte, regardless of the ``threads``
setting, which only spreads the solver's replication chunks over pool threads.

``export`` spells each record value once, a field at a time, and writes both
result files from those strings: floats (numpy's too) with ``float.__repr__``
in both files, JSON respelling only nan and inf; ints with ``int.__repr__``;
strs raw for the CSV and escaped for JSON.  A column holding None, a bool or
mixed types is spelled value by value; ``csv.writer`` quotes a cell holding
, " \\r or \\n, and a value that is no JSON scalar sends the JSON document
through ``json.dumps``.  Both files equal those two references byte for byte.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import __version__
from . import bounds as _bounds
from . import coeff as _coeff
from . import estimators as _est
from . import solver as _solver
from .grid import GridSpec, GridError
from .kernel import InitialCondition
from .noise import NOISE_STREAM, NoiseSpec
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
# rows (convergence: {N} and {N+1}), and |{bottom, bottom + 1, top, top + 1}| + 1
# in uniqueness's one pass (the re-parse group adds the top level again), which
# is more at one or two levels; full-lattice passes hold at most len(levels)
# trajectories at once (simulate: one pass over every level), and uniqueness two
# (its pass keeps no lattice; a failed check re-solves one replication at two
# runs), so the limit counts max(len(levels), 2) of them;
# solver.solve_batch advances every pass, these included, in chunks of
# solver.chunk_replications replications, which exceed 2^14 cells only at one
# replication, and --threads runs at most one chunk per core at once
_MAX_TRAJECTORY = 1 << 27  # space-time points of the full-lattice trajectories held at once (1 GiB stored)
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


class ExperimentConfig(NamedTuple):
    raw: dict  # the validated document, a private copy
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
    config_hash: str  # sha256 of ``raw``

    @property
    def hash16(self) -> str:
        return self.config_hash[:16]

    def with_seed(self, seed: int) -> "ExperimentConfig":
        d = dict(self.raw)
        d["seed"] = int(seed)
        return parse_config(d)


def parse_config(doc: dict) -> ExperimentConfig:
    doc = copy.deepcopy(doc)  # later changes to the caller's document reach neither the fields nor the hash
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
    _check_evaluable("b", drift)
    _check_evaluable("sigma", diffusion)

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
        _require(all(grid.t_index(t) > 0 for t in times), "probe times snap to t=0; move them into (0, T]")

    assumption_levels = doc.get("assumption_levels", [1.0, 2.0, 3.0, 4.0])
    _require(
        _is_number_list(assumption_levels) and len(assumption_levels) >= 4,
        "assumption_levels must list at least 4 clamp levels",
    )
    _require(min(assumption_levels) > 0, "assumption_levels: clamp levels must be positive (the fit takes log N)")
    _check_clamp_levels(assumption_levels, "assumption_levels")
    _check_budget(grid, reps, levels, n_times if times is None else len(times), stride)

    # u0 comes last: it is evaluated on the lattice, which the budget has bounded
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
        # the solver's first row; an explicit bound skips from_expression's sampling
        top = float(np.max(np.abs(u0(grid.xs))))
    except (KeyError, ValueError, ArithmeticError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"u0: {err}") from err
    # every moment and tail bound takes u0.bound as sup |u0|
    _require("bound" not in u0_doc or top <= u0.bound,
             f"u0.bound {u0.bound!r} is below max |u0| = {top!r} on the lattice")

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
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
        config_hash=hashlib.sha256(canonical).hexdigest(),
    )


def _check_evaluable(key, psi):
    """Reject an expression coefficient that fails at all six points (t, x) with t in {0, 1} and x in
    {-1, 0, 1}: it fails at every state.  One that fails on part of the domain (``log(x)``) may run."""
    if psi.compiled is None:
        return
    for t, x in [(t, x) for t in (0.0, 1.0) for x in (-1.0, 0.0, 1.0)]:
        try:
            psi(t, x)
            return
        except ArithmeticError as err:
            failure = err
    raise ConfigError(f"{key}: {psi.name} cannot be evaluated at any (t, x) in {{0, 1}} x {{-1, 0, 1}}: {failure}")


def _check_clamp_levels(levels, key):
    _require(all(v >= 0 for v in levels), f"{key}: clamp levels must be non-negative")
    _require(all(b_ > a_ for a_, b_ in zip(levels, levels[1:])), f"{key} must be strictly increasing")
    _require(
        all(v <= _MAX_LEVEL for v in levels),
        f"{key}: clamp levels above {_MAX_LEVEL:g} make e^N overflow",
    )


def _check_budget(grid: GridSpec, reps: int, levels, n_probe_times: int, x_stride: int):
    points, steps = grid.n_points, grid.n_steps
    probe_points = n_probe_times * ((points - 1) // x_stride + 1)
    n_levels, top, bottom = len(levels), max(levels), min(levels)
    stacked = max(2 * n_levels, len({bottom, bottom + 1.0, top, top + 1.0}) + 1)
    for what, amount, limit in (
        ("space-time points of full-lattice trajectories held at once",
         points * (steps + 1) * max(n_levels, 2), _MAX_TRAJECTORY),
        ("levels x cells x replications in one solver chunk",
         stacked * points * min(reps, _solver.chunk_replications(stacked, points)), _MAX_CHUNK_CELLS),
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
    else:
        steps = sorted({int(round(g.n_steps * i / cfg.probe_n_times)) for i in range(1, cfg.probe_n_times + 1)})
        steps = [s for s in steps if s > 0]
    xs = np.arange(0, g.n_points, cfg.probe_x_stride)
    return np.asarray(steps, dtype=int), xs


# -- constants ----------------------------------------------------------------


def _resolved(notes: dict, label: str, override, declared, estimate):
    """The config override, else the coefficient's declared value, else
    ``estimate()`` (a grid estimate, a lower bound); the source goes into notes."""
    if override is not None:
        notes[label] = "config override"
        return float(override)
    if declared is not None:
        notes[label] = "declared by coefficient"
        return float(declared)
    notes[label] = "grid estimate (lower bound)"
    return estimate()


def resolve_constants(cfg: ExperimentConfig):
    notes = {}
    b, sigma = cfg.drift, cfg.diffusion
    growth_b = _resolved(notes, "L_b", cfg.growth_b_override, b.declared_growth,
                         lambda: _coeff.linear_growth_constant(b))
    growth_sigma = _resolved(notes, "L_sigma", cfg.growth_sigma_override, sigma.declared_growth,
                             lambda: _coeff.linear_growth_constant(sigma))
    sigma_sup = None
    if cfg.bounded_sigma:
        sigma_sup = _resolved(notes, "sigma_sup", cfg.sigma_sup_override, sigma.declared_sup,
                              lambda: _coeff._sup_abs(sigma, 1000.0))
    constants = _bounds.ProblemConstants(
        drift_growth=growth_b,
        diffusion_growth=growth_sigma,
        u0_sup=cfg.u0.bound,
        diffusion_sup=sigma_sup,
        proof_constant=cfg.proof_constant,
    )
    if cfg.inflate_diffusion:
        inflated = constants.inflate_diffusion_growth()
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


class Record(NamedTuple):
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


_RECORD_FIELDS = Record._fields
# one record of the "records" array as json.dumps(indent=2, sort_keys=True) lays it out
_JSON_KEYS = tuple(sorted(_RECORD_FIELDS))
_JSON_ROW = "    {\n" + ",\n".join(f"      {json.dumps(k)}: %s" for k in _JSON_KEYS) + "\n    }"


def _record(cfg: ExperimentConfig, experiment: str, N, verdict: str, k=None, t=None, x=None,
            estimate=None, ci_lo=None, ci_hi=None, bound_log=None) -> Record:
    """One result row of ``cfg``; the coordinates N, k, t, x are stored as floats."""
    k, t, x = (None if v is None else float(v) for v in (k, t, x))
    return Record(experiment=experiment, N=float(N), k=k, t=t, x=x, estimate=estimate, ci_lo=ci_lo,
                  ci_hi=ci_hi, bound_log=bound_log, verdict=verdict, seed=cfg.seed, config_hash=cfg.hash16)


# the experiments that produce a ResultSet; the name and the config hash make up exported file names
_EXPERIMENT_NAMES = ("verify-moments", "verify-tails", "convergence", "uniqueness")
_HEX = re.compile("[0-9a-f]+")
_EMPTY = object()  # a ResultSet field not given


class _ResultFields(NamedTuple):
    experiment: str
    records: list
    diagnostics: dict
    provenance: dict


class ResultSet(_ResultFields):
    __slots__ = ()

    def __new__(cls, experiment, records, diagnostics=_EMPTY, provenance=_EMPTY):
        """``diagnostics`` and ``provenance`` default to a new empty dict each."""
        diagnostics = {} if diagnostics is _EMPTY else diagnostics
        provenance = {} if provenance is _EMPTY else provenance
        return super().__new__(cls, experiment, records, diagnostics, provenance)

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
        """Inverse of :meth:`to_dict`.  Raises ValueError on an experiment name
        or config hash that no run writes, as they would make an unsafe file name."""
        experiment = doc["experiment"]
        if experiment not in _EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {experiment!r}")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("provenance must be an object")
        config_hash = provenance.get("config_hash")
        if "config_hash" in provenance and not (isinstance(config_hash, str) and _HEX.fullmatch(config_hash)):
            raise ValueError(f"provenance.config_hash {config_hash!r} is not lowercase hex")
        return cls(
            experiment=experiment,
            records=[Record(**r) for r in doc["records"]],
            diagnostics=doc.get("diagnostics", {}),
            provenance=provenance,
        )

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)`` plus a newline."""
        return _json_text(self, _spelled(self.records))

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
        "noise_stream": NOISE_STREAM,
        "package_version": __version__,
        "grid": g.describe(),
        "replications": cfg.replications,
        "levels": list(cfg.levels),
        "orders": list(cfg.orders),
        "probe_times": [s * g.dt for s in np.asarray(probe_steps).tolist()],
        "probe_xs": [-g.R + j * g.dx for j in np.asarray(probe_x_idx).tolist()],
        "aborted": [a._asdict() for a in aborted],
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


def _solve(*args, **kwargs):
    """:func:`solver.solve_batch`, with a coefficient's failure raised as an :class:`ExperimentError`."""
    try:
        return _solver.solve_batch(*args, **kwargs)
    except ArithmeticError as err:
        # coefficient domain violation (log of a non-positive state, ...):
        # the whole batch shares the failure, unlike per-replication overflow
        raise ExperimentError(f"coefficient evaluation failed during simulation: {err}") from err


def _collect(cfg: ExperimentConfig, levels, probe_steps, probe_x_idx, threads=1, pairs=()):
    """Solve all replications at every given clamp level in one :func:`solver.solve_batch` pass,
    tracking the coupled ``pairs`` of those levels.

    The solver chunks the replications and runs the chunks on up to
    ``threads`` threads; neither changes a bit of the result.
    """
    return _solve(levels, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid, cfg.seed, np.arange(cfg.replications),
                  probe_steps, probe_x_idx, pairs=pairs, threads=threads)


def _abort_budget(aborted, cfg):
    """Check the abort records of one level's or one coupled pair's run against the 1% budget; return them."""
    frac = len(aborted) / cfg.replications
    if frac > 0.01:
        first = aborted[0]
        raise ExperimentError(
            f"{len(aborted)} of {cfg.replications} replications aborted "
            f"(> 1% budget); first at replication {first.replication}, "
            f"step {first.step}, cell {first.cell}"
        )
    return aborted


# -- experiments ----------------------------------------------------------------


_ESTIMATE_FIELDS = {
    "verify-moments": attrgetter("power_mean", "power_lo", "power_hi"),
    "verify-tails": attrgetter("p_hat", "lo", "hi"),
}


def _judged_rows(records, cfg, experiment, bound_fn, constants, N, k, ens, estimates):
    """Append one row per probe of ``ens`` to ``records``, judging its estimate's upper end.

    ``estimates`` holds the probe estimates in (t, x) order.  The bound is
    asked once per probe time: of order k for verify-moments, of level N
    for verify-tails (k is None).
    """
    fields, judge, seed, tag = _ESTIMATE_FIELDS[experiment], _bounds.BoundReport.judge, cfg.seed, cfg.hash16
    estimates, xs = iter(estimates), ens.probe_xs.tolist()
    for t in ens.probe_times.tolist():
        outcome = bound_fn(N if k is None else k, t, constants)
        bound_log = None if outcome.bound is None else outcome.bound.log_value
        for x, est in zip(xs, estimates):
            estimate, lo, hi = fields(est)
            records.append(Record(experiment, N, k, t, x, estimate, lo, hi, bound_log,
                                  judge(outcome, hi), seed, tag))


def run_moment_verification(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    constants, notes = resolve_constants(cfg)
    _require(cfg.replications >= 30, "verify-moments needs at least 30 replications for CLT intervals")
    bound_fn, hint = (
        (_bounds.moment_bound_bounded_sigma, "use orders >= 2, and set constants.sigma_sup if the diffusion "
                                             "declares no sup-norm bound")
        if cfg.bounded_sigma else
        (_bounds.moment_bound_unbounded_sigma, "set constants.L_sigma, enable constants.inflate_L_sigma, "
                                               "or use bounded_sigma"))
    for k in cfg.orders:
        outcome = bound_fn(k, 0.0, constants)
        _require(outcome.valid, f"{outcome.failed_clause} ({hint})")

    probe_steps, probe_x_idx = _probe_indices(cfg)
    records = []
    aborted_all = []
    batch = _collect(cfg, cfg.levels, probe_steps, probe_x_idx, threads)
    for level in cfg.levels:
        aborted_all += _abort_budget(batch.aborted[(level,)], cfg)
        ens = _est.Ensemble.from_batch(batch, cfg.grid, level)
        for k in cfg.orders:
            _judged_rows(records, cfg, "verify-moments", bound_fn, constants, level, k, ens,
                         _est.moment_estimates(ens, k))
    min_margin = min((r.bound_log - math.log(r.ci_hi) for r in records
                      if r.verdict == "dominates" and r.ci_hi is not None and r.ci_hi > 0), default=math.inf)
    return ResultSet(
        experiment="verify-moments",
        records=records,
        diagnostics={
            "violations": sum(r.verdict == "violated" for r in records),
            "min_log_margin": None if math.isinf(min_margin) else min_margin,
            "bounded_regime": cfg.bounded_sigma,
        },
        provenance=_provenance(cfg, "verify-moments", probe_steps, probe_x_idx,
                               constants, notes, aborted_all),
    )


def run_tail_verification(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    constants, notes = resolve_constants(cfg)
    bound_fn = _bounds.tail_bound_bounded_sigma if cfg.bounded_sigma else _bounds.tail_bound_unbounded_sigma
    probe_steps, probe_x_idx = _probe_indices(cfg)
    outcomes = [bound_fn(N, s * cfg.grid.dt, constants) for N in cfg.levels for s in probe_steps]
    _require(any(o.valid for o in outcomes),
             f"no (N, t) combination passes the tail validity predicate: {outcomes[0].failed_clause}")

    records = []
    aborted_all = []
    # the tail statement concerns the level-(N+1) solution against e^N
    batch = _collect(cfg, tuple(sorted({level + 1.0 for level in cfg.levels})), probe_steps, probe_x_idx, threads)
    for level in cfg.levels:
        aborted_all += _abort_budget(batch.aborted[(level + 1.0,)], cfg)
        ens = _est.Ensemble.from_batch(batch, cfg.grid, level + 1.0)
        _judged_rows(records, cfg, "verify-tails", bound_fn, constants, level, None, ens,
                     _est.tail_estimates(ens, math.exp(level)))
    applicable = [r for r in records if r.verdict != "not-applicable"]
    return ResultSet(
        experiment="verify-tails",
        records=records,
        diagnostics={
            "violations": sum(r.verdict == "violated" for r in applicable),
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
    batch = _collect(cfg, tuple(union), probe_steps, probe_x_idx, threads,
                     pairs=[(level, level + 1.0) for level in cfg.levels])
    for level in sorted(cfg.levels):
        aborted_all += _abort_budget(batch.aborted[(level, level + 1.0)], cfg)
        pair = _est.PairEnsemble.from_batch(batch, cfg.grid, level)
        active = bool(np.any(pair.path_max_abs > math.exp(level)))
        max_diff = float(np.max(pair.sup_abs_diff)) if pair.count else math.nan
        if max_diff == 0.0 and plateau_level is None:
            plateau_level = float(level)
        verdict = "active-clamp" if active else "clamp-inactive"
        for k in cfg.orders:
            value = _est.coupled_sup_difference(pair, k, cfg.grid.T)
            table[float(k)].append((float(level), value, active))
            records.append(_record(cfg, "convergence", level, verdict, k=k, estimate=value))

    slopes = {}
    for k, rows in table.items():
        pts = [(N ** 1.5, math.log(v)) for N, v, active in rows if active and v > 0]
        # undefined with fewer than two active levels
        slopes[repr(float(k))] = _coeff._fit_line(*zip(*pts))[0] if len(pts) >= 2 else None

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
            "thresholds": thresholds._asdict(),
        },
        provenance=_provenance(cfg, "convergence", probe_steps, probe_x_idx,
                               constants, notes, aborted_all),
    )


def run_uniqueness_coupling(cfg: ExperimentConfig, threads: int = 1) -> ResultSet:
    probe_steps, probe_x_idx = _probe_indices(cfg)
    records = []
    diag = {"checked_replications": [], "active_clamp_rows": 0}
    top, bottom = max(cfg.levels), min(cfg.levels)
    g = cfg.grid
    reps = np.arange(min(cfg.replications, 4))

    def fresh_pair():
        # independently constructed coefficient objects: re-parse expression text
        return _coeff.Coefficient.from_source(cfg.raw["b"]), _coeff.Coefficient.from_source(cfg.raw["sigma"])

    b1, s1 = fresh_pair()
    b2, s2 = fresh_pair()
    # one pass over every checked replication, keeping no lattice: every level the checks
    # read under the first coefficient pair, and the top level under the second pair as
    # its own coefficient group, the re-solve compared with the first pair's top level
    # through the same-level pair (top, top)
    first = _solve(tuple(sorted({bottom, bottom + 1.0, top, top + 1.0})), b1, s1, cfg.u0, g, cfg.seed, reps, (), (),
                   pairs=[(bottom, bottom + 1.0), (top, top + 1.0), (top, top)],
                   threads=threads, groups=[((top,), b2, s2)])
    (second,) = first.groups
    path_max, sup_diff, aborted = first.path_max_abs, first.sup_abs_diff, first.aborted
    reparse_diff, aborted_2 = second.sup_abs_diff[(top, top)], second.aborted[(top,)]

    def raise_first_abort(aborted, rep):
        for a in aborted:
            if a.replication == rep:
                raise _solver.SolverBlowupError(a.step, a.cell)

    for rep in reps.tolist():
        # each replication's first abort is raised in this order: top under
        # each coefficient pair, then the pair at top, then the pair at bottom
        raise_first_abort(aborted[(top,)], rep)
        raise_first_abort(aborted_2, rep)
        # two finite runs (an abort was raised above) are identical exactly when their sup difference is 0
        if float(reparse_diff[rep]) != 0.0:
            _raise_first_difference(cfg, rep, f"re-parsed coefficients at level {top:g}, replication {rep}",
                                    [((top,), b1, s1), ((top,), b2, s2)])
        records.append(_record(cfg, "uniqueness", top, "identical", estimate=0.0))

        raise_first_abort(aborted[(top, top + 1.0)], rep)
        diff = float(sup_diff[(top, top + 1.0)][rep])
        if float(path_max[(top,)][rep]) < math.exp(top):
            # as above, for the finite pair run
            if diff != 0.0:
                _raise_first_difference(cfg, rep, f"levels {top:g} vs {top + 1:g}, replication {rep}",
                                        [((top, top + 1.0), b1, s1)])
            records.append(_record(cfg, "uniqueness", top, "identical", estimate=0.0))
        else:
            records.append(_record(cfg, "uniqueness", top, "recorded", estimate=diff))
            diag["active_clamp_rows"] += 1

        # documented active-clamp row at the lowest configured level
        if bottom < top:
            raise_first_abort(aborted[(bottom, bottom + 1.0)], rep)
            diff = float(sup_diff[(bottom, bottom + 1.0)][rep])
            verdict = "recorded" if diff > 0 else "identical"
            if diff > 0:
                diag["active_clamp_rows"] += 1
            records.append(_record(cfg, "uniqueness", bottom, verdict, estimate=diff))
        diag["checked_replications"].append(rep)

    return ResultSet(
        experiment="uniqueness",
        records=records,
        diagnostics=diag,
        provenance=_provenance(cfg, "uniqueness", probe_steps, probe_x_idx),
    )


def _raise_first_difference(cfg: ExperimentConfig, rep: int, what: str, runs):
    """Re-solve replication ``rep`` alone for each ``(levels, b, sigma)`` of ``runs``, one
    :func:`solver.solve_lattice` call per run, and raise at the first lattice point where the two
    trajectories differ.  ``runs`` is one coupled pair or two lone levels."""
    spec = NoiseSpec(seed=cfg.seed, replication=rep, grid=cfg.grid)
    trajs = []
    for levels, b, sigma in runs:
        pairs = [levels] if len(levels) == 2 else ()
        sol = _solver.solve_lattice(levels, b, sigma, cfg.u0, cfg.grid, spec, pairs=pairs)
        trajs += _solver.field_trajectories(sol, levels, b, sigma, cfg.u0, cfg.grid, spec)
    _assert_identical(*trajs, what)
    raise ExperimentError(f"pathwise uniqueness check for {what}: the batched pass and a re-solve "
                          "of the replication alone disagree")


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
    doc = verdict._asdict()
    doc["config_hash"] = cfg.config_hash
    doc["package_version"] = __version__
    return doc


# -- export ---------------------------------------------------------------------


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CSV_SPECIAL = re.compile('[,"\r\n]')  # the characters that make csv.writer quote a cell


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return float.__repr__(v)
    return str(v)


def _csv_quoted(cell: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([cell])
    return buf.getvalue()[:-1]


def _spell(column) -> tuple:
    """One record field's CSV cells and JSON values, each value spelled once: a column of floats, ints
    or strs in one map, any other column value by value.  The JSON values are None if one is no scalar."""
    types = set(map(type, column))
    if all(issubclass(t, float) for t in types):
        cells = list(map(float.__repr__, column))
        return cells, list(map(_JSON_NONFINITE.get, cells, cells))
    if types == {int}:
        cells = list(map(int.__repr__, column))
        return cells, cells
    if types == {str}:
        cells, values = column, list(map(_json_string, column))
    else:
        cells = list(map(_fmt, column))
        scalars = all(v is None or isinstance(v, (str, int, float)) for v in column)
        values = list(map(json.dumps, column)) if scalars else None
    if _CSV_SPECIAL.search("".join(cells)):
        cells = [_csv_quoted(c) if _CSV_SPECIAL.search(c) else c for c in cells]
    return cells, values


def _spelled(records) -> dict:
    """Every field of ``records`` spelled once for both result files: field -> (CSV cells, JSON values)."""
    return {f: _spell(list(map(attrgetter(f), records))) for f in _RECORD_FIELDS}


def _csv_text(spelled) -> str:
    lines = map(",".join, zip(*(spelled[c][0] for c in CSV_COLUMNS)))
    return "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"


def _json_text(results: ResultSet, spelled) -> str:
    """The records array, the bulk of the document, is laid out from ``spelled`` and spliced in as the
    last key; a record value that is no JSON scalar sends the whole document through json.dumps."""
    values = [spelled[k][1] for k in _JSON_KEYS]
    if None in values:
        return json.dumps(results.to_dict(), indent=2, sort_keys=True) + "\n"
    rows = ",\n".join(map(_JSON_ROW.__mod__, zip(*values)))
    records = f"[\n{rows}\n  ]" if rows else "[]"
    rest = {"experiment": results.experiment, "diagnostics": results.diagnostics, "provenance": results.provenance}
    head = json.dumps(rest, indent=2, sort_keys=True)
    return f'{head[:-2]},\n  "records": {records}\n}}\n'


def render_csv(results: ResultSet) -> str:
    """csv.writer's table of the ``_fmt`` of each record value under a ``CSV_COLUMNS`` header."""
    return _csv_text(_spelled(results.records))


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
    spelled = _spelled(results.records)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if "csv" in formats:
            p = os.path.join(out_dir, base + ".csv")
            with open(p, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_text(spelled))
            paths.append(p)
            if results.experiment == "convergence":
                p = os.path.join(out_dir, base + "_plot.csv")
                with open(p, "w", encoding="utf-8", newline="") as fh:
                    fh.write(render_convergence_plot_csv(results))
                paths.append(p)
        if "json" in formats:
            p = os.path.join(out_dir, base + ".json")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(_json_text(results, spelled))
            paths.append(p)
    except OSError as err:
        raise ExportError(f"cannot write results to {out_dir}: {err}") from err
    return paths
