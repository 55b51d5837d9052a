"""Drift/diffusion coefficients: parsing, clamping, and constant estimation.

A :class:`Coefficient` is an evaluable space-time function ``psi(t, x)``
built either from expression source text (see :mod:`shelab.expr`) or from a
named builtin.  The module provides

* the clamp operator that replaces ``psi`` by ``psi(t, clip(x, -e^N, e^N))``
  for a positive clamp level ``N``,
* grid estimators for the linear-growth constant ``sup |psi(t,x)|/(1+|x|)``
  and for the local Lipschitz constant on ``[-n, n]`` (both are lower bounds
  obtained from adjacent-point difference quotients), and
* a finite-evidence checker for the regularity conditions that relate the
  local Lipschitz constants of the drift and the diffusion as the clamp
  level grows.

Estimator grids consist of integer multiples of the resolution step, so
grids at the same step nest across window sizes and refinements halve the
step exactly; both monotonicity properties then hold exactly in floating
point.  The default step is a power of two for the same reason.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import expr as _expr

__all__ = [
    "DEFAULT_TIME_GRID",
    "DEFAULT_RESOLUTION",
    "Coefficient",
    "TruncationLevel",
    "AssumptionVerdict",
    "BUILTINS",
    "truncated_fn",
    "linear_growth_constant",
    "local_lipschitz_constant",
    "level_constants",
    "check_assumption",
]

# Coefficients may depend on t; constants are maximised over this grid (over
# its first time alone for an expression that never reads t).
DEFAULT_TIME_GRID = (0.01, 0.1, 0.5, 1.0)

# 2^-11: power of two so that refinement halving and window nesting are exact.
DEFAULT_RESOLUTION = 2.0 ** -11

_MAX_GRID_POINTS = 20_000_000
# an estimator generates and evaluates its grid this many points at a time, so
# its working set does not grow with the window
_CHUNK_POINTS = 1 << 14


class _LevelFields(NamedTuple):
    level: float


class TruncationLevel(_LevelFields):
    """Clamp level ``N``; state arguments are clipped to [-e^N, e^N].

    ``N = 0`` (clamp bound 1) is allowed as a boundary case.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.level >= 0 and math.isfinite(self.level)):
            raise ValueError(f"clamp level must be non-negative and finite, got {self.level}")
        return self

    @property
    def clamp_bound(self) -> float:
        return math.exp(self.level)


def _as_level(level) -> TruncationLevel:
    if isinstance(level, TruncationLevel):
        return level
    return TruncationLevel(float(level))


class _CoefficientFields(NamedTuple):
    name: str
    ast: _expr.Node | None = None
    declared_growth: float | None = None
    declared_sup: float | None = None


class Coefficient(_CoefficientFields):
    """Evaluable space-time function with optional declared constants.

    ``declared_growth`` is a user-supplied upper bound for the linear-growth
    constant; the grid estimator below never exceeds it by more than its own
    tolerance, which the test suite enforces for the builtins.
    ``declared_sup`` is a sup-norm bound for bounded coefficients.  Outside
    equality, hashing and repr: ``fn``, a builtin's callable, and
    ``compiled``, this object's own compiled form of ``ast``, never shared
    between coefficients.
    """

    # fn comes last, after the fields in their order: copy and pickle pass those positionally
    def __new__(cls, name, ast=None, declared_growth=None, declared_sup=None, fn=None):
        self = super().__new__(cls, name, ast, declared_growth, declared_sup)
        self.fn = fn
        self.compiled = None if ast is None else _expr.Compiled(ast)
        return self

    @classmethod
    def parse(cls, source: str) -> "Coefficient":
        return cls(name=source, ast=_expr.parse(source))

    @classmethod
    def from_source(cls, source: str) -> "Coefficient":
        """Builtin name if registered, otherwise parsed expression text."""
        if source in BUILTINS:
            return BUILTINS[source]
        return cls.parse(source)

    @classmethod
    def from_callable(cls, name: str, fn, **declared) -> "Coefficient":
        return cls(name=name, fn=fn, **declared)

    def on_box(self, t_max: float, bound: float):
        """This coefficient for calls with ``t`` in [0, t_max] and every ``x`` in
        [-bound, bound] alone: an expression's :meth:`~shelab.expr.Compiled.on_box`
        form, still called through ``expr.evaluate``; a builtin as it is."""
        if self.ast is None:
            return self
        boxed = self.compiled.on_box(t_max, bound)
        return lambda t, x: _expr.evaluate(boxed, t, x)

    def __call__(self, t, x):
        if self.ast is not None:
            return _expr.evaluate(self.compiled, t, x)
        out = self.fn(float(t), np.asarray(x, dtype=float))
        return np.asarray(out, dtype=float)


def _builtin(name, fn, **declared):
    return Coefficient.from_callable(name, fn, **declared)


BUILTINS = {
    "zero": _builtin("zero", lambda t, x: np.zeros_like(x), declared_growth=0.0, declared_sup=0.0),
    "one": _builtin("one", lambda t, x: np.ones_like(x), declared_growth=1.0, declared_sup=1.0),
    "linear": _builtin("linear", lambda t, x: x + 0.0, declared_growth=1.0),
    "affine": _builtin("affine", lambda t, x: 1.0 + 0.5 * x, declared_growth=1.0),
    # quadratic near the origin, asymptotically 8|x|: locally Lipschitz with
    # Lip_n growing to ~16 while keeping linear growth
    "clipped_poly": _builtin(
        "clipped_poly", lambda t, x: x * x / (1.0 + np.abs(x) / 8.0), declared_growth=8.0
    ),
    # rapidly oscillating bounded diffusion with Lip_n ~ 250 for all n
    "oscillator": _builtin(
        "oscillator",
        lambda t, x: np.sin(1000.0 * (1.0 + np.abs(x)) ** 0.25),
        declared_growth=1.0,
        declared_sup=1.0,
    ),
}


def truncated_fn(psi: Coefficient, level):
    """Vectorised ``(t, x) -> psi(t, clip(x))`` closure for the solver loop."""
    bound = _as_level(level).clamp_bound

    def clamped(t, x):
        return psi(t, np.clip(x, -bound, bound))

    return clamped


class _StepGrid:
    """An estimation grid, generated on demand: ``lo`` when ``head``, the
    integer multiples ``k * resolution`` for k in ``k_lo .. k_lo + n_inner - 1``,
    then ``hi`` when ``tail``.  The multiples lie inside [lo, hi] and increase with k."""

    __slots__ = ("lo", "hi", "resolution", "k_lo", "n_inner", "head", "tail")

    def __init__(self, lo: float, hi: float, resolution: float, include_ends: bool):
        """Integer multiples of ``resolution`` inside [lo, hi], optionally with the ends."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        n_est = (hi - lo) / resolution
        if n_est > _MAX_GRID_POINTS:
            # keep the work bounded on very wide windows; still a valid lower bound
            resolution = (hi - lo) / _MAX_GRID_POINTS
            warnings.warn(f"estimation grid coarsened to step {resolution:g} on [{lo:g}, {hi:g}]")
        k_lo = math.ceil(lo / resolution - 1e-12)
        k_hi = math.floor(hi / resolution + 1e-12)
        # k * resolution increases with k: drop the multiples the tolerances let outside [lo, hi]
        while k_lo <= k_hi and k_lo * resolution < lo:
            k_lo += 1
        while k_hi >= k_lo and k_hi * resolution > hi:
            k_hi -= 1
        self.lo, self.hi, self.resolution, self.k_lo, self.n_inner = lo, hi, resolution, k_lo, k_hi - k_lo + 1
        # add each end unless it is already a multiple on the grid
        self.head = include_ends and (self.n_inner == 0 or k_lo * resolution != lo)
        self.tail = include_ends and hi != (k_hi * resolution if self.n_inner else lo)
        if self.size < 2:
            raise ValueError(f"window [{lo}, {hi}] has fewer than two grid points at step {resolution}")

    @property
    def size(self) -> int:
        return self.head + self.n_inner + self.tail

    def points(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Grid points ``start`` to ``stop - 1`` (by default all of them), increasing."""
        stop = self.size if stop is None else stop
        k0 = self.k_lo + max(start - self.head, 0)
        k1 = self.k_lo + min(stop - self.head, self.n_inner)
        pts = np.arange(k0, k1, dtype=float) * self.resolution
        head = [self.lo] if self.head and start == 0 else []
        tail = [self.hi] if self.tail and stop == self.size else []
        return np.concatenate([head, pts, tail]) if head or tail else pts

    def chunks(self, overlap: int = 0):
        """The grid in consecutive runs of at most ``_CHUNK_POINTS + overlap`` points; each run
        after the first repeats the last ``overlap`` points of the one before."""
        for start in range(0, self.size - overlap, _CHUNK_POINTS):
            yield self.points(start, min(start + _CHUNK_POINTS + overlap, self.size))


def _times(psi) -> tuple:
    """The times of ``DEFAULT_TIME_GRID`` a constant is maximised over: only
    the first for an expression that never reads ``t`` (its values are the
    same at every time), all of them otherwise."""
    if psi.compiled is not None and not psi.compiled.reads_t:
        return DEFAULT_TIME_GRID[:1]
    return DEFAULT_TIME_GRID


def _eval_checked(psi, t, xs):
    try:
        vals = np.asarray(psi(t, xs), dtype=float)
    except _expr.EvalDomainError as err:
        raise ArithmeticError(f"{psi.name}: {err} somewhere on the estimation grid at t={t}") from err
    if psi.ast is None:  # an expression's checked path has already raised on a non-finite value
        bad = ~np.isfinite(vals)
        if bad.any():
            j = int(np.argmax(bad))
            raise ArithmeticError(f"{psi.name} is non-finite at (t={t}, x={xs[j]})")
    return vals


def _grid_values(psi, grid: _StepGrid, overlap: int = 0):
    """``(xs, psi(t, xs))`` for each time of ``_times(psi)`` and each run of ``grid.chunks(overlap)``.

    A failure raises the error a whole-grid evaluation meets first: two runs
    can fail at different expression checks, and the whole grid fails at
    the one that comes first in evaluation order (a domain check before the
    finiteness check).  So once a run fails, the time's other runs are
    evaluated too, run by run, and the failure of least
    ``EvalDomainError.rank`` is raised; of equal ranks the first run's,
    which names a builtin's first non-finite point.
    """
    for t in _times(psi):
        failure = None
        for xs in grid.chunks(overlap):
            try:
                vals = _eval_checked(psi, t, xs)
            except ArithmeticError as err:
                if failure is None or _rank(err) < _rank(failure):
                    failure = err
                continue
            if failure is None:
                yield xs, vals
        if failure is not None:
            raise failure


def _rank(err) -> float:
    """Where the check behind an ``_eval_checked`` error comes in evaluation order (see ``EvalDomainError``)."""
    return getattr(err.__cause__, "rank", math.inf)


def linear_growth_constant(
    psi: Coefficient,
    domain=(-1000.0, 1000.0),
    resolution: float | None = None,
) -> float:
    """Grid maximum of ``|psi(t,x)|/(1+|x|)`` over ``DEFAULT_TIME_GRID`` and the
    domain; a lower bound for the true sup."""
    lo, hi = float(domain[0]), float(domain[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"domain must be a finite interval, got {domain}")
    if resolution is None:
        resolution = max(DEFAULT_RESOLUTION, (hi - lo) / 2.0 ** 16)
    grid = _StepGrid(lo, hi, resolution, include_ends=True)
    return max(float(np.max(np.abs(vals) / (1.0 + np.abs(xs)))) for xs, vals in _grid_values(psi, grid))


def local_lipschitz_constant(
    psi: Coefficient,
    n: float,
    resolution: float = DEFAULT_RESOLUTION,
) -> float:
    """Max adjacent-point difference quotient of ``psi(t, .)`` on [-n, n] over
    the times of ``DEFAULT_TIME_GRID``.

    A lower bound for the best Lipschitz constant on the window.  The grid is
    the set of integer multiples of ``resolution`` inside the window, so
    windows nest exactly and halving the resolution refines in place.
    """
    if not (n > 0 and math.isfinite(n)):
        raise ValueError(f"window half-width must be positive and finite, got {n}")
    grid = _StepGrid(-n, n, resolution, include_ends=False)
    # runs overlap by one point, so every adjacent pair lies in one run
    return max(float(np.max(np.abs(np.diff(vals)) / np.diff(xs)))
               for xs, vals in _grid_values(psi, grid, overlap=1))


def level_constants(b: Coefficient, sigma: Coefficient, level):
    """Local Lipschitz constants of (b, sigma) on the clamp window [-e^N, e^N],
    at the default resolution."""
    n = _as_level(level).clamp_bound
    lip_b = local_lipschitz_constant(b, n)
    lip_sigma = local_lipschitz_constant(sigma, n)
    for name, val in ((b.name, lip_b), (sigma.name, lip_sigma)):
        if val == 0.0:
            warnings.warn(
                f"coefficient {name!r} has a zero Lipschitz estimate on [-{n:g}, {n:g}]; "
                "the regularity conditions assume strictly positive constants"
            )
    return lip_b, lip_sigma


class AssumptionVerdict(NamedTuple):
    """Finite-range evidence for the clamp-level regularity conditions.

    ``regime`` records which reference rate the diffusion constants were
    compared against: ``sigma-unbounded`` uses N^(3/8), ``sigma-bounded``
    uses e^(N/2).  Each clause gets its own verdict; asymptotic conditions
    are only ever sampled, so ``indeterminate`` is an honest outcome when a
    fitted slope is within noise of its threshold.  A ``ratio_drift`` entry
    is ``inf`` where its quotient overflows a float (a diffusion constant at
    or near 0, as for additive noise); the drift fit then reads the ratio's
    logarithm, ``log L_{N,b} - 4 log max(L_{N,sigma}, 1e-300)``.
    """

    regime: str
    levels: list
    lip_sigma: list
    lip_b: list
    ratio_sigma: list  # L_{N,sigma} / reference(N)
    ratio_drift: list  # L_{N,b} / max(L_{N,sigma}, 1e-300)^4
    slope_sigma: float
    slope_drift: float
    stderr_sigma: float
    stderr_drift: float
    clause_sigma: str  # pass | fail | indeterminate
    clause_drift: str
    verdict: str  # pass | fail | indeterminate
    notes: list


_SLOPE_TOL = 1e-3
_EPS = 1e-300  # floor of the constants and ratios whose logs are fitted


def _fit_line(xs, ys):
    """Least-squares line through ``(xs, ys)``: its slope and the slope's standard error
    (0 with two points), in closed form over ``math.fsum`` sums (exact, then correctly
    rounded), so no BLAS/LAPACK build or CPU dispatch moves a bit."""
    dx, dy = _centred(xs), _centred(ys)
    sxx = math.fsum(a * a for a in dx)
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    if len(dx) == 2:
        return slope, 0.0
    rss = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, math.sqrt(rss / (len(dx) - 2) / sxx)


def _centred(values):
    """``values`` minus their mean.  One fsum correction step makes the mean of
    equal values exact, which ``fsum(values) / n`` is not for n = 3, 5, 6, 7."""
    mean = math.fsum(values) / len(values)
    mean += math.fsum(v - mean for v in values) / len(values)
    return [v - mean for v in values]


def _is_constant(values, rel_tol):
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi == 0:
        return True
    return (hi - lo) / hi <= rel_tol


def check_assumption(b: Coefficient, sigma: Coefficient, levels) -> AssumptionVerdict:
    """Sample the clamp-level Lipschitz conditions over ``levels`` and classify.

    Verdict is ``fail`` outright when a sampled constant is non-finite or a
    linear-growth estimate keeps growing with the window size (no linear
    growth means the conditions cannot hold at all).
    """
    levels = [float(N) for N in levels]
    if len(levels) < 4:
        raise ValueError("need at least 4 sampled clamp levels")
    if any(b2 <= a2 for a2, b2 in zip(levels, levels[1:])):
        raise ValueError("clamp levels must be strictly increasing")
    if levels[0] <= 0:
        raise ValueError("clamp levels must be positive: the fit takes log N")

    notes = []
    n_max = math.exp(levels[-1])

    # linear growth must stabilise as the window widens
    for psi in (b, sigma):
        try:
            g_small = linear_growth_constant(psi, (-n_max, n_max))
            g_large = linear_growth_constant(psi, (-10 * n_max, 10 * n_max))
        except ArithmeticError as err:
            notes.append(str(err))
            return _failed_verdict(levels, notes)
        if g_large > 2.0 * max(g_small, 1e-300):
            notes.append(
                f"linear-growth estimate of {psi.name!r} diverges with window size "
                f"({g_small:.6g} -> {g_large:.6g})"
            )
            return _failed_verdict(levels, notes)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pairs = [level_constants(b, sigma, N) for N in levels]
    lip_b = [p[0] for p in pairs]
    lip_sigma = [p[1] for p in pairs]
    if not all(map(math.isfinite, lip_b + lip_sigma)):
        notes.append("non-finite Lipschitz constant on the sampled range")
        return _failed_verdict(levels, notes, lip_b=lip_b, lip_sigma=lip_sigma)
    if min(lip_sigma) == 0.0:
        notes.append("zero diffusion Lipschitz estimate on the range; ratio series floored at 1e-300")

    # bounded diffusion detection: sup |sigma| stops growing with the window
    sup_small = _sup_abs(sigma, math.exp(levels[0]))
    sup_large = _sup_abs(sigma, n_max)
    bounded = sup_large <= 1.05 * max(sup_small, 1e-300)
    regime = "sigma-bounded" if bounded else "sigma-unbounded"
    reference = (
        [math.exp(N / 2.0) for N in levels] if bounded else [N ** 0.375 for N in levels]
    )

    ratio_sigma = [ls / r for ls, r in zip(lip_sigma, reference)]
    ratio_drift, log_drift = zip(*(_drift_ratio(lb, ls) for lb, ls in zip(lip_b, lip_sigma)))

    safe_sigma = [max(r, _EPS) for r in ratio_sigma]
    log_levels = [math.log(N) for N in levels]  # math.log: np.log is SIMD-dispatched
    slope_sigma, err_sigma = _fit_line(log_levels, [math.log(r) for r in safe_sigma])
    slope_drift, err_drift = _fit_line(log_levels, log_drift)

    globally_lipschitz = _is_constant(lip_sigma, 1e-3) and _is_constant(lip_b, 1e-3)

    def classify(slope, stderr, threshold, allow_equal):
        # indeterminate when the fitted slope cannot be told apart from the threshold
        if abs(slope - threshold) <= max(2.0 * stderr, _SLOPE_TOL if not allow_equal else 0.0):
            if allow_equal and slope <= threshold + _SLOPE_TOL:
                return "pass"
            return "indeterminate"
        return "pass" if slope < threshold or (allow_equal and slope <= threshold) else "fail"

    clause_sigma = classify(slope_sigma, err_sigma, -_SLOPE_TOL, allow_equal=False)
    if clause_sigma != "pass" and globally_lipschitz and _is_constant(safe_sigma, 1e-3):
        # constant ratios with globally Lipschitz coefficients: nothing to prove
        clause_sigma = "pass"
        notes.append("constant Lipschitz estimates on the range: globally Lipschitz regime")
    clause_drift = classify(slope_drift, err_drift, _SLOPE_TOL, allow_equal=True)

    if "fail" in (clause_sigma, clause_drift):
        verdict = "fail"
    elif "indeterminate" in (clause_sigma, clause_drift):
        verdict = "indeterminate"
    else:
        verdict = "pass"

    return AssumptionVerdict(
        regime=regime,
        levels=levels,
        lip_sigma=lip_sigma,
        lip_b=lip_b,
        ratio_sigma=ratio_sigma,
        ratio_drift=list(ratio_drift),
        slope_sigma=slope_sigma,
        slope_drift=slope_drift,
        stderr_sigma=err_sigma,
        stderr_drift=err_drift,
        clause_sigma=clause_sigma,
        clause_drift=clause_drift,
        verdict=verdict,
        notes=notes,
    )


def _drift_ratio(lb, ls):
    """``L_{N,b} / max(L_{N,sigma}, 1e-300)^4`` and the log of its floor at 1e-300.

    Where the float quotient overflows to inf, or its denominator underflows
    to 0 (a diffusion constant of 0, as for additive noise), the ratio is inf
    and its log is taken as ``log L_{N,b} - 4 log max(L_{N,sigma}, 1e-300)``.
    """
    den = max(ls, _EPS) ** 4
    ratio = lb / den if den else (math.inf if lb else 0.0)
    if ratio < math.inf:
        return ratio, math.log(max(ratio, _EPS))
    return ratio, math.log(lb) - 4.0 * math.log(max(ls, _EPS))


def _sup_abs(psi, n):
    grid = _StepGrid(-n, n, max(DEFAULT_RESOLUTION, n / 2.0 ** 15), include_ends=True)
    return max(float(np.max(np.abs(vals))) for _, vals in _grid_values(psi, grid))


def _failed_verdict(levels, notes, lip_b=None, lip_sigma=None):
    return AssumptionVerdict(
        regime="unknown",
        levels=levels,
        lip_sigma=lip_sigma or [],
        lip_b=lip_b or [],
        ratio_sigma=[],
        ratio_drift=[],
        slope_sigma=math.nan,
        slope_drift=math.nan,
        stderr_sigma=math.nan,
        stderr_drift=math.nan,
        clause_sigma="fail",
        clause_drift="fail",
        verdict="fail",
        notes=notes,
    )
