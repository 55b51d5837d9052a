"""Monte Carlo statistics over replication ensembles.

An :class:`Ensemble` holds solution samples at a declared probe lattice (a
subset of (time, space) points) for every completed replication; aborted
replications are excluded from estimates but stay on the abort list.  The
estimators are

* ``lk_norm``: sample moment E|u(t,x)|^k with a CLT confidence interval,
  reported both as the raw power mean and as its k-th root,
* ``moment_estimates``: ``lk_norm`` at every probe of an ensemble in one
  pass (what the moment experiment uses),
* ``weighted_norm``: max over probes of exp(-beta t) * ||u(t,x)||_k,
* ``tail_probability``: empirical exceedance frequency with a Wilson score
  interval (valid at zero counts),
* ``coupled_sup_difference``: max over probes of the k-norm of the pathwise
  difference between two clamp levels driven by common noise.

Moment sums are carried exactly (binary floats are scaled integers), so
estimates computed from replication shards merge to bit-identical values
regardless of shard boundaries.  The sums are bucketed integer sums, column
by column: ``np.frexp`` splits each value into a 53-bit integer mantissa and
an exponent, mantissas are added in int64 per (column, exponent) bucket with
at most 1023 rows per pass (1023 * 2^53 < 2^63), and the few buckets of a
column are folded into one Python integer by shifts.  The integers are the
exact sums of the values in units of 2^-1074, independent of how the
samples are split into passes or shards.  A pass holds at most 2^15
samples, so the working memory does not grow with the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Z_95",
    "ProbeError",
    "CouplingError",
    "MomentEstimate",
    "TailEstimate",
    "MomentAccumulator",
    "Ensemble",
    "PairEnsemble",
    "moment_estimates",
    "lk_norm",
    "weighted_norm",
    "tail_probability",
    "coupled_sup_difference",
    "wilson_interval",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

DEFAULT_ORDER_CAP = 8

# All finite float64 values are integer multiples of 2^-1074.
_DEN_BITS = 1074
_DEN = 1 << _DEN_BITS
_MANT_BITS = 53
_ROWS = 1023  # mantissas per int64 bucket: 1023 * 2^53 < 2^63
_BLOCK = 1 << 15  # samples per pass; bounds the working memory


class ProbeError(KeyError):
    pass


class CouplingError(ValueError):
    pass


def _bucket_sums(y: np.ndarray) -> np.ndarray:
    """Exact column sums of a finite block of at most ``_ROWS`` rows.

    Returns one Python integer per column, in units of 2^-(1074 + 53).
    """
    frac, exp = np.frexp(y)
    mant = np.ldexp(frac, _MANT_BITS).astype(np.int64).ravel()
    # one key per (column, exponent); exp + 1074 lies in [1, 2098] for finite values
    key = ((np.arange(y.shape[1], dtype=np.int64) << 12) + (exp + _DEN_BITS)).ravel()
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(mant[order], first).astype(object)
    key = key[first]
    terms = sums << (key & 0xFFF).astype(object)
    col = key >> 12
    first = np.flatnonzero(np.diff(col, prepend=-1))
    out = np.zeros(y.shape[1], dtype=object)
    out[col[first]] = np.add.reduceat(terms, first)
    return out


def _raise_nonfinite(x: np.ndarray, order: float):
    """Raise what ``float.as_integer_ratio`` raises for the first non-finite
    power or squared power, scanning column by column."""
    for col in x.T:
        y = np.abs(col) ** order
        for v in (y, y * y):
            bad = ~np.isfinite(v)
            if bad.any():
                float(v[bad.argmax()]).as_integer_ratio()  # ValueError (NaN) or OverflowError


def _power_sums(x: np.ndarray, order: float):
    """Exact sums of |x|^order and of its square down each column of a 2-D
    array, as integers in units of 2^-1074."""
    n, m = x.shape
    width = max(1, _BLOCK // max(1, min(n, _ROWS)))
    sum_pow = np.zeros(m, dtype=object)
    sum_sq = np.zeros(m, dtype=object)
    for c0 in range(0, m, width):
        cols = x[:, c0:c0 + width]
        for r0 in range(0, n, _ROWS):
            y = np.abs(cols[r0:r0 + _ROWS]) ** order
            y2 = y * y
            if not np.isfinite(y2).all():
                _raise_nonfinite(cols, order)
            sum_pow[c0:c0 + width] += _bucket_sums(y)
            sum_sq[c0:c0 + width] += _bucket_sums(y2)
    return [int(v) >> _MANT_BITS for v in sum_pow], [int(v) >> _MANT_BITS for v in sum_sq]


def _exact_float(total: int, scale: int = 1) -> float:
    return float(Fraction(total, _DEN * scale))


def _columns(samples: np.ndarray) -> np.ndarray:
    """(replications, ...) samples as a (replications, probes) array."""
    return samples.reshape(samples.shape[0], math.prod(samples.shape[1:]))


def _column_estimates(x: np.ndarray, k: float) -> list:
    sums = zip(*_power_sums(x, k))
    return [MomentAccumulator(k, x.shape[0], s_pow, s_sq).estimate() for s_pow, s_sq in sums]


@dataclass
class MomentAccumulator:
    """Exact shard-mergeable sums of |u|^k and its square."""

    order: float
    count: int = 0
    _sum_pow: int = 0
    _sum_sq: int = 0

    def add(self, samples) -> "MomentAccumulator":
        x = np.asarray(samples, dtype=float).reshape(-1, 1)
        (s_pow,), (s_sq,) = _power_sums(x, self.order)
        self.count += x.shape[0]
        self._sum_pow += s_pow
        self._sum_sq += s_sq
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if other.order != self.order:
            raise ValueError("cannot merge accumulators of different orders")
        out = MomentAccumulator(self.order)
        out.count = self.count + other.count
        out._sum_pow = self._sum_pow + other._sum_pow
        out._sum_sq = self._sum_sq + other._sum_sq
        return out

    def estimate(self) -> "MomentEstimate":
        n = self.count
        if n == 0:
            raise ValueError("no samples accumulated")
        mean = _exact_float(self._sum_pow, n)
        mean_sq = _exact_float(self._sum_sq, n)
        if n >= 2:
            variance = max(0.0, (mean_sq - mean * mean) * n / (n - 1))
        else:
            variance = math.nan
        return MomentEstimate.from_power_mean(self.order, n, mean, variance)


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate and 95% CLT interval for E|u(t,x)|^k and its k-th root."""

    order: float
    count: int
    power_mean: float
    power_lo: float | None
    power_hi: float | None
    root_mean: float
    root_lo: float | None
    root_hi: float | None
    rel_half_width: float | None
    flags: tuple = ()

    @classmethod
    def from_power_mean(cls, order, count, mean, variance):
        flags = []
        if count < 30:
            # too few replications for a trustworthy CLT interval
            flags.append("no-interval")
            lo = hi = None
            rhw = None
        else:
            hw = Z_95 * math.sqrt(variance / count)
            lo, hi = max(0.0, mean - hw), mean + hw
            rhw = hw / mean if mean > 0 else math.inf
            if rhw > 0.5:
                flags.append("high-variance")
        root = mean ** (1.0 / order)
        return cls(
            order=order,
            count=count,
            power_mean=mean,
            power_lo=lo,
            power_hi=hi,
            root_mean=root,
            root_lo=None if lo is None else lo ** (1.0 / order),
            root_hi=None if hi is None else hi ** (1.0 / order),
            rel_half_width=rhw,
            flags=tuple(flags),
        )


@dataclass(frozen=True)
class TailEstimate:
    threshold: float
    count: int
    exceedances: int
    p_hat: float
    lo: float
    hi: float


def wilson_interval(successes: int, n: int, z: float = Z_95):
    """Wilson score interval for a binomial proportion; valid at 0 and n."""
    if n <= 0:
        raise ValueError("need at least one trial")
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    hw = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # at the boundary counts the exact interval ends are 0 and 1
    lo = 0.0 if successes == 0 else max(0.0, center - hw)
    hi = 1.0 if successes == n else min(1.0, center + hw)
    return lo, hi


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _first_close(points: np.ndarray, v: float):
    """Index of the first of ``points`` within ``_close`` of v, or None."""
    points = np.asarray(points, dtype=float)
    scale = np.maximum(np.maximum(np.abs(points), abs(v)), 1.0)
    hits = np.flatnonzero(np.abs(points - v) <= 1e-9 * scale)
    return int(hits[0]) if hits.size else None


@dataclass
class Ensemble:
    """Samples of one clamp level's solution at the probe lattice."""

    probe_times: np.ndarray  # (nt,) lattice times, strictly positive except optional t=0
    probe_xs: np.ndarray  # (nx,)
    samples: np.ndarray  # (n_replications, nt, nx), completed replications only
    level: float | None = None
    horizon: float | None = None
    provenance: dict = field(default_factory=dict)
    aborted: list = field(default_factory=list)
    path_max_abs: np.ndarray | None = None

    @classmethod
    def from_samples(cls, samples, probe_times, probe_xs, **kw) -> "Ensemble":
        samples = np.asarray(samples, dtype=float)
        return cls(
            probe_times=np.asarray(probe_times, dtype=float),
            probe_xs=np.asarray(probe_xs, dtype=float),
            samples=samples,
            **kw,
        )

    @classmethod
    def from_batch(cls, batch, grid, level=None, provenance=None) -> "Ensemble":
        """The batch's solve at clamp level ``level`` (default: its lowest level)."""
        level = batch.levels[0] if level is None else float(level)
        vals = batch.samples[batch.levels.index(level)]
        ok = np.isfinite(vals).all(axis=(1, 2))
        return cls(
            probe_times=batch.probe_step_idx * grid.dt,
            probe_xs=-grid.R + batch.probe_x_idx * grid.dx,
            samples=vals[ok],
            level=level,
            horizon=grid.T,
            provenance=provenance or {},
            aborted=list(batch.aborted[(level,)]),
            path_max_abs=batch.path_max_abs[(level,)][ok],
        )

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    def probe_index(self, t: float, x: float):
        """First probe time and first probe x within ``_close`` of (t, x)."""
        it, ix = _first_close(self.probe_times, t), _first_close(self.probe_xs, x)
        if it is None or ix is None:
            raise ProbeError(f"({t}, {x}) is not a probe point of this ensemble")
        return it, ix

    def samples_at(self, t: float, x: float) -> np.ndarray:
        it, ix = self.probe_index(t, x)
        return self.samples[:, it, ix]


def _check_order(k: float, order_cap: int):
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if k > order_cap:
        raise ValueError(f"moment order {k} exceeds the cap {order_cap}; high orders are variance-fragile")


def _times_in_window(probe_times: np.ndarray, T: float) -> list:
    keep = [it for it, pt in enumerate(probe_times) if 0 < pt <= T * (1 + 1e-12)]
    if not keep:
        raise ValueError(f"no probe times in (0, {T}]")
    return keep


def moment_estimates(ensemble: Ensemble, k: float,
                     order_cap: int = DEFAULT_ORDER_CAP) -> list:
    """``lk_norm`` at every probe of the ensemble, in (t, x) order, in one pass."""
    _check_order(k, order_cap)
    return _column_estimates(_columns(ensemble.samples), k)


def lk_norm(ensemble: Ensemble, k: float, t: float, x: float,
            order_cap: int = DEFAULT_ORDER_CAP) -> MomentEstimate:
    """Sample estimate of E|u(t,x)|^k, reported with its k-th root."""
    _check_order(k, order_cap)
    return MomentAccumulator(k).add(ensemble.samples_at(t, x)).estimate()


def weighted_norm(ensemble: Ensemble, k: float, beta: float, T: float,
                  order_cap: int = DEFAULT_ORDER_CAP) -> float:
    """Lattice version of the exponentially weighted norm on (0, T]."""
    if beta <= 0:
        raise ValueError("weight exponent beta must be positive")
    if ensemble.horizon is not None and T > ensemble.horizon * (1 + 1e-12):
        raise ValueError(f"T={T} exceeds the ensemble horizon {ensemble.horizon}")
    keep = _times_in_window(ensemble.probe_times, T)
    _check_order(k, order_cap)
    estimates = iter(_column_estimates(_columns(ensemble.samples[:, keep]), k))
    return max(
        math.exp(-beta * ensemble.probe_times[it]) * next(estimates).root_mean
        for it in keep for _ in ensemble.probe_xs
    )


def tail_probability(ensemble: Ensemble, threshold: float, t: float, x: float) -> TailEstimate:
    """Empirical P{|u(t,x)| >= threshold} with a Wilson 95% interval."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    vals = ensemble.samples_at(t, x)
    n = vals.size
    hits = int(np.count_nonzero(np.abs(vals) >= threshold))
    lo, hi = wilson_interval(hits, n)
    return TailEstimate(threshold=threshold, count=n, exceedances=hits, p_hat=hits / n, lo=lo, hi=hi)


@dataclass
class PairEnsemble:
    """Pathwise differences u_{N+1} - u_N under common noise, at the probes."""

    level_low: float
    level_high: float
    probe_times: np.ndarray
    probe_xs: np.ndarray
    diff_samples: np.ndarray  # (n, nt, nx)
    sup_abs_diff: np.ndarray  # (n,) over the whole lattice
    path_max_abs: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)
    aborted: list = field(default_factory=list)

    @classmethod
    def from_batch(cls, batch, grid, level=None, provenance=None) -> "PairEnsemble":
        """The batch's coupled pair (N, N + 1) at ``N = level`` (default: its lowest level)."""
        key = batch.levels[0] if level is None else float(level)
        key = (key, key + 1.0)
        if key not in batch.sup_abs_diff:
            raise CouplingError(f"batch has no coupled pair of levels {key}")
        diff = batch.samples[batch.levels.index(key[1])] - batch.samples[batch.levels.index(key[0])]
        ok = np.isfinite(diff).all(axis=(1, 2))
        return cls(
            level_low=key[0],
            level_high=key[1],
            probe_times=batch.probe_step_idx * grid.dt,
            probe_xs=-grid.R + batch.probe_x_idx * grid.dx,
            diff_samples=diff[ok],
            sup_abs_diff=batch.sup_abs_diff[key][ok],
            path_max_abs=batch.path_max_abs[key][ok],
            provenance=provenance or {},
            aborted=list(batch.aborted[key]),
        )

    @classmethod
    def from_trajectory_pairs(cls, pairs, probe_times, probe_xs) -> "PairEnsemble":
        """Build from (low, high) FieldTrajectory pairs; validates the coupling."""
        diffs, sups = [], []
        lv_lo = lv_hi = None
        for low, high in pairs:
            if low.noise_spec != high.noise_spec:
                raise CouplingError(
                    f"trajectories are not coupled: noise specs differ "
                    f"({low.noise_spec} vs {high.noise_spec})"
                )
            if not _close(high.level, low.level + 1.0):
                raise CouplingError(f"levels {low.level} and {high.level} are not consecutive")
            if lv_lo is None:
                lv_lo, lv_hi = low.level, high.level
            elif not (_close(low.level, lv_lo) and _close(high.level, lv_hi)):
                raise CouplingError("mixed clamp levels in one pair ensemble")
            d = high.values - low.values
            sups.append(float(np.max(np.abs(d))))
            rows = [low.grid.t_index(t) for t in probe_times]
            cols = [low.grid.x_index(x) for x in probe_xs]
            diffs.append(d[np.ix_(rows, cols)])
        return cls(
            level_low=lv_lo,
            level_high=lv_hi,
            probe_times=np.asarray(probe_times, dtype=float),
            probe_xs=np.asarray(probe_xs, dtype=float),
            diff_samples=np.asarray(diffs),
            sup_abs_diff=np.asarray(sups),
        )

    @property
    def count(self) -> int:
        return self.diff_samples.shape[0]


def coupled_sup_difference(pair: PairEnsemble, k: float, T: float,
                           order_cap: int = DEFAULT_ORDER_CAP) -> float:
    """Max over probes with t <= T of the k-norm of the coupled difference."""
    if pair.count == 0:
        raise ValueError("no completed replication pairs")
    keep = _times_in_window(pair.probe_times, T)
    estimates = _column_estimates(_columns(pair.diff_samples[:, keep]), k)
    return max([0.0] + [est.root_mean for est in estimates])
