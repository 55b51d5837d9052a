"""Monte Carlo statistics over replication ensembles.

An :class:`Ensemble` holds solution samples at a declared probe lattice (a
subset of (time, space) points) for every completed replication; aborted
replications are excluded from estimates (every probe sample of an aborted
run is NaN in the solver's batch, which also keeps the abort list).  The
estimators are

* ``lk_norm``: sample moment E|u(t,x)|^k with a CLT confidence interval,
  reported as the raw power mean with its k-th root, for orders
  1 <= k <= ``DEFAULT_ORDER_CAP`` (higher orders are variance-fragile),
* ``moment_estimates``: ``lk_norm`` at every probe of an ensemble in one
  pass (what the moment experiment uses),
* ``weighted_norm``: max over probes of exp(-beta t) * ||u(t,x)||_k,
* ``tail_probability``: empirical exceedance frequency with a Wilson score
  interval (valid at zero counts),
* ``tail_estimates``: ``tail_probability`` at every probe of an ensemble in
  one pass (what the tail experiment uses),
* ``coupled_sup_difference``: max over probes of the k-norm of the pathwise
  difference between two clamp levels driven by common noise.

Every moment estimate goes through one path, ``_column_estimates``, which
takes the exact sums of |u|^k and |u|^2k down each column of a
(replications, probes) array.  The sums are carried exactly (binary floats
are scaled integers), so an estimate does not depend on the order of the
replications or on how they are split.  They are bucketed integer sums:
``np.frexp`` splits each value into a 53-bit integer mantissa and an
exponent, mantissas are added in int64 per (column, exponent) bucket with at
most 1023 rows per pass (1023 * 2^53 < 2^63), and the nonzero buckets of a
column are folded into one Python integer by shifts.  The buckets form a
table indexed by column and exponent (no sort); a block whose exponents
span a wide range is split into column slices that keep the table at most
``_BUCKETS`` entries.  The integers are the
exact sums of the values in units of 2^-1074, independent of how the samples
are split into passes.  A pass holds at most 2^15 samples, so the working
memory does not grow with the ensemble.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Z_95",
    "ProbeError",
    "CouplingError",
    "MomentEstimate",
    "TailEstimate",
    "Ensemble",
    "PairEnsemble",
    "moment_estimates",
    "lk_norm",
    "weighted_norm",
    "tail_estimates",
    "tail_probability",
    "coupled_sup_difference",
    "wilson_interval",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

DEFAULT_ORDER_CAP = 8  # highest moment order an estimator accepts

# All finite float64 values are integer multiples of 2^-1074.
_DEN_BITS = 1074
_DEN = 1 << _DEN_BITS
_MANT_BITS = 53
_ROWS = 1023  # mantissas per int64 bucket: 1023 * 2^53 < 2^63
_BLOCK = 1 << 15  # samples per pass; bounds the working memory
_BUCKETS = 1 << 17  # (column, exponent) buckets of one bucket table (1 MiB)


class ProbeError(KeyError):
    pass


class CouplingError(ValueError):
    pass


def _bucket_sums(y: np.ndarray) -> np.ndarray:
    """Exact column sums of a finite block of at most ``_ROWS`` rows.

    Returns one Python integer per column, in units of 2^-(1074 + 53).
    """
    frac, exp = np.frexp(y)
    e_min = int(exp.min())
    span = int(exp.max()) - e_min + 1
    cols = y.shape[1]
    width = max(1, _BUCKETS // span)
    if cols > width:
        # a wide exponent range: fewer columns per bucket table keep it small
        return np.concatenate([_bucket_sums(y[:, c0:c0 + width]) for c0 in range(0, cols, width)])
    mant = (frac * 2.0 ** _MANT_BITS).astype(np.int64)  # exact: a power-of-two scale
    # one int64 bucket per (column, exponent), column-major
    sums = np.zeros(cols * span, dtype=np.int64)
    np.add.at(sums, (np.arange(cols) * span + (exp - e_min)).ravel(), mant.ravel())
    out = np.zeros(cols, dtype=object)
    key = np.flatnonzero(sums)
    if key.size:
        col, row = np.divmod(key, span)
        # shift by the offset within the column only (small integers fold fast),
        # then each column total once by the common exponent
        terms = sums[key].astype(object) << row.astype(object)
        first = np.flatnonzero(np.diff(col, prepend=-1))
        out[col[first]] = np.add.reduceat(terms, first) << (e_min + _DEN_BITS)
    return out


def _raise_nonfinite(x: np.ndarray, order: float):
    """Raise what ``float.as_integer_ratio`` raises for the first non-finite
    power or squared power, scanning column by column."""
    for col in x.T:
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.abs(col) ** order
            y2 = y * y
        for v in (y, y2):
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
            # an overflow raises below as float.as_integer_ratio would, with no float warning
            with np.errstate(over="ignore", invalid="ignore"):
                y = np.abs(cols[r0:r0 + _ROWS]) ** order
                y2 = y * y
            if not np.isfinite(y2).all():
                _raise_nonfinite(cols, order)
            sum_pow[c0:c0 + width] += _bucket_sums(y)
            sum_sq[c0:c0 + width] += _bucket_sums(y2)
    return [int(v) >> _MANT_BITS for v in sum_pow], [int(v) >> _MANT_BITS for v in sum_sq]


def _exact_float(total: int, scale: int = 1) -> float:
    """``total / (2^1074 scale)`` rounded once: int true division is correctly rounded."""
    return total / (_DEN * scale)


def _columns(samples: np.ndarray) -> np.ndarray:
    """(replications, ...) samples as a (replications, probes) array."""
    return samples.reshape(samples.shape[0], math.prod(samples.shape[1:]))


def _column_estimates(x: np.ndarray, k: float) -> list:
    """Moment estimates of order k down each column of a (replications, columns) array."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("no samples to estimate from")
    estimates = []
    for s_pow, s_sq in zip(*_power_sums(x, k)):
        mean = _exact_float(s_pow, n)
        mean_sq = _exact_float(s_sq, n)
        variance = max(0.0, (mean_sq - mean * mean) * n / (n - 1)) if n >= 2 else math.nan
        estimates.append(MomentEstimate.from_power_mean(k, n, mean, variance))
    return estimates


class MomentEstimate(NamedTuple):
    """Point estimate and 95% CLT interval for E|u(t,x)|^k, with the mean's k-th root."""

    order: float
    count: int
    power_mean: float
    power_lo: float | None
    power_hi: float | None
    root_mean: float

    @classmethod
    def from_power_mean(cls, order, count, mean, variance):
        if count < 30:
            # too few replications for a trustworthy CLT interval
            lo = hi = None
        else:
            hw = Z_95 * math.sqrt(variance / count)
            lo, hi = max(0.0, mean - hw), mean + hw
        return cls(order=order, count=count, power_mean=mean, power_lo=lo, power_hi=hi,
                   root_mean=mean ** (1.0 / order))


class TailEstimate(NamedTuple):
    count: int
    p_hat: float
    lo: float
    hi: float


def wilson_interval(successes: int, n: int):
    """Wilson 95% score interval for a binomial proportion; valid at 0 and n."""
    if n <= 0:
        raise ValueError("need at least one trial")
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    hw = Z_95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # at the boundary counts the exact interval ends are 0 and 1
    lo = 0.0 if successes == 0 else max(0.0, center - hw)
    hi = 1.0 if successes == n else min(1.0, center + hw)
    return lo, hi


def _probe_match(points: np.ndarray, v: float):
    """Index of the nearest of ``points`` within 1e-9 of v relative to
    max(1, |v|, |point|), the first on a tie (so an exact hit wins), or None."""
    points = np.asarray(points, dtype=float)
    dist = np.abs(points - v)
    hits = np.flatnonzero(dist <= 1e-9 * np.maximum(np.maximum(np.abs(points), abs(v)), 1.0))
    return int(hits[np.argmin(dist[hits])]) if hits.size else None


def _probe_coords(batch, grid):
    """Probe times and probe x-coordinates of a solver batch."""
    return batch.probe_step_idx * grid.dt, -grid.R + batch.probe_x_idx * grid.dx


class Ensemble(NamedTuple):
    """Samples of one clamp level's solution at the probe lattice."""

    probe_times: np.ndarray  # (nt,) lattice times, strictly positive except optional t=0
    probe_xs: np.ndarray  # (nx,)
    samples: np.ndarray  # (n_replications, nt, nx), completed replications only
    horizon: float | None = None

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
    def from_batch(cls, batch, grid, level=None) -> "Ensemble":
        """The batch's solve at clamp level ``level`` (default: its lowest level).

        When no replication aborted, ``samples`` is the batch's own array at
        that level, not a copy.
        """
        level = batch.levels[0] if level is None else float(level)
        vals = batch.samples[batch.levels.index(level)]
        ok = np.isfinite(vals).all(axis=(1, 2))
        return cls(*_probe_coords(batch, grid), samples=vals if ok.all() else vals[ok], horizon=grid.T)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    def probe_index(self, t: float, x: float):
        """Probe time and probe x matching (t, x) as ``_probe_match`` does."""
        it, ix = _probe_match(self.probe_times, t), _probe_match(self.probe_xs, x)
        if it is None or ix is None:
            raise ProbeError(f"({t}, {x}) is not a probe point of this ensemble")
        return it, ix

    def samples_at(self, t: float, x: float) -> np.ndarray:
        it, ix = self.probe_index(t, x)
        return self.samples[:, it, ix]


def _check_order(k: float):
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if k > DEFAULT_ORDER_CAP:
        raise ValueError(f"moment order {k} exceeds the cap {DEFAULT_ORDER_CAP}; high orders are variance-fragile")


def _times_in_window(probe_times: np.ndarray, T: float) -> list:
    keep = [it for it, pt in enumerate(probe_times) if 0 < pt <= T * (1 + 1e-12)]
    if not keep:
        raise ValueError(f"no probe times in (0, {T}]")
    return keep


def moment_estimates(ensemble: Ensemble, k: float) -> list:
    """``lk_norm`` at every probe of the ensemble, in (t, x) order, in one pass."""
    _check_order(k)
    return _column_estimates(_columns(ensemble.samples), k)


def lk_norm(ensemble: Ensemble, k: float, t: float, x: float) -> MomentEstimate:
    """Sample estimate of E|u(t,x)|^k, reported with its k-th root."""
    _check_order(k)
    (estimate,) = _column_estimates(ensemble.samples_at(t, x)[:, None], k)
    return estimate


def weighted_norm(ensemble: Ensemble, k: float, beta: float, T: float) -> float:
    """Lattice version of the exponentially weighted norm on (0, T]."""
    if beta <= 0:
        raise ValueError("weight exponent beta must be positive")
    if ensemble.horizon is not None and T > ensemble.horizon * (1 + 1e-12):
        raise ValueError(f"T={T} exceeds the ensemble horizon {ensemble.horizon}")
    keep = _times_in_window(ensemble.probe_times, T)
    _check_order(k)
    estimates = iter(_column_estimates(_columns(ensemble.samples[:, keep]), k))
    return max(
        math.exp(-beta * ensemble.probe_times[it]) * next(estimates).root_mean
        for it in keep for _ in ensemble.probe_xs
    )


def _column_tails(x: np.ndarray, threshold: float) -> list:
    """Tail estimates of P{|u| >= threshold} down each column of a (replications, columns) array."""
    n = x.shape[0]
    estimates = []
    for hits in np.count_nonzero(np.abs(x) >= threshold, axis=0).tolist():
        lo, hi = wilson_interval(hits, n)
        estimates.append(TailEstimate(count=n, p_hat=hits / n, lo=lo, hi=hi))
    return estimates


def tail_estimates(ensemble: Ensemble, threshold: float) -> list:
    """``tail_probability`` at every probe of the ensemble, in (t, x) order, in one pass."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return _column_tails(_columns(ensemble.samples), threshold)


def tail_probability(ensemble: Ensemble, threshold: float, t: float, x: float) -> TailEstimate:
    """Empirical P{|u(t,x)| >= threshold} with a Wilson 95% interval."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    (estimate,) = _column_tails(ensemble.samples_at(t, x)[:, None], threshold)
    return estimate


class PairEnsemble(NamedTuple):
    """Pathwise differences u_{N+1} - u_N under common noise, at the probes."""

    probe_times: np.ndarray
    probe_xs: np.ndarray
    diff_samples: np.ndarray  # (n, nt, nx)
    sup_abs_diff: np.ndarray  # (n,) over the whole lattice
    path_max_abs: np.ndarray | None = None

    @classmethod
    def from_batch(cls, batch, grid, level=None) -> "PairEnsemble":
        """The batch's coupled pair (N, N + 1) at ``N = level`` (default: its lowest level)."""
        key = batch.levels[0] if level is None else float(level)
        key = (key, key + 1.0)
        if key not in batch.sup_abs_diff:
            raise CouplingError(f"batch has no coupled pair of levels {key}")
        diff = batch.samples[batch.levels.index(key[1])] - batch.samples[batch.levels.index(key[0])]
        ok = np.isfinite(diff).all(axis=(1, 2))
        return cls(
            *_probe_coords(batch, grid),
            diff_samples=diff[ok],
            sup_abs_diff=batch.sup_abs_diff[key][ok],
            path_max_abs=batch.path_max_abs[key][ok],
        )

    @property
    def count(self) -> int:
        return self.diff_samples.shape[0]


def coupled_sup_difference(pair: PairEnsemble, k: float, T: float) -> float:
    """Max over probes with t <= T of the k-norm of the coupled difference."""
    _check_order(k)
    if pair.count == 0:
        raise ValueError("no completed replication pairs")
    keep = _times_in_window(pair.probe_times, T)
    estimates = _column_estimates(_columns(pair.diff_samples[:, keep]), k)
    return max([0.0] + [est.root_mean for est in estimates])
