"""Closed-form moment/tail bounds, parameter choices, and validity ranges.

Every bound is computed in log-space first: the moment bounds contain
factors like exp(128 L^4 k^3 t) that overflow float64 long before they stop
being useful for log-space comparison against Monte Carlo estimates.  The
linear value is attached whenever it is representable, and the test suite
checks exp(log value) against it to 1e-12 relative.

Each bound carries its own validity predicate (the parameter range on which
the inequality is asserted); callers get a ``not-applicable`` outcome with
the violated clause instead of an exception, so invalid rows can be kept
for audit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProblemConstants",
    "BoundValue",
    "BoundOutcome",
    "BoundReport",
    "moment_bound_unbounded_sigma",
    "moment_bound_bounded_sigma",
    "tail_bound_unbounded_sigma",
    "tail_bound_bounded_sigma",
    "beta_for_moments",
    "beta_for_convergence",
    "convergence_thresholds",
]

_MAX_EXP = math.log(np.finfo(float).max)  # ~709.78


class _ConstantsFields(NamedTuple):
    drift_growth: float = 0.0  # sup |b(t,x)| / (1+|x|)
    diffusion_growth: float = 0.0  # sup |sigma(t,x)| / (1+|x|)
    u0_sup: float = 0.0
    diffusion_sup: float | None = None
    proof_constant: float = 2.0


class ProblemConstants(_ConstantsFields):
    """Growth/sup constants of a coefficient pair plus the free proof constant.

    ``diffusion_sup`` is set only in the bounded-diffusion regime.  The
    ``proof_constant`` has no closed form; it is user-supplied (default 2)
    and recorded in every report.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("drift_growth", "diffusion_growth", "u0_sup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.diffusion_sup is not None and self.diffusion_sup < 0:
            raise ValueError("diffusion_sup must be non-negative")
        if not self.proof_constant > 1:
            raise ValueError("proof constant must exceed 1")
        return self

    def inflate_diffusion_growth(self) -> "ProblemConstants":
        """Enlarge the diffusion growth constant until sqrt(L_b)/L_s^2 <= 2.

        Always admissible (growth constants are sup bounds, so any larger
        value is one too); widens the usable moment-order range to all k >= 2
        at the price of a weaker bound.  The value is (L_b/4)^(1/4), stepped
        up until the float inequality holds; with L_b = 0 any positive value
        works, and a zero one becomes 1.
        """
        lb = self.drift_growth
        if lb == 0:
            return self if self.diffusion_growth > 0 else ProblemConstants(lb, 1.0, *self[2:])
        needed = math.sqrt(math.sqrt(lb) / 2.0)  # (L_b/4)^(1/4) without underflow at subnormal L_b
        while math.sqrt(lb) / needed ** 2 > 2.0:
            needed = math.nextafter(needed, math.inf)
        if self.diffusion_growth >= needed:
            return self
        return ProblemConstants(lb, needed, *self[2:])  # u0_sup, diffusion_sup, proof_constant kept


class BoundValue(NamedTuple):
    """A positive quantity carried as its natural log."""

    log_value: float

    @property
    def value(self) -> float | None:
        """Linear-space value, or None when it is not representable."""
        if self.log_value > _MAX_EXP:
            return None
        return math.exp(self.log_value)


class BoundOutcome(NamedTuple):
    bound: BoundValue | None
    valid: bool
    failed_clause: str | None = None

    @classmethod
    def invalid(cls, clause: str, bound: BoundValue | None = None) -> "BoundOutcome":
        return cls(bound=bound, valid=False, failed_clause=clause)


class BoundReport(NamedTuple):
    """Comparison of a bound against a Monte Carlo estimate, in log-space."""

    bound_log: float | None
    verdict: str  # dominates | violated | not-applicable

    @classmethod
    def compare(cls, outcome: BoundOutcome, estimate: float | None) -> "BoundReport":
        bound_log = None if outcome.bound is None else outcome.bound.log_value
        return cls(bound_log=bound_log, verdict=cls.judge(outcome, estimate))

    @staticmethod
    def judge(outcome: BoundOutcome, estimate: float | None) -> str:
        """The verdict on ``estimate``; no estimate, or one of at most zero, is below any positive bound."""
        if not outcome.valid:
            return "not-applicable"
        if estimate is None or estimate <= 0 or math.log(estimate) <= outcome.bound.log_value:
            return "dominates"
        return "violated"


def moment_bound_unbounded_sigma(k: float, t: float, constants: ProblemConstants) -> BoundOutcome:
    """Upper bound for E|u_N(t,x)|^k, any clamp level, linear-growth diffusion.

    Value: 4^k (u0_sup + 1)^k exp(128 Ls^4 k^3 t) on the range
    k >= max(2, sqrt(Lb)/Ls^2); requires Ls > 0.
    """
    ls = constants.diffusion_growth
    if not ls > 0:
        return BoundOutcome.invalid("requires a positive diffusion growth constant")
    k_min = max(2.0, math.sqrt(constants.drift_growth) / ls ** 2)
    log_val = k * math.log(4.0) + k * math.log1p(constants.u0_sup) + 128.0 * ls ** 4 * k ** 3 * t
    bound = BoundValue(log_val)
    if t < 0:
        return BoundOutcome.invalid("t must be non-negative", bound)
    if k < k_min:
        return BoundOutcome.invalid(f"k={k:g} below the admissible minimum {k_min:g}", bound)
    return BoundOutcome(bound=bound, valid=True)


def moment_bound_bounded_sigma(k: float, t: float, constants: ProblemConstants) -> BoundOutcome:
    """Upper bound for E|u_N(t,x)|^k when the diffusion coefficient is bounded.

    Value: 4^k exp(2 Lb k t) (u0_sup + sup|sigma| t^(1/4) + 1)^k k^(k/2) for k >= 2.
    """
    if constants.diffusion_sup is None:
        return BoundOutcome.invalid("requires a sup-norm bound for the diffusion coefficient")
    if t < 0:
        return BoundOutcome.invalid("t must be non-negative")
    base = constants.u0_sup + constants.diffusion_sup * t ** 0.25 + 1.0
    log_val = (
        k * math.log(4.0)
        + 2.0 * constants.drift_growth * k * t
        + k * math.log(base)
        + 0.5 * k * math.log(k)
    )
    bound = BoundValue(log_val)
    if k < 2:
        return BoundOutcome.invalid(f"k={k:g} below the admissible minimum 2", bound)
    return BoundOutcome(bound=bound, valid=True)


def tail_validity_threshold(t: float, constants: ProblemConstants) -> float:
    """Smallest clamp level at which the linear-growth tail bound is asserted."""
    c_big = 4.0 * (constants.u0_sup + 1.0)
    return max(
        4.0 * math.log(c_big),
        256.0 * t * max(4.0 * constants.diffusion_growth ** 4, constants.drift_growth),
    )


def tail_bound_unbounded_sigma(N: float, t: float, constants: ProblemConstants) -> BoundOutcome:
    """Bound for P{|u_{N+1}(t,x)| >= e^N}: exp(-N^(3/2) / (64 Ls^2 sqrt(t)))."""
    ls = constants.diffusion_growth
    if not ls > 0:
        return BoundOutcome.invalid("requires a positive diffusion growth constant")
    if not t > 0:
        return BoundOutcome.invalid("t must be positive")
    bound = BoundValue(-(N ** 1.5) / (64.0 * ls ** 2 * math.sqrt(t)))
    threshold = tail_validity_threshold(t, constants)
    if N < threshold:
        return BoundOutcome.invalid(f"N={N:g} below the validity threshold {threshold:g}", bound)
    return BoundOutcome(bound=bound, valid=True)


def tail_bound_bounded_sigma(N: float, t: float, constants: ProblemConstants) -> BoundOutcome:
    """Bounded-diffusion tail bound: exp(-exp(2N - 4 Lb t) / (32 e base^2))."""
    if constants.diffusion_sup is None:
        return BoundOutcome.invalid("requires a sup-norm bound for the diffusion coefficient")
    if t < 0:
        return BoundOutcome.invalid("t must be non-negative")
    lb = constants.drift_growth
    base = constants.u0_sup + constants.diffusion_sup * t ** 0.25 + 1.0
    exponent = 2.0 * N - 4.0 * lb * t
    # the bound's own log can underflow; exp(exponent) may overflow, so stay in logs
    if exponent > _MAX_EXP:
        log_val = -math.inf
    else:
        log_val = -math.exp(exponent) / (32.0 * math.e * base * base)
    bound = BoundValue(log_val)
    threshold = 0.5 * math.log(32.0) + 2.0 * lb * t + 0.5 + math.log(base)
    if N < threshold:
        return BoundOutcome.invalid(f"N={N:g} below the validity threshold {threshold:g}", bound)
    return BoundOutcome(bound=bound, valid=True)


def beta_for_moments(k: float, diffusion_growth: float) -> float:
    """Weight exponent that closes the moment fixed-point estimate: 128 k^2 Ls^4."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not diffusion_growth > 0:
        raise ValueError("diffusion growth constant must be positive")
    return 128.0 * k * k * diffusion_growth ** 4


def convergence_amplitude(diffusion_growth: float) -> float:
    """A0 = max(sqrt(8) Ls^4, 4)."""
    return max(math.sqrt(8.0) * diffusion_growth ** 4, 4.0)


def beta_for_convergence(k: float, level_lip_sigma: float, diffusion_growth: float) -> float:
    """Weight exponent for the level-coupling estimate: 16 A0^4 k^2 L_{N,s}^4."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not level_lip_sigma > 0:
        raise ValueError("clamp-level Lipschitz constant must be positive")
    a0 = convergence_amplitude(diffusion_growth)
    return 16.0 * a0 ** 4 * k * k * level_lip_sigma ** 4


class ConvergenceThresholds(NamedTuple):
    c_T: float
    N_T: float
    N0: float | None  # smallest sampled level with L_{N,sigma} >= 1, if any


def convergence_thresholds(T: float, constants: ProblemConstants,
                           level_lip_sigma_samples=None) -> ConvergenceThresholds:
    """Level thresholds controlling the coupled-difference decay regime.

    ``level_lip_sigma_samples`` is an increasing sequence of
    ``(N, L_{N,sigma})`` pairs used to locate N0; when omitted or never
    reaching 1, N0 is reported as None (undefined on the sampled range).
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    ls = constants.diffusion_growth
    c = constants.proof_constant
    c_t = tail_validity_threshold(T, constants)
    n_t = 4096.0 ** (2.0 / 3.0) * convergence_amplitude(ls) ** (8.0 / 3.0) * c * c * ls ** (4.0 / 3.0) * T
    n0 = None
    if level_lip_sigma_samples is not None:
        for level, lip in level_lip_sigma_samples:
            if lip >= 1.0:
                n0 = float(level)
                break
    return ConvergenceThresholds(c_T=c_t, N_T=n_t, N0=n0)

