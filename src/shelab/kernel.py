"""Heat kernel, its L^2 identity, and convolution with the initial profile.

The kernel is ``p_r(z) = (2 pi r)^(-1/2) exp(-z^2 / (2r))`` for ``r > 0``.
Its squared L^2 norm has the closed form ``p_{2r}(0) = (1/2) (pi r)^(-1/2)``,
which the bound calculators rely on; the test suite cross-checks it by
quadrature.

All Gaussian CDF evaluations in the package go through :func:`gaussian_cdf`
(scipy's ``ndtr``), so the kernel closed forms and the noise generator share
one audited special-function path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import expr as _expr

__all__ = [
    "gaussian_cdf",
    "heat_kernel",
    "kernel_l2_norm_sq",
    "InitialCondition",
    "initial_convolution",
    "QuadratureError",
]

# 12 standard deviations: Gaussian tail mass < 1e-31, far below every
# tolerance used here, so finite windows are safe for all quadrature.
TAIL_WIDTH_SDS = 12.0


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def gaussian_cdf(z):
    """Standard normal CDF."""
    return ndtr(z)


def _check_time(r):
    if not r > 0:
        raise ValueError(f"time argument must be positive, got {r}")


def heat_kernel(r, z):
    """Gaussian density with variance ``r`` at ``z``."""
    _check_time(r)
    z = np.asarray(z, dtype=float)
    out = np.exp(-z * z / (2.0 * r)) / math.sqrt(2.0 * math.pi * r)
    return float(out) if out.ndim == 0 else out


def kernel_l2_norm_sq(r):
    """Closed form of ``integral p_r(z)^2 dz``."""
    _check_time(r)
    return 0.5 / math.sqrt(math.pi * r)


@dataclass(frozen=True)
class InitialCondition:
    """Bounded measurable initial profile: constant, indicator, or expression.

    ``bound`` is a sup-norm bound used by the contraction property of the
    convolution and by the closed-form bound calculators.
    """

    kind: str  # constant | indicator | expr
    value: float = 0.0
    interval: tuple = (0.0, 0.0)
    source: str = ""
    bound: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.bound):
            raise ValueError("initial profile must have a finite sup-norm bound")

    @classmethod
    def constant(cls, c: float) -> "InitialCondition":
        return cls(kind="constant", value=float(c), bound=abs(float(c)))

    @classmethod
    def indicator(cls, a: float, b: float) -> "InitialCondition":
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError(f"indicator interval must have a < b, got [{a}, {b}]")
        return cls(kind="indicator", interval=(a, b), bound=1.0)

    @classmethod
    def from_expression(cls, source: str, bound: float | None = None) -> "InitialCondition":
        ast = _expr.parse(source)
        if bound is None:
            xs = np.linspace(-100.0, 100.0, 200_001)
            bound = float(np.max(np.abs(_expr.evaluate(ast, 0.0, xs))))
        return cls(kind="expr", source=source, bound=float(bound))

    def __call__(self, x):
        """Evaluate the profile on the lattice (vectorised)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "indicator":
            a, b = self.interval
            return ((x >= a) & (x <= b)).astype(float)
        return np.asarray(_expr.evaluate(_expr.parse(self.source), 0.0, x), dtype=float)

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "indicator":
            return {"kind": "indicator", "a": self.interval[0], "b": self.interval[1]}
        return {"kind": "expr", "source": self.source, "bound": self.bound}


def initial_convolution(u0: InitialCondition, t: float, x: float) -> float:
    """Heat-semigroup smoothing ``(p_t * u0)(x)`` of the initial profile.

    Closed form (Gaussian CDF differences) for constant and indicator
    profiles; adaptive quadrature with absolute tolerance 1e-9 otherwise.
    """
    _check_time(t)
    x = float(x)
    if u0.kind == "constant":
        return u0.value  # unit mass of the kernel
    sd = math.sqrt(t)
    if u0.kind == "indicator":
        a, b = u0.interval
        return float(gaussian_cdf((b - x) / sd) - gaussian_cdf((a - x) / sd))
    # imported here: scipy.integrate is slow to import and only expression profiles need it
    from scipy import integrate

    ast = _expr.parse(u0.source)

    def integrand(y):
        return heat_kernel(t, y - x) * _expr.evaluate(ast, 0.0, y)

    lo, hi = x - TAIL_WIDTH_SDS * sd, x + TAIL_WIDTH_SDS * sd
    val, abserr = integrate.quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    if abserr > 1e-9:
        raise QuadratureError(f"convolution quadrature error {abserr:g} exceeds 1e-9 at (t={t}, x={x})")
    return float(val)
