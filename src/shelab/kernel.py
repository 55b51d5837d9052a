"""Heat kernel, its L^2 identity, and the initial profile.

The kernel is ``p_r(z) = (2 pi r)^(-1/2) exp(-z^2 / (2r))`` for ``r > 0``.
Its squared L^2 norm has the closed form ``p_{2r}(0) = (1/2) (pi r)^(-1/2)``;
the test suite cross-checks it by quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expr as _expr

__all__ = [
    "heat_kernel",
    "kernel_l2_norm_sq",
    "InitialCondition",
]


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


class _InitialFields(NamedTuple):
    kind: str  # constant | indicator | expr
    value: float = 0.0
    interval: tuple = (0.0, 0.0)
    source: str = ""
    bound: float = 0.0


class InitialCondition(_InitialFields):
    """Bounded measurable initial profile: constant, indicator, or expression.

    ``bound`` is a sup-norm bound, used by the closed-form bound calculators.
    ``compiled``, outside equality, hashing and repr, is the compiled form of
    ``source`` for expression profiles, built once.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not math.isfinite(self.bound):
            raise ValueError("initial profile must have a finite sup-norm bound")
        self.compiled = _expr.Compiled(_expr.parse(self.source)) if self.kind == "expr" else None
        return self

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
        compiled = _expr.Compiled(_expr.parse(source))
        if bound is None:
            xs = np.linspace(-100.0, 100.0, 200_001)
            bound = float(np.max(np.abs(_expr.evaluate(compiled, 0.0, xs))))
        return cls(kind="expr", source=source, bound=float(bound))

    def __call__(self, x):
        """Evaluate the profile on the lattice (vectorised)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "indicator":
            a, b = self.interval
            return ((x >= a) & (x <= b)).astype(float)
        return np.asarray(_expr.evaluate(self.compiled, 0.0, x), dtype=float)

    def describe(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "indicator":
            return {"kind": "indicator", "a": self.interval[0], "b": self.interval[1]}
        return {"kind": "expr", "source": self.source, "bound": self.bound}
