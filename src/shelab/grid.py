"""Space-time lattice description shared by the noise generator and solver."""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = ["GridSpec", "GridError"]

BOUNDARIES = ("dirichlet", "periodic")


class GridError(ValueError):
    pass


class _GridFields(NamedTuple):
    R: float
    dx: float
    dt: float
    T: float
    boundary: str = "dirichlet"


class GridSpec(_GridFields):
    """Lattice on [-R, R] x [0, T] with spacing ``dx`` and step ``dt``.

    The explicit scheme for a diffusion coefficient 1/2 is stable iff
    ``dt <= dx^2``; that is enforced here (factor 1).  ``R`` should dominate
    ``4 sqrt(T)`` plus the support of the initial profile so that the
    Gaussian tails make the window truncation negligible; too small an ``R``
    only warns since it may be intentional in tests.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("R", "dx", "dt", "T"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise GridError(f"grid parameter {name} must be positive and finite, got {v!r}")
        if self.boundary not in BOUNDARIES:
            raise GridError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.dt > self.dx * self.dx * (1.0 + 1e-12):
            raise GridError(
                f"explicit scheme unstable: dt={self.dt:g} exceeds dx^2={self.dx * self.dx:g}"
            )
        if not (math.isfinite(2.0 * self.R / self.dx) and math.isfinite(self.T / self.dt)):
            raise GridError("grid has too many lattice points to count")
        if self.n_points < 3:
            raise GridError(f"grid has {self.n_points} cell(s); the stencil needs at least 3")
        if self.n_steps < 1:
            raise GridError(f"horizon T={self.T:g} is shorter than one time step dt={self.dt:g}")
        if self.R < 4.0 * math.sqrt(self.T):
            warnings.warn(
                f"window R={self.R:g} is below 4*sqrt(T)={4.0 * math.sqrt(self.T):g}; "
                "window-truncation error may be visible"
            )
        return self

    @property
    def n_points(self) -> int:
        """Number of lattice sites (cells), including both ends."""
        return int(round(2.0 * self.R / self.dx)) + 1

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.R, self.R, self.n_points)

    def t_index(self, t: float) -> int:
        """Nearest lattice time to ``t``."""
        m = int(round(float(t) / self.dt))
        if not 0 <= m <= self.n_steps:
            raise GridError(f"t={t} is outside the horizon [0, {self.n_steps * self.dt}]")
        return m

    def describe(self) -> dict:
        return self._asdict()
