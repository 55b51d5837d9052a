"""Space-time lattice description shared by the noise generator and solver."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "GridError"]

BOUNDARIES = ("dirichlet", "periodic")


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Lattice on [-R, R] x [0, T] with spacing ``dx`` and step ``dt``.

    The explicit scheme for a diffusion coefficient 1/2 is stable iff
    ``dt <= dx^2``; that is enforced here (factor 1).  ``R`` should dominate
    ``4 sqrt(T)`` plus the support of the initial profile so that the
    Gaussian tails make the window truncation negligible; too small an ``R``
    only warns since it may be intentional in tests.
    """

    R: float
    dx: float
    dt: float
    T: float
    boundary: str = "dirichlet"

    def __post_init__(self):
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
        if self.n_points < 1:
            raise GridError("grid has zero cells")
        if self.n_steps < 1:
            raise GridError(f"horizon T={self.T:g} is shorter than one time step dt={self.dt:g}")
        if self.R < 4.0 * math.sqrt(self.T):
            warnings.warn(
                f"window R={self.R:g} is below 4*sqrt(T)={4.0 * math.sqrt(self.T):g}; "
                "window-truncation error may be visible"
            )

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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def x_index(self, x: float) -> int:
        """Nearest lattice site to ``x``."""
        j = int(round((float(x) + self.R) / self.dx))
        if not 0 <= j < self.n_points:
            raise GridError(f"x={x} is outside the window [-{self.R}, {self.R}]")
        return j

    def t_index(self, t: float) -> int:
        """Nearest lattice time to ``t``."""
        m = int(round(float(t) / self.dt))
        if not 0 <= m <= self.n_steps:
            raise GridError(f"t={t} is outside the horizon [0, {self.n_steps * self.dt}]")
        return m

    def describe(self) -> dict:
        return {
            "R": self.R,
            "dx": self.dx,
            "dt": self.dt,
            "T": self.T,
            "boundary": self.boundary,
        }
