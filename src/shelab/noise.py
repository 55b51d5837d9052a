"""Counter-based space-time white-noise increments.

Each lattice cell increment is a centered Gaussian with variance ``dt*dx``,
produced by running Philox4x32-10 (the Random123 counter-based generator) on
the counter ``(cell index j, step index m, replication lo, replication hi)``
with the 64-bit seed as the key, then mapping the resulting 64-bit word
through the inverse normal CDF.  Consequences:

* the tuple ``(seed, replication, m, j)`` fully determines an increment,
  so fields regenerate bit-identically and are independent of iteration
  order and of how replications are scheduled across workers;
* distinct clamp levels can be driven by the *same* realisation (common
  random numbers) simply by reusing one :class:`NoiseSpec`, which is what
  the coupled-difference experiments require.

The inverse CDF is scipy's ``ndtri``, the same special-function family as
the kernel module's ``ndtr``: one audited path for all Gaussian plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .grid import GridSpec

__all__ = ["NoiseSpec", "NoiseField", "generate", "stream_for_level_pair", "standard_normals"]

_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint32(0x9E3779B9)
_PHILOX_W1 = np.uint32(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class NoiseSpec:
    """Identifies one replication's noise realisation on a grid."""

    seed: int
    replication: int
    grid: GridSpec

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= int(self.replication) < 2 ** 64:
            raise ValueError("replication index must fit in 64 bits")


def _philox_words(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x32 rounds; returns the first two output words (uint32)."""
    c0 = c0.astype(np.uint32)
    c1 = c1.astype(np.uint32)
    c2 = c2.astype(np.uint32)
    c3 = c3.astype(np.uint32)
    with np.errstate(over="ignore"):  # uint32 wraparound is the point
        for _ in range(10):
            p0 = c0.astype(np.uint64) * _PHILOX_M0
            p1 = c2.astype(np.uint64) * _PHILOX_M1
            hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
            lo0 = (p0 & _MASK32).astype(np.uint32)
            hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
            lo1 = (p1 & _MASK32).astype(np.uint32)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
    return c0, c1


def standard_normals(seed: int, replication, m, j):
    """Standard normal draws keyed on ``(seed, replication, m, j)``.

    Arguments broadcast like numpy integer arrays; the output has the
    broadcast shape.  Every element depends only on its own index tuple.
    """
    rep = np.asarray(replication, dtype=np.uint64)
    m = np.asarray(m, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    rep, m, j = np.broadcast_arrays(rep, m, j)
    seed = np.uint64(seed)
    k0 = np.uint32(seed & _MASK32)
    k1 = np.uint32(seed >> np.uint64(32))
    w0, w1 = _philox_words(
        j & _MASK32,
        m & _MASK32,
        rep & _MASK32,
        rep >> np.uint64(32),
        k0,
        k1,
    )
    bits = (w0.astype(np.uint64) << np.uint64(32)) | w1.astype(np.uint64)
    # top 53 bits, centered in the half-open cell: uniform on (0, 1)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    out = ndtri(u)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NoiseField:
    """Immutable lattice of increments ``dW[m, j]`` with variance dt*dx."""

    spec: NoiseSpec
    increments: np.ndarray  # shape (n_steps, n_points), read-only

    def row(self, m: int) -> np.ndarray:
        return self.increments[m]

    @property
    def shape(self):
        return self.increments.shape


def generate(spec: NoiseSpec) -> NoiseField:
    """Materialise the full (n_steps, n_points) increment field for one replication."""
    g = spec.grid
    steps = np.arange(g.n_steps, dtype=np.uint64)[:, None]
    cells = np.arange(g.n_points, dtype=np.uint64)[None, :]
    z = standard_normals(spec.seed, np.uint64(spec.replication), steps, cells)
    dw = z * math.sqrt(g.dt * g.dx)
    dw.setflags(write=False)
    return NoiseField(spec=spec, increments=dw)


def stream_for_level_pair(spec: NoiseSpec):
    """One realisation exposed twice, for solves at consecutive clamp levels.

    Both returned handles share the same underlying (read-only) increments,
    so the two solves are driven by pathwise-identical noise.
    """
    field = generate(spec)
    return field, NoiseField(spec=spec, increments=field.increments)
