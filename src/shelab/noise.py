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

Lane layout: a call holds its n counters in two (2, n) uint64 buffers,
``even`` with the words (c0, c2) and ``odd`` with (c1, c3), each word's
low 32 bits in a 64-bit slot.  One round is five in-place ufuncs and no
dtype copy: ``even`` times the multiplier pair (M0, M1) into a product
buffer, whose lane-swapped view yields the next ``even`` (high halves,
xored with ``odd`` and then with the round-key pair) and the next ``odd``
(low halves).  The 53-bit uniform and ``ndtri`` then run in place on the
output.  Buffers are allocated per call, so concurrent callers share
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .grid import GridSpec

__all__ = ["NoiseSpec", "NoiseField", "generate", "stream_for_level_pair", "standard_normals"]

_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)  # (M0, M1), one per even lane
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


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


def _philox_lanes(c0, c1, c2, c3):
    """The counter words' low 32 bits as two (2, n) uint64 lane buffers.

    ``even`` holds (c0, c2) and ``odd`` holds (c1, c3), each word
    broadcast to the common shape of the four and flattened.  Returns
    ``even``, ``odd`` and that shape.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in (c0, c1, c2, c3)))
    even = np.empty((2, math.prod(shape)), dtype=np.uint64)
    odd = np.empty_like(even)
    for lane, word in ((even[0], c0), (odd[0], c1), (even[1], c2), (odd[1], c3)):
        np.copyto(lane.reshape(shape), np.bitwise_and(word, _MASK32))
    return even, odd, shape


def _philox_rounds(even, odd, k0: int, k1: int):
    """Ten Philox4x32 rounds on the lanes of :func:`_philox_lanes`, in place.

    Products are formed in uint64, so no word ever needs a uint32 copy:
    with ``p = even * (M0, M1)`` and ``q`` its lane-swapped view, one round
    sets ``even = hi(q) ^ odd ^ (k0, k1)`` and ``odd = lo(q)``.
    """
    prod = np.empty_like(even)
    swapped = prod[::-1]
    keys = np.array([[[(k0 + r * _PHILOX_W0) & 0xFFFFFFFF], [(k1 + r * _PHILOX_W1) & 0xFFFFFFFF]]
                     for r in range(10)], dtype=np.uint64)
    for key in keys:
        np.multiply(even, _PHILOX_M, out=prod)
        np.right_shift(swapped, _SHIFT32, out=even)
        np.bitwise_xor(even, odd, out=even)
        np.bitwise_xor(even, key, out=even)
        np.bitwise_and(swapped, _MASK32, out=odd)


def _philox_words(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x32 rounds; returns the first two output words (uint32)."""
    even, odd, shape = _philox_lanes(c0, c1, c2, c3)
    _philox_rounds(even, odd, int(k0), int(k1))
    return even[0].reshape(shape).astype(np.uint32), odd[0].reshape(shape).astype(np.uint32)


def standard_normals(seed: int, replication, m, j):
    """Standard normal draws keyed on ``(seed, replication, m, j)``.

    Arguments broadcast like numpy integer arrays; the output has the
    broadcast shape.  Every element depends only on its own index tuple.
    """
    rep = np.asarray(replication, dtype=np.uint64)
    seed = int(np.uint64(seed))
    even, odd, shape = _philox_lanes(np.asarray(j, dtype=np.uint64), np.asarray(m, dtype=np.uint64),
                                     rep, rep >> _SHIFT32)
    _philox_rounds(even, odd, seed & 0xFFFFFFFF, seed >> 32)
    bits = even[0]
    np.left_shift(bits, _SHIFT32, out=bits)
    np.bitwise_or(bits, odd[0], out=bits)
    np.right_shift(bits, np.uint64(11), out=bits)
    # top 53 bits, centered in the half-open cell: uniform on (0, 1)
    out = np.empty(shape)
    np.add(bits.reshape(shape), 0.5, out=out)
    np.multiply(out, 2.0 ** -53, out=out)
    ndtri(out, out=out)
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
