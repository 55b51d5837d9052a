"""Counter-based space-time white-noise increments.

Each lattice cell increment is a centered Gaussian with variance ``dt*dx``.
Draw ``j`` of step ``m`` of a replication on a grid of ``J`` cells is output
word ``j % 4`` of Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC 2011; numpy ships it in C as
:class:`numpy.random.Philox`) under the key ``(seed, replication)`` at the
counter ``m * ceil(J / 4) + j // 4``, mapped to a uniform strictly inside
(0, 1) and through the inverse normal CDF.  Consequences:

* the tuple ``(seed, replication, m, j, J)`` fully determines an increment,
  and J comes from the config's grid, so fields regenerate bit-identically
  and are independent of iteration order and of how replications are
  scheduled across workers;
* distinct clamp levels can be driven by the *same* realisation (common
  random numbers) simply by reusing one :class:`NoiseSpec`, which is what
  the coupled-difference experiments require.

The inverse CDF is scipy's ``ndtri``, the same special-function family as
the kernel module's ``ndtr``: one audited path for all Gaussian plumbing.

Stream layout: the counter is the integer ``m * ceil(J / 4) + j // 4`` in
four little-endian 64-bit words (below 2^64 on any grid, so only word 0 is
nonzero).  A replication's draws are thus its key's stream of 64-bit words,
step ``m`` starting at word ``m * 4 * ceil(J / 4)``, and a block of
consecutive steps is one contiguous counter range: one ``state`` write and
one ``random_raw`` call per replication.  ``random_raw`` returns the blocks
of counter c + 1, c + 2, ... from state counter c, so the state is set one
block before the first.  The words are gathered into the output as they
are and mapped once for the whole call: the top 52 bits f of a word become
``(f + 0.5) * 2^-52``, computed in place as the float64 with mantissa f and
the exponent of 1.0, minus ``1 - 2^-53`` (exact).  Its extremes are 2^-53
and 1 - 2^-53, so every draw is finite (``|z| <= 8.21``).  Generators are
made per call, so concurrent callers share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .grid import GridSpec

__all__ = ["NOISE_STREAM", "NoiseSpec", "NoiseField", "generate", "stream_for_level_pair", "standard_normals"]

NOISE_STREAM = 2  # the stream layout's version, recorded in every result's provenance

_WORDS = 4  # 64-bit output words per Philox4x64 counter block
_EXPONENT_OF_ONE = np.uint64(0x3FF0000000000000)
_BELOW_ONE = 1.0 - 2.0 ** -53  # 1 + f 2^-52 minus this is (f + 0.5) 2^-52, exactly


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


def _plan(m, j, row: int):
    """The stream words one replication's draws at the broadcast ``(m, j)`` take.

    Returns the generator counter to seek to (one block before the first,
    as four words), the number of words to draw and the offset of each
    draw's word among them, or ``None`` when the draws are too scattered
    for one contiguous range to pay.
    """
    m_lo, m_hi, j_lo, j_hi = int(m.min()), int(m.max()), int(j.min()), int(j.max())
    start = j_lo - j_lo % _WORDS
    n_words = (m_hi - m_lo) * row + j_hi - start + 1
    if n_words > 16 * np.broadcast(m, j).size + 64:  # a seek per draw is cheaper
        return None
    counter = ((m_lo * row + start) // _WORDS - 1) % 2 ** 256
    offsets = (m - np.uint64(m_lo)) * np.uint64(row) + (j - np.uint64(start))
    return [(counter >> s) & (2 ** 64 - 1) for s in (0, 64, 128, 192)], n_words, offsets.astype(np.intp)


def _gather(gen, state: dict, replication: int, m, j, row: int, bits, plan=None):
    """Write one replication's raw words for the broadcast ``(m, j)`` into ``bits``.

    ``state`` is a Philox state dict holding the seed; Python lists in it
    make the write several times cheaper than arrays.
    """
    plan = plan or _plan(m, j, row)
    if plan is None:  # scattered: one counter range per draw
        m, j = np.broadcast_arrays(m, j)
        for i in np.ndindex(bits.shape):
            _gather(gen, state, replication, m[i], j[i], row, bits[i + (Ellipsis,)])
        return
    counter, n_words, offsets = plan
    state["state"]["counter"] = counter
    state["state"]["key"][1] = replication
    gen.state = state
    gen.random_raw(n_words).take(offsets, out=bits, mode="clip")


def _uniforms(bits):
    """Raw words to ``(f + 0.5) * 2^-52`` from their top 52 bits f, in place; returns the float64 view."""
    np.right_shift(bits, np.uint64(12), out=bits)
    np.bitwise_or(bits, _EXPONENT_OF_ONE, out=bits)  # 1 + f 2^-52
    u = bits.view(np.float64)
    return np.subtract(u, _BELOW_ONE, out=u)


def standard_normals(seed: int, replication, m, j, n_points=None):
    """Standard normal draws keyed on ``(seed, replication, m, j, n_points)``.

    ``replication``, ``m`` and ``j`` broadcast like numpy integer arrays and
    the output has the broadcast shape.  Every element depends only on its
    own index tuple and on ``n_points``, the grid's J: each ``j`` must be
    below it.  ``n_points`` may be omitted when every ``m`` is 0, where the
    counter ``j // 4`` does not depend on it.  A replication's draws are
    one contiguous range of its stream when they span a block of steps.
    """
    rep, m, j = (np.asarray(a, dtype=np.uint64) for a in (replication, m, j))
    shape = np.broadcast_shapes(rep.shape, m.shape, j.shape)
    if n_points is None:
        if m.any():
            raise ValueError("n_points is required when a step index m is not 0")
        row = 0
    else:
        if j.size and int(j.max()) >= n_points:
            raise ValueError(f"cell index {int(j.max())} is not below n_points = {n_points}")
        row = _WORDS * -(-int(n_points) // _WORDS)
    # the replication axes first, so that each replication fills one row of ``bits``
    rep, m, j = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (rep, m, j))
    axes = [k for k, n in enumerate(rep.shape) if n > 1]
    order = axes + [k for k in range(len(shape)) if k not in axes]
    rep, m, j = (a.transpose(order) for a in (rep, m, j))
    out = np.empty(tuple(shape[k] for k in order))
    if out.size:
        lead, n = out.shape[:len(axes)], math.prod(out.shape[:len(axes)])

        def per_replication(a):
            return np.broadcast_to(a, lead + a.shape[len(axes):]).reshape((n,) + a.shape[len(axes):])

        ms, js = per_replication(m), per_replication(j)
        # one plan for all replications when m and j do not vary along their axes
        shared = all(a.shape[k] == 1 for a in (m, j) for k in range(len(axes)))
        plan = _plan(ms[0], js[0], row) if shared else None
        gen = Philox(key=np.zeros(2, dtype=np.uint64))
        state = {"bit_generator": "Philox", "state": {"counter": None, "key": [int(np.uint64(seed)), 0]},
                 "buffer": [0] * _WORDS, "buffer_pos": _WORDS, "has_uint32": 0, "uinteger": 0}
        bits = out.view(np.uint64).reshape((n,) + out.shape[len(axes):])
        for r, replication in enumerate(rep.reshape(-1).tolist()):
            _gather(gen, state, replication, ms[r], js[r], row, bits[r, ...], plan)
        ndtri(_uniforms(out.view(np.uint64)), out=out)
    if order != sorted(order):
        out = np.ascontiguousarray(out.transpose(np.argsort(order)))
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
    z = standard_normals(spec.seed, np.uint64(spec.replication), steps, cells, g.n_points)
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
