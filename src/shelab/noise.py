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

The inverse CDF is Wichura's AS241 (PPND16; "The percentage points of the
normal distribution", Applied Statistics 37, 1988): a degree-7 rational in
``r = 0.180625 - q^2`` for ``|q| <= 0.425``, ``q = u - 0.5``, and in the
tails two degree-7 rationals in ``sqrt(-log p)``, ``p = 0.5 - |q|``, split
at 5.  It is evaluated in whole-array numpy passes from ``+ - * /``,
``sqrt``, ``frexp``, comparisons and ``copysign`` alone, every one rounded
correctly by IEEE 754, in one fixed order (Horner), so a draw's bits do not
depend on the CPU, numpy's SIMD dispatch or a libm.  ``log p`` comes from
``frexp`` (p = m 2^e, m in [1/2, 1)) and a fixed atanh series,
``log p = (e - 1/2) log 2 + 2 (s + s^3/3 + ... + s^19/19)`` with
``s = (m - c)/(m + c)``, c = sqrt(1/2), not from ``np.log``: numpy's
``np.log`` and ``np.exp`` are SIMD-dispatched, and their last bits differ
between dispatch levels.  The map is within 1.1e-15 relative of scipy's
``ndtri`` (the tests check 4e-15), and its passes release the GIL.

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
and 1 - 2^-53, so every draw is finite (``|z| <= 8.21``), and ``q`` and
``p`` above are exact on that 2^-53 grid.  Generators are made per call, so
concurrent callers share nothing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.random import Philox

from .grid import GridSpec

__all__ = ["NOISE_STREAM", "NoiseSpec", "NoiseField", "generate", "stream_for_level_pair", "standard_normals"]

NOISE_STREAM = 3  # the stream layout's version, recorded in every result's provenance

_WORDS = 4  # 64-bit output words per Philox4x64 counter block
_EXPONENT_OF_ONE = np.uint64(0x3FF0000000000000)
_BELOW_ONE = 1.0 - 2.0 ** -53  # 1 + f 2^-52 minus this is (f + 0.5) 2^-52, exactly

# AS241 (PPND16) coefficients, highest degree first, as (numerator,
# denominator) pairs: the central rational in r = 0.180625 - q^2, the tail
# rational in sqrt(-log p) - 1.6 and the far-tail one in sqrt(-log p) - 5
_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0))
_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e0,
     3.64784832476320460504e0, 5.76949722146069140550e0, 4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e0, 2.05319162663775882187e0, 1.0))
_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e0, 5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0))
_SPLIT = 0.180625  # 0.425^2: r = _SPLIT - q^2 is negative exactly in the tails
_TAIL_MID, _FAR_START = 1.6, 5.0
_SQRT_HALF = 0.7071067811865476
_LN2 = 0.6931471805599453
_LOG_SERIES = tuple(1.0 / k for k in range(19, 0, -2))  # atanh series in s^2, highest degree first
_CHUNK = 1 << 15  # draws per central pass: its three scratch rows stay in L2


class _NoiseFields(NamedTuple):
    seed: int
    replication: int
    grid: GridSpec


class NoiseSpec(_NoiseFields):
    """Identifies one replication's noise realisation on a grid."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= int(self.replication) < 2 ** 64:
            raise ValueError("replication index must fit in 64 bits")
        return self


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


def _horner(coef, r, out):
    """``coef`` (highest degree first) at ``r`` by Horner, into ``out``."""
    np.multiply(r, coef[0], out=out)
    for c in coef[1:-1]:
        np.add(out, c, out=out)
        np.multiply(out, r, out=out)
    return np.add(out, coef[-1], out=out)


def _rational(pair, r, num, den):
    """``P(r) / Q(r)`` of a (numerator, denominator) pair, into ``num``."""
    _horner(pair[0], r, num)
    return np.divide(num, _horner(pair[1], r, den), out=num)


def _tail_quantiles(q):
    """The standard normal quantiles of ``0.5 + q`` for ``|q| > 0.425``.

    ``p = 0.5 - |q|`` (exact on the stream's grid) is ``m 2^e``, m in
    [1/2, 1), and ``log p = (e - 1/2) log 2 + 2 atanh(s)`` with
    ``s = (m - c)/(m + c)``, c = sqrt(1/2), so ``|s| <= 0.1716`` and the
    series' ten terms leave a truncation error below 3e-17 relative.
    """
    p = np.abs(q)
    m, e = np.frexp(np.subtract(0.5, p, out=p), out=(p, None))
    s = m - _SQRT_HALF  # exact
    np.divide(s, np.add(m, _SQRT_HALF, out=m), out=s)
    s2 = np.multiply(s, s, out=m)
    series = _horner(_LOG_SERIES, s2, np.empty_like(s))
    np.multiply(series, s, out=series)
    np.add(series, series, out=series)  # log m - log c
    r = np.subtract(0.5, e, out=s)
    np.multiply(r, _LN2, out=r)
    np.subtract(r, series, out=r)  # -log p
    np.sqrt(r, out=r)
    far = np.flatnonzero(r > _FAR_START)
    r_far = r[far] - _FAR_START
    z = _rational(_TAIL, np.subtract(r, _TAIL_MID, out=r), series, s2)
    if far.size:  # p below e^-25: about one draw in 3.6e10
        z[far] = _rational(_FAR, r_far, np.empty_like(r_far), np.empty_like(r_far))
    return np.copysign(z, q, out=z)


def _normal_quantiles(u):
    """AS241 in place: the uniforms ``u`` (C-contiguous, on the stream's
    2^-53 grid) become standard normal quantiles; returns ``u``.

    The central rational runs over every draw in chunks of ``_CHUNK``, on
    three scratch rows of one chunk that are freed before the tail pass;
    the tail draws (about 15%) are then gathered into one array and
    overwritten, so no large buffer is held twice.
    """
    flat = u.reshape(-1)
    np.subtract(flat, 0.5, out=flat)  # q, exact
    width = min(_CHUNK, flat.size)
    r, num, den = np.empty(width), np.empty(width), np.empty(width)
    where, tails = [], []
    for start in range(0, flat.size, _CHUNK):
        q = flat[start:start + _CHUNK]
        k = q.size
        np.multiply(q, q, out=r[:k])
        np.subtract(_SPLIT, r[:k], out=r[:k])
        t = np.flatnonzero(r[:k] < 0.0)
        where.append(t + start)
        tails.append(q.take(t))
        np.multiply(q, _rational(_CENTRAL, r[:k], num[:k], den[:k]), out=q)
    del r, num, den
    if where:
        where = np.concatenate(where)
        tails = np.concatenate(tails)
        flat[where] = _tail_quantiles(tails)
    return u


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
        _normal_quantiles(_uniforms(out.view(np.uint64)))
    if order != sorted(order):
        out = np.ascontiguousarray(out.transpose(np.argsort(order)))
    return out if out.ndim else float(out)


class NoiseField(NamedTuple):
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
