"""Explicit finite-difference Euler-Maruyama integrator on [-R, R].

One time step of the scheme is

    u[m+1, j] = u[m, j] + lam * (u[m, j+1] - 2 u[m, j] + u[m, j-1])
              + dt * b_N(t_m, u[m, j]) + sigma_N(t_m, u[m, j]) * dW[m, j] / dx

with ``lam = dt / (2 dx^2)`` and cell increments ``dW`` of variance
``dt * dx``, so the noise term has the per-cell variance ``dt / dx`` that a
space-time white-noise lattice discretisation requires.  ``b_N``/``sigma_N``
are the clamped coefficients; the clamp is applied to the state argument
inside every step.

Boundary handling: ``dirichlet`` freezes the two end cells at their initial
values (no drift or noise applied there); ``periodic`` wraps the Laplacian.

:func:`solve_batch` is the only stepping loop, and it owns the replication
axis.  Replications are independent by construction (counter-based noise),
and the truncation argument compares clamp levels driven by the same noise,
so a chunk of replications at L levels is advanced as one stacked
(L, B, J) array: each step draws the noise once, clips the state to the L
clamp bounds once and calls each coefficient once.  Further coefficient
groups ride as more rows of that array, each group's coefficients called
on its own rows alone.  A call splits its
replications into chunks of :func:`chunk_replications` replications, runs
them inline or on up to ``threads`` pool threads, and writes each into its
own columns of outputs allocated once for the whole call.  Noise comes
from one place, ``standard_normals``, looked up on this module at every
call, for a block of steps at a time.  Every coefficient call sees ``t``
in [0, (n_steps - 1) dt] and a state clipped to its group's clamp bounds,
and never a non-finite state, because a dead row restarts from the finite
``u0`` in the step it dies.  So each call compiles each expression
coefficient for that box (``Coefficient.on_box``), without the domain
checks that the box proves dead; still called through ``expr.evaluate``,
it gives the same bits.  Builtins, and every coefficient when ``u0`` is not
finite, keep the checked call.  The arithmetic
is elementwise, hence bit-identical however the replications are chunked
and whichever levels share a pass; coefficients must therefore act
elementwise on arrays of any shape.  The single-replication full-lattice
solves (:func:`solve_lattice`, :func:`solve_truncated`,
:func:`solve_pair_coupled`) are views of that loop: one replication, every
step and cell probed.

Each chunk allocates its buffers once: a double-buffered state padded with
two ghost columns (they take the periodic wrap, so one stencil serves both
boundaries), an increment buffer of the same padded shape, one scratch of
that shape (the Laplacian, then ``|u|``) and the clipped written cells.  A
step writes the next state with ``out=`` ufuncs in the fixed order
``((u + lam lap) + dt b) + sigma dW/dx``.  The stencil, the two increment
adds and the bookkeeping's ``|u|`` each run as one flat pass over the
contiguous chunk buffer rather than as one short loop per row; the values
this leaves in the pads between two rows are never read, and the Dirichlet
ends and ghosts are copied back after the step.  The clip writes the
written cells into their own buffer, so the coefficients run on contiguous
arrays.  The coefficients' results and the gathered probe cells are the
only arrays allocated per step, and one noise block is alive per chunk: a
block depends only on its counters, so the previous one is released before
the next is drawn.  The bookkeeping reads finiteness off the per-row max
of ``|u|``, which is NaN or inf exactly when a row is not finite.  A row
records where it died as one position, ``step * J + cell``; ``n_steps * J``
means alive.  A pair is two rows.  Its first abort is the smaller of its
rows' positions.  An aborted run has no statistics: its samples, path max
and sup difference are set to NaN once, after the loop.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .coeff import Coefficient, TruncationLevel, _as_level
# unused here, kept importable: benchmark/tracer.py wraps it by name on this module
from .coeff import truncated_fn  # noqa: F401
from .grid import GridSpec, BOUNDARIES
from .noise import NOISE_STREAM, NoiseSpec, standard_normals
# unused here, kept importable: benchmark/tracer.py wraps them by name on this module
from .noise import generate, stream_for_level_pair  # noqa: F401

__all__ = [
    "SolverBlowupError",
    "FieldTrajectory",
    "AbortRecord",
    "BatchSolution",
    "solve_truncated",
    "solve_pair_coupled",
    "solve_batch",
    "chunk_replications",
    "solve_lattice",
    "field_trajectories",
    "save_trajectory",
    "load_trajectory",
]


# one pass's working set: stacked cells per chunk.  Picked by timing the moments_dense
# solve (2 levels x 81 cells, 400 replications; in-process, median of 9, three rounds,
# 2-core Xeon with 2 MiB L2 per core): 51 ms at 2^13, 46 at 2^14, 48 at 2^15, 50 at 2^16.
# At 2^14 a chunk's five padded buffers take 0.6 MiB next to its 1 MiB noise block
_BLOCK_DRAWS = 1 << 14
# a standard_normals call draws a block of steps: at most _NOISE_DRAWS (1 MiB) in all and
# _SPAN_DRAWS per replication, inline or on pool threads.  Each replication's span costs
# one generator seek (a few microseconds), which ~1,000 draws amortise; longer spans only
# grow the buffer.  2^17 against 2^18 (2-core host): moments_dense's peak RSS 43.0 ->
# 41.1 MB (2^16: 41.0, no lower), and criterion 2's grids at one thread timed even
# (coarse 4.9-5.6 s against 5.3-5.9 s).  On pool threads two chunks' per-call work
# (the seeks, the normal map's ~90 ufunc calls) contends for the GIL: at --threads 2
# criterion 2's test took 17.8 s against 15.9 s (medians of 10 alternating pairs),
# a cost no benchmark workload measures yet (ROADMAP item 1)
_NOISE_DRAWS = 1 << 17
_SPAN_DRAWS = 1 << 13


def ThreadPoolExecutor(max_workers):  # noqa: N802 (tests substitute a pool under this name)
    """``concurrent.futures``' thread pool, imported on first use: it loads
    ``logging`` too, which a process that never runs chunks in parallel does
    not need."""
    from concurrent.futures import ThreadPoolExecutor as pool

    return pool(max_workers=max_workers)


def chunk_replications(n_levels: int, n_points: int) -> int:
    """Replications :func:`solve_batch` advances per chunk of ``n_levels`` stacked levels of ``n_points`` cells."""
    return max(1, _BLOCK_DRAWS // (n_levels * n_points))


class SolverBlowupError(RuntimeError):
    def __init__(self, step, cell):
        self.step = step
        self.cell = cell
        super().__init__(f"non-finite state produced at time step {step}, cell {cell}")


def _updated_cells(grid):
    """State cells the step writes: all of them on a periodic grid, the interior on a Dirichlet one."""
    return (0, grid.n_points) if grid.boundary == "periodic" else (1, grid.n_points - 1)


def _advance_into(src, dst, t, dw_dx, coefficients, grid, clamp, x_buf, lap, inc):
    """One explicit step from ``src`` into ``dst``; fixed operation order, no allocation.

    ``src``, ``dst``, ``lap`` and ``inc`` are padded (rows, n, J + 2)
    buffers holding the state in ``[..., 1:-1]``; columns 0 and J + 1 are
    ghost cells that take the periodic wrap, so one stencil serves both
    boundaries.  The five stencil ops and the two increment adds each run
    as one flat pass over the contiguous range from the first written cell
    to the last.  That range also holds the pads between two rows (one
    row's right end and ghost, the next row's left ghost and end), which
    get values mixed from both rows; no written cell reads a pad, and on a
    Dirichlet grid the pads of ``dst`` are copied back from ``src`` after
    the step, so its frozen ends and ghosts keep their values.  On a
    periodic grid the next step sets the ghosts again.  ``dw_dx`` holds the
    noise increments over ``dx`` of the written cells.  The written cells
    are clipped to ``clamp = (-bounds, bounds)`` (each of shape (rows, 1,
    1), one clamp bound per row) into ``x_buf``, of shape (rows, n, written
    cells).  ``coefficients`` lists ``(rows, drift_fn, diffusion_fn)``:
    each pair is called, drift first, on its own rows of ``x_buf`` alone.
    ``inc`` takes drift dt, then diffusion dw/dx, in the written cells; its
    other cells stay 0.  ``lap`` is scratch.
    """
    lo, hi = _updated_cells(grid)
    L, n, width = src.shape
    start, stop = 1 + lo, (L * n - 1) * width + 1 + hi  # the first written cell and one past the last
    if grid.boundary == "periodic":
        src[..., 0] = src[..., -2]
        src[..., -1] = src[..., 1]
    src[..., start:1 + hi].clip(*clamp, out=x_buf)
    flat, tmp, out = src.reshape(-1), lap.reshape(-1)[start:stop], dst.reshape(-1)[start:stop]
    center = flat[start:stop]
    # lap = (left - 2 center) + right; out = ((center + lam lap) + dt drift) + diffusion dw/dx
    np.multiply(center, 2.0, out=tmp)
    np.subtract(flat[start - 1:stop - 1], tmp, out=tmp)
    np.add(tmp, flat[start + 1:stop + 1], out=tmp)
    np.multiply(tmp, grid.dt / (2.0 * grid.dx * grid.dx), out=tmp)
    np.add(center, tmp, out=out)
    values = [(rows, drift_fn(t, x_buf[rows]), diffusion_fn(t, x_buf[rows]))
              for rows, drift_fn, diffusion_fn in coefficients]
    written, increment = inc[..., start:1 + hi], inc.reshape(-1)[start:stop]
    for rows, drift, _ in values:
        np.multiply(drift, grid.dt, out=written[rows])
    np.add(out, increment, out=out)
    for rows, _, diffusion in values:
        np.multiply(diffusion, dw_dx, out=written[rows])
    np.add(out, increment, out=out)
    if grid.boundary == "dirichlet":
        # the four pads after each row but the last, which the step did not write in src
        seams = slice(width - 2, stop)
        dst.reshape(-1)[seams].reshape(-1, width)[:, :4] = flat[seams].reshape(-1, width)[:, :4]


class FieldTrajectory(NamedTuple):
    """Solution values on the full (n_steps+1, n_points) lattice."""

    values: np.ndarray
    grid: GridSpec
    level: float
    noise_spec: NoiseSpec
    provenance: dict

    @property
    def path_max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def solve_truncated(level, b: Coefficient, sigma: Coefficient, u0, grid: GridSpec,
                    noise_spec: NoiseSpec) -> FieldTrajectory:
    """Integrate one replication at clamp level ``N`` over the full horizon."""
    levels = (_as_level(level).level,)
    (traj,) = field_trajectories(solve_lattice(levels, b, sigma, u0, grid, noise_spec),
                                 levels, b, sigma, u0, grid, noise_spec)
    return traj


def solve_pair_coupled(level, b, sigma, u0, grid, noise_spec):
    """Solve at clamp levels N and N+1 under pathwise-identical noise."""
    level = _as_level(level).level
    levels = (level, level + 1.0)
    return field_trajectories(solve_lattice(levels, b, sigma, u0, grid, noise_spec, pairs=(levels,)),
                              levels, b, sigma, u0, grid, noise_spec)


def solve_lattice(levels, b, sigma, u0, grid, noise_spec, pairs=()) -> "BatchSolution":
    """One replication at every clamp level of ``levels`` in one pass, every lattice point probed.

    ``pairs`` are the coupled pairs to track, as in :func:`solve_batch`.
    """
    return solve_batch(levels, b, sigma, u0, grid, noise_spec.seed, [noise_spec.replication],
                       np.arange(grid.n_steps + 1), np.arange(grid.n_points), pairs=pairs)


def field_trajectories(sol, levels, b, sigma, u0, grid, noise_spec) -> list:
    """Read-only trajectories of a :func:`solve_lattice` pass at one level or one coupled pair.

    ``levels`` is ``(N,)`` or a pair ``(N, N + 1)`` the pass tracked; raises
    :class:`SolverBlowupError` at that run's first abort (for a pair, the
    first step at which either level blew up).
    """
    levels = tuple(levels)
    if sol.aborted[levels]:
        first = sol.aborted[levels][0]
        raise SolverBlowupError(first.step, first.cell)
    trajs = []
    for level, other in zip(levels, levels[::-1]):
        vals = sol.samples[sol.levels.index(level), 0]
        vals.setflags(write=False)
        prov = {"level": float(level), "drift": b.name, "diffusion": sigma.name,
                "u0": u0.describe(), "grid": grid.describe(),
                "seed": int(noise_spec.seed), "replication": int(noise_spec.replication),
                "noise_stream": NOISE_STREAM}
        if len(levels) == 2:
            prov["coupled_with_level"] = float(other)
        trajs.append(FieldTrajectory(vals, grid, float(level), noise_spec, prov))
    return trajs


class AbortRecord(NamedTuple):
    replication: int
    step: int
    cell: int


class BatchSolution(NamedTuple):
    """Probe-restricted output of one :func:`solve_batch` call: all its replications, however chunked.

    ``samples[i]`` has shape (B, n_probe_times, n_probe_cells) and holds the
    solution at clamp level ``levels[i]``.  The per-run data is keyed by a
    tuple of levels: ``(N,)`` for the solve at each level and ``(N, N + 1)``
    for each coupled pair the solve was asked to track, which aborts at the
    first abort of either level.  An aborted run has no statistics: its probe
    samples, path max and sup difference are all NaN.  ``groups`` holds the
    solutions of the further coefficient groups the call advanced, in order.
    """

    levels: tuple
    probe_step_idx: np.ndarray
    probe_x_idx: np.ndarray
    samples: np.ndarray  # (len(levels), B, nt, nx)
    path_max_abs: dict  # key -> (B,) max |u| over the lattice and the key's levels; NaN if the run aborted
    # (N, N + 1) -> (B,) pathwise sup |u_{N+1} - u_N|; in a group, (N, N) -> (B,)
    # sup |u_N - u_N of the main group|; NaN if either row aborted
    sup_abs_diff: dict
    aborted: dict  # key -> [AbortRecord], by step, then position in the batch
    groups: tuple = ()  # a BatchSolution per further coefficient group


def _layout(levels, b, sigma, pairs, groups):
    """The stacked rows of a :func:`solve_batch` call, every group's rows in order, main group first.

    Returns the rows' levels, each coefficient group's ``(rows, b, sigma)``
    and every tracked pair as ``(row, row, holder group)``.  A coupled pair
    ``(N, N + 1)`` is held by the main group.  A same-level pair ``(N, N)``
    is held by each further group that also solves N, as its row at N
    against the main row at N.
    """
    row_levels, coefficients = (), []
    for g_levels, g_b, g_sigma in [(levels, b, sigma), *groups]:
        g_levels = tuple(_as_level(v).level for v in g_levels)
        if not all(a < b_ for a, b_ in zip(g_levels, g_levels[1:])):
            raise ValueError(f"clamp levels must be strictly increasing, got {g_levels}")
        coefficients.append((slice(len(row_levels), len(row_levels) + len(g_levels)), g_b, g_sigma))
        row_levels += g_levels
    main = row_levels[coefficients[0][0]]
    requested = {tuple(_as_level(v).level for v in pair) for pair in pairs}
    same = sorted(pair[0] for pair in requested if len(pair) == 2 and pair[0] == pair[1] and pair[0] in main)
    requested -= {(v, v) for v in same}
    for pair in requested:
        if len(pair) != 2 or pair[1] != pair[0] + 1.0 or not set(pair) <= set(main):
            raise ValueError(f"coupled pair {pair} is not two of the solved levels {main} exactly one apart")
    table = sorted((main.index(lo), main.index(hi), 0) for lo, hi in requested)
    for g, (rows, _, _) in enumerate(coefficients[1:], 1):
        table += [(main.index(v), rows.start + row_levels[rows].index(v), g) for v in same if v in row_levels[rows]]
    return row_levels, coefficients, table


def solve_batch(levels, b, sigma, u0, grid: GridSpec, seed: int, replications,
                probe_step_idx, probe_x_idx, pairs=(), threads=1, groups=()) -> BatchSolution:
    """Advance a batch of replications at every clamp level of ``levels`` at once.

    ``levels`` is a strictly increasing tuple of clamp levels, advanced as
    one stacked (L, B, J) state under each replication's one noise
    realisation (common random numbers): each step makes one noise draw,
    one clip of the state to the per-level bounds and one call of each
    coefficient for all levels.  The arithmetic is elementwise, so every
    level's bits equal those of a solve at that level alone.  Liveness, path
    max and death are kept per (level, replication).  A death is one
    position ``step * J + cell``.  Each coupled pair ``(N, N + 1)`` of
    ``pairs`` (two of ``levels`` exactly one apart; none by default) is two
    rows.  It keeps its sup difference, and it aborts at the smaller of its
    rows' death positions.  Every statistic of an aborted run is NaN.  This
    is the package's one stepping loop.

    ``groups`` lists further ``(levels, b, sigma)`` coefficient groups,
    each advanced as further rows of the same stacked state: the step's
    noise draw, clip, stencil and bookkeeping serve every row, and each
    group's ``b`` and ``sigma`` are called once per step on that group's
    rows alone, so a coefficient sees the shape a call of its group alone
    would show it.  A group samples all its levels and tracks no pair of
    its own; its :class:`BatchSolution` is in the result's ``groups``, with the
    bits a separate call would give.  A same-level pair ``(N, N)`` in
    ``pairs`` (N one of ``levels``) couples level N across the groups
    instead: each group that also solves N tracks the sup difference of its
    row there from the main row at N, as its ``sup_abs_diff[(N, N)]``.

    The outputs are allocated once for all B replications; chunks of
    :func:`chunk_replications` replications (sized by every group's rows),
    each with its own state buffers, are advanced into their columns,
    inline or on ``min(threads, chunks, cores)`` pool threads.  Each chunk
    draws its noise with one ``standard_normals`` call per block of steps
    (up to ``_NOISE_DRAWS`` draws, ``_SPAN_DRAWS`` per replication), in
    which each replication's draws are one contiguous range of its Philox
    stream, and only for the cells a step writes.  A draw depends only on
    ``(seed, replication, m, j, J)``, J the grid's cell count, so neither
    block nor chunk size nor ``threads`` changes a bit.
    Dead rows restart from ``u0``, where both coefficients were evaluated
    at step 0.  Every level is sampled, in ``levels`` order: ``samples``
    is (len(levels), B, len(probe_step_idx), len(probe_x_idx)).
    """
    row_levels, coefficients, pairs = _layout(levels, b, sigma, pairs, groups)
    reps = np.asarray(replications, dtype=np.uint64)
    L, B, J = len(row_levels), reps.size, grid.n_points
    probe_step_idx = np.asarray(probe_step_idx, dtype=int)
    probe_x_idx = np.asarray(probe_x_idx, dtype=int)
    slot_of_step = {int(s): i for i, s in enumerate(probe_step_idx)}

    bounds = np.array([TruncationLevel(v).clamp_bound for v in row_levels])[:, None, None]
    clamp = (-bounds, bounds)
    row0 = u0(grid.xs)
    if np.isfinite(row0).all():
        # every call sees t in [0, t_max] and x clipped to its group's bounds: dead rows
        # restart from the finite row0 in the step they die, so no x is ever NaN
        t_max = max(grid.n_steps - 1, 0) * grid.dt
        coefficients = [(rows, g_b.on_box(t_max, bounds[rows].max()), g_sigma.on_box(t_max, bounds[rows].max()))
                        for rows, g_b, g_sigma in coefficients]
    lo, hi = _updated_cells(grid)
    cells = np.arange(lo, hi, dtype=np.uint64)  # a step draws noise only for the cells it writes
    scale = math.sqrt(grid.dt * grid.dx)

    # the outputs, once for all B replications; a chunk writes only its own columns
    alive_at = grid.n_steps * J  # the death position of a row that never died
    outputs = (
        np.full((L, B, probe_step_idx.size, probe_x_idx.size), np.nan),  # samples
        np.full((L, B), float(np.max(np.abs(row0)))),  # path max per level
        np.zeros((len(pairs), B)),  # sup difference per pair
        np.full((L, B), alive_at),  # death position step * J + cell
    )

    def advance(span):
        # the chunk's columns of the outputs
        samples, path_max, sup_diff, death = (a[:, span] for a in outputs)
        n = span.stop - span.start
        # per-chunk buffers: the padded state (double-buffered), the increments, one padded
        # scratch (the Laplacian, then |state| and |pair differences|) and the clipped
        # written cells; --threads jobs never share them
        buffers = np.zeros((2, L, n, J + 2))
        buffers[..., 1:-1] = row0
        src, dst = buffers
        inc = np.zeros((L, n, J + 2))
        scratch = np.empty((L, n, J + 2))
        x_buf = np.empty((L, n, hi - lo))
        row_max = np.empty((L, n))
        diff_buf = scratch[:len(pairs)]
        diff = np.empty((len(pairs), n))
        alive = np.ones((L, n), dtype=bool)
        any_dead = False
        reps_col = reps[span, None, None]
        block = max(1, min(_NOISE_DRAWS // (n * J), _SPAN_DRAWS // J))

        if 0 in slot_of_step:
            samples[:, :, slot_of_step[0], :] = src[..., 1:-1][..., probe_x_idx]

        # rows that overflow to inf or NaN are kept as abort records: no float warning per step
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(grid.n_steps):
                if m % block == 0:
                    noise = None  # the previous block is never read again: free it before drawing
                    steps = np.arange(m, min(m + block, grid.n_steps), dtype=np.uint64)[:, None]
                    noise = standard_normals(seed, reps_col, steps, cells, J)  # (n, block, hi - lo)
                    np.multiply(noise, scale, out=noise)  # dW, of variance dt dx
                    np.divide(noise, grid.dx, out=noise)
                _advance_into(src, dst, m * grid.dt, noise[:, m % block], coefficients, grid, clamp, x_buf, scratch, inc)
                state = dst[..., 1:-1]

                # |.|.max is NaN or inf exactly on the rows that are no longer finite; the pads
                # of the flat |.| pass are left out
                np.abs(dst, out=scratch)
                scratch[..., 1:-1].max(axis=-1, out=row_max)
                finite = np.isfinite(row_max)
                if not finite.all():
                    newly_dead = alive & ~finite
                    if newly_dead.any():
                        death[newly_dead] = m * J + np.argmax(~np.isfinite(state[newly_dead]), axis=-1)
                        alive &= finite
                        any_dead = True
                        if not alive.any():
                            break
                if any_dead:
                    # dead rows are still advanced, from u0 every step; what they add to
                    # path max and sup difference is overwritten after the loop
                    state[~alive] = row0
                np.maximum(path_max, row_max, out=path_max)
                if pairs:
                    for p, (i, j, _) in enumerate(pairs):
                        np.subtract(dst[j], dst[i], out=diff_buf[p])
                    np.abs(diff_buf, out=diff_buf)
                    diff_buf[..., 1:-1].max(axis=-1, out=diff)
                    np.maximum(sup_diff, diff, out=sup_diff)

                slot = slot_of_step.get(m + 1)
                if slot is not None:
                    samples[:, :, slot, :] = state[..., probe_x_idx]
                src, dst = dst, src

    chunk = chunk_replications(L, J)
    spans = [slice(start, min(start + chunk, B)) for start in range(0, B, chunk)]
    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(advance, spans))
    else:
        for span in spans:
            advance(span)
    samples, path_max, sup_diff, death = outputs

    # an aborted run has no statistics: every probe sample and the path max of a row that died
    # are NaN, and so is a pair's sup difference from its first abort, the earlier of its rows'
    samples[death < alive_at] = np.nan
    path_max[death < alive_at] = np.nan

    def records(death):
        dead = np.flatnonzero(death < alive_at)
        return [AbortRecord(int(reps[r]), *divmod(int(death[r]), J))
                for r in dead[np.argsort(death[dead] // J, kind="stable")]]

    stats = [({}, {}, {}) for _ in coefficients]  # each group's path_max_abs, sup_abs_diff, aborted
    for (rows, _, _), (path_max_abs, _, aborted) in zip(coefficients, stats):
        for r in range(rows.start, rows.stop):
            path_max_abs[(row_levels[r],)] = path_max[r]
            aborted[(row_levels[r],)] = records(death[r])
    for p, (i, j, g) in enumerate(pairs):
        path_max_abs, sup_abs_diff, aborted = stats[g]
        key, first = (row_levels[i], row_levels[j]), np.minimum(death[i], death[j])
        sup_diff[p, first < alive_at] = np.nan
        sup_abs_diff[key] = sup_diff[p]
        if g == 0:  # a coupled pair (N, N + 1) is a run too; a same-level pair keeps its sup difference alone
            path_max_abs[key] = np.maximum(path_max[i], path_max[j])
            aborted[key] = records(first)
    main, *extra = [BatchSolution(row_levels[rows], probe_step_idx, probe_x_idx, samples[rows], *group)
                    for (rows, _, _), group in zip(coefficients, stats)]
    return main._replace(groups=tuple(extra))


# -- trajectory persistence ---------------------------------------------------
#
# Binary layout (all little-endian): seven int64 fields
#   magic "SHE1" as int64, format version, n_rows, n_cols, boundary code,
#   seed, replication
# then five float64 fields (R, dx, dt, T, level), then the values row-major
# as float64.  A JSON sidecar carries the full provenance dict.

_MAGIC = int.from_bytes(b"SHE1\x00\x00\x00\x00", "little")
_HEADER = struct.Struct("<7q5d")


def save_trajectory(traj: FieldTrajectory, bin_path, sidecar_path):
    """Write ``traj`` as a binary dump and its provenance as a JSON sidecar."""
    g = traj.grid
    header = _HEADER.pack(
        _MAGIC,
        1,
        traj.values.shape[0],
        traj.values.shape[1],
        BOUNDARIES.index(g.boundary),
        int(traj.noise_spec.seed),
        int(traj.noise_spec.replication),
        g.R,
        g.dx,
        g.dt,
        g.T,
        traj.level,
    )
    with open(bin_path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8"))  # the buffer itself, not a bytes copy
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(traj.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trajectory(bin_path, sidecar_path=None) -> FieldTrajectory:
    with open(bin_path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, version, n_rows, n_cols, bcode, seed, replication, R, dx, dt, T, level = _HEADER.unpack(raw)
        if magic != _MAGIC or version != 1:
            raise ValueError(f"{bin_path}: not a trajectory dump")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n_rows * n_cols:
        raise ValueError(f"{bin_path}: payload has {data.size} values, expected {n_rows * n_cols}")
    grid = GridSpec(R=R, dx=dx, dt=dt, T=T, boundary=BOUNDARIES[bcode])
    provenance = {}
    if sidecar_path is not None:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            provenance = json.load(fh)
    vals = data.reshape(n_rows, n_cols)
    vals.setflags(write=False)
    return FieldTrajectory(
        values=vals,
        grid=grid,
        level=level,
        noise_spec=NoiseSpec(seed=seed, replication=replication, grid=grid),
        provenance=provenance,
    )
