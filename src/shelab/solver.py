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

:func:`solve_batch` is the only stepping loop.  Replications are independent
by construction (counter-based noise), and the truncation argument compares
clamp levels driven by the same noise, so a batch of B replications at L
levels is advanced as one stacked (L, B, J) array: each step draws the
noise once, clips the state to the L clamp bounds once and calls each
coefficient once.  The arithmetic is elementwise, hence bit-identical
however the replications are batched and whichever levels share a pass;
coefficients must therefore act elementwise on arrays of any shape.  The
single-replication full-lattice solves (:func:`solve_lattice`,
:func:`solve_truncated`, :func:`solve_pair_coupled`) are views of that loop:
one replication, every step and cell probed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .coeff import Coefficient, TruncationLevel, _as_level
# unused here, kept importable: benchmark/tracer.py wraps it by name on this module
from .coeff import truncated_fn  # noqa: F401
from .grid import GridSpec, BOUNDARIES
from .noise import NoiseSpec, standard_normals
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
    "solve_lattice",
    "field_trajectories",
    "save_trajectory",
    "load_trajectory",
]


_BLOCK_DRAWS = 1 << 15  # noise draws per standard_normals call in solve_batch


class SolverBlowupError(RuntimeError):
    def __init__(self, step, cell):
        self.step = step
        self.cell = cell
        super().__init__(f"non-finite state produced at time step {step}, cell {cell}")


def _advance(state, t, dw, drift_fn, diffusion_fn, grid, bounds=None):
    """One explicit step on a (..., J) state block; fixed operation order.

    The state argument of both coefficients is clipped to ``[-bounds, bounds]``
    once (``bounds`` broadcasts against the state: shape (L, 1, 1) for L
    stacked clamp levels), or passed raw when ``bounds`` is None.
    """
    lam = grid.dt / (2.0 * grid.dx * grid.dx)
    if grid.boundary == "periodic":
        x = state if bounds is None else np.clip(state, -bounds, bounds)
        lap = np.roll(state, 1, axis=-1) - 2.0 * state + np.roll(state, -1, axis=-1)
        return state + lam * lap + grid.dt * drift_fn(t, x) + diffusion_fn(t, x) * (dw / grid.dx)
    out = state.copy()
    inner = state[..., 1:-1]
    x = inner if bounds is None else np.clip(inner, -bounds, bounds)
    lap = state[..., :-2] - 2.0 * inner + state[..., 2:]
    drift = drift_fn(t, x)
    diffusion = diffusion_fn(t, x)
    out[..., 1:-1] = inner + lam * lap + grid.dt * drift + diffusion * (dw[..., 1:-1] / grid.dx)
    return out


@dataclass(frozen=True)
class FieldTrajectory:
    """Solution values on the full (n_steps+1, n_points) lattice."""

    values: np.ndarray
    grid: GridSpec
    level: float
    noise_spec: NoiseSpec
    provenance: dict = field(default_factory=dict)

    def at(self, t: float, x: float):
        """Value at the lattice point nearest (t, x), with the snapped coordinates."""
        m = self.grid.t_index(t)
        j = self.grid.x_index(x)
        return float(self.values[m, j]), m * self.grid.dt, -self.grid.R + j * self.grid.dx

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
    level = _as_level(level)
    levels = (level.level, level.successor().level)
    return field_trajectories(solve_lattice(levels, b, sigma, u0, grid, noise_spec),
                              levels, b, sigma, u0, grid, noise_spec)


def solve_lattice(levels, b, sigma, u0, grid, noise_spec) -> "BatchSolution":
    """One replication at every clamp level of ``levels`` in one pass, every lattice point probed."""
    return solve_batch(levels, b, sigma, u0, grid, noise_spec.seed, [noise_spec.replication],
                       np.arange(grid.n_steps + 1), np.arange(grid.n_points))


def field_trajectories(sol, levels, b, sigma, u0, grid, noise_spec) -> list:
    """Read-only trajectories of a :func:`solve_lattice` pass at one level or one coupled pair.

    ``levels`` is ``(N,)`` or ``(N, N + 1)``; raises :class:`SolverBlowupError`
    at that run's first abort (for a pair, the first step at which either
    level blew up).
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
                "seed": int(noise_spec.seed), "replication": int(noise_spec.replication)}
        if len(levels) == 2:
            prov["coupled_with_level"] = float(other)
        trajs.append(FieldTrajectory(vals, grid, float(level), noise_spec, prov))
    return trajs


@dataclass(frozen=True)
class AbortRecord:
    replication: int
    step: int
    cell: int


@dataclass
class BatchSolution:
    """Probe-restricted output of a batch of replications at stacked clamp levels.

    ``samples[i]`` has shape (B, n_probe_times, n_probe_cells) and holds the
    solution at clamp level ``levels[i]``; a replication's samples at a level
    are NaN from the step it aborted at that level onward.  The per-run data
    is keyed by a tuple of levels: ``(N,)`` for the solve at each level and
    ``(N, N + 1)`` for each coupled pair of levels exactly one apart, whose
    run ends at the first abort of either level.
    """

    levels: tuple
    replications: np.ndarray
    probe_step_idx: np.ndarray
    probe_x_idx: np.ndarray
    samples: np.ndarray  # (n_levels, B, nt, nx)
    path_max_abs: dict  # key -> (B,) max |u| over the lattice and the key's levels, until the run's abort
    sup_abs_diff: dict  # (N, N + 1) -> (B,) pathwise sup |u_{N+1} - u_N|, until the pair's abort
    aborted: dict  # key -> [AbortRecord], by step, then replication

    def merged_with(self, other: "BatchSolution") -> "BatchSolution":
        assert self.levels == other.levels
        return BatchSolution(
            levels=self.levels,
            replications=np.concatenate([self.replications, other.replications]),
            probe_step_idx=self.probe_step_idx,
            probe_x_idx=self.probe_x_idx,
            samples=np.concatenate([self.samples, other.samples], axis=1),
            path_max_abs={k: np.concatenate([v, other.path_max_abs[k]]) for k, v in self.path_max_abs.items()},
            sup_abs_diff={k: np.concatenate([v, other.sup_abs_diff[k]]) for k, v in self.sup_abs_diff.items()},
            aborted={k: v + other.aborted[k] for k, v in self.aborted.items()},
        )


def solve_batch(levels, b, sigma, u0, grid: GridSpec, seed: int, replications,
                probe_step_idx, probe_x_idx) -> BatchSolution:
    """Advance a batch of replications at every clamp level of ``levels`` at once.

    ``levels`` is a strictly increasing tuple of clamp levels, advanced as
    one stacked (L, B, J) state under each replication's one noise
    realisation (common random numbers): each step makes one noise draw,
    one clip of the state to the per-level bounds and one call of each
    coefficient for all levels.  The arithmetic is elementwise, so every
    level's bits equal those of a solve at that level alone.  Liveness, path
    max and aborts are kept per (level, replication), and per coupled pair
    of levels exactly one apart, with the pair's sup difference.  This is
    the package's one stepping loop.  Noise is drawn for a block of steps
    per call (up to ``_BLOCK_DRAWS`` draws); each draw depends only on
    ``(seed, replication, m, j)``, so the block size never changes a bit.
    """
    levels = tuple(_as_level(v).level for v in levels)
    if not all(a < b_ for a, b_ in zip(levels, levels[1:])):
        raise ValueError(f"clamp levels must be strictly increasing, got {levels}")
    pairs = [(i, j) for i, lo in enumerate(levels) for j, hi in enumerate(levels) if hi == lo + 1.0]
    lo_idx, hi_idx = [i for i, _ in pairs], [j for _, j in pairs]
    reps = np.asarray(replications, dtype=np.uint64)
    L, B = len(levels), reps.size
    probe_step_idx = np.asarray(probe_step_idx, dtype=int)
    probe_x_idx = np.asarray(probe_x_idx, dtype=int)
    slot_of_step = {int(s): i for i, s in enumerate(probe_step_idx)}

    bounds = np.array([TruncationLevel(v).clamp_bound for v in levels])[:, None, None]
    row0 = u0(grid.xs)
    state = np.tile(row0, (L, B, 1))

    samples = np.full((L, B, probe_step_idx.size, probe_x_idx.size), np.nan)
    path_max = np.full((L, B), float(np.max(np.abs(row0))))
    pair_max = np.full((len(pairs), B), float(np.max(np.abs(row0))))
    sup_diff = np.zeros((len(pairs), B))
    alive = np.ones((L, B), dtype=bool)
    any_dead = False
    death_step = np.full((L, B), grid.n_steps)
    death_cell = np.zeros((L, B), dtype=int)

    cells = np.arange(grid.n_points, dtype=np.uint64)
    reps_col = reps[:, None, None]
    block = max(1, _BLOCK_DRAWS // (B * grid.n_points))
    scale = math.sqrt(grid.dt * grid.dx)

    if 0 in slot_of_step:
        samples[:, :, slot_of_step[0], :] = state[:, :, probe_x_idx]

    for m in range(grid.n_steps):
        if m % block == 0:
            steps = np.arange(m, min(m + block, grid.n_steps), dtype=np.uint64)[:, None]
            noise = standard_normals(seed, reps_col, steps, cells) * scale  # (B, block, J)
        state = _advance(state, m * grid.dt, noise[:, m % block], b, sigma, grid, bounds)

        finite = np.isfinite(state).all(axis=-1)
        newly_dead = alive & ~finite
        if newly_dead.any():
            death_step[newly_dead] = m
            death_cell[newly_dead] = np.argmax(~np.isfinite(state[newly_dead]), axis=-1)
            alive &= finite
            any_dead = True
            if not alive.any():
                break
        if any_dead:
            state[~alive] = 0.0  # dead rows add nothing to path max or sup difference

        row_max = np.abs(state).max(axis=-1)
        np.maximum(path_max, row_max, out=path_max)
        if pairs:
            diff = np.abs(state[hi_idx] - state[lo_idx]).max(axis=-1)
            both_max = np.maximum(row_max[lo_idx], row_max[hi_idx])
            if any_dead:
                pair_dead = ~(alive[lo_idx] & alive[hi_idx])
                diff[pair_dead] = 0.0
                both_max[pair_dead] = 0.0
            np.maximum(sup_diff, diff, out=sup_diff)
            np.maximum(pair_max, both_max, out=pair_max)

        slot = slot_of_step.get(m + 1)
        if slot is not None:
            samples[:, :, slot, :] = state[:, :, probe_x_idx]

    # a replication's probes after the step it died at are NaN
    samples[probe_step_idx > death_step[:, :, None]] = np.nan

    def records(step, cell):
        dead = np.flatnonzero(step < grid.n_steps)
        return [AbortRecord(int(reps[r]), int(step[r]), int(cell[r]))
                for r in dead[np.argsort(step[dead], kind="stable")]]

    path_max_abs, aborted = {}, {}
    for i, level in enumerate(levels):
        path_max_abs[(level,)] = path_max[i]
        aborted[(level,)] = records(death_step[i], death_cell[i])
    for p, (i, j) in enumerate(pairs):
        # the pair's run ends at the first (step, cell) at which either level blew up
        hi_first = (death_step[j] < death_step[i]) | (
            (death_step[j] == death_step[i]) & (death_cell[j] < death_cell[i]))
        key = (levels[i], levels[j])
        path_max_abs[key] = pair_max[p]
        aborted[key] = records(np.where(hi_first, death_step[j], death_step[i]),
                               np.where(hi_first, death_cell[j], death_cell[i]))

    return BatchSolution(
        levels=levels,
        replications=reps,
        probe_step_idx=probe_step_idx,
        probe_x_idx=probe_x_idx,
        samples=samples,
        path_max_abs=path_max_abs,
        sup_abs_diff={(levels[i], levels[j]): sup_diff[p] for p, (i, j) in enumerate(pairs)},
        aborted=aborted,
    )


# -- trajectory persistence ---------------------------------------------------
#
# Binary layout (all little-endian): seven int64 fields
#   magic "SHE1" as int64, format version, n_rows, n_cols, boundary code,
#   seed, replication
# then five float64 fields (R, dx, dt, T, level), then the values row-major
# as float64.  A JSON sidecar carries the full provenance dict.

_MAGIC = int.from_bytes(b"SHE1\x00\x00\x00\x00", "little")
_HEADER = struct.Struct("<7q5d")


def save_trajectory(traj: FieldTrajectory, bin_path, sidecar_path=None):
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
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())
    if sidecar_path is not None:
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
