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
by construction (counter-based noise), so a batch of replications is
advanced as one (B, J) array; the arithmetic is elementwise, hence
bit-identical however the replications are batched.  The single-replication
full-lattice solves (:func:`solve_truncated`, :func:`solve_pair_coupled`)
are views of that loop: one replication, every step and cell probed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .coeff import Coefficient, truncated_fn, _as_level
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
    "save_trajectory",
    "load_trajectory",
]


_BLOCK_DRAWS = 1 << 15  # noise draws per standard_normals call in solve_batch


class SolverBlowupError(RuntimeError):
    def __init__(self, step, cell):
        self.step = step
        self.cell = cell
        super().__init__(f"non-finite state produced at time step {step}, cell {cell}")


def _advance(state, t, dw, drift_fn, diffusion_fn, grid):
    """One explicit step on a (..., J) state block; fixed operation order."""
    lam = grid.dt / (2.0 * grid.dx * grid.dx)
    if grid.boundary == "periodic":
        lap = np.roll(state, 1, axis=-1) - 2.0 * state + np.roll(state, -1, axis=-1)
        return state + lam * lap + grid.dt * drift_fn(t, state) + diffusion_fn(t, state) * (dw / grid.dx)
    out = state.copy()
    inner = state[..., 1:-1]
    lap = state[..., :-2] - 2.0 * inner + state[..., 2:]
    drift = drift_fn(t, inner)
    diffusion = diffusion_fn(t, inner)
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
    (traj,) = _full_lattice((_as_level(level),), b, sigma, u0, grid, noise_spec)
    return traj


def solve_pair_coupled(level, b, sigma, u0, grid, noise_spec):
    """Solve at clamp levels N and N+1 under pathwise-identical noise."""
    level = _as_level(level)
    return _full_lattice((level, level.successor()), b, sigma, u0, grid, noise_spec)


def _full_lattice(levels, b, sigma, u0, grid, noise_spec):
    """One replication through :func:`solve_batch`, every lattice point probed."""
    sol = solve_batch(levels, b, sigma, u0, grid, noise_spec.seed, [noise_spec.replication],
                      np.arange(grid.n_steps + 1), np.arange(grid.n_points))
    if sol.aborted:
        raise SolverBlowupError(sol.aborted[0].step, sol.aborted[0].cell)
    trajs = []
    for level, other, vals in zip(levels, levels[::-1], sol.samples[:, 0]):
        vals.setflags(write=False)
        prov = {"level": float(level.level), "drift": b.name, "diffusion": sigma.name,
                "u0": u0.describe(), "grid": grid.describe(),
                "seed": int(noise_spec.seed), "replication": int(noise_spec.replication)}
        if len(levels) == 2:
            prov["coupled_with_level"] = float(other.level)
        trajs.append(FieldTrajectory(vals, grid, level.level, noise_spec, prov))
    return trajs


@dataclass(frozen=True)
class AbortRecord:
    replication: int
    step: int
    cell: int


@dataclass
class BatchSolution:
    """Probe-restricted output of a batch of replications.

    ``samples[i]`` has shape (B, n_probe_times, n_probe_cells) and holds the
    solution at clamp level ``levels[i]``; aborted replications are NaN from
    their failure step onward and listed in ``aborted``.
    """

    levels: tuple
    replications: np.ndarray
    probe_step_idx: np.ndarray
    probe_x_idx: np.ndarray
    samples: np.ndarray  # (n_levels, B, nt, nx)
    path_max_abs: np.ndarray  # (B,) max |u| over lattice, all levels
    sup_abs_diff: np.ndarray | None  # (B,) pathwise sup |u_hi - u_lo|, pairs only
    aborted: list

    def merged_with(self, other: "BatchSolution") -> "BatchSolution":
        assert self.levels == other.levels
        return BatchSolution(
            levels=self.levels,
            replications=np.concatenate([self.replications, other.replications]),
            probe_step_idx=self.probe_step_idx,
            probe_x_idx=self.probe_x_idx,
            samples=np.concatenate([self.samples, other.samples], axis=1),
            path_max_abs=np.concatenate([self.path_max_abs, other.path_max_abs]),
            sup_abs_diff=(
                None
                if self.sup_abs_diff is None
                else np.concatenate([self.sup_abs_diff, other.sup_abs_diff])
            ),
            aborted=self.aborted + other.aborted,
        )


def solve_batch(levels, b, sigma, u0, grid: GridSpec, seed: int, replications,
                probe_step_idx, probe_x_idx) -> BatchSolution:
    """Advance a batch of replications at one or two clamp levels at once.

    ``levels`` is a tuple of one or two clamp levels; with two, both solves
    share each replication's noise realisation (common random numbers).
    This is the package's one stepping loop: :func:`solve_truncated` and
    :func:`solve_pair_coupled` are views of it with one replication and
    every lattice point probed.  Noise is drawn for a block of steps per
    call (up to ``_BLOCK_DRAWS`` draws); each draw depends only on
    ``(seed, replication, m, j)``, so the block size never changes a bit.
    """
    levels = tuple(_as_level(v) for v in levels)
    reps = np.asarray(replications, dtype=np.uint64)
    B = reps.size
    probe_step_idx = np.asarray(probe_step_idx, dtype=int)
    probe_x_idx = np.asarray(probe_x_idx, dtype=int)
    slot_of_step = {int(s): i for i, s in enumerate(probe_step_idx)}

    fns = [(truncated_fn(b, lv), truncated_fn(sigma, lv)) for lv in levels]
    row0 = u0(grid.xs)
    states = [np.tile(row0, (B, 1)) for _ in levels]

    samples = np.full((len(levels), B, probe_step_idx.size, probe_x_idx.size), np.nan)
    path_max = np.full(B, float(np.max(np.abs(row0))))
    sup_diff = np.zeros(B) if len(levels) == 2 else None
    alive = np.ones(B, dtype=bool)
    death_step = np.full(B, grid.n_steps)
    aborted = []

    cells = np.arange(grid.n_points, dtype=np.uint64)
    reps_col = reps[:, None, None]
    block = max(1, _BLOCK_DRAWS // (B * grid.n_points))
    scale = math.sqrt(grid.dt * grid.dx)

    if 0 in slot_of_step:
        for i, st in enumerate(states):
            samples[i, :, slot_of_step[0], :] = st[:, probe_x_idx]

    for m in range(grid.n_steps):
        if m % block == 0:
            steps = np.arange(m, min(m + block, grid.n_steps), dtype=np.uint64)[:, None]
            noise = standard_normals(seed, reps_col, steps, cells) * scale  # (B, block, J)
        dw = noise[:, m % block]
        t = m * grid.dt
        for i, (drift, diffusion) in enumerate(fns):
            states[i] = _advance(states[i], t, dw, drift, diffusion, grid)

        finite = np.isfinite(states[0]).all(axis=-1)
        for st in states[1:]:
            finite &= np.isfinite(st).all(axis=-1)
        newly_dead = alive & ~finite
        if newly_dead.any():
            for r in np.flatnonzero(newly_dead):
                bad = ~np.isfinite(states[0][r])
                for st in states[1:]:
                    bad |= ~np.isfinite(st[r])
                aborted.append(AbortRecord(int(reps[r]), m, int(np.argmax(bad))))
            death_step[newly_dead] = m
            alive &= finite
            if not alive.any():
                break
        if aborted:
            for st in states:
                st[~alive] = 0.0  # dead rows add nothing to path max or sup difference

        for st in states:
            np.maximum(path_max, np.abs(st).max(axis=-1), out=path_max)
        if sup_diff is not None:
            np.maximum(sup_diff, np.abs(states[1] - states[0]).max(axis=-1), out=sup_diff)

        slot = slot_of_step.get(m + 1)
        if slot is not None:
            for i, st in enumerate(states):
                samples[i, :, slot, :] = st[:, probe_x_idx]

    # a replication's probes after the step it died at are NaN
    samples[:, probe_step_idx[None, :] > death_step[:, None]] = np.nan

    return BatchSolution(
        levels=tuple(lv.level for lv in levels),
        replications=reps,
        probe_step_idx=probe_step_idx,
        probe_x_idx=probe_x_idx,
        samples=samples,
        path_max_abs=path_max,
        sup_abs_diff=sup_diff,
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
