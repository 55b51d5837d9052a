import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from shelab import expr, harness
from shelab.coeff import Coefficient, truncated_fn
from shelab.grid import GridSpec
from heat_reference import initial_convolution
from shelab.kernel import InitialCondition
from shelab import solver
from shelab.noise import NoiseSpec, standard_normals
from shelab.solver import (
    SolverBlowupError,
    field_trajectories,
    load_trajectory,
    save_trajectory,
    solve_batch,
    solve_lattice,
    solve_pair_coupled,
    solve_truncated,
)

ZERO = Coefficient.from_source("zero")
ONE = Coefficient.from_source("one")
LINEAR = Coefficient.from_source("linear")


def x_index(g, x):
    """Nearest lattice site of grid ``g`` to ``x``."""
    return int(round((x + g.R) / g.dx))


def mkgrid(**kw):
    args = dict(R=4.0, dx=0.1, dt=0.005, T=0.25, boundary="dirichlet")
    args.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GridSpec(**args)


def cell_increments(grid, seed, rep, m):
    """The noise increments dW[m, :] of one replication, drawn directly."""
    cells = np.arange(grid.n_points, dtype=np.uint64)
    return standard_normals(seed, rep, m, cells, grid.n_points) * math.sqrt(grid.dt * grid.dx)


def reference_advance(state, t, dw, drift_fn, diffusion_fn, grid):
    """One explicit step on a (J,) row, returned as a new array: the scheme written out directly.

    Copy-and-slice for Dirichlet ends, ``np.roll`` for the periodic wrap,
    in the solver's operation order; reference loops check the solver's
    in-place, ghost-column step against it.
    """
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


class TestStepExplicit:
    """The explicit step, observed on the lattice that the one loop records."""

    def test_constant_row_is_fixed_point_without_forcing(self):
        g = mkgrid()
        traj = solve_truncated(5.0, ZERO, ZERO, InitialCondition.constant(3.25), g,
                               NoiseSpec(seed=0, replication=0, grid=g))
        assert np.all(traj.values == 3.25)

    def test_unit_drift_accumulates_dt_per_step_periodic(self):
        g = mkgrid(boundary="periodic")
        traj = solve_truncated(5.0, ONE, ZERO, InitialCondition.constant(0.0), g,
                               NoiseSpec(seed=0, replication=0, grid=g))
        expected = 0.0
        for row in traj.values[1:]:
            expected += g.dt
            assert np.all(row == expected)
        assert expected == pytest.approx(g.n_steps * g.dt, rel=1e-12)

    def test_unit_drift_first_step_dirichlet_interior(self):
        g = mkgrid()
        traj = solve_truncated(5.0, ONE, ZERO, InitialCondition.constant(0.0), g,
                               NoiseSpec(seed=0, replication=0, grid=g))
        row = traj.values[1]
        assert np.all(row[1:-1] == g.dt)
        assert np.all(traj.values[:, 0] == 0.0) and np.all(traj.values[:, -1] == 0.0)  # frozen ends

    def test_one_step_additive_noise_is_scaled_increments(self):
        g = mkgrid()
        traj = solve_truncated(5.0, ZERO, ONE, InitialCondition.constant(0.0), g,
                               NoiseSpec(seed=3, replication=0, grid=g))
        dw = cell_increments(g, 3, 0, 0)
        assert np.array_equal(traj.values[1, 1:-1], dw[1:-1] / g.dx)

    def test_one_step_noise_variance_is_dt_over_dx(self):
        g = mkgrid(R=2.0)
        batch = solve_batch((5.0,), ZERO, ONE, InitialCondition.constant(0.0), g, 91,
                            np.arange(200), np.array([1]), np.arange(g.n_points))
        vals = batch.samples[0, :, 0, 1:-1].ravel()
        target = g.dt / g.dx
        # chi-square band: sd of the sample variance is target * sqrt(2/n)
        assert np.var(vals) == pytest.approx(target, abs=5 * target * math.sqrt(2.0 / vals.size))

    def test_nonfinite_output_aborts_with_location(self):
        g = mkgrid()
        explode = Coefficient.from_callable(
            "explode",
            lambda t, x: np.where((np.arange(x.shape[-1]) == 17) & (t >= 4 * g.dt), np.inf, 0.0)
            * np.ones_like(x),
        )
        u0 = InitialCondition.constant(0.0)
        with pytest.raises(SolverBlowupError) as exc:
            solve_truncated(5.0, explode, ZERO, u0, g, NoiseSpec(seed=0, replication=0, grid=g))
        assert exc.value.step == 4
        assert exc.value.cell == 18  # interior offset 17 maps to lattice cell 18
        with pytest.raises(SolverBlowupError) as exc:
            solve_pair_coupled(5.0, explode, ZERO, u0, g, NoiseSpec(seed=0, replication=0, grid=g))
        assert (exc.value.step, exc.value.cell) == (4, 18)
        batch = solve_batch((5.0,), explode, ZERO, u0, g, 0, np.arange(2), np.array([4, 5]), np.array([18]))
        assert [(a.replication, a.step, a.cell) for a in batch.aborted[(5.0,)]] == [(0, 4, 18), (1, 4, 18)]
        # an aborted run has no statistics, not even the probe at step 4, before the abort
        assert np.isnan(batch.samples).all() and np.isnan(batch.path_max_abs[(5.0,)]).all()


class TestSolveTruncated:
    def test_deterministic_heat_flow_matches_convolution(self):
        g = mkgrid(R=8.0, dx=0.05, dt=0.001, T=0.25)
        u0 = InitialCondition.indicator(-1.0, 1.0)
        traj = solve_truncated(5.0, ZERO, ZERO, u0, g, NoiseSpec(seed=1, replication=0, grid=g))
        got = traj.values[g.t_index(0.25), x_index(g, 0.0)]
        ref = initial_convolution(u0, 0.25, 0.0)
        assert abs(got - ref) <= 2.0 * g.dx

    def test_initial_row_is_exact(self):
        g = mkgrid()
        u0 = InitialCondition.indicator(-1.0, 1.0)
        traj = solve_truncated(2.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=2, replication=0, grid=g))
        assert np.array_equal(traj.values[0], u0(g.xs))

    def test_inactive_clamp_levels_are_bit_identical(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        spec = NoiseSpec(seed=17, replication=0, grid=g)
        a = solve_truncated(30.0, ZERO, LINEAR, u0, g, spec)
        b = solve_truncated(50.0, ZERO, LINEAR, u0, g, spec)
        assert np.array_equal(a.values, b.values)
        # and identical to integrating the raw, unclamped coefficients
        raw = np.empty_like(a.values)
        raw[0] = u0(g.xs)
        for m in range(g.n_steps):
            raw[m + 1] = reference_advance(raw[m], m * g.dt, cell_increments(g, 17, 0, m), ZERO, LINEAR, g)
        assert np.array_equal(a.values, raw)

    def test_determinism(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        spec = NoiseSpec(seed=99, replication=7, grid=g)
        a = solve_truncated(3.0, Coefficient.from_source("affine"), LINEAR, u0, g, spec)
        b = solve_truncated(3.0, Coefficient.from_source("affine"), LINEAR, u0, g, spec)
        assert np.array_equal(a.values, b.values)

    def test_multiplicative_noise_preserves_replication_mean(self):
        # stochastic forcing integrates to zero in expectation
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        vals = []
        for rep in range(400):
            traj = solve_truncated(3.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=314, replication=rep, grid=g))
            vals.append(traj.values[g.t_index(0.25), x_index(g, 0.0)])
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_comparison_principle_additive_noise(self):
        g = mkgrid()
        spec = NoiseSpec(seed=5, replication=1, grid=g)
        a = solve_truncated(20.0, ZERO, ONE, InitialCondition.constant(0.5), g, spec)
        b = solve_truncated(20.0, ZERO, ONE, InitialCondition.constant(1.5), g, spec)
        np.testing.assert_allclose(b.values - a.values, 1.0, rtol=0, atol=1e-10)

    def test_refinement_consistency_order_two(self):
        # smooth profile; dt = 0.05 dx^2 keeps the parabolic ratio fixed;
        # probe x-coordinates must be lattice points at every resolution
        u0 = InitialCondition.from_expression("exp(-x^2)", bound=1.0)
        probes = [(0.25, 0.0), (0.25, 1.0)]
        vals = []
        for dx in (0.2, 0.1, 0.05):
            g = mkgrid(R=8.0, dx=dx, dt=0.05 * dx * dx, T=0.25)
            traj = solve_truncated(5.0, ZERO, ZERO, u0, g, NoiseSpec(seed=1, replication=0, grid=g))
            vals.append([traj.values[g.t_index(t), x_index(g, x)] for t, x in probes])
        err_coarse = abs(vals[0][0] - vals[1][0]) + abs(vals[0][1] - vals[1][1])
        err_fine = abs(vals[1][0] - vals[2][0]) + abs(vals[1][1] - vals[2][1])
        assert 3.0 <= err_coarse / err_fine <= 5.0

    def test_window_truncation_insensitivity(self):
        u0 = InitialCondition.indicator(-1.0, 1.0)
        outs = []
        for R in (8.0, 12.0):
            g = mkgrid(R=R, dx=0.05, dt=0.001, T=0.25)
            traj = solve_truncated(5.0, ZERO, ZERO, u0, g, NoiseSpec(seed=1, replication=0, grid=g))
            outs.append([traj.values[g.t_index(0.25), x_index(g, x)] for x in (-1.0, 0.0, 1.0)])
        assert np.max(np.abs(np.array(outs[0]) - np.array(outs[1]))) < 1e-8


class TestSolvePairCoupled:
    def test_inactive_clamps_give_identical_trajectories(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        low, high = solve_pair_coupled(20.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=8, replication=0, grid=g))
        assert np.array_equal(low.values, high.values)
        assert low.level == 20.0 and high.level == 21.0

    def test_provenance_names_the_coupled_level(self):
        g = mkgrid()
        spec = NoiseSpec(seed=8, replication=2, grid=g)
        low, high = solve_pair_coupled(3.0, ZERO, LINEAR, InitialCondition.constant(1.0), g, spec)
        assert (low.provenance["level"], low.provenance["coupled_with_level"]) == (3.0, 4.0)
        assert (high.provenance["level"], high.provenance["coupled_with_level"]) == (4.0, 3.0)
        assert low.provenance["replication"] == 2 and not low.values.flags.writeable

    def test_sup_difference_recorded_and_finite(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        low, high = solve_pair_coupled(0.5, ZERO, LINEAR, u0, g, NoiseSpec(seed=8, replication=0, grid=g))
        sup = float(np.max(np.abs(high.values - low.values)))
        assert math.isfinite(sup)
        assert sup > 0  # clamp bound e^0.5 < 1.65 engages for this profile

    def test_lower_level_increases_difference_per_seed(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        for rep in range(3):
            spec = NoiseSpec(seed=2024, replication=rep, grid=g)
            sups = []
            for level in (0.25, 0.75, 1.5):
                low, high = solve_pair_coupled(level, ZERO, LINEAR, u0, g, spec)
                sups.append(float(np.max(np.abs(high.values - low.values))))
            assert sups[0] > sups[1] > sups[2]


class TestSolveBatch:
    def test_batch_matches_single_replication_bitwise(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        steps = np.array([10, 25, 50])
        cells = np.array([0, 20, 40, 60, 80])
        batch = solve_batch((2.0,), ZERO, LINEAR, u0, g, 123, np.arange(6), steps, cells)
        for rep in range(6):
            traj = solve_truncated(2.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=123, replication=rep, grid=g))
            assert np.array_equal(batch.samples[0, rep], traj.values[np.ix_(steps, cells)])

    def test_pair_batch_tracks_sup_difference(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        batch = solve_batch((0.5, 1.5), ZERO, LINEAR, u0, g, 123, np.arange(4), np.array([50]), np.array([40]),
                            pairs=[(0.5, 1.5)])
        for rep in range(4):
            low, high = solve_pair_coupled(
                0.5, ZERO, LINEAR, u0, g, NoiseSpec(seed=123, replication=rep, grid=g)
            )
            assert batch.sup_abs_diff[(0.5, 1.5)][rep] == pytest.approx(
                float(np.max(np.abs(high.values - low.values))), rel=0, abs=0
            )

    # 50 steps as 7 blocks of 7, then 1 (the call's limit), or as 10 blocks of 5 (the replication's)
    @pytest.mark.parametrize("limit,steps_per_block", [("_NOISE_DRAWS", 7), ("_SPAN_DRAWS", 5)])
    def test_noise_block_size_does_not_change_bits(self, limit, steps_per_block, monkeypatch):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        args = ((0.5, 1.5), ZERO, LINEAR, u0, g, 123, np.arange(3), np.arange(g.n_steps + 1), np.arange(g.n_points))
        whole = solve_batch(*args, pairs=[(0.5, 1.5)])  # one draw covers the horizon
        per_block = steps_per_block * g.n_points * (3 if limit == "_NOISE_DRAWS" else 1)
        monkeypatch.setattr(solver, limit, per_block)
        blocked = solve_batch(*args, pairs=[(0.5, 1.5)])
        assert np.array_equal(whole.samples, blocked.samples)
        assert np.array_equal(whole.sup_abs_diff[(0.5, 1.5)], blocked.sup_abs_diff[(0.5, 1.5)])

    @pytest.mark.parametrize("boundary,written", [("dirichlet", slice(1, -1)), ("periodic", slice(None))])
    def test_noise_is_drawn_for_the_written_cells_alone(self, boundary, written, monkeypatch):
        g = mkgrid(boundary=boundary)
        drawn = []

        def recorded(seed, replication, m, j, n_points):
            drawn.append(j)
            return standard_normals(seed, replication, m, j, n_points)

        monkeypatch.setattr(solver, "standard_normals", recorded)
        solve_batch((1.0, 2.0), ZERO, LINEAR, InitialCondition.constant(1.0), g, 3, np.arange(2),
                    np.array([g.n_steps]), np.array([40]))
        assert drawn and all(np.array_equal(j, np.arange(g.n_points)[written]) for j in drawn)

    def test_blowup_is_recorded_and_isolated(self):
        # a drift that returns inf once the state crosses a threshold kills
        # exactly the replications whose noise pushes them there; survivors
        # must be untouched (their paths never see the bomb)
        g = mkgrid(T=0.25)
        u0 = InitialCondition.constant(1.0)
        reps = np.arange(8)
        clean = solve_batch(
            (9.0,), ZERO, LINEAR, u0, g, 5, reps, np.array([g.n_steps]), np.array([40])
        )
        tau = float(np.median(clean.path_max_abs[(9.0,)]))  # roughly half the paths cross
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > tau, np.inf, 0.0))
        batch = solve_batch(
            (9.0,), bomb, LINEAR, u0, g, 5, reps, np.array([g.n_steps]), np.array([40])
        )
        assert 0 < len(batch.aborted[(9.0,)]) < len(reps)
        dead = {a.replication for a in batch.aborted[(9.0,)]}
        for r in reps:
            if int(r) in dead:
                assert np.isnan(batch.samples[0, r]).all()
            else:
                assert np.isfinite(batch.samples[0, r]).all()
                # surviving replications match their standalone solve exactly
                traj = solve_truncated(
                    9.0, bomb, LINEAR, u0, g, NoiseSpec(seed=5, replication=int(r), grid=g)
                )
                assert batch.samples[0, r, 0, 0] == traj.values[g.n_steps, 40]


def first_abort(records_lo, records_hi):
    """A coupled pair's abort records from its two levels' own records."""
    by_rep = {}
    for a in records_lo + records_hi:
        if a.replication not in by_rep or (a.step, a.cell) < (by_rep[a.replication].step, by_rep[a.replication].cell):
            by_rep[a.replication] = a
    return sorted(by_rep.values(), key=lambda a: a.step)  # stable: replication order within a step


class TestStackedLevels:
    """Every level of a stacked pass equals its own solve, bit for bit."""

    def assert_matches_separate(self, levels, b, sigma, u0, g, seed, reps, steps, cells):
        pairs = [(lo, hi) for lo in levels for hi in levels if hi == lo + 1.0]
        stacked = solve_batch(levels, b, sigma, u0, g, seed, reps, steps, cells, pairs=pairs)
        assert stacked.levels == levels
        for i, level in enumerate(levels):
            alone = solve_batch((level,), b, sigma, u0, g, seed, reps, steps, cells)
            assert np.array_equal(stacked.samples[i], alone.samples[0], equal_nan=True)
            assert np.array_equal(stacked.path_max_abs[(level,)], alone.path_max_abs[(level,)], equal_nan=True)
            assert stacked.aborted[(level,)] == alone.aborted[(level,)]
        assert sorted(stacked.sup_abs_diff) == pairs
        for lo, hi in pairs:
            assert stacked.aborted[(lo, hi)] == first_abort(stacked.aborted[(lo,)], stacked.aborted[(hi,)])
            alone = solve_batch((lo, hi), b, sigma, u0, g, seed, reps, steps, cells, pairs=[(lo, hi)])
            for got, want in ((stacked.sup_abs_diff, alone.sup_abs_diff),
                              (stacked.path_max_abs, alone.path_max_abs),
                              (stacked.aborted, alone.aborted)):
                assert np.array_equal(got[(lo, hi)], want[(lo, hi)], equal_nan=True)
        return stacked

    def assert_matches_reference_loop(self, g, b, sigma, u0, levels, seed, rep):
        # the pre-stacking loop: each level on its own, each coefficient clipping its own argument
        sol = solve_lattice(levels, b, sigma, u0, g, NoiseSpec(seed=seed, replication=rep, grid=g))
        for i, level in enumerate(levels):
            row = u0(g.xs)
            assert np.array_equal(sol.samples[i, 0, 0], row)
            for m in range(g.n_steps):
                row = reference_advance(row, m * g.dt, cell_increments(g, seed, rep, m),
                                        truncated_fn(b, level), truncated_fn(sigma, level), g)
                assert np.array_equal(sol.samples[i, 0, m + 1], row)
        return sol

    def test_one_clip_per_step_matches_a_clip_per_coefficient(self):
        g = mkgrid()
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
        self.assert_matches_reference_loop(g, b, sigma, InitialCondition.constant(1.0), (0.0, 0.5, 1.0, 3.0), 11, 2)

    def test_periodic_ghost_columns_match_the_roll_reference(self):
        # a profile that is off-centre and sits on the right end: the wrap
        # carries it into the left cells, and a wrap the wrong way (or one
        # cell off) changes the lattice from the first step on
        g = mkgrid(boundary="periodic")
        b, sigma = Coefficient.parse("0.5*sin(x)+1"), Coefficient.parse("x/(1+abs(x)/8)")
        u0 = InitialCondition.indicator(2.5, 4.0)
        sol = self.assert_matches_reference_loop(g, b, sigma, u0, (0.5, 3.0), 4, 1)
        assert sol.samples[:, 0, 1, 0].min() > sol.samples[:, 0, 1, 1].max()

    @pytest.mark.parametrize("b,sigma,levels,top_bites", [
        (ZERO, LINEAR, (0.25, 0.5, 1.25, 1.5), True),
        (ZERO, LINEAR, (0.25, 0.5, 1.5, 2.5), False),
        (Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x*exp(-abs(x)/8)"), (0.25, 0.5, 1.25, 1.5), False),
    ])
    def test_four_levels_equal_separate_solves(self, b, sigma, levels, top_bites):
        g = mkgrid()
        stacked = self.assert_matches_separate(levels, b, sigma, InitialCondition.constant(1.0), g,
                                               123, np.arange(5), np.array([10, 25, 50]), np.array([0, 20, 40, 60, 80]))
        # the lowest level's clamp bites; the top level's as given
        bites = [bool((stacked.path_max_abs[(v,)] > math.exp(v)).any()) for v in levels]
        assert bites[0] and bites[-1] == top_bites

    def test_every_level_is_sampled_in_level_order(self):
        g = mkgrid()
        args = (ONE, LINEAR, InitialCondition.constant(1.0), g, 3, np.arange(2), np.array([0, 10, 50]),
                np.array([5, 40]))
        levels = (1.0, 2.0, 3.0)
        full = solve_batch(levels, *args)
        assert full.samples.shape == (3, 2, 3, 2)
        for i, level in enumerate(levels):
            assert np.array_equal(full.samples[i], solve_batch((level,), *args).samples[0])
        # there is no option to sample a subset of the levels
        with pytest.raises(TypeError, match="probe_levels"):
            solve_batch(levels, *args, probe_levels=(3.0, 1.0))

    def test_non_adjacent_pairs_and_periodic_boundary(self):
        g = mkgrid(boundary="periodic")
        stacked = self.assert_matches_separate(
            (1.0, 1.5, 2.0, 2.5), Coefficient.from_source("affine"), LINEAR, InitialCondition.indicator(-1.0, 1.0), g,
            7, np.arange(3), np.arange(g.n_steps + 1), np.arange(g.n_points))
        assert sorted(stacked.sup_abs_diff) == [(1.0, 2.0), (1.5, 2.5)]
        # the sup difference spans the whole lattice of the pair
        for lo, hi in stacked.sup_abs_diff:
            whole = np.abs(stacked.samples[stacked.levels.index(hi)] - stacked.samples[stacked.levels.index(lo)])
            assert np.array_equal(stacked.sup_abs_diff[(lo, hi)], whole.max(axis=(1, 2)))

    def test_blowup_above_one_clamp_bound_kills_only_that_level(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        levels = (0.5, 1.0, 1.5, 2.0)  # clamp bounds 1.6, 2.7, 4.5, 7.4
        # the clipped state exceeds 6 only under the level-2 clamp
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 6.0, np.inf, 0.0))
        reps = np.arange(32)
        stacked = self.assert_matches_separate(levels, bomb, LINEAR, u0, g, 5, reps,
                                               np.array([5, g.n_steps]), np.array([20, 40]))
        dead = {a.replication for a in stacked.aborted[(2.0,)]}
        assert 0 < len(dead) < len(reps)
        assert stacked.aborted[(1.0, 2.0)] == stacked.aborted[(2.0,)]
        for level in levels[:3]:
            assert stacked.aborted[(level,)] == [] and np.isfinite(stacked.samples[levels.index(level)]).all()
        assert stacked.aborted[(0.5, 1.5)] == []
        # an aborted run has no statistics: every probe of a dead row and its path max are NaN, and
        # so are its pair's path max and sup difference; every live run is finite
        died = np.isin(reps, list(dead))
        assert np.isnan(stacked.samples[3, died]).all() and np.isfinite(stacked.samples[3, ~died]).all()
        for stats in (stacked.path_max_abs[(2.0,)], stacked.path_max_abs[(1.0, 2.0)], stacked.sup_abs_diff[(1.0, 2.0)]):
            assert np.array_equal(np.isnan(stats), died)

    def test_pairs_are_tracked_only_on_request(self):
        # the bomb kills some level-2 runs, so the pair (1, 2) has abort records
        g = mkgrid()
        levels = (0.5, 1.0, 1.5, 2.0)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 6.0, np.inf, 0.0))
        args = (bomb, LINEAR, InitialCondition.constant(1.0), g, 5, np.arange(32), np.array([5, g.n_steps]),
                np.array([20, 40]))
        every = solve_batch(levels, *args, pairs=[(0.5, 1.5), (1.0, 2.0)])
        one = solve_batch(levels, *args, pairs=[(1.0, 2.0)])
        none = solve_batch(levels, *args)
        assert every.aborted[(1.0, 2.0)]
        assert list(one.sup_abs_diff) == [(1.0, 2.0)] and none.sup_abs_diff == {}
        for sol in (one, none):
            assert np.array_equal(sol.samples, every.samples, equal_nan=True)
            assert (0.5, 1.5) not in sol.path_max_abs and (0.5, 1.5) not in sol.aborted
            for key in sol.path_max_abs:
                assert np.array_equal(sol.path_max_abs[key], every.path_max_abs[key], equal_nan=True)
                assert sol.aborted[key] == every.aborted[key]
        assert np.array_equal(one.sup_abs_diff[(1.0, 2.0)], every.sup_abs_diff[(1.0, 2.0)], equal_nan=True)
        for bad in [(0.5, 1.0), (2.0, 3.0), (1.0,), (0.5, 1.5, 2.5)]:
            with pytest.raises(ValueError, match="coupled pair"):
                solve_batch(levels, *args, pairs=[bad])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_pair_path_max_is_the_max_over_both_lattices(self, threads, monkeypatch):
        # a pair's path max is derived from its two levels' after the loop: for every pair run that
        # did not abort it is the max of |u| over both levels' whole lattices, for one that did NaN
        g = mkgrid()
        levels = (0.5, 1.0, 1.5, 2.0)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 6.0, np.inf, 0.0))  # kills level-2 runs
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 5)
        reps = np.arange(16)
        sol = solve_batch(levels, bomb, LINEAR, InitialCondition.constant(1.0), g, 5, reps, np.arange(g.n_steps + 1),
                          np.arange(g.n_points), pairs=[(0.5, 1.5), (1.0, 2.0)], threads=threads)
        assert sol.aborted[(1.0, 2.0)] and sol.aborted[(0.5, 1.5)] == []
        for lo, hi in [(0.5, 1.5), (1.0, 2.0)]:
            aborted = {a.replication for a in sol.aborted[(lo, hi)]}
            both = sol.samples[[levels.index(lo), levels.index(hi)]]
            for r in reps:
                if r in aborted:
                    assert np.isnan(sol.path_max_abs[(lo, hi)][r])
                else:
                    assert sol.path_max_abs[(lo, hi)][r] == np.abs(both[:, r]).max()

    def test_lattice_views_raise_at_their_own_abort(self):
        g = mkgrid()
        u0 = InitialCondition.constant(10.0)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 9.0, np.inf, 0.0))
        spec = NoiseSpec(seed=0, replication=0, grid=g)
        sol = solve_lattice((1.0, 1.5, 2.5), bomb, LINEAR, u0, g, spec, pairs=[(1.5, 2.5)])  # only 2.5 clips above 9
        (low,) = field_trajectories(sol, (1.5,), bomb, LINEAR, u0, g, spec)
        assert np.isfinite(low.values).all()
        with pytest.raises(SolverBlowupError) as exc:
            field_trajectories(sol, (1.5, 2.5), bomb, LINEAR, u0, g, spec)
        assert (exc.value.step, exc.value.cell) == (0, 1)
        # the aborted pair has no statistics; level 1.5's own run goes on
        assert np.isnan(sol.path_max_abs[(1.5, 2.5)][0]) and np.isnan(sol.sup_abs_diff[(1.5, 2.5)][0])
        assert np.isnan(sol.path_max_abs[(2.5,)][0]) and np.isnan(sol.samples[2]).all()
        assert 10.0 < low.path_max_abs == sol.path_max_abs[(1.5,)][0]

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_dead_rows_add_nothing_after_their_abort(self, boundary):
        # dead rows restart from u0 and are still advanced; a drift that is
        # huge at exactly u0's value after t = 0 regrows them (to about 5000)
        # every later step, and none of that may reach a sample, a path max or
        # a sup difference: an aborted run has no statistics
        g = mkgrid(boundary=boundary)
        u0 = InitialCondition.constant(1.0)
        levels, reps = (1.0, 2.0), np.arange(12)
        args = (u0, g, 5, reps, np.arange(g.n_steps + 1), np.arange(g.n_points))
        clean = solve_batch(levels, ZERO, LINEAR, *args)
        tau = float(np.median(clean.path_max_abs[(2.0,)]))  # about 3.8: level 1 clips at e < tau
        regrow = Coefficient.from_callable(
            "regrow", lambda t, x: np.where((x == 1.0) & (t > 0), 1e6, np.where(x > tau, np.inf, 0.0)))
        sol = solve_batch(levels, regrow, LINEAR, *args, pairs=[levels])
        dead = {a.replication: a.step for a in sol.aborted[(2.0,)]}
        assert 0 < len(dead) < len(reps) and sol.aborted[(1.0,)] == []
        assert sol.aborted[(1.0, 2.0)] == sol.aborted[(2.0,)]
        for r in reps:
            lattice = sol.samples[:, r]
            # level 1 never dies: its run is whole whether or not level 2's died beside it
            assert np.isfinite(lattice[0]).all() and sol.path_max_abs[(1.0,)][r] == np.abs(lattice[0]).max()
            if int(r) in dead:
                assert np.isnan(lattice[1]).all() and np.isnan(sol.path_max_abs[(2.0,)][r])
                assert np.isnan(sol.path_max_abs[(1.0, 2.0)][r]) and np.isnan(sol.sup_abs_diff[(1.0, 2.0)][r])
                continue
            assert np.isfinite(lattice).all() and sol.path_max_abs[(2.0,)][r] == np.abs(lattice[1]).max()
            assert sol.path_max_abs[(1.0, 2.0)][r] == np.abs(lattice).max()
            assert sol.sup_abs_diff[(1.0, 2.0)][r] == np.abs(lattice[1] - lattice[0]).max()

    def test_dead_rows_restart_from_u0(self):
        # sigma x*x/x is undefined only at 0: a dead row reset to 0 would fail
        # the whole batch with a domain error; from u0 each abort stays its own
        doc = {"b": "zero", "sigma": "x*x/x", "u0": {"kind": "constant", "value": 1.0},
               "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
               "replications": 64, "levels": [1.0, 3.0], "orders": [2.0], "seed": 4,
               "probes": {"times": [0.1, 0.25], "x_stride": 20}}
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 5.0, np.inf, 0.0))
        cfg = harness.parse_config(doc)._replace(drift=bomb)
        steps, xs = harness._probe_indices(cfg)
        aborted = harness._collect(cfg, cfg.levels, steps, xs).aborted
        assert aborted[(1.0,)] == [] and len(aborted[(3.0,)]) == 13

    def test_pair_abort_takes_the_first_bad_cell_of_either_level(self):
        g = mkgrid()
        u0 = InitialCondition.from_expression("4*(x+4)", bound=32.0)
        # fires where the clamp bites: cells above e^2 at level 2, above e^3 at level 3
        bounds = (math.exp(2.0), math.exp(3.0))
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(np.isin(x, bounds), np.inf, 0.0))
        stacked = self.assert_matches_separate((2.0, 3.0), bomb, ZERO, u0, g, 0, np.arange(2),
                                               np.array([1]), np.array([0]))
        lo, hi = stacked.aborted[(2.0,)][0], stacked.aborted[(3.0,)][0]
        assert lo.step == hi.step == 0 and lo.cell < hi.cell
        assert [(a.step, a.cell) for a in stacked.aborted[(2.0, 3.0)]] == [(0, lo.cell)] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("R,chunk", [(4.0, 4), (820.0, None)])
    def test_abort_records_do_not_depend_on_chunking(self, R, chunk, threads, monkeypatch):
        # aborts in both chunks of 4: the merged records, and so the budget
        # message naming the first of them, equal those of one batch of 8,
        # also when the chunks run on a pool.  At R = 820 one replication
        # stacks 2 x 16,401 cells, more than solver._BLOCK_DRAWS, so the
        # solver's own rule makes chunks of one
        doc = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
               "grid": {"R": R, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
               "replications": 8, "levels": [1.0, 2.0], "orders": [2.0], "seed": 5,
               "probes": {"times": [0.25], "x_stride": 20}}
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 2.5, np.inf, 0.0))
        cfg = harness.parse_config(doc)._replace(drift=bomb)
        steps, xs = harness._probe_indices(cfg)
        if chunk is None:
            assert solver.chunk_replications(len(cfg.levels), cfg.grid.n_points) == 1

        def run(chunk):
            if chunk is not None:
                monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: chunk)
            aborted = harness._collect(cfg, cfg.levels, steps, xs, threads=threads).aborted
            with pytest.raises(harness.ExperimentError) as exc:
                harness._abort_budget(aborted[(1.0,)], cfg)
            return aborted, str(exc.value)

        chunked, one = run(chunk), run(256)
        assert {a.replication // 4 for a in chunked[0][(1.0,)]} == {0, 1}
        assert chunked == one

    def test_abort_order_across_chunks(self, monkeypatch):
        doc = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
               "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
               "replications": 32, "levels": [1.0, 2.0], "orders": [2.0], "seed": 5,
               "probes": {"times": [0.25], "x_stride": 20}}
        cfg = harness.parse_config(doc)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 2.5, np.inf, 0.0), declared_growth=0.0)
        cfg = cfg._replace(drift=bomb)
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 5)
        steps, xs = harness._probe_indices(cfg)
        batch = harness._collect(cfg, cfg.levels, steps, xs, threads=2, pairs=[(1.0, 2.0)])
        # by step, then replication, as one solve of all 32 gives them; each chunk's records as its own solve does
        for key in ((1.0,), (2.0,), (1.0, 2.0)):
            pairs = [key] if len(key) == 2 else []
            expected = []
            for start in range(0, 32, 5):
                chunk = np.arange(start, min(start + 5, 32))
                expected += solve_batch(key, bomb, LINEAR, cfg.u0, cfg.grid, 5, chunk, steps, xs,
                                        pairs=pairs).aborted[key]
            assert batch.aborted[key] == sorted(expected, key=lambda a: (a.step, a.replication))
            assert batch.aborted[key] == solve_batch(key, bomb, LINEAR, cfg.u0, cfg.grid, 5, np.arange(32),
                                                     steps, xs, pairs=pairs).aborted[key]
        records = batch.aborted[(1.0,)]
        assert len({a.replication // 5 for a in records}) > 1  # aborts in more than one chunk
        first = records[0]
        with pytest.raises(harness.ExperimentError) as exc:
            harness.run_moment_verification(cfg)
        assert str(exc.value) == (
            f"{len(records)} of 32 replications aborted (> 1% budget); first at replication "
            f"{first.replication}, step {first.step}, cell {first.cell}"
        )

    def test_overflowing_rows_abort_without_a_float_warning(self):
        # sigma near the float maximum overflows the stencil within a few steps at levels 5 and 6;
        # those rows become abort records, and no step may warn on the way
        g = GridSpec(R=2.0, dx=0.1, dt=0.005, T=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_batch((1.0, 5.0, 6.0), Coefficient.parse("0"), Coefficient.parse("1e308*sin(x)"),
                              InitialCondition.constant(1.0), g, 3, range(4), np.arange(g.n_steps + 1),
                              np.arange(g.n_points))
        path_max = np.stack([sol.path_max_abs[(level,)] for level in sol.levels])
        # the samples and path maxima of the five aborted rows are NaN
        assert hashlib.sha256(sol.samples.tobytes()).hexdigest() == (
            "8ebeaaca4121bdffd9ba84c507bcc80dd29cd8e22d3c2cd08b7af28321644e38")
        assert hashlib.sha256(path_max.tobytes()).hexdigest() == (
            "47b7330e3212e3a020e2e652644694dc9c5d35d33f292b9119da493927fa353c")
        assert {key: [tuple(a) for a in records] for key, records in sol.aborted.items()} == {
            (1.0,): [], (5.0,): [(1, 10, 35)], (6.0,): [(3, 4, 15), (0, 5, 1), (2, 9, 28), (1, 12, 6)]}


def assert_same_solution(got, want):
    """Two BatchSolutions of the same levels agree bit for bit: samples and every per-run record."""
    assert got.levels == want.levels
    assert np.array_equal(got.samples, want.samples, equal_nan=True)
    for name in ("path_max_abs", "sup_abs_diff", "aborted"):
        a, b = getattr(got, name), getattr(want, name)
        assert list(a) == list(b)
        for key in a:
            assert np.array_equal(a[key], b[key], equal_nan=True)


class TestCoefficientGroups:
    """Further coefficient groups ride as rows of one stacked pass; each equals its own call."""

    ARGS = (InitialCondition.constant(1.0), mkgrid(), 17, np.arange(80), np.array([0, 10, 25, 50]),
            np.array([0, 20, 40, 60, 80]))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("chunk", [None, 37])
    def test_groups_equal_separate_calls(self, chunk, threads, monkeypatch):
        main = ((0.25, 1.25, 1.5), Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x*exp(-abs(x)/8)"))
        groups = [((1.5,), Coefficient.parse("sin(x)+0.5"), Coefficient.parse("exp(-x*x)+x")),
                  ((0.5, 1.5, 3.0), Coefficient.parse("-exp(-abs(x))"), Coefficient.parse("sin(2*x)"))]
        pairs = [(0.25, 1.25)]
        if chunk is not None:
            monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: chunk)
        grouped = solve_batch(*main, *self.ARGS, pairs=pairs, threads=threads, groups=groups)
        assert len(grouped.groups) == 2 and grouped.groups[0].groups == ()
        assert_same_solution(grouped, solve_batch(*main, *self.ARGS, pairs=pairs))
        for (levels, b, sigma), sol in zip(groups, grouped.groups):
            assert_same_solution(sol, solve_batch(levels, b, sigma, *self.ARGS))
        # level 1.5 is in every group, and each group's coefficients move it differently
        assert not np.array_equal(grouped.samples[2], grouped.groups[0].samples[0])
        assert not np.array_equal(grouped.groups[0].samples[0], grouped.groups[1].samples[1])

    def test_a_dead_row_of_a_group_is_recorded_for_that_group_alone(self):
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 2.5, np.inf, 0.0))
        main = ((1.0, 2.0), ZERO, LINEAR)
        grouped = solve_batch(*main, *self.ARGS, pairs=[(1.0, 2.0)], groups=[((2.0,), bomb, LINEAR)])
        (group,) = grouped.groups
        assert 0 < len(group.aborted[(2.0,)]) < 80
        assert_same_solution(group, solve_batch((2.0,), bomb, LINEAR, *self.ARGS))
        alone = solve_batch(*main, *self.ARGS, pairs=[(1.0, 2.0)])
        assert alone.aborted[(2.0,)] == [] and np.isfinite(alone.samples).all()
        assert_same_solution(grouped, alone)

    def test_a_same_level_pair_tracks_each_group_against_the_main_row(self):
        u0, g, seed, reps = self.ARGS[:4]
        lattice = (np.arange(g.n_steps + 1), np.arange(g.n_points))
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
        nudged = Coefficient.parse("0.5*sin(x) + 1e-9")
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 2.5, np.inf, 0.5 * np.sin(x)))
        groups = [((1.5,), b, sigma), ((0.5, 1.5), nudged, sigma), ((1.5,), bomb, sigma), ((3.0,), nudged, sigma)]
        sol = solve_batch((1.0, 1.5), b, sigma, u0, g, seed, reps, *lattice, pairs=[(1.5, 1.5)], groups=groups)
        assert sol.sup_abs_diff == {} and sol.aborted[(1.5,)] == []
        main = sol.samples[1]
        same, shifted, bombed, apart = sol.groups
        assert list(same.sup_abs_diff) == [(1.5, 1.5)] and not same.sup_abs_diff[(1.5, 1.5)].any()
        want = np.abs(shifted.samples[1] - main).max(axis=(1, 2))
        assert want.all() and np.array_equal(shifted.sup_abs_diff[(1.5, 1.5)], want)
        # a dead row has no statistics: its samples and its sup difference from the main row are NaN
        assert 0 < len(bombed.aborted[(1.5,)]) < len(reps)
        dead = np.isnan(bombed.sup_abs_diff[(1.5, 1.5)])
        assert np.flatnonzero(dead).tolist() == sorted(a.replication for a in bombed.aborted[(1.5,)])
        assert np.isnan(bombed.samples[0, dead]).all() and np.isfinite(bombed.samples[0, ~dead]).all()
        assert np.array_equal(bombed.sup_abs_diff[(1.5, 1.5)][~dead],
                              np.abs(bombed.samples[0, ~dead] - main[~dead]).max(axis=(1, 2)))
        assert apart.sup_abs_diff == {}
        # without groups the pair tracks nothing; a level it does not solve is rejected
        assert_same_solution(solve_batch((1.0, 1.5), b, sigma, *self.ARGS, pairs=[(1.5, 1.5)]),
                             solve_batch((1.0, 1.5), b, sigma, *self.ARGS))
        with pytest.raises(ValueError, match="coupled pair"):
            solve_batch((1.0, 1.5), b, sigma, *self.ARGS, pairs=[(2.0, 2.0)], groups=groups)

    def test_each_coefficient_sees_its_own_rows(self):
        shapes = []

        def recorder(name):
            return Coefficient.from_callable(name, lambda t, x: shapes.append((name, x.shape)) or np.zeros_like(x))

        solve_batch((1.0, 2.0, 3.0), recorder("b"), recorder("sigma"), *self.ARGS,
                    groups=[((2.0,), recorder("b2"), recorder("sigma2")),
                            ((0.5, 4.0), recorder("b3"), recorder("sigma3"))])
        rows = {"b": 3, "sigma": 3, "b2": 1, "sigma2": 1, "b3": 2, "sigma3": 2}
        g = self.ARGS[1]
        chunks = -(-80 // solver.chunk_replications(6, g.n_points))  # a chunk calls each coefficient once per step
        assert len(shapes) == 6 * g.n_steps * chunks
        assert {(name, shape[0], shape[2]) for name, shape in shapes} == {
            (name, n, g.n_points - 2) for name, n in rows.items()}

    def test_groups_are_checked_like_the_main_levels(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            solve_batch((1.0,), ZERO, LINEAR, *self.ARGS, groups=[((2.0, 1.0), ZERO, LINEAR)])


class TestCheckFreeCoefficients:
    """Expression coefficients run on the clamp box without the checks their enclosure proves dead."""

    @staticmethod
    def spy_checked(monkeypatch):
        """``compiled.checked`` of every ``expr.evaluate`` call from now on."""
        seen, evaluate = [], expr.evaluate

        def spy(compiled, t, x):
            seen.append(compiled.checked)
            return evaluate(compiled, t, x)

        monkeypatch.setattr(expr, "evaluate", spy)
        return seen

    def test_the_benchmark_coefficients_take_the_check_free_path(self, monkeypatch):
        # lattice_expr's and EXPR_DOC's coefficients at their levels and uniqueness's N + 1,
        # the re-parse riding as a group
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
        g = mkgrid(R=1.0, T=0.05)
        seen = self.spy_checked(monkeypatch)
        solve_batch((0.0, 1.0, 2.0, 3.0, 4.0), b, sigma, InitialCondition.constant(1.0), g, 3, [0, 1], [0],
                    [0], pairs=[(3.0, 4.0)], groups=[((3.0, 4.0), Coefficient.parse(b.name), Coefficient.parse(sigma.name))])
        assert len(seen) == 4 * g.n_steps and not any(seen)
        # builtins keep their own path and never reach expr.evaluate
        solve_batch((1.0,), ZERO, LINEAR, InitialCondition.constant(1.0), g, 3, [0], [0], [0])
        assert len(seen) == 4 * g.n_steps

    def test_dead_rows_match_the_checked_path(self, monkeypatch):
        # the check-free path is safe because no coefficient call sees a non-finite x: dead rows
        # restart from u0 in the step they die.  A diffusion near the float limit kills rows at
        # the upper levels and spares level 1; the same expressions wrapped as callables keep
        # today's checked evaluate
        g = mkgrid(R=1.0)
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("1e308*sin(x)")
        levels = (1.0, 5.0, 6.0)
        rest = (InitialCondition.constant(1.0), g, 5, np.arange(12), np.arange(g.n_steps + 1), np.arange(g.n_points))

        def checked(psi):
            return Coefficient.from_callable(psi.name, lambda t, x: expr.evaluate(psi.compiled, t, x))

        seen = self.spy_checked(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):  # the stencil overflows in the dying rows
            boxed = solve_batch(levels, b, sigma, *rest, pairs=[(5.0, 6.0)])
            assert seen and not any(seen)
            seen.clear()
            want = solve_batch(levels, checked(b), checked(sigma), *rest, pairs=[(5.0, 6.0)])
            assert seen and all(seen)
        assert_same_solution(boxed, want)
        assert boxed.aborted[(1.0,)] == [] and 0 < len(boxed.aborted[(5.0,)]) < 12

    def test_a_non_finite_initial_row_keeps_the_checks(self):
        # the box premise needs a finite u0: a NaN row is met by today's error, not run unchecked
        g = mkgrid(R=1.0, T=0.01)
        with pytest.raises(expr.EvalDomainError, match="non-finite result"):
            solve_batch((1.0,), Coefficient.parse("0.5*sin(x)"), LINEAR, lambda xs: np.full_like(xs, np.nan), g, 3,
                        [0], [0], [0])


def reference_lattice(g, b, sigma, u0, level, seed, rep):
    """One replication's lattice at clamp ``level`` from :func:`reference_advance`, up to the first
    non-finite row, which ends it."""
    rows = [u0(g.xs)]
    for m in range(g.n_steps):
        if not np.isfinite(rows[-1]).all():
            break
        rows.append(reference_advance(rows[-1], m * g.dt, cell_increments(g, seed, rep, m),
                                      truncated_fn(b, level), truncated_fn(sigma, level), g))
    return np.array(rows)


class TestFlatStep:
    """The step runs its stencil and increment adds flat over a chunk's padded buffer, pads between
    rows included; no value computed at a pad may reach a written cell, a record or a coefficient."""

    def assert_rows_match_reference(self, sol, b, sigma, u0, g, seed, reps):
        """Every level of ``sol`` (probing the whole lattice) against the reference loop, bit for bit:
        samples, path max, aborts and pair sup differences, all NaN for a run that aborted; returns
        the reference lattices by level and replication, None for a row that aborted."""
        refs = {}
        for i, level in enumerate(sol.levels):
            aborts = []
            for r, rep in enumerate(reps):
                ref = reference_lattice(g, b, sigma, u0, level, seed, rep)
                if not np.isfinite(ref[-1]).all():  # died in step len(ref) - 2
                    aborts.append((rep, len(ref) - 2, int(np.flatnonzero(~np.isfinite(ref[-1]))[0])))
                    assert np.isnan(sol.samples[i, r]).all() and np.isnan(sol.path_max_abs[(level,)][r])
                    refs[level, r] = None
                    continue
                refs[level, r] = ref
                assert np.array_equal(sol.samples[i, r], ref)
                assert sol.path_max_abs[(level,)][r] == np.abs(ref).max()
            assert sorted((a.replication, a.step, a.cell) for a in sol.aborted[(level,)]) == sorted(aborts)
        for lo, hi in (key for key in sol.sup_abs_diff if key[0] != key[1]):
            for r in range(len(reps)):
                sup_diff, path_max = sol.sup_abs_diff[(lo, hi)][r], sol.path_max_abs[(lo, hi)][r]
                if refs[lo, r] is None or refs[hi, r] is None:  # the pair aborted with either row
                    assert np.isnan(sup_diff) and np.isnan(path_max)
                    continue
                assert sup_diff == np.abs(refs[hi, r] - refs[lo, r]).max()
                assert path_max == max(np.abs(refs[lo, r]).max(), np.abs(refs[hi, r]).max())
        return refs

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunks_of_37_on_an_odd_lattice(self, threads, monkeypatch):
        g = mkgrid(R=1.6, T=0.1)
        assert g.n_points == 33
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
        u0 = InitialCondition.from_expression("1 + x/8")
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 37)
        reps = np.arange(80)  # chunks of 37, 37 and 6
        sol = solve_batch((0.25, 1.25), b, sigma, u0, g, 29, reps, np.arange(g.n_steps + 1),
                          np.arange(g.n_points), pairs=[(0.25, 1.25)], threads=threads)
        self.assert_rows_match_reference(sol, b, sigma, u0, g, 29, reps)

    def test_expression_groups_and_pairs(self, monkeypatch):
        g = mkgrid(T=0.1)
        u0 = InitialCondition.constant(1.0)
        main = ((0.25, 1.25, 1.5), Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x*exp(-abs(x)/8)"))
        group = ((1.5,), Coefficient.parse("sin(x)+0.5"), Coefficient.parse("exp(-x*x)+x"))
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 37)
        reps = np.arange(40)
        sol = solve_batch(*main, u0, g, 3, reps, np.arange(g.n_steps + 1), np.arange(g.n_points),
                          pairs=[(0.25, 1.25), (1.5, 1.5)], groups=[group])
        refs = self.assert_rows_match_reference(sol, *main[1:], u0, g, 3, reps)
        (other,) = sol.groups
        other_refs = self.assert_rows_match_reference(other, *group[1:], u0, g, 3, reps)
        for r in range(len(reps)):
            assert other.sup_abs_diff[(1.5, 1.5)][r] == np.abs(other_refs[1.5, r] - refs[1.5, r]).max() > 0

    def test_dirichlet_ends_keep_their_own_values(self):
        # two different end values: a restore that swaps them, leaks one into the next row,
        # or leaves the flat pass's value at a pad changes the frozen columns
        g = mkgrid(T=0.1)
        u0 = InitialCondition.from_expression("1 + x/8")
        b, sigma = Coefficient.parse("0.5*sin(x)"), LINEAR
        reps = np.arange(6)
        sol = solve_batch((0.5, 2.0), b, sigma, u0, g, 8, reps, np.arange(g.n_steps + 1), np.arange(g.n_points))
        assert (sol.samples[..., 0] == 0.5).all() and (sol.samples[..., -1] == 1.5).all()
        self.assert_rows_match_reference(sol, b, sigma, u0, g, 8, reps)

    def test_periodic(self, monkeypatch):
        # the group's drift lifts its rows far above the main rows: a ghost's value from the
        # flat pass, which mixes two rows, must reach no path max and no sup difference
        g = mkgrid(boundary="periodic", T=0.1)
        b, sigma = Coefficient.parse("0.5*sin(x)+1"), Coefficient.parse("x*exp(-abs(x)/8)")
        group = ((3.0,), Coefficient.parse("100"), sigma)
        u0 = InitialCondition.indicator(2.5, 4.0)
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 37)
        reps = np.arange(40)
        sol = solve_batch((0.5, 1.5, 3.0), b, sigma, u0, g, 4, reps, np.arange(g.n_steps + 1),
                          np.arange(g.n_points), pairs=[(0.5, 1.5), (3.0, 3.0)], groups=[group])
        refs = self.assert_rows_match_reference(sol, b, sigma, u0, g, 4, reps)
        (lifted,) = sol.groups
        lifted_refs = self.assert_rows_match_reference(lifted, *group[1:], u0, g, 4, reps)
        for r in range(len(reps)):
            assert lifted.sup_abs_diff[(3.0, 3.0)][r] == np.abs(lifted_refs[3.0, r] - refs[3.0, r]).max()
            assert np.abs(lifted_refs[3.0, r][-1]).min() > 2 * np.abs(refs[3.0, r]).max()

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_a_row_that_dies_next_to_a_live_row(self, boundary):
        g = mkgrid(boundary=boundary, T=0.1)
        u0 = InitialCondition.from_expression("1 + x/8")
        reps = np.arange(8)
        lattice = (np.arange(g.n_steps + 1), np.arange(g.n_points))
        clean = solve_batch((2.0,), ZERO, LINEAR, u0, g, 5, reps, *lattice)
        tau = float(np.median(clean.path_max_abs[(2.0,)]))  # about half the rows cross it
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > tau, np.inf, 0.0))
        sol = solve_batch((2.0, 3.0), bomb, LINEAR, u0, g, 5, reps, *lattice, pairs=[(2.0, 3.0)])
        self.assert_rows_match_reference(sol, bomb, LINEAR, u0, g, 5, reps)
        dead = {a.replication for a in sol.aborted[(2.0,)]}
        steps = {a.step for a in sol.aborted[(2.0,)]}
        # some row dies before the last step, with a live row beside it in the chunk's buffer
        assert min(steps) < g.n_steps - 1 and any(r + 1 not in dead for r in dead if r + 1 < len(reps))

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_coefficients_see_the_clipped_written_cells_alone(self, boundary):
        g = mkgrid(boundary=boundary, T=0.1)
        u0 = InitialCondition.from_expression("1 + x/8")  # ends 0.5 and 1.5; ghosts hold 0
        seen = []

        def recorder(name, fn):
            return Coefficient.from_callable(name, lambda t, x: seen.append((name, t, x.copy(), x.flags.c_contiguous))
                                             or fn(x))

        b, sigma = recorder("b", lambda x: 0.5 * np.sin(x)), recorder("sigma", lambda x: x + 0.0)
        levels, reps = (0.5, 2.0), np.arange(5)
        sol = solve_batch(levels, b, sigma, u0, g, 6, reps, np.arange(g.n_steps + 1), np.arange(g.n_points))
        bounds = np.array([math.exp(v) for v in levels])[:, None, None]
        written = slice(None) if boundary == "periodic" else slice(1, -1)
        assert [name for name, *_ in seen] == ["b", "sigma"] * g.n_steps
        for m in range(g.n_steps):
            want = np.clip(sol.samples[:, :, m, written], -bounds, bounds)
            for name, t, x, contiguous in seen[2 * m:2 * m + 2]:
                assert t == m * g.dt and contiguous
                assert x.shape == (2, 5, len(g.xs[written])) and np.array_equal(x, want)


def test_pool_width_is_bounded_by_the_machine(monkeypatch):
    # --threads far above the chunk count and the core count starts no more
    # workers than cores; a stub pool records the width and runs inline
    widths = []

    class InlinePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    doc = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
           "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.05, "boundary": "dirichlet"},
           "replications": 8, "levels": [1.0, 2.0], "orders": [2.0], "seed": 5,
           "probes": {"times": [0.05], "x_stride": 20}}
    cfg = harness.parse_config(doc)
    steps, xs = harness._probe_indices(cfg)
    expected = harness._collect(cfg, cfg.levels, steps, xs, pairs=[(1.0, 2.0)])
    monkeypatch.setattr(solver, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: 1)
    for cpus, width in ((3, 3), (64, 8), (None, None)):
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        widths.clear()
        batch = harness._collect(cfg, cfg.levels, steps, xs, threads=10 ** 6, pairs=[(1.0, 2.0)])
        assert widths == ([] if width is None else [width])  # one core: the chunks run inline
        np.testing.assert_array_equal(batch.samples, expected.samples)
        for key in expected.path_max_abs:
            np.testing.assert_array_equal(batch.path_max_abs[key], expected.path_max_abs[key])
        for key in expected.sup_abs_diff:
            np.testing.assert_array_equal(batch.sup_abs_diff[key], expected.sup_abs_diff[key])


def test_a_single_threaded_run_never_loads_the_thread_pool(tmp_path):
    # concurrent.futures (and the logging it loads) is imported only when chunks run in parallel
    from test_golden import child_env

    doc = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
           "grid": {"R": 2.0, "dx": 0.1, "dt": 0.005, "T": 0.05, "boundary": "dirichlet"},
           "replications": 32, "levels": [1.0], "orders": [2.0], "seed": 5,
           "probes": {"times": [0.05], "x_stride": 10}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = ("import sys\n"
            "from shelab import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, "--out", str(tmp_path / "out"), "--threads", "1",
                           "verify-moments", str(cfg)], env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_one_noise_block_is_alive_per_chunk():
    # 202 replications of one 81-cell level are one chunk, drawn inline in blocks of 8 steps
    # x 79 written cells (0.97 MiB); with no probes the traced peak is the chunk's buffers, the
    # live noise block and the normal map's scratch, and a second live block would add one more
    g = mkgrid(T=0.1)
    n, J = solver.chunk_replications(1, g.n_points), g.n_points
    assert (n, solver._NOISE_DRAWS // (n * J)) == (202, 8)
    args = ((1.0,), ZERO, LINEAR, InitialCondition.constant(1.0), g, 5, np.arange(n), [], [])
    solve_batch(*args)
    tracemalloc.start()
    try:
        solve_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * n * 8 * (J - 2)
    chunk = 8 * n * (4 * (J + 2) + (J - 2))  # padded: state twice, increments, scratch; clipped written cells
    assert (peak - chunk) / block < 2.5


def test_trajectory_dump_roundtrip(tmp_path):
    g = mkgrid()
    u0 = InitialCondition.constant(1.0)
    traj = solve_truncated(2.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=4, replication=9, grid=g))
    bin_path = tmp_path / "traj.bin"
    side = tmp_path / "traj.json"
    save_trajectory(traj, bin_path, side)
    back = load_trajectory(bin_path, side)
    assert np.array_equal(back.values, traj.values)
    assert back.grid == traj.grid
    assert back.level == traj.level
    assert back.noise_spec == traj.noise_spec
    assert back.provenance == traj.provenance


def test_trajectory_dump_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\x00" * 200)
    with pytest.raises(ValueError, match="not a trajectory dump"):
        load_trajectory(p)
