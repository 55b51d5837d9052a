import dataclasses
import math
import warnings

import numpy as np
import pytest

from shelab import harness
from shelab.coeff import Coefficient, truncated_fn
from shelab.grid import GridSpec
from shelab.kernel import InitialCondition, initial_convolution
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

ZERO = Coefficient.builtin("zero")
ONE = Coefficient.builtin("one")
LINEAR = Coefficient.builtin("linear")


def mkgrid(**kw):
    args = dict(R=4.0, dx=0.1, dt=0.005, T=0.25, boundary="dirichlet")
    args.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GridSpec(**args)


def cell_increments(grid, seed, rep, m):
    """The noise increments dW[m, :] of one replication, drawn directly."""
    cells = np.arange(grid.n_points, dtype=np.uint64)
    return standard_normals(seed, rep, m, cells) * math.sqrt(grid.dt * grid.dx)


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
        assert np.all(batch.samples[0, :, 0] == 0.0) and np.all(np.isnan(batch.samples[0, :, 1]))


class TestSolveTruncated:
    def test_deterministic_heat_flow_matches_convolution(self):
        g = mkgrid(R=8.0, dx=0.05, dt=0.001, T=0.25)
        u0 = InitialCondition.indicator(-1.0, 1.0)
        traj = solve_truncated(5.0, ZERO, ZERO, u0, g, NoiseSpec(seed=1, replication=0, grid=g))
        got, t_snap, x_snap = traj.at(0.25, 0.0)
        assert (t_snap, x_snap) == (0.25, 0.0)
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
            raw[m + 1] = solver._advance(raw[m], m * g.dt, cell_increments(g, 17, 0, m), ZERO, LINEAR, g)
        assert np.array_equal(a.values, raw)

    def test_determinism(self):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        spec = NoiseSpec(seed=99, replication=7, grid=g)
        a = solve_truncated(3.0, Coefficient.builtin("affine"), LINEAR, u0, g, spec)
        b = solve_truncated(3.0, Coefficient.builtin("affine"), LINEAR, u0, g, spec)
        assert np.array_equal(a.values, b.values)

    def test_multiplicative_noise_preserves_replication_mean(self):
        # stochastic forcing integrates to zero in expectation
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        vals = []
        for rep in range(400):
            traj = solve_truncated(3.0, ZERO, LINEAR, u0, g, NoiseSpec(seed=314, replication=rep, grid=g))
            vals.append(traj.at(0.25, 0.0)[0])
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
            vals.append([traj.at(t, x)[0] for t, x in probes])
        err_coarse = abs(vals[0][0] - vals[1][0]) + abs(vals[0][1] - vals[1][1])
        err_fine = abs(vals[1][0] - vals[2][0]) + abs(vals[1][1] - vals[2][1])
        assert 3.0 <= err_coarse / err_fine <= 5.0

    def test_window_truncation_insensitivity(self):
        u0 = InitialCondition.indicator(-1.0, 1.0)
        outs = []
        for R in (8.0, 12.0):
            g = mkgrid(R=R, dx=0.05, dt=0.001, T=0.25)
            traj = solve_truncated(5.0, ZERO, ZERO, u0, g, NoiseSpec(seed=1, replication=0, grid=g))
            outs.append([traj.at(0.25, x)[0] for x in (-1.0, 0.0, 1.0)])
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
        batch = solve_batch((0.5, 1.5), ZERO, LINEAR, u0, g, 123, np.arange(4), np.array([50]), np.array([40]))
        for rep in range(4):
            low, high = solve_pair_coupled(
                0.5, ZERO, LINEAR, u0, g, NoiseSpec(seed=123, replication=rep, grid=g)
            )
            assert batch.sup_abs_diff[(0.5, 1.5)][rep] == pytest.approx(
                float(np.max(np.abs(high.values - low.values))), rel=0, abs=0
            )

    def test_noise_block_size_does_not_change_bits(self, monkeypatch):
        g = mkgrid()
        u0 = InitialCondition.constant(1.0)
        args = ((0.5, 1.5), ZERO, LINEAR, u0, g, 123, np.arange(3), np.arange(g.n_steps + 1), np.arange(g.n_points))
        whole = solve_batch(*args)  # one draw covers the horizon
        monkeypatch.setattr(solver, "_BLOCK_DRAWS", 7 * 3 * g.n_points)  # 50 steps = 7 blocks of 7, then 1
        blocked = solve_batch(*args)
        assert np.array_equal(whole.samples, blocked.samples)
        assert np.array_equal(whole.sup_abs_diff[(0.5, 1.5)], blocked.sup_abs_diff[(0.5, 1.5)])

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
        stacked = solve_batch(levels, b, sigma, u0, g, seed, reps, steps, cells)
        assert stacked.levels == levels
        for i, level in enumerate(levels):
            alone = solve_batch((level,), b, sigma, u0, g, seed, reps, steps, cells)
            assert np.array_equal(stacked.samples[i], alone.samples[0], equal_nan=True)
            assert np.array_equal(stacked.path_max_abs[(level,)], alone.path_max_abs[(level,)])
            assert stacked.aborted[(level,)] == alone.aborted[(level,)]
        pairs = [(lo, hi) for lo in levels for hi in levels if hi == lo + 1.0]
        assert sorted(stacked.sup_abs_diff) == pairs
        for lo, hi in pairs:
            assert stacked.aborted[(lo, hi)] == first_abort(stacked.aborted[(lo,)], stacked.aborted[(hi,)])
            alone = solve_batch((lo, hi), b, sigma, u0, g, seed, reps, steps, cells)
            for got, want in ((stacked.sup_abs_diff, alone.sup_abs_diff),
                              (stacked.path_max_abs, alone.path_max_abs),
                              (stacked.aborted, alone.aborted)):
                assert np.array_equal(got[(lo, hi)], want[(lo, hi)])
        return stacked

    def test_one_clip_per_step_matches_a_clip_per_coefficient(self):
        # the pre-stacking loop: each level on its own, each coefficient clipping its own argument
        g = mkgrid()
        b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
        u0 = InitialCondition.constant(1.0)
        levels = (0.0, 0.5, 1.0, 3.0)
        sol = solve_lattice(levels, b, sigma, u0, g, NoiseSpec(seed=11, replication=2, grid=g))
        for i, level in enumerate(levels):
            row = u0(g.xs)
            assert np.array_equal(sol.samples[i, 0, 0], row)
            for m in range(g.n_steps):
                row = solver._advance(row, m * g.dt, cell_increments(g, 11, 2, m),
                                      truncated_fn(b, level), truncated_fn(sigma, level), g)
                assert np.array_equal(sol.samples[i, 0, m + 1], row)

    def test_four_levels_equal_separate_solves(self):
        g = mkgrid()
        self.assert_matches_separate((0.25, 0.5, 1.25, 1.5), ZERO, LINEAR, InitialCondition.constant(1.0), g,
                                     123, np.arange(5), np.array([10, 25, 50]), np.array([0, 20, 40, 60, 80]))

    def test_non_adjacent_pairs_and_periodic_boundary(self):
        g = mkgrid(boundary="periodic")
        stacked = self.assert_matches_separate(
            (1.0, 1.5, 2.0, 2.5), Coefficient.builtin("affine"), LINEAR, InitialCondition.indicator(-1.0, 1.0), g,
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
        for r in reps:
            assert np.isnan(stacked.samples[3, r, -1]).all() == (int(r) in dead)

    def test_lattice_views_raise_at_their_own_abort(self):
        g = mkgrid()
        u0 = InitialCondition.constant(10.0)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 9.0, np.inf, 0.0))
        spec = NoiseSpec(seed=0, replication=0, grid=g)
        sol = solve_lattice((1.0, 1.5, 2.5), bomb, LINEAR, u0, g, spec)  # only level 2.5 clips to above 9
        (low,) = field_trajectories(sol, (1.5,), bomb, LINEAR, u0, g, spec)
        assert np.isfinite(low.values).all()
        with pytest.raises(SolverBlowupError) as exc:
            field_trajectories(sol, (1.5, 2.5), bomb, LINEAR, u0, g, spec)
        assert (exc.value.step, exc.value.cell) == (0, 1)
        # the pair's path max stops at its abort (step 0: only u0 counts); level 1.5's own goes on
        assert sol.path_max_abs[(1.5, 2.5)][0] == 10.0 < low.path_max_abs == sol.path_max_abs[(1.5,)][0]
        assert sol.sup_abs_diff[(1.5, 2.5)][0] == 0.0

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

    def test_abort_order_across_chunks(self, monkeypatch):
        doc = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
               "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
               "replications": 32, "levels": [1.0, 2.0], "orders": [2.0], "seed": 5,
               "probes": {"times": [0.25], "x_stride": 20}}
        cfg = harness.parse_config(doc)
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 2.5, np.inf, 0.0), declared_growth=0.0)
        cfg = dataclasses.replace(cfg, drift=bomb)
        monkeypatch.setattr(harness, "_CHUNK", 5)
        steps, xs = harness._probe_indices(cfg)
        batch = harness._collect(cfg, cfg.levels, steps, xs, threads=2)
        # chunk by chunk, then step, then replication; each chunk's records as its own solve gives them
        for key in ((1.0,), (2.0,), (1.0, 2.0)):
            expected = []
            for start in range(0, 32, 5):
                chunk = np.arange(start, min(start + 5, 32))
                expected += solve_batch(key, bomb, LINEAR, cfg.u0, cfg.grid, 5, chunk, steps, xs).aborted[key]
            assert batch.aborted[key] == expected
        records = batch.aborted[(1.0,)]
        assert records == sorted(records, key=lambda a: (a.replication // 5, a.step, a.replication))
        assert [a.step for a in records] != sorted(a.step for a in records)  # chunk order shows
        first = records[0]
        with pytest.raises(harness.ExperimentError) as exc:
            harness.run_moment_verification(cfg)
        assert str(exc.value) == (
            f"{len(records)} of 32 replications aborted (> 1% budget); first at replication "
            f"{first.replication}, step {first.step}, cell {first.cell}"
        )


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
