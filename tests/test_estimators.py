import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import estimators
from shelab.estimators import (
    CouplingError,
    Ensemble,
    PairEnsemble,
    ProbeError,
    Z_95,
    coupled_sup_difference,
    lk_norm,
    moment_estimates,
    tail_estimates,
    tail_probability,
    weighted_norm,
    wilson_interval,
)
from shelab.noise import standard_normals
from test_solver import x_index

ROOT4_OF_3 = 1.3160740129524924  # (E|Z|^4)^(1/4) for a standard normal


def one_probe_ensemble(samples, t=1.0, x=0.0, **kw):
    arr = np.asarray(samples, dtype=float).reshape(-1, 1, 1)
    return Ensemble.from_samples(arr, [t], [x], **kw)


def grid_ensemble(samples_by_probe, times, xs, **kw):
    return Ensemble.from_samples(np.asarray(samples_by_probe, dtype=float), times, xs, **kw)


class TestLkNorm:
    def test_constant_samples_zero_width_interval(self):
        ens = one_probe_ensemble(np.full(100, -2.5))
        est = lk_norm(ens, 3, 1.0, 0.0)
        assert est.power_mean == pytest.approx(2.5 ** 3, rel=1e-12)
        assert est.power_lo == est.power_hi == est.power_mean
        assert est.root_mean == pytest.approx(2.5, rel=1e-12)

    def test_rademacher_second_moment(self):
        ens = one_probe_ensemble([1.0, -1.0] * 50)
        est = lk_norm(ens, 2, 1.0, 0.0)
        assert est.power_mean == 1.0
        assert est.power_lo == est.power_hi == 1.0

    def test_gaussian_fourth_moment_oracle(self):
        z = standard_normals(555, 0, np.zeros(20000, dtype=np.uint64), np.arange(20000))
        est = lk_norm(one_probe_ensemble(z), 4, 1.0, 0.0)
        assert est.power_lo <= 3.0 <= est.power_hi
        assert est.root_mean == pytest.approx(ROOT4_OF_3, rel=0.01)

    def test_interval_ordering_and_nonnegativity(self):
        z = standard_normals(7, 1, np.zeros(500, dtype=np.uint64), np.arange(500))
        est = lk_norm(one_probe_ensemble(z), 2, 1.0, 0.0)
        assert 0.0 <= est.power_lo <= est.power_mean <= est.power_hi

    def test_too_few_replications_flagged(self):
        est = lk_norm(one_probe_ensemble(np.arange(10.0)), 2, 1.0, 0.0)
        assert est.power_lo is None and est.power_hi is None

    def test_order_cap(self):
        ens = one_probe_ensemble(np.ones(50))
        with pytest.raises(ValueError, match="cap"):
            lk_norm(ens, 9, 1.0, 0.0)

    def test_unknown_probe_point(self):
        ens = one_probe_ensemble(np.ones(50))
        with pytest.raises(ProbeError):
            lk_norm(ens, 2, 0.5, 0.0)

    def test_jensen_root_monotone_in_order(self):
        z = standard_normals(9, 2, np.zeros(5000, dtype=np.uint64), np.arange(5000))
        ens = one_probe_ensemble(z)
        roots = [lk_norm(ens, k, 1.0, 0.0).root_mean for k in (1, 2, 4, 8)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(roots, roots[1:]))


float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


def split_sums(values, cut, k):
    """Exact power sums of values[:cut] and values[cut:], added."""
    x = np.asarray(values, dtype=float)[:, None]
    (lp,), (ls,) = estimators._power_sums(x[:cut], k)
    (rp,), (rs,) = estimators._power_sums(x[cut:], k)
    return lp + rp, ls + rs


class TestSplitInvariance:
    @given(float_lists, st.integers(min_value=0, max_value=59), st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_shard_boundaries_do_not_change_the_sums(self, values, cut, k):
        cut = min(cut, len(values))
        (whole_pow,), (whole_sq,) = estimators._power_sums(np.asarray(values, dtype=float)[:, None], k)
        assert split_sums(values, cut, k) == (whole_pow, whole_sq)  # exact integers

    def test_three_way_versus_two_way(self):
        vals = [0.1, 1e8, -0.1, 3.7e-12, 2.0 ** -520, 1e8, -7.0]
        assert split_sums(vals, 2, 2) == split_sums(vals, 5, 2)


class TestExactFloat:
    # totals up to 2^2100 in units of 2^-1074 reach past the largest float, so overflow is covered too
    @given(st.integers(min_value=-(2 ** 2100), max_value=2 ** 2100), st.integers(min_value=1, max_value=2 ** 64))
    @settings(max_examples=400, deadline=None)
    def test_int_division_matches_the_fraction_reference(self, total, scale):
        try:
            want = float(Fraction(total, (1 << 1074) * scale))
        except OverflowError:
            with pytest.raises(OverflowError):
                estimators._exact_float(total, scale)
            return
        assert estimators._exact_float(total, scale).hex() == want.hex()

    @pytest.mark.parametrize("total, scale", [(1, 1), (3, 2), (-1, 3), ((1 << 1074) - 1, 1 << 1074),
                                              ((2 ** 53 + 1) << 1074, 1), (0, 7)])
    def test_subnormal_and_tie_cases(self, total, scale):
        want = float(Fraction(total, (1 << 1074) * scale))
        assert estimators._exact_float(total, scale).hex() == want.hex()


def reference_sum(values) -> int:
    """Exact sum in units of 2^-1074, one ``as_integer_ratio`` per element."""
    total = 0
    for v in values:
        num, den = float(v).as_integer_ratio()
        total += num * ((1 << 1074) // den)
    return total


def reference_power_sums(column, k):
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(np.asarray(column, dtype=float)) ** k
        y2 = y * y
    return reference_sum(y), reference_sum(y2)


edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 2.0 ** -1074, -(2.0 ** -1074), 2.0 ** -1022, 1e300, -1e300,
                     float(np.nextafter(2.0, 0.0))]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
)
columns = st.integers(min_value=1, max_value=4)


class TestBucketedSum:
    @given(st.data(), columns, st.integers(min_value=1, max_value=80))
    @settings(max_examples=150, deadline=None)
    def test_bucket_sums_match_per_element_reference(self, data, n_cols, n_rows):
        values = data.draw(st.lists(edge_floats, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        x = np.array(values).reshape(n_rows, n_cols)
        got = [int(v) >> 53 for v in estimators._bucket_sums(x)]
        assert got == [reference_sum(col) for col in x.T]

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_wide_exponent_range_splits_the_columns(self, n_rows):
        # exponents from -1074 to 1023 in 300 columns: one (column, exponent)
        # table would exceed _BUCKETS, so the block is summed in column slices
        rng = np.random.default_rng(5)
        x = np.ldexp(rng.random((n_rows, 300)) + 0.5, rng.integers(-1074, 1023, size=(n_rows, 300)))
        x[0, :2] = [2.0 ** -1074, np.finfo(float).max]
        assert 300 * 2099 > estimators._BUCKETS
        got = [int(v) >> 53 for v in estimators._bucket_sums(x)]
        assert got == [reference_sum(col) for col in x.T]

    @given(st.data(), columns, st.integers(min_value=1, max_value=60), st.sampled_from([1.0, 2.0, 4.0]))
    @settings(max_examples=100, deadline=None)
    def test_power_sums_match_reference(self, data, n_cols, n_rows, k):
        finite_sq = st.floats(min_value=-1e30, max_value=1e30, allow_nan=False)
        values = data.draw(st.lists(st.one_of(finite_sq, st.sampled_from([0.0, 2.0 ** -1074])),
                                    min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        x = np.array(values).reshape(n_rows, n_cols)
        s_pow, s_sq = estimators._power_sums(x, k)
        assert list(zip(s_pow, s_sq)) == [reference_power_sums(col, k) for col in x.T]

    @given(st.floats(min_value=0.0, max_value=1e150), st.integers(min_value=2501, max_value=3100))
    @settings(max_examples=20, deadline=None)
    def test_long_column_crosses_int64_chunks(self, fill, n_rows):
        # 2500+ equal values share one (column, exponent) bucket: summed in one
        # int64 they would overflow, so the rows must be chunked
        col = np.full(n_rows, fill)
        col[::7] = np.nextafter(2.0, 0.0)  # the largest mantissa, 2^53 - 1
        s_pow, s_sq = estimators._power_sums(col[:, None], 1.0)
        assert (s_pow[0], s_sq[0]) == reference_power_sums(col, 1.0)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40),
           st.sampled_from([float("inf"), -float("inf"), float("nan"), 1e160]),
           st.integers(min_value=0, max_value=40), st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_raises_as_before(self, values, bad, where, k):
        values.insert(min(where, len(values)), bad)
        with pytest.raises((OverflowError, ValueError)) as want:
            reference_power_sums(values, k)
        ens = one_probe_ensemble(values)
        with warnings.catch_warnings():  # the error alone: no numpy RuntimeWarning beside it
            warnings.simplefilter("error")
            with pytest.raises(want.type):
                lk_norm(ens, k, 1.0, 0.0)
            with pytest.raises(want.type):
                moment_estimates(ens, k)

    def test_non_finite_error_kinds(self):
        with pytest.raises(OverflowError):
            lk_norm(one_probe_ensemble([1.0, float("inf")]), 2, 1.0, 0.0)
        with pytest.raises(OverflowError):  # finite power, overflowing square
            lk_norm(one_probe_ensemble([1e160, 1.0]), 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            lk_norm(one_probe_ensemble([float("nan"), 1.0]), 2, 1.0, 0.0)


class TestMomentEstimates:
    def test_matches_lk_norm_at_every_probe(self):
        times, xs = [0.1, 0.2, 0.3], np.linspace(-1.0, 1.0, 90)
        # 400 x 270 samples span several passes of 2^15
        z = standard_normals(5, 1, np.arange(400, dtype=np.uint64)[:, None],
                             np.arange(270, dtype=np.uint64)[None, :], 270)
        ens = grid_ensemble(np.exp(z).reshape(400, 3, 90), times, xs)
        for k in (1.0, 2.0, 4.0):
            got = moment_estimates(ens, k)
            want = [lk_norm(ens, k, t, x) for t in times for x in xs]
            assert got == want  # bit-exact

    def test_order_cap(self):
        ens = one_probe_ensemble(np.ones(50))
        with pytest.raises(ValueError, match="cap"):
            moment_estimates(ens, 9)
        with pytest.raises(ValueError, match=">= 1"):
            moment_estimates(ens, 0.5)


class TestProbeIndex:
    def test_nearest_match_within_tolerance(self):
        ens = grid_ensemble(np.zeros((2, 3, 2)), [0.5, 1.0, 1.0 + 1e-12], [-1.0, 2.0])
        assert ens.probe_index(1.0 + 5e-10, 2.0 - 1e-9) == (2, 1)
        assert ens.probe_index(0.5, -1.0) == (0, 0)
        assert all(type(i) is int for i in ens.probe_index(0.5, -1.0))

    def test_exact_hit_wins_over_an_earlier_close_probe(self):
        # probe times 5e-10 apart all lie within the 1e-9 tolerance of each other
        times = np.arange(1, 21) * 5 * 1e-10
        samples = np.tile(np.arange(20.0)[None, :, None], (3, 1, 1))
        ens = grid_ensemble(samples, times, [0.0])
        for it, t in enumerate(ens.probe_times):
            assert ens.probe_index(float(t), 0.0) == (it, 0)
            assert np.all(ens.samples_at(float(t), 0.0) == it)

    def test_nearly_exact_query_resolves_to_its_own_probe(self):
        # each probe lies within the tolerance of its neighbours; the nearest wins
        times = [1.0, 1.0 + 5e-10, 1.0 + 1e-9]
        ens = grid_ensemble(np.zeros((2, 3, 1)), times, [0.0])
        assert [ens.probe_index(t * (1 + 1e-15), 0.0)[0] for t in ens.probe_times] == [0, 1, 2]

    def test_off_lattice_point_raises(self):
        ens = grid_ensemble(np.zeros((2, 2, 2)), [0.5, 1.0], [-1.0, 2.0])
        for t, x in ((0.75, 2.0), (1.0, 0.5), (1.0 + 1e-6, 2.0)):
            with pytest.raises(ProbeError):
                ens.probe_index(t, x)
        with pytest.raises(ProbeError):
            tail_probability(ens, 1.0, 0.5, 2.0 + 1e-6)


class TestWeightedNorm:
    def test_single_probe_cancellation(self):
        ens = one_probe_ensemble(np.full(64, 2.0), t=1.0)
        assert weighted_norm(ens, 1, math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_exponential_field_is_flat(self):
        beta = 0.7
        times = [0.25, 0.5, 0.75, 1.0]
        # 40 replications, each exactly e^(beta t) at every probe
        samples = np.tile(np.exp(beta * np.asarray(times))[None, :, None], (40, 1, 1))
        ens = grid_ensemble(samples, times, [0.0])
        assert weighted_norm(ens, 2, beta, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_large_beta_dominated_by_earliest_probe(self):
        times = [0.1, 0.5, 1.0]
        samples = np.tile(np.array([2.0, 3.0, 4.0])[None, :, None], (40, 1, 1))
        ens = grid_ensemble(samples, times, [0.0])
        big = 200.0
        expect = math.exp(-big * 0.1) * 2.0
        assert weighted_norm(ens, 1, big, 1.0) == pytest.approx(expect, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_beta(self, b1, b2):
        lo, hi = sorted((b1, b2))
        times = [0.2, 0.6, 1.0]
        samples = np.tile(np.array([1.0, 2.5, 0.5])[None, :, None], (30, 1, 1))
        ens = grid_ensemble(samples, times, [0.0])
        assert weighted_norm(ens, 2, hi, 1.0) <= weighted_norm(ens, 2, lo, 1.0) * (1 + 1e-12)

    def test_requires_positive_beta_and_probes_in_window(self):
        ens = one_probe_ensemble(np.ones(40), t=1.0)
        with pytest.raises(ValueError):
            weighted_norm(ens, 2, 0.0, 1.0)
        with pytest.raises(ValueError, match="no probe times"):
            weighted_norm(ens, 2, 1.0, 0.5)
        bounded = one_probe_ensemble(np.ones(40), t=1.0, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            weighted_norm(bounded, 2, 1.0, 2.0)


class TestTailProbability:
    def test_zero_exceedances_wilson_upper(self):
        ens = one_probe_ensemble(np.zeros(1000))
        est = tail_probability(ens, 5.0, 1.0, 0.0)
        assert est.p_hat == 0.0
        z2 = Z_95 ** 2
        assert est.hi == pytest.approx(z2 / (1000 + z2), rel=1e-12)  # ~0.00382675
        assert est.hi == pytest.approx(0.003826758, abs=1e-8)

    def test_all_exceed(self):
        ens = one_probe_ensemble(np.full(100, 9.0))
        est = tail_probability(ens, 5.0, 1.0, 0.0)
        assert est.p_hat == 1.0 and est.hi == 1.0

    def test_threshold_below_min_sample(self):
        ens = one_probe_ensemble(np.linspace(2.0, 3.0, 50))
        assert tail_probability(ens, 1.0, 1.0, 0.0).p_hat == 1.0

    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, a, b):
        lo, hi = sorted((a, b))
        vals = standard_normals(3, 3, np.zeros(400, dtype=np.uint64), np.arange(400)) * 3.0
        ens = one_probe_ensemble(vals)
        assert tail_probability(ens, hi, 1.0, 0.0).p_hat <= tail_probability(ens, lo, 1.0, 0.0).p_hat

    def test_tail_estimates_match_tail_probability_at_every_probe(self):
        # samples tied at +-threshold count as exceedances in both paths
        times, xs = [0.5, 1.0], [-1.0, 0.0, 1.0]
        vals = standard_normals(5, 5, np.zeros(240, dtype=np.uint64), np.arange(240)).reshape(40, 2, 3) * 2.0
        vals[:7, 0, 1] = 1.5
        vals[7:10, 1, 2] = -1.5
        ens = grid_ensemble(vals, times, xs)
        got = tail_estimates(ens, 1.5)
        want = [tail_probability(ens, 1.5, t, x) for t in times for x in xs]
        assert [tuple(e) for e in got] == [tuple(e) for e in want]
        hits = [int(np.sum(np.abs(vals[:, it, ix]) >= 1.5)) for it in range(2) for ix in range(3)]
        assert [tuple(e) for e in got] == [(40, h / 40, *wilson_interval(h, 40)) for h in hits]
        assert hits[1] >= 7 and hits[5] >= 3

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_tail_estimates_reject_a_non_positive_threshold(self, threshold):
        ens = one_probe_ensemble(np.ones(10))
        for call in (lambda: tail_estimates(ens, threshold), lambda: tail_probability(ens, threshold, 1.0, 0.0)):
            with pytest.raises(ValueError, match="threshold must be positive"):
                call()

    def test_tail_estimates_reject_an_empty_ensemble(self):
        ens = one_probe_ensemble(np.ones(0))
        for call in (lambda: tail_estimates(ens, 1.0), lambda: tail_probability(ens, 1.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="at least one trial"):
                call()

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0 < hi < 1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and 0 < lo < 1
        lo, hi = wilson_interval(25, 50)
        assert lo < 0.5 < hi


def synthetic_pair(diffs, sups=None, times=(0.5, 1.0), xs=(0.0,)):
    diffs = np.asarray(diffs, dtype=float)
    return PairEnsemble(
        probe_times=np.asarray(times, dtype=float),
        probe_xs=np.asarray(xs, dtype=float),
        diff_samples=diffs,
        sup_abs_diff=np.zeros(diffs.shape[0]) if sups is None else np.asarray(sups, float),
    )


class TestEnsembleFromBatch:
    @staticmethod
    def batch():
        import warnings

        from shelab.coeff import Coefficient
        from shelab.grid import GridSpec
        from shelab.kernel import InitialCondition
        from shelab.solver import solve_batch

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GridSpec(R=2.0, dx=0.1, dt=0.005, T=0.1)
        zero, lin = Coefficient.from_source("zero"), Coefficient.from_source("linear")
        return g, solve_batch((1.0, 2.0), zero, lin, InitialCondition.constant(1.0), g, 1, np.arange(6),
                              [10, g.n_steps], [5, x_index(g, 0.0)])

    def test_no_abort_keeps_the_batch_samples_without_a_copy(self):
        g, batch = self.batch()
        ens = Ensemble.from_batch(batch, g, 2.0)
        assert np.shares_memory(ens.samples, batch.samples)
        np.testing.assert_array_equal(ens.samples, batch.samples[1])

    def test_aborted_replications_are_dropped(self):
        g, batch = self.batch()
        batch.samples[1, 4, -1, 0] = np.nan  # replication 4 aborted before the last probe time
        ens = Ensemble.from_batch(batch, g, 2.0)
        assert not np.shares_memory(ens.samples, batch.samples)
        np.testing.assert_array_equal(ens.samples, batch.samples[1, [0, 1, 2, 3, 5]])

    def test_a_run_aborted_after_the_last_probe_is_dropped(self):
        from shelab.coeff import Coefficient
        from shelab.kernel import InitialCondition
        from shelab.solver import solve_batch

        # the drift turns infinite where the clipped state exceeds 2 after t = 0.05: the level-1.5
        # runs stay at u0 = 3 and all abort at step 11, after both probe steps (2 and 4), while
        # level 0.5 clips them to 1.65 and never aborts
        g, _ = self.batch()
        zero = Coefficient.from_source("zero")
        late = Coefficient.from_callable("late", lambda t, x: np.where((t > 0.05) & (x > 2.0), np.inf, 0.0))
        batch = solve_batch((0.5, 1.5), late, zero, InitialCondition.constant(3.0), g, 1, np.arange(4),
                            [2, 4], [5, x_index(g, 0.0)], pairs=[(0.5, 1.5)])
        assert [(a.replication, a.step) for a in batch.aborted[(1.5,)]] == [(r, 11) for r in range(4)]
        assert batch.aborted[(0.5,)] == []
        assert Ensemble.from_batch(batch, g, 0.5).count == 4
        assert Ensemble.from_batch(batch, g, 1.5).count == 0
        assert PairEnsemble.from_batch(batch, g, 0.5).count == 0


class TestCoupledSupDifference:
    def test_inactive_clamps_give_exact_zero(self):
        pair = synthetic_pair(np.zeros((20, 2, 1)))
        assert coupled_sup_difference(pair, 2, 1.0) == 0.0

    def test_single_replication_first_order_is_max_abs(self):
        diffs = np.array([[[0.5], [-2.0]]])  # one replication, two times
        pair = synthetic_pair(diffs)
        assert coupled_sup_difference(pair, 1, 1.0) == 2.0
        assert coupled_sup_difference(pair, 1, 0.5) == 0.5  # horizon excludes t=1

    @pytest.mark.parametrize("k", [0.5, 40])
    def test_order_outside_the_cap_is_rejected(self, k):
        pair = synthetic_pair(np.ones((50, 2, 1)))
        with pytest.raises(ValueError, match="moment order"):
            coupled_sup_difference(pair, k, 1.0)

    def test_from_batch_needs_a_coupled_pair(self):
        import warnings

        from shelab.coeff import Coefficient
        from shelab.grid import GridSpec
        from shelab.kernel import InitialCondition
        from shelab.solver import solve_batch

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GridSpec(R=2.0, dx=0.1, dt=0.005, T=0.1)
        zero, lin = Coefficient.from_source("zero"), Coefficient.from_source("linear")
        batch = solve_batch((1.0, 2.0, 3.5), zero, lin, InitialCondition.constant(1.0), g, 1, [0, 1],
                            [g.n_steps], [x_index(g, 0.0)], pairs=[(1.0, 2.0)])
        assert PairEnsemble.from_batch(batch, g, 1.0).count == 2
        # no level of the batch lies one above 3.5
        with pytest.raises(CouplingError, match="no coupled pair"):
            PairEnsemble.from_batch(batch, g, 3.5)
