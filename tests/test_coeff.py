import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import coeff, expr
from shelab.coeff import (
    Coefficient,
    TruncationLevel,
    check_assumption,
    level_constants,
    linear_growth_constant,
    local_lipschitz_constant,
    truncated_fn,
)

LINEAR = Coefficient.from_source("linear")
SQUARE = Coefficient.parse("x^2")
OSC = Coefficient.from_source("oscillator")

# dense-grid (step 1e-5) secant oracle for the oscillator on [-1, 1]; the
# analytic derivative envelope sup 250*(1+|x|)^(-3/4)*|cos(...)| gives 248.3821
OSC_LIP1_ORACLE = 248.38194249268287


class TestTruncate:
    def test_clamp_at_unit_bound(self):
        assert truncated_fn(LINEAR, TruncationLevel(0.0))(0.1, 2.0) == 1.0

    def test_clamp_then_evaluate(self):
        assert truncated_fn(SQUARE, 1.0)(0.1, -10.0) == pytest.approx(math.e ** 2, rel=1e-15)

    def test_inside_clamp_region(self):
        got = truncated_fn(Coefficient.parse("sin(x)"), 2.0)(0.1, 3.0)
        assert got == pytest.approx(0.1411200080598672, abs=1e-15)  # sin(3)

    def test_level_requires_nonnegative_finite(self):
        with pytest.raises(ValueError):
            TruncationLevel(-1.0)
        with pytest.raises(ValueError):
            TruncationLevel(math.inf)

    def test_clamp_bound_is_exact_exp(self):
        for N in (0.5, 1.0, 3.25):
            assert TruncationLevel(N).clamp_bound == math.exp(N)

    @given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_clamp_idempotent_inside_window(self, N, frac):
        # arguments already inside [-e^N, e^N] pass through bit-exactly
        x = frac * math.exp(N)
        assert truncated_fn(SQUARE, N)(0.1, x) == SQUARE(0.1, x)


class TestLinearGrowth:
    def test_constant_coefficient(self):
        assert linear_growth_constant(Coefficient.parse("3"), (-10, 10)) == 3.0

    def test_identity_on_window(self):
        got = linear_growth_constant(LINEAR, (-100, 100))
        assert got == pytest.approx(100.0 / 101.0, abs=1e-12)

    def test_quadratic_attains_endpoint(self):
        got = linear_growth_constant(SQUARE, (-10, 10))
        assert got == pytest.approx(100.0 / 11.0, rel=1e-12)

    def test_quadratic_grows_with_window(self):
        small = linear_growth_constant(SQUARE, (-10, 10))
        large = linear_growth_constant(SQUARE, (-100, 100))
        assert large > 5.0 * small

    def test_nonfinite_point_is_named(self):
        bad = Coefficient.from_callable("bad", lambda t, x: np.where(np.abs(x) > 5, np.inf, x))
        with pytest.raises(ArithmeticError, match="non-finite"):
            linear_growth_constant(bad, (-10, 10))

    @pytest.mark.parametrize("psi, message", [
        # an expression: its checked evaluation raises on the first non-finite value
        (Coefficient.parse("exp(x)"),
         r"^exp\(x\): non-finite result from exp\(x\) somewhere on the estimation grid at t=0\.01$"),
        # a builtin: the grid estimator scans its values and names the first non-finite point
        (Coefficient.from_callable("bad", lambda t, x: np.where(x >= 1000.0, np.inf, x)),
         r"^bad is non-finite at \(t=0\.01, x=1000\.0\)$"),
    ], ids=["expression", "builtin"])
    def test_each_kind_of_coefficient_names_its_non_finite_value(self, psi, message):
        with pytest.raises(ArithmeticError, match=message):
            linear_growth_constant(psi, (-1000, 1000))

    def test_refining_never_decreases(self):
        for psi in (SQUARE, OSC):
            coarse = linear_growth_constant(psi, (-4, 4), resolution=2.0 ** -6)
            fine = linear_growth_constant(psi, (-4, 4), resolution=2.0 ** -7)
            assert fine >= coarse


class TestLocalLipschitz:
    def test_identity_is_one_exactly(self):
        assert local_lipschitz_constant(LINEAR, 7.3) == 1.0

    def test_square_attains_four(self):
        got = local_lipschitz_constant(SQUARE, 2.0)
        assert got <= 4.0
        assert got == pytest.approx(4.0, abs=1e-3)

    def test_oscillator_matches_dense_grid_oracle(self):
        got = local_lipschitz_constant(OSC, 1.0)
        assert got == pytest.approx(OSC_LIP1_ORACLE, rel=0.02)
        # lower-bound property vs the analytic derivative envelope
        assert got <= 248.3820766386864 * (1 + 1e-9)

    @pytest.mark.parametrize("n_pair", [(0.5, 1.0), (1.0, 2.5), (2.0, 2.0)])
    def test_monotone_in_window_on_nested_grids(self, n_pair):
        lo, hi = n_pair
        for psi in (SQUARE, OSC, Coefficient.from_source("clipped_poly")):
            assert local_lipschitz_constant(psi, hi) >= local_lipschitz_constant(psi, lo)

    @given(st.sampled_from([2.0 ** -8, 2.0 ** -9]), st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_refinement_never_decreases_on_nested_grids(self, res, n):
        for psi in (SQUARE, OSC):
            coarse = local_lipschitz_constant(psi, n, resolution=res)
            fine = local_lipschitz_constant(psi, n, resolution=res / 2.0)
            assert fine >= coarse


def step_grid_by_unique(lo, hi, resolution):
    """The window grid with its ends, built by sorting and deduplicating."""
    k_lo = math.ceil(lo / resolution - 1e-12)
    k_hi = math.floor(hi / resolution + 1e-12)
    pts = np.arange(k_lo, k_hi + 1, dtype=float) * resolution
    return np.unique(np.concatenate([[lo], pts[(pts >= lo) & (pts <= hi)], [hi]]))


@st.composite
def windows(draw):
    """A resolution and a window whose ends lie on grid points, near them or anywhere."""
    res = draw(st.sampled_from([2.0 ** -11, 2.0 ** -3, 0.1, 0.37, 1.0]))

    def end():
        k = draw(st.integers(-400, 400))
        return draw(st.sampled_from([k * res, (k + 0.5) * res, k * res * (1 + 1e-13)]))

    lo, hi = sorted((end(), end()))
    return lo, hi, res


@given(windows())
@settings(max_examples=400, deadline=None)
def test_step_grid_adds_the_ends_as_unique_does(window):
    lo, hi, res = window
    want = step_grid_by_unique(lo, hi, res)
    if want.size < 2:
        with pytest.raises(ValueError, match="fewer than two grid points"):
            coeff._StepGrid(lo, hi, res, include_ends=True).points()
    else:
        assert coeff._StepGrid(lo, hi, res, include_ends=True).points().tolist() == want.tolist()


class TestLevelConstants:
    def test_linear_pair(self):
        lip_b, lip_s = level_constants(Coefficient.parse("2*x"), LINEAR, 1.0)
        assert lip_b == 2.0
        assert lip_s == 1.0

    def test_square_drift_secant_oracle(self):
        # max secant slope of x^2 on [-e, e] is 2e, attained at the right edge
        lip_b, lip_s = level_constants(SQUARE, LINEAR, 1.0)
        assert lip_b <= 2.0 * math.e
        assert lip_b == pytest.approx(2.0 * math.e, abs=1e-2)
        assert lip_s == 1.0

    def test_zero_coefficient_warns(self):
        with pytest.warns(UserWarning, match="zero Lipschitz"):
            lip_b, lip_s = level_constants(Coefficient.from_source("zero"), LINEAR, 1.0)
        assert lip_b == 0.0


class TestCheckAssumption:
    def test_globally_lipschitz_pair_passes(self):
        v = check_assumption(LINEAR, LINEAR, [1.0, 2.0, 3.0, 4.0])
        assert v.verdict == "pass"
        assert v.regime == "sigma-unbounded"
        assert v.clause_sigma == "pass" and v.clause_drift == "pass"

    def test_quadratic_diffusion_fails_on_growth(self):
        v = check_assumption(LINEAR, SQUARE, [1.0, 2.0, 3.0, 4.0])
        assert v.verdict == "fail"
        assert any("diverges" in n for n in v.notes)

    def test_oscillator_reports_clauses_separately(self):
        # drift with Lip_n ~ 0.9 n^0.9 but linear growth
        drift = Coefficient.parse("x*sin(abs(x)^0.9)")
        v = check_assumption(drift, OSC, [1.0, 2.0, 3.0, 4.0])
        assert v.regime == "sigma-bounded"
        assert v.clause_sigma == "pass"          # Lip bounded, reference e^(N/2) wins
        assert v.clause_drift in ("fail", "indeterminate")  # ratio grows; reported as measured
        assert len(v.ratio_sigma) == 4 and len(v.ratio_drift) == 4

    def test_deterministic_across_runs(self):
        drift = Coefficient.parse("x*sin(abs(x)^0.9)")
        a = check_assumption(drift, OSC, [1.0, 2.0, 3.0, 4.0])
        b = check_assumption(drift, OSC, [1.0, 2.0, 3.0, 4.0])
        assert a == b

    def test_needs_four_increasing_levels(self):
        with pytest.raises(ValueError, match="4"):
            check_assumption(LINEAR, LINEAR, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            check_assumption(LINEAR, LINEAR, [1.0, 2.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            check_assumption(LINEAR, LINEAR, [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("drift,ratio", [("x", math.inf), ("0.5*sin(x)", math.inf), ("1", 0.0)])
    def test_additive_noise_gets_a_verdict(self, drift, ratio):
        # L_{N,sigma} = 0 floors at 1e-300, whose fourth power underflows to 0: the
        # drift ratio saturates at inf (0 for a constant drift) and is fitted in logs
        v = check_assumption(Coefficient.parse(drift), Coefficient.parse("1"), [1.0, 2.0, 3.0, 4.0])
        assert v.verdict == "pass" and v.clause_drift == "pass"
        assert v.slope_drift == pytest.approx(0.0, abs=1e-6)
        assert v.ratio_drift == [ratio] * 4

    def test_drift_ratio_takes_logs_only_where_the_quotient_saturates(self):
        assert coeff._drift_ratio(3.0, 0.5) == (48.0, math.log(48.0))
        assert coeff._drift_ratio(1e-300, 1e30) == (0.0, math.log(1e-300))
        assert coeff._drift_ratio(1.0, 1e-100) == (math.inf, -4.0 * math.log(1e-100))
        assert coeff._drift_ratio(1e300, 1e-3) == (math.inf, math.log(1e300) - 4.0 * math.log(1e-3))


U = 2.0 ** -53  # unit roundoff

# 2 to 6 points with x in [-10, 10].  An x spread below ~1e-154 squares to
# underflow (sxx = 0); the fits' x values are log levels and N^1.5
def points(n):
    return st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
    ).filter(lambda p: max(p[0]) - min(p[0]) > 1e-100)


POINTS = st.integers(2, 6).flatmap(points)


def exact_fit(xs, ys):
    """The exact least-squares slope of the points, and the rounding a float fit may add to it.

    The budget is 2 ulp, plus u per rounded centred value and product (8 u sum|dx dy| / sxx,
    large when the points are nearly uncorrelated) or the least subnormal where a product
    underflows, plus an ulp in each mean, which moves the centred sums by
    n ex (ey + ex |slope|) (large when the x spread is a few ulps).
    """
    n = len(xs)
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(fx) / n, sum(fy) / n
    dx, dy = [x - mx for x in fx], [y - my for y in fy]
    sxx = sum(d * d for d in dx)
    slope = sum(a * b for a, b in zip(dx, dy)) / sxx
    ex, ey = Fraction(math.ulp(float(mx))), Fraction(math.ulp(float(my)))
    rounding = (8 * Fraction(U) * sum(abs(a * b) for a, b in zip(dx, dy)) + 2 * n * Fraction(2.0 ** -1074)
                + 2 * n * ex * (ey + ex * abs(slope)))
    return slope, 2 * Fraction(math.ulp(float(slope))) + rounding / sxx


class TestFitLine:
    @given(POINTS)
    @settings(max_examples=300, deadline=None)
    def test_slope_matches_exact_least_squares(self, points):
        xs, ys = points
        slope, budget = exact_fit(xs, ys)
        assert abs(Fraction(coeff._fit_line(xs, ys)[0]) - slope) <= budget

    def test_slope_within_2_ulp_on_a_well_conditioned_line(self):
        xs = [math.log(N) for N in (1.0, 2.0, 3.0, 4.0, 5.0)]
        ys = [-0.375 * x + 0.1 * math.sin(x) for x in xs]
        slope, _ = exact_fit(xs, ys)
        assert abs(coeff._fit_line(xs, ys)[0] - float(slope)) <= 2 * math.ulp(float(slope))

    @given(points(2))
    @settings(max_examples=100, deadline=None)
    def test_two_points_have_no_stderr(self, points):
        slope, stderr = coeff._fit_line(*points)
        assert stderr == 0.0
        assert math.isfinite(slope)

    @given(POINTS, st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_constant_ys_give_zero_slope_and_stderr(self, points, c):
        # fsum(ys) / n is not c for n = 3, 5, 6 and 7; the centring makes it exact
        xs = points[0]
        assert coeff._fit_line(xs, [c] * len(xs)) == (0.0, 0.0)


def test_declared_constants_dominate_estimates():
    # estimators are lower bounds, so declared metadata must never be exceeded
    for name in ("linear", "affine", "oscillator", "clipped_poly"):
        psi = Coefficient.from_source(name)
        est = linear_growth_constant(psi, (-50, 50))
        assert est <= psi.declared_growth * (1 + 1e-9)
        if psi.declared_sup is not None:
            xs = np.linspace(-50, 50, 20001)
            assert float(np.max(np.abs(psi(0.1, xs)))) <= psi.declared_sup * (1 + 1e-9)


def test_time_free_expressions_are_evaluated_at_one_time(monkeypatch):
    free, twin = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("0.5*sin(x) + 0*t")
    times = []
    evaluate = expr.evaluate

    def recorded(compiled, t, x):
        times.append(t)
        return evaluate(compiled, t, x)

    monkeypatch.setattr(expr, "evaluate", recorded)
    got = {}
    for psi in (free, twin):
        times.clear()
        got[psi.name] = (linear_growth_constant(psi), level_constants(psi, psi, 2.0), coeff._sup_abs(psi, 10.0))
        assert set(times) == ({0.01} if psi is free else set(coeff.DEFAULT_TIME_GRID))
    # the same bits: the maximum over equal values at four times is that value
    assert got[free.name] == got[twin.name]
    with pytest.raises(ArithmeticError, match="at t=0.01$"):
        linear_growth_constant(Coefficient.parse("log(x)"), (-1, 1))


def test_unknown_name_is_rejected_by_the_parser():
    with pytest.raises(expr.ParseError, match="unknown identifier 'nope'"):
        Coefficient.from_source("nope")


def whole_grid(lo, hi, resolution, include_ends):
    """The estimation grid built as one array, as the estimators built it before they ran in chunks."""
    if (hi - lo) / resolution > coeff._MAX_GRID_POINTS:
        resolution = (hi - lo) / coeff._MAX_GRID_POINTS
    k_lo = math.ceil(lo / resolution - 1e-12)
    k_hi = math.floor(hi / resolution + 1e-12)
    pts = np.arange(k_lo, k_hi + 1, dtype=float) * resolution
    pts = pts[(pts >= lo) & (pts <= hi)]
    if include_ends:
        pts = np.unique(np.concatenate([[lo], pts, [hi]]))
    if pts.size < 2:
        raise ValueError("fewer than two grid points")
    return pts


def whole_grid_constant(psi, xs, reduce):
    """Maximum of ``reduce(xs, psi(t, xs))`` over the estimator's times, ``xs`` evaluated whole."""
    return max(float(np.max(reduce(xs, np.asarray(psi(t, xs), dtype=float)))) for t in coeff._times(psi))


def growth(xs, vals):
    return np.abs(vals) / (1.0 + np.abs(xs))


def lipschitz(xs, vals):
    return np.abs(np.diff(vals)) / np.diff(xs)


def sup(xs, vals):
    return np.abs(vals)


class TestChunkedGrids:
    """The estimators evaluate their grids in runs of ``_CHUNK_POINTS`` points; every constant keeps
    the bits of the same grid evaluated whole, wherever the runs end."""

    C = coeff._CHUNK_POINTS
    RES = 2.0 ** -11
    COEFFICIENTS = [Coefficient.parse("0.5*sin(x) + x*x/(1+abs(x))"), Coefficient.from_source("clipped_poly"),
                    Coefficient.from_source("oscillator"), Coefficient.parse("t*x + cos(3*x)")]

    @pytest.mark.parametrize("points", [0, 1, C - 1, C, C + 1, 2 * C + 1])
    @pytest.mark.parametrize("include_ends", [False, True])
    def test_runs_cover_the_grid_once(self, points, include_ends):
        # the multiples 1..points of the step, plus the ends when asked for
        lo, hi = 0.5 * self.RES, (points + 0.75) * self.RES
        try:
            want = whole_grid(lo, hi, self.RES, include_ends)
        except ValueError:
            with pytest.raises(ValueError, match="fewer than two grid points"):
                coeff._StepGrid(lo, hi, self.RES, include_ends)
            return
        grid = coeff._StepGrid(lo, hi, self.RES, include_ends)
        assert grid.size == want.size and np.array_equal(grid.points(), want)
        for overlap in (0, 1):
            runs = list(grid.chunks(overlap))
            assert max(run.size for run in runs) <= self.C + overlap
            assert np.array_equal(np.concatenate([runs[0]] + [run[overlap:] for run in runs[1:]]), want)
            for a, b in zip(runs, runs[1:]):
                assert np.array_equal(a[a.size - overlap:], b[:overlap])

    @pytest.mark.parametrize("points", [2, C - 1, C, C + 1, 2 * C + 1])
    @pytest.mark.parametrize("psi", COEFFICIENTS, ids=lambda psi: psi.name)
    def test_linear_growth_at_chunk_boundaries(self, points, psi):
        domain = (-3.0, -3.0 + (points - 1) * self.RES)  # both ends on the grid: exactly `points` points
        xs = whole_grid(*domain, self.RES, include_ends=True)
        assert xs.size == points
        assert linear_growth_constant(psi, domain, self.RES) == whole_grid_constant(psi, xs, growth)

    @pytest.mark.parametrize("chunk_to_points", ["chunk - 1", "chunk", "chunk + 1", "2 chunk + 1"])
    @pytest.mark.parametrize("psi", COEFFICIENTS, ids=lambda psi: psi.name)
    def test_lipschitz_and_sup_at_chunk_boundaries(self, chunk_to_points, psi, monkeypatch):
        # both grids on [-2, 2] hold the 8193 multiples of the step (the ends are among them);
        # the run length makes 8193 one of chunk - 1, chunk, chunk + 1 and 2 chunk + 1
        n, points = 2.0, 8193
        chunk = {"chunk - 1": points + 1, "chunk": points, "chunk + 1": points - 1,
                 "2 chunk + 1": (points - 1) // 2}[chunk_to_points]
        monkeypatch.setattr(coeff, "_CHUNK_POINTS", chunk)
        for estimate, xs, reduce in (
            (lambda: local_lipschitz_constant(psi, n), whole_grid(-n, n, self.RES, False), lipschitz),
            (lambda: coeff._sup_abs(psi, n), whole_grid(-n, n, self.RES, True), sup),
        ):
            assert xs.size == points
            assert estimate() == whole_grid_constant(psi, xs, reduce)

    def test_a_jump_across_a_run_boundary(self, monkeypatch):
        # the one nonzero quotient is between the last point of the first run and the next point
        monkeypatch.setattr(coeff, "_CHUNK_POINTS", 64)
        xs = whole_grid(-1.0, 1.0, self.RES, include_ends=False)
        step = Coefficient.from_callable("step", lambda t, x: (x >= xs[64]).astype(float))
        assert local_lipschitz_constant(step, 1.0) == 1.0 / self.RES

    @pytest.mark.parametrize("points", [1, C - 1, C + 1, 2 * C + 1])
    def test_lipschitz_at_the_module_chunk(self, points):
        psi = self.COEFFICIENTS[0]
        n = (points // 2) * self.RES  # the multiples -points//2 .. points//2
        if points == 1:
            with pytest.raises(ValueError, match="fewer than two grid points"):
                local_lipschitz_constant(psi, self.RES / 2)
            return
        xs = whole_grid(-n, n, self.RES, include_ends=False)
        assert xs.size == points
        assert local_lipschitz_constant(psi, n) == whole_grid_constant(psi, xs, lipschitz)

    @pytest.mark.parametrize("psi", COEFFICIENTS, ids=lambda psi: psi.name)
    def test_coarsened_grid(self, psi, monkeypatch):
        # a window of 12,288 steps coarsened to 1,000 points of step 0.006, in runs of 64
        monkeypatch.setattr(coeff, "_MAX_GRID_POINTS", 1000)
        monkeypatch.setattr(coeff, "_CHUNK_POINTS", 64)
        xs = whole_grid(-3.0, 3.0, self.RES, include_ends=False)
        with pytest.warns(UserWarning, match="coarsened to step 0.006"):
            got = local_lipschitz_constant(psi, 3.0)
        assert got == whole_grid_constant(psi, xs, lipschitz)

    def test_a_failure_names_what_the_whole_grid_names(self, monkeypatch):
        # the log fails right of 1.5 and the square root left of -3: in runs of 16 points the
        # first run meets the square root alone, but the whole grid fails at the log, the first node
        psi = Coefficient.parse("log(1.5 - x) + sqrt(x + 3)")
        messages = []
        for chunk in (16, 10 ** 6):
            monkeypatch.setattr(coeff, "_CHUNK_POINTS", chunk)
            with pytest.raises(ArithmeticError) as exc:
                local_lipschitz_constant(psi, 4.0, resolution=0.25)
            messages.append(str(exc.value))
        assert messages == 2 * ["log(1.5 - x) + sqrt(x + 3): log of a non-positive value somewhere on the "
                                "estimation grid at t=0.01"]
        with pytest.raises(ArithmeticError, match="sqrt of a negative value"):
            coeff._eval_checked(psi, 0.01, coeff._StepGrid(-4.0, 4.0, 0.25, False).points(0, 16))


def test_a_failing_check_holds_no_whole_grid():
    # the linear-growth grids miss x = -2000 and 2000; the Lipschitz grid of the top window
    # [-e^8, e^8] (12 M points) holds both.  Its runs meet the division at -2000 first, but the
    # log, failing at 2000, comes first in evaluation order: the failed verdict's note names the
    # log, as the whole grid evaluated at once does (which traced a 294 MB peak), and the
    # failure stays under the passing path's bound
    b, sigma = Coefficient.parse("log(abs(x - 2000)) + 1/(x + 2000)"), Coefficient.parse("x/(1+abs(x)/8)")
    tracemalloc.start()
    try:
        verdict = check_assumption(b, sigma, [5.0, 6.0, 7.0, 8.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.verdict == "fail"
    assert verdict.notes == ["log(abs(x - 2000)) + 1/(x + 2000): log of a non-positive value somewhere on the "
                             "estimation grid at t=0.01"]
    assert peak < 4e6


def test_check_assumption_holds_no_whole_grid():
    # at [1, 2, 3, 12] the top window's grid is coarsened to 20 M points: built whole, it
    # traced an 800 MB peak; in runs of _CHUNK_POINTS points the traced peak (tracemalloc
    # sees numpy's data) is 0.66 MB, and the bound leaves six times that
    b, sigma = Coefficient.parse("0.5*sin(x)"), Coefficient.parse("x/(1+abs(x)/8)")
    tracemalloc.start()
    try:
        check_assumption(b, sigma, [1.0, 2.0, 3.0, 12.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
