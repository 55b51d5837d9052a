import math

import pytest
from hypothesis import given, settings, strategies as st

from shelab.bounds import (
    BoundReport,
    ProblemConstants,
    beta_for_convergence,
    beta_for_moments,
    convergence_amplitude,
    convergence_thresholds,
    moment_bound_bounded_sigma,
    moment_bound_unbounded_sigma,
    tail_bound_bounded_sigma,
    tail_bound_unbounded_sigma,
    tail_validity_threshold,
)


def consts(Lb=0.0, Ls=1.0, u0=0.0, sup=None, c=2.0):
    return ProblemConstants(
        drift_growth=Lb, diffusion_growth=Ls, u0_sup=u0, diffusion_sup=sup, proof_constant=c
    )


class TestMomentBoundSpotValues:
    def test_order_two_at_time_zero(self):
        out = moment_bound_unbounded_sigma(2, 0.0, consts(Ls=1.0, u0=0.0))
        assert out.valid
        assert out.bound.value == pytest.approx(16.0, rel=1e-12)

    def test_order_three_with_unit_profile(self):
        out = moment_bound_unbounded_sigma(3, 0.0, consts(Ls=1.0, u0=1.0))
        assert out.bound.value == pytest.approx(512.0, rel=1e-12)  # 4^3 * 2^3

    def test_log_space_beyond_float_range(self):
        out = moment_bound_unbounded_sigma(2, 1.0, consts(Ls=1.0, u0=0.0))
        assert out.bound.log_value == pytest.approx(math.log(16.0) + 1024.0, rel=1e-12)
        assert out.bound.value is None  # e^1024 is not representable

    def test_bounded_regime_order_two(self):
        out = moment_bound_bounded_sigma(2, 0.0, consts(sup=1.0, u0=0.0))
        assert out.bound.value == pytest.approx(32.0, rel=1e-12)  # 16 * 1 * 1 * 2

    def test_bounded_regime_with_time(self):
        out = moment_bound_bounded_sigma(2, 1.0, consts(Lb=0.0, sup=1.0, u0=0.0))
        assert out.bound.value == pytest.approx(128.0, rel=1e-12)  # 16 * 4 * 2

    def test_bounded_regime_fourth_order(self):
        out = moment_bound_bounded_sigma(4, 0.0, consts(sup=0.0, u0=0.0))
        assert out.bound.value == pytest.approx(4096.0, rel=1e-12)  # 4^4 * 4^2

    def test_unbounded_needs_positive_diffusion_growth(self):
        out = moment_bound_unbounded_sigma(2, 0.0, consts(Ls=0.0))
        assert not out.valid and "positive" in out.failed_clause

    def test_order_range_clause(self):
        # sqrt(Lb)/Ls^2 = 4 forces k >= 4
        out = moment_bound_unbounded_sigma(2, 0.0, consts(Lb=16.0, Ls=1.0))
        assert not out.valid and "minimum 4" in out.failed_clause
        assert moment_bound_unbounded_sigma(4, 0.0, consts(Lb=16.0, Ls=1.0)).valid

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from([2.0, 3.0, 4.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_time(self, t1, t2, k):
        lo, hi = sorted((t1, t2))
        c = consts(Lb=0.5, Ls=1.2, u0=0.7)
        a = moment_bound_unbounded_sigma(k, lo, c).bound.log_value
        b = moment_bound_unbounded_sigma(k, hi, c).bound.log_value
        assert a <= b
        cb = consts(Lb=0.5, u0=0.7, sup=1.1)
        a = moment_bound_bounded_sigma(k, lo, cb).bound.log_value
        b = moment_bound_bounded_sigma(k, hi, cb).bound.log_value
        assert a <= b


class TestTailBounds:
    def test_unbounded_spot_value(self):
        out = tail_bound_unbounded_sigma(16.0, 0.01, consts(Ls=1.0, u0=0.0))
        assert out.valid
        assert out.bound.log_value == pytest.approx(-10.0, rel=1e-12)
        assert out.bound.value == pytest.approx(math.exp(-10.0), rel=1e-12)
        assert tail_validity_threshold(0.01, consts(Ls=1.0, u0=0.0)) == pytest.approx(10.24, rel=1e-12)

    def test_unbounded_below_threshold_not_applicable(self):
        out = tail_bound_unbounded_sigma(8.0, 0.01, consts(Lb=1.0, Ls=1.0, u0=0.0))
        assert not out.valid
        assert "threshold" in out.failed_clause

    @given(st.floats(min_value=1e-4, max_value=1.0), st.floats(min_value=1e-4, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_monotone_in_time(self, t1, t2):
        lo, hi = sorted((t1, t2))
        c = consts(Ls=1.0, u0=0.0)
        a = tail_bound_unbounded_sigma(50.0, lo, c).bound.log_value
        b = tail_bound_unbounded_sigma(50.0, hi, c).bound.log_value
        assert a <= b  # smaller t gives a strictly smaller bound

    def test_bounded_spot_value(self):
        out = tail_bound_bounded_sigma(3.0, 0.0, consts(Lb=5.0, sup=1.0, u0=0.0))
        expect = -math.exp(6.0) / (32.0 * math.e)
        assert out.valid
        assert out.bound.log_value == pytest.approx(expect, rel=1e-12)
        assert out.bound.value == pytest.approx(9.6779e-3, rel=1e-4)
        # threshold at t=0: log(32)/2 + 1/2
        out_low = tail_bound_bounded_sigma(2.0, 0.0, consts(Lb=5.0, sup=1.0, u0=0.0))
        assert not out_low.valid
        assert float(out_low.failed_clause.split()[-1]) == pytest.approx(2.2328679, rel=1e-6)

    def test_bounded_doubly_exponential_decrease(self):
        c = consts(Lb=0.0, sup=1.0, u0=0.0)
        logs = [tail_bound_bounded_sigma(N, 0.1, c).bound.log_value for N in (3.0, 4.0, 5.0)]
        assert logs[1] < logs[0] and logs[2] < logs[1]
        assert (logs[2] / logs[1]) == pytest.approx(math.exp(2.0), rel=1e-9)


# direct transcriptions of the stated validity ranges, kept separate from the
# implementations they police
def _valid_unbounded(N, t, c):
    return N >= max(
        4.0 * math.log(4.0 * (c.u0_sup + 1.0)),
        256.0 * t * max(4.0 * c.diffusion_growth ** 4, c.drift_growth),
    )


def _valid_bounded(N, t, c):
    base = c.u0_sup + c.diffusion_sup * t ** 0.25 + 1.0
    return N >= 0.5 * math.log(32.0) + 2.0 * c.drift_growth * t + 0.5 + math.log(base)


@given(
    st.floats(min_value=0.1, max_value=60.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_validity_predicates_match_transcription(N, t, Lb, Ls, u0):
    c = consts(Lb=Lb, Ls=Ls, u0=u0)
    assert tail_bound_unbounded_sigma(N, t, c).valid == _valid_unbounded(N, t, c)
    cb = consts(Lb=Lb, Ls=Ls, u0=u0, sup=1.3)
    assert tail_bound_bounded_sigma(N, t, cb).valid == _valid_bounded(N, t, cb)


@given(st.floats(min_value=-600, max_value=600))
@settings(max_examples=100, deadline=None)
def test_log_linear_agreement(log_value):
    from shelab.bounds import BoundValue

    bv = BoundValue(log_value)
    assert bv.value is not None
    assert math.log(bv.value) == pytest.approx(log_value, abs=1e-12 * max(1.0, abs(log_value)))


class TestParameterChoices:
    def test_beta_for_moments_spot_values(self):
        assert beta_for_moments(2, 1.0) == pytest.approx(512.0, rel=1e-12)
        assert beta_for_moments(2, 2.0) == pytest.approx(8192.0, rel=1e-12)

    def test_beta_for_moments_scaling(self):
        assert beta_for_moments(8, 1.3) == pytest.approx(16.0 * beta_for_moments(2, 1.3), rel=1e-12)

    def test_beta_for_convergence_spot_values(self):
        assert convergence_amplitude(1.0) == 4.0
        assert beta_for_convergence(1, 1.0, 1.0) == pytest.approx(4096.0, rel=1e-12)
        assert convergence_amplitude(2.0) == pytest.approx(math.sqrt(8.0) * 16.0, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_beta_positive_and_increasing(self, k, lns, ls):
        base = beta_for_convergence(k, lns, ls)
        assert base > 0
        assert beta_for_convergence(k + 0.5, lns, ls) > base
        assert beta_for_convergence(k, lns + 0.5, ls) > base
        assert beta_for_convergence(k, lns, ls + 0.5) >= base

    def test_convergence_thresholds_spot_values(self):
        c = consts(Lb=1.0, Ls=1.0, u0=0.0, c=2.0)
        th = convergence_thresholds(1.0, c)
        assert th.c_T == pytest.approx(1024.0, rel=1e-12)
        assert th.N_T == pytest.approx(256.0 * 4.0 ** (8.0 / 3.0) * 4.0, rel=1e-12)
        assert th.N_T == pytest.approx(4.128e4, rel=1e-3)
        th2 = convergence_thresholds(2.0, c)
        assert th2.N_T == pytest.approx(2.0 * th.N_T, rel=1e-12)

    def test_n0_from_level_samples(self):
        c = consts()
        th = convergence_thresholds(1.0, c, [(1.0, 0.4), (2.0, 0.9), (3.0, 1.1), (4.0, 2.0)])
        assert th.N0 == 3.0
        th = convergence_thresholds(1.0, c, [(1.0, 0.4), (2.0, 0.9)])
        assert th.N0 is None

    def test_inflate_diffusion_growth(self):
        c = consts(Lb=16.0, Ls=1.0)
        inflated = c.inflate_diffusion_growth()
        assert inflated.diffusion_growth == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert math.sqrt(inflated.drift_growth) / inflated.diffusion_growth ** 2 == pytest.approx(2.0)
        big = consts(Lb=1.0, Ls=3.0)
        assert big.inflate_diffusion_growth() == big  # already wide enough

    @pytest.mark.parametrize("Lb", [0.0, 0.5, 2.0, 5.0, 8.0, 16.0])
    def test_inflation_admits_order_two(self, Lb):
        # the promise holds in floats: sqrt(L_b)/L_s^2 <= 2, so k = 2 is admissible,
        # and one float less would break it
        ls = consts(Lb=Lb, Ls=0.0).inflate_diffusion_growth().diffusion_growth
        assert math.sqrt(Lb) / ls ** 2 <= 2.0
        assert moment_bound_unbounded_sigma(2, 0.0, consts(Lb=Lb, Ls=ls)).valid
        if Lb > 0:
            assert math.sqrt(Lb) / math.nextafter(ls, 0.0) ** 2 > 2.0
        else:
            assert ls == 1.0
            assert consts(Lb=0.0, Ls=0.5).inflate_diffusion_growth().diffusion_growth == 0.5

    def test_inflation_at_a_subnormal_drift_constant(self):
        ls = consts(Lb=5e-324, Ls=0.0).inflate_diffusion_growth().diffusion_growth
        assert 0.0 < ls and math.sqrt(5e-324) / ls ** 2 <= 2.0

    def test_proof_constant_must_exceed_one(self):
        with pytest.raises(ValueError):
            consts(c=1.0)


class TestBoundReport:
    def test_verdicts(self):
        valid = moment_bound_unbounded_sigma(2, 0.0, consts())
        assert BoundReport.compare(valid, 1.0) == BoundReport(bound_log=valid.bound.log_value, verdict="dominates")
        assert BoundReport.compare(valid, 17.0).verdict == "violated"
        assert BoundReport.compare(valid, 0.0).verdict == "dominates"
        invalid = moment_bound_unbounded_sigma(2, 0.0, consts(Ls=0.0))
        assert BoundReport.compare(invalid, 1.0).verdict == "not-applicable"

