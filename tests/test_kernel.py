import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import shelab
from shelab.kernel import (
    InitialCondition,
    heat_kernel,
    initial_convolution,
    kernel_l2_norm_sq,
)

# mpmath oracles (40 digits)
P_1_0 = 0.39894228040143267794       # (2 pi)^(-1/2)
P_HALF_1 = 0.20755374871029735167    # pi^(-1/2) e^(-1)
L2_1 = 0.28209479177387814347        # 1/(2 sqrt(pi))
PHI_DIFF = 0.68268949213708589717    # Phi(1) - Phi(-1)


class TestHeatKernel:
    def test_spot_values(self):
        assert heat_kernel(1.0, 0.0) == pytest.approx(P_1_0, abs=1e-15)
        assert heat_kernel(0.5, 1.0) == pytest.approx(P_HALF_1, abs=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-50, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_even_symmetry(self, r, z):
        assert heat_kernel(r, z) == heat_kernel(r, -z)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 1.0)
        with pytest.raises(ValueError):
            heat_kernel(-1.0, 1.0)

    @pytest.mark.parametrize("r", [0.01, 0.1, 1.0, 10.0])
    def test_unit_mass_trapezoid(self, r):
        sd = math.sqrt(r)
        step = sd / 200.0
        zs = np.arange(-12.0 * sd, 12.0 * sd + step / 2, step)
        mass = np.trapezoid(heat_kernel(r, zs), zs)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("s,t", [(0.3, 0.7), (0.05, 0.05), (1.0, 2.0)])
    def test_semigroup_at_origin(self, s, t):
        # numerical convolution (p_s * p_t)(0) against p_{s+t}(0)
        sd = math.sqrt(max(s, t))
        zs = np.linspace(-12 * sd, 12 * sd, 40001)
        conv = np.trapezoid(heat_kernel(s, zs) * heat_kernel(t, -zs), zs)
        assert conv == pytest.approx(heat_kernel(s + t, 0.0), abs=1e-6)


class TestKernelL2:
    def test_spot_values(self):
        assert kernel_l2_norm_sq(1.0) == pytest.approx(L2_1, abs=1e-15)
        assert kernel_l2_norm_sq(4.0) == pytest.approx(0.25 / math.sqrt(math.pi), abs=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scaling_law(self, r):
        assert kernel_l2_norm_sq(4.0 * r) == pytest.approx(kernel_l2_norm_sq(r) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_quadrature_cross_check(self, r):
        sd = math.sqrt(r)
        val, _ = integrate.quad(lambda z: heat_kernel(r, z) ** 2, -12 * sd, 12 * sd, limit=200)
        assert val == pytest.approx(kernel_l2_norm_sq(r), abs=1e-8)


class TestInitialConvolution:
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=1e-3, max_value=10.0),
        st.floats(min_value=-20, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_profile_is_fixed_point(self, c, t, x):
        assert initial_convolution(InitialCondition.constant(c), t, x) == c

    def test_half_space_indicator_by_symmetry(self):
        u0 = InitialCondition.indicator(0.0, math.inf)
        assert initial_convolution(u0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_interval_indicator_matches_cdf_oracle(self):
        u0 = InitialCondition.indicator(-1.0, 1.0)
        got = initial_convolution(u0, 1.0, 0.0)
        assert got == pytest.approx(PHI_DIFF, abs=1e-12)

    def test_indicator_matches_quadrature(self):
        # independent route: trapezoid of kernel * profile
        u0 = InitialCondition.indicator(-1.0, 1.0)
        zs = np.linspace(-1.0, 1.0, 400001)
        ref = np.trapezoid(heat_kernel(0.7, zs - 0.3), zs)
        assert initial_convolution(u0, 0.7, 0.3) == pytest.approx(ref, abs=1e-9)

    def test_expression_profile_against_gaussian_closed_form(self):
        # (p_t * exp(-y^2))(x) = (1+2t)^(-1/2) exp(-x^2/(1+2t))
        u0 = InitialCondition.from_expression("exp(-x^2)", bound=1.0)
        for t, x in [(0.25, 0.0), (0.5, 1.0), (1.0, -2.0)]:
            ref = math.exp(-x * x / (1 + 2 * t)) / math.sqrt(1 + 2 * t)
            assert initial_convolution(u0, t, x) == pytest.approx(ref, abs=1e-9)

    @given(st.floats(min_value=1e-3, max_value=4.0), st.floats(min_value=-6, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_contraction(self, t, x):
        u0 = InitialCondition.indicator(-0.5, 2.0)
        assert abs(initial_convolution(u0, t, x)) <= u0.bound + 1e-15

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            initial_convolution(InitialCondition.constant(1.0), 0.0, 0.0)


class TestInitialCondition:
    def test_indicator_needs_ordered_interval(self):
        with pytest.raises(ValueError):
            InitialCondition.indicator(1.0, 1.0)

    def test_expression_bound_estimated_when_missing(self):
        u0 = InitialCondition.from_expression("sin(x) + 0.5")
        assert u0.bound == pytest.approx(1.5, abs=1e-6)

    def test_lattice_evaluation(self):
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        ind = InitialCondition.indicator(-1.0, 1.0)
        assert np.array_equal(ind(xs), np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert np.array_equal(InitialCondition.constant(2.5)(xs), np.full(5, 2.5))


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the quadrature for expression profiles needs it; it is slow to import
    src = str(pathlib.Path(shelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, shelab.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
