"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy Monte Carlo
criteria (2 and 3) take a couple of minutes combined; everything else is
seconds.  All runs are seeded and deterministic.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from shelab import cli, harness
from shelab.bounds import (
    beta_for_convergence,
    beta_for_moments,
    moment_bound_bounded_sigma,
    moment_bound_unbounded_sigma,
    tail_bound_unbounded_sigma,
    ProblemConstants,
)
from shelab.coeff import Coefficient, check_assumption, linear_growth_constant, local_lipschitz_constant
from shelab.estimators import Ensemble
from shelab.harness import _collect, _probe_indices, parse_config
from shelab.kernel import heat_kernel, kernel_l2_norm_sq
from shelab.noise import NoiseSpec
from shelab.solver import solve_pair_coupled

TARGET_VARIANCE = 0.2820947917738781  # sqrt(t/pi) at t = 0.25, from the kernel L2 identity


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {text}")
                raise
            print(f"[criterion {num:2d}] PASS  {text}")
            return out

        return wrapper

    return deco


# -- criterion 1 ----------------------------------------------------------------


@criterion(1, "kernel L2 identity: quadrature of p_r^2 equals (1/2)(pi r)^(-1/2) to 1e-8")
def test_criterion_01_kernel_identity():
    start = time.monotonic()
    for r in (0.1, 1.0, 10.0):
        sd = math.sqrt(r)
        val, _ = integrate.quad(lambda z: heat_kernel(r, z) ** 2, -12 * sd, 12 * sd, limit=200)
        assert val == pytest.approx(kernel_l2_norm_sq(r), abs=1e-8)
    assert time.monotonic() - start < 1.0


# -- criterion 2 ----------------------------------------------------------------


def scheme_variance_oracle(R, dx, dt, T):
    """Exact variance of the additive-noise scheme at (T, x=0).

    Independent of the solver: builds the one-step matrix A explicitly
    (interior rows tridiagonal with dt/(2 dx^2), frozen ends) and accumulates
    (dt/dx) * sum_m ||A^m restricted to interior||^2 along the adjoint
    recursion.  The continuum limit of this value is sqrt(T/pi).
    """
    J = int(round(2 * R / dx)) + 1
    M = int(round(T / dt))
    lam = dt / (2.0 * dx * dx)
    A = np.zeros((J, J))
    A[0, 0] = A[-1, -1] = 1.0
    idx = np.arange(1, J - 1)
    A[idx, idx] = 1.0 - 2.0 * lam
    A[idx, idx - 1] = lam
    A[idx, idx + 1] = lam
    z = np.zeros(J)
    z[(J - 1) // 2] = 1.0
    total = 0.0
    for _ in range(M):
        total += float(np.dot(z[1:-1], z[1:-1]))
        z = A.T @ z
    return (dt / dx) * total


def additive_variance_run(dx, dt, reps, seed=746083):
    doc = {
        "b": "zero",
        "sigma": "one",
        "u0": {"kind": "constant", "value": 0.0},
        "grid": {"R": 8.0, "dx": dx, "dt": dt, "T": 0.25, "boundary": "dirichlet"},
        "replications": reps,
        "levels": [3.0],
        "orders": [2.0],
        "seed": seed,
        "bounded_sigma": False,
        "probes": {"times": [0.25], "x_stride": int(round(8.0 / dx))},
    }
    cfg = parse_config(doc)
    steps, xs = _probe_indices(cfg)
    batch = _collect(cfg, (3.0,), steps, xs, threads=2)
    assert not batch.aborted[(3.0,)]
    ens = Ensemble.from_batch(batch, cfg.grid)
    return float(np.var(ens.samples_at(0.25, 0.0), ddof=1))


@criterion(2, "additive-noise variance matches sqrt(t/pi) within 10%; scheme error halves with dx")
def test_criterion_02_additive_noise_variance():
    # 2000 replications on the stated grid
    var_coarse = additive_variance_run(0.05, 1e-3, 2000)
    assert abs(var_coarse - TARGET_VARIANCE) <= 0.10 * TARGET_VARIANCE

    # halving dx (dt scaled to keep dt/dx^2 fixed): the deterministic
    # component of the estimator error is the scheme's exact variance bias,
    # which the independent oracle shows strictly decreasing; the Monte Carlo
    # estimates must agree with their scheme variances within 4-sigma CLT
    # bands at both resolutions (sampling noise at feasible replication
    # counts is larger than the bias difference itself, so the decrease is
    # asserted on the exact values, not on noisy point estimates)
    var_fine = additive_variance_run(0.025, 2.5e-4, 600)
    v_scheme_coarse = scheme_variance_oracle(8.0, 0.05, 1e-3, 0.25)
    v_scheme_fine = scheme_variance_oracle(8.0, 0.025, 2.5e-4, 0.25)
    assert abs(v_scheme_fine - TARGET_VARIANCE) < abs(v_scheme_coarse - TARGET_VARIANCE)
    assert abs(v_scheme_fine - TARGET_VARIANCE) <= 0.55 * abs(v_scheme_coarse - TARGET_VARIANCE)

    band_coarse = 4.0 * v_scheme_coarse * math.sqrt(2.0 / 1999.0)
    band_fine = 4.0 * v_scheme_fine * math.sqrt(2.0 / 599.0)
    assert abs(var_coarse - v_scheme_coarse) <= band_coarse
    assert abs(var_fine - v_scheme_fine) <= band_fine
    assert abs(var_fine - TARGET_VARIANCE) <= 0.10 * TARGET_VARIANCE


# -- criterion 3 ----------------------------------------------------------------


@criterion(3, "replication mean of the clipped multiplicative equation stays at 1 (3 SE, 2000 reps)")
def test_criterion_03_mean_preservation():
    doc = {
        "b": "zero",
        "sigma": "linear",
        "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 4.0, "dx": 0.05, "dt": 0.001, "T": 0.25, "boundary": "dirichlet"},
        "replications": 2000,
        "levels": [3.0],
        "orders": [2.0],
        "seed": 550291,
        "bounded_sigma": False,
        "probes": {"times": [0.25], "x_stride": 80},
    }
    cfg = parse_config(doc)
    steps, xs = _probe_indices(cfg)
    batch = _collect(cfg, (3.0,), steps, xs, threads=2)
    assert not batch.aborted[(3.0,)]
    ens = Ensemble.from_batch(batch, cfg.grid)
    vals = ens.samples_at(0.25, 0.0)
    se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
    assert abs(float(vals.mean()) - 1.0) <= 3.0 * se


# -- criteria 4 and 6: the pilot configs ------------------------------------------


def moment_pilot_doc():
    return {
        "b": "zero",
        "sigma": "linear",
        "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
        "replications": 400,
        "levels": [1.0, 2.0],
        "orders": [2.0, 4.0],
        "seed": 20250801,
        "bounded_sigma": False,
        "constants": {"c": 2.0},
        "probes": {"times": [0.1, 0.25], "x_stride": 10},
    }


@criterion(4, "moment bounds dominate MC upper confidence values for k in {2,4}, N in {1,2}, t in {0.1,0.25}")
def test_criterion_04_moment_domination():
    res = harness.run_moment_verification(parse_config(moment_pilot_doc()), threads=2)
    assert res.records
    assert all(r.verdict == "dominates" for r in res.records)
    assert res.diagnostics["violations"] == 0
    assert res.diagnostics["min_log_margin"] > 0.0


@criterion(5, "closed-form bound spot values exact to 1e-12 relative")
def test_criterion_05_bound_spot_values():
    c1 = ProblemConstants(diffusion_growth=1.0, u0_sup=0.0)
    assert moment_bound_unbounded_sigma(2, 0.0, c1).bound.value == pytest.approx(16.0, rel=1e-12)
    c2 = ProblemConstants(diffusion_sup=1.0, u0_sup=0.0)
    assert moment_bound_bounded_sigma(2, 0.0, c2).bound.value == pytest.approx(32.0, rel=1e-12)
    out = tail_bound_unbounded_sigma(16.0, 0.01, c1)
    assert out.valid
    assert out.bound.value == pytest.approx(math.exp(-10.0), rel=1e-12)
    from shelab.bounds import tail_validity_threshold

    assert tail_validity_threshold(0.01, c1) == pytest.approx(10.24, rel=1e-12)
    assert beta_for_moments(2, 1.0) == pytest.approx(512.0, rel=1e-12)
    assert beta_for_convergence(1, 1.0, 1.0) == pytest.approx(4096.0, rel=1e-12)


def tail_pilot_doc():
    return {
        "b": "zero",
        "sigma": "linear",
        "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 4.0, "dx": 0.05, "dt": 0.001, "T": 0.01, "boundary": "dirichlet"},
        "replications": 2000,
        "levels": [8.0, 11.0],
        "orders": [2.0],
        "seed": 640911,
        "bounded_sigma": False,
        "constants": {"c": 2.0},
        "probes": {"times": [0.01], "x_stride": 40},
    }


@criterion(6, "tail bounds dominate Wilson upper limits wherever the validity predicate holds")
def test_criterion_06_tail_domination():
    res = harness.run_tail_verification(parse_config(tail_pilot_doc()), threads=2)
    applicable = [r for r in res.records if r.verdict != "not-applicable"]
    assert applicable  # at least one (N, t) passes the validity predicate
    assert all(r.verdict == "dominates" for r in applicable)
    assert res.diagnostics["violations"] == 0
    # invalid rows are retained for audit
    assert any(r.verdict == "not-applicable" for r in res.records)


# -- criterion 7 ----------------------------------------------------------------


@criterion(7, "coupled clamp levels above the pathwise max are bit-identical; uniqueness experiment passes")
def test_criterion_07_coupled_truncation_identity():
    doc = moment_pilot_doc()
    doc["levels"] = [0.5, 6.0]
    doc["replications"] = 3
    cfg = parse_config(doc)
    for rep in range(3):
        spec = NoiseSpec(seed=cfg.seed, replication=rep, grid=cfg.grid)
        low, high = solve_pair_coupled(6.0, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid, spec)
        assert low.path_max_abs < math.exp(6.0)  # clamp never engages
        assert np.array_equal(low.values, high.values)
    res = harness.run_uniqueness_coupling(cfg)
    identical = [r for r in res.records if r.N == 6.0]
    assert identical and all(r.verdict == "identical" and r.estimate == 0.0 for r in identical)


# -- criterion 8 ----------------------------------------------------------------


@criterion(8, "coupled differences shrink with the clamp level; log(value) vs N^(3/2) slope is negative")
def test_criterion_08_convergence_decay():
    doc = {
        "b": "zero",
        "sigma": "linear",
        "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
        "replications": 256,
        "levels": [0.5, 1.0, 1.5, 2.0, 6.0],
        "orders": [1.0, 2.0],
        "seed": 901277,
        "bounded_sigma": False,
        "probes": {"times": [0.1, 0.25], "x_stride": 10},
    }
    res = harness.run_truncation_convergence(parse_config(doc), threads=2)
    active = res.diagnostics["active_levels"]
    assert len(active) >= 3
    for k in (1.0, 2.0):
        rows = [(r.N, r.estimate) for r in res.records if r.k == k]
        vals = [v for _, v in sorted(rows)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))  # nonincreasing in N per seed
        assert res.diagnostics["decay_slopes_vs_N32"][repr(k)] < 0.0
    # past the plateau the coupled solves are bit-identical
    plateau_rows = [r for r in res.records if r.N == 6.0]
    assert all(r.estimate == 0.0 for r in plateau_rows)


# -- criterion 9 ----------------------------------------------------------------


@criterion(9, "Lipschitz and growth estimators hit their oracle values")
def test_criterion_09_lipschitz_estimators():
    assert local_lipschitz_constant(Coefficient.parse("x^2"), 2.0) == pytest.approx(4.0, abs=1e-3)
    osc = Coefficient.from_source("oscillator")
    # dense-grid (1e-5) difference-quotient oracle, cross-checked against the
    # analytic derivative envelope 250 (1+|x|)^(-3/4) |cos(1000 (1+|x|)^(1/4))|
    assert local_lipschitz_constant(osc, 1.0) == pytest.approx(248.38194249268287, rel=0.02)
    got = linear_growth_constant(Coefficient.from_source("linear"), (-100.0, 100.0))
    assert abs(got - 0.9901) <= 1e-6


# -- criterion 10 ---------------------------------------------------------------


@criterion(10, "regularity checker classifications: (x,x) pass, (x^2) fail, oscillator per-clause")
def test_criterion_10_assumption_checker():
    levels = [1.0, 2.0, 3.0, 4.0]
    lin = Coefficient.from_source("linear")
    assert check_assumption(lin, lin, levels).verdict == "pass"
    assert check_assumption(lin, Coefficient.parse("x^2"), levels).verdict == "fail"
    drift = Coefficient.parse("x*sin(abs(x)^0.9)")
    osc = Coefficient.from_source("oscillator")
    v1 = check_assumption(drift, osc, levels)
    assert v1.regime == "sigma-bounded"
    assert v1.clause_sigma in ("pass", "fail", "indeterminate")
    assert v1.clause_drift in ("pass", "fail", "indeterminate")
    assert v1.clause_sigma == "pass"
    v2 = check_assumption(drift, osc, levels)
    assert v1 == v2  # deterministic across runs


# -- criterion 11 ---------------------------------------------------------------


@criterion(11, "verify-moments output bytes are identical across reruns and --threads settings")
def test_criterion_11_full_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "pilot.json"
    cfg_path.write_text(json.dumps(moment_pilot_doc()))
    tag = parse_config(moment_pilot_doc()).hash16
    outs = []
    for sub, threads in (("a", "1"), ("b", "4"), ("c", "2")):
        out = tmp_path / sub
        assert cli.main(["--out", str(out), "--threads", threads, "verify-moments", str(cfg_path)]) == 0
        outs.append((out / f"verify-moments_{tag}.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]
    json_a = json.loads((tmp_path / "a" / f"verify-moments_{tag}.json").read_text())
    json_b = json.loads((tmp_path / "b" / f"verify-moments_{tag}.json").read_text())
    assert json_a == json_b
