import csv
import io
import json
import math
import os
import pathlib
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import cli, harness
from shelab.coeff import Coefficient
from shelab.estimators import Z_95, Ensemble
from shelab.noise import NoiseSpec
from shelab.solver import SolverBlowupError, solve_truncated
from shelab.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentError,
    Record,
    ResultSet,
    export,
    parse_config,
    render_convergence_plot_csv,
    render_csv,
    run_moment_verification,
    run_tail_verification,
    run_truncation_convergence,
    run_uniqueness_coupling,
)


def base_doc(**over):
    doc = {
        "b": "zero",
        "sigma": "linear",
        "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
        "replications": 64,
        "levels": [1.0, 2.0],
        "orders": [2.0],
        "seed": 321,
        "bounded_sigma": False,
        "constants": {"c": 2.0},
        "probes": {"times": [0.1, 0.25], "x_stride": 20},
    }
    doc.update(over)
    return doc


class TestConfigRejection:
    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("sigma"), "missing required key"),
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d.update(b="sin(")," b"),
            (lambda d: d.update(b="foo(x)"), "unknown identifier"),
            (lambda d: d["grid"].update(dt=0.1), "unstable"),
            (lambda d: d["grid"].update(R=-1), "grid"),
            (lambda d: d["grid"].update(nope=3), "unknown key"),
            (lambda d: d.update(replications=0), "replications"),
            (lambda d: d.update(replications=2.5), "replications"),
            (lambda d: d.update(levels=[]), "levels"),
            (lambda d: d.update(levels=[2.0, 1.0]), "increasing"),
            (lambda d: d.update(levels=[-1.0, 2.0]), "non-negative"),
            (lambda d: d.update(orders=[0.5]), "at least 1"),
            (lambda d: d.update(orders=[9.0]), "variance-fragile"),
            (lambda d: d.update(seed=-4), "seed"),
            (lambda d: d.update(seed=2 ** 64), "seed"),
            (lambda d: d.update(bounded_sigma="yes"), "boolean"),
            (lambda d: d["constants"].update(c=1.0), "exceed 1"),
            (lambda d: d["constants"].update(L_b=-2.0), "non-negative"),
            (lambda d: d["constants"].update(bogus=1), "unknown key"),
            (lambda d: d.update(u0={"kind": "bogus"}), "u0.kind"),
            (lambda d: d.update(u0={"kind": "indicator", "a": 2.0, "b": 1.0}), "u0"),
            (lambda d: d["probes"].update(times=[0.3]), "probe times"),
            (lambda d: d["probes"].update(times=[1e-5]), "probe times snap to t=0"),
            (lambda d: d["probes"].update(times=[]), "probes.times"),
            (lambda d: d["probes"].update(x_stride=0), "x_stride"),
            (lambda d: d.update(assumption_levels=[1, 2]), "assumption_levels"),
        ],
    )
    def test_invalid_configs_name_the_clause(self, mutate, fragment):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=fragment.strip()):
            parse_config(doc)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(replications=True), "replications must be a positive integer"),
            (lambda d: d.update(seed=True), "seed must be a 64-bit unsigned integer"),
            (lambda d: d["probes"].update(x_stride=True), "probes.x_stride must be a positive integer"),
            (lambda d: d["probes"].update(n_times=True), "probes.n_times must be a positive integer"),
            (lambda d: d.update(assumption_levels=["a", "b", "c", "d"]), "assumption_levels must list"),
            (lambda d: d.update(assumption_levels=[4.0, 3.0, 2.0, 1.0]), "assumption_levels must be strictly"),
            (lambda d: d.update(assumption_levels=[1.0, 2.0, 3.0, 1e6]), "assumption_levels: .* overflow"),
            # every assumption level goes through log N; levels keeps N = 0 (clamp bound 1)
            (lambda d: d.update(assumption_levels=[0, 1, 2, 3]), "assumption_levels: clamp levels must be positive"),
            (lambda d: d.update(assumption_levels=[-1, 1, 2, 3]), "assumption_levels: clamp levels must be positive"),
            (lambda d: d.update(levels=[1e6]), "levels: clamp levels above 700 make e\\^N overflow"),
            (lambda d: d.update(levels=[True]), "levels must be a non-empty list of numbers"),
            (lambda d: d["constants"].update(L_b=float("inf")), "constants.L_b"),
            (lambda d: d["grid"].update(R="4"), "grid.R must be a number"),
            (lambda d: d["grid"].update(dx=True), "grid.dx must be a number"),
            (lambda d: d["grid"].update(dt="0.005"), "grid.dt must be a number"),
            (lambda d: d["grid"].update(T=False), "grid.T must be a number"),
            (lambda d: d["grid"].pop("T"), "grid is missing required key 'T'"),
            (lambda d: d["u0"].update(value=True), "u0.value must be a number"),
            (lambda d: d["u0"].update(value="1.0"), "u0.value must be a number"),
            (lambda d: d.update(u0={"kind": "indicator", "a": "0", "b": 1.0}), "u0.a must be a number"),
            (lambda d: d.update(u0={"kind": "indicator", "a": 0.0, "b": True}), "u0.b must be a number"),
            (lambda d: d.update(u0={"kind": "expr", "source": "1", "bound": "1"}), "u0.bound must be a number"),
            (lambda d: d.update(u0={"kind": "expr", "source": 1}), "u0.source must be an expression string"),
            (lambda d: d.update(u0={"kind": "expr", "source": "log(x)"}), "u0: log of a non-positive value"),
            # coefficient expressions that fail at every state and time
            (lambda d: d.update(b="x/0"), "b: x/0 cannot be evaluated at any .*division by zero"),
            (lambda d: d.update(b="1e999"), "b: 1e999 cannot be evaluated at any .*non-finite result"),
            (lambda d: d.update(sigma="x/(x-x)"), "sigma: x/\\(x-x\\) cannot be evaluated at any"),
            # an explicit bound skips sampling the profile; the lattice still evaluates it
            (lambda d: d.update(u0={"kind": "expr", "source": "log(x)", "bound": 1.0}),
             "u0: log of a non-positive value"),
            # every bound takes u0.bound as sup |u0|: one below the lattice's max would be fed to them all
            (lambda d: d.update(u0={"kind": "expr", "source": "3*cos(x)", "bound": 0.5}),
             "u0.bound 0.5 is below max \\|u0\\| = 3.0 on the lattice"),
            (lambda d: d["grid"].update(R=1e308, dx=1.0, dt=1.0), "grid: .*too many lattice points"),
            (lambda d: d["grid"].update(R=1e7, dx=0.1), "resource budget: .* space-time points"),
            (lambda d: d["grid"].update(T=1e9, dt=0.005), "resource budget: .* space-time points"),
            # 81 x 1,000,001 lattice points: simulate holds a trajectory at each of the 2 levels at once
            (lambda d: d["grid"].update(T=5000.0), "resource budget: .* space-time points"),
            # 2 x 2 stacked levels of 4,400,001 cells: one replication alone exceeds 2^24
            (lambda d: d.update(grid={**d["grid"], "R": 2.2e5, "T": 0.005}, probes={"times": [0.005]}),
             "resource budget: .* one solver chunk"),
            # uniqueness's one pass stacks {1, 2, 3, 4} and the re-parse group's 3: 5 x 3,500,001 cells
            (lambda d: d.update(levels=[1.0, 3.0], grid={**d["grid"], "R": 1.75e5, "T": 0.005},
                                probes={"times": [0.005]}),
             "resource budget: .* one solver chunk"),
            (lambda d: d.update(replications=10 ** 7, probes={"x_stride": 1}), "resource budget: .* probe samples"),
            (lambda d: d["probes"].update(x_stride=1, times=[0.25] * 100000), "resource budget: .* probe samples"),
            (lambda d: d.update(replications=3 * 10 ** 7, probes={"x_stride": 10 ** 6, "n_times": 1}),
             "resource budget: .* cell-steps"),
            # one solver pass stacks every level: 300 levels hold 600 x 30,001 cells per replication
            (lambda d: d.update(replications=256, levels=[0.5 * i for i in range(300)],
                                grid={**d["grid"], "R": 1500.0, "T": 0.005}, probes={"times": [0.005]}),
             "resource budget: .* one solver chunk"),
            (lambda d: d.update(replications=10 ** 5, levels=[0.5 * i for i in range(300)],
                                probes={"times": [0.1, 0.25], "x_stride": 1}),
             "resource budget: .* probe samples"),
        ],
    )
    def test_config_holes_exit_1_naming_the_clause(self, mutate, fragment, tmp_path, capsys):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigError, match=fragment):
            parse_config(doc)
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps(doc))
        assert cli.main(["--out", str(tmp_path / "out"), "verify-moments", str(cfgp)]) == 1
        err = capsys.readouterr().err
        assert "config rejected" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["log(x)", "sqrt(x)", "x/t"])
    def test_expressions_valid_somewhere_parse(self, source):
        # each fails at some states or times but not at all of them: a run failure at worst
        assert parse_config(base_doc(b=source, sigma=source)).drift.name == source

    def test_valid_config_parses(self):
        cfg = parse_config(base_doc())
        assert cfg.levels == (1.0, 2.0)
        assert cfg.grid.n_points == 81
        assert len(cfg.config_hash) == 64

    def test_budget_counts_the_lattices_a_run_holds(self):
        # 81 x 246,801 points at 2 levels: simulate holds two such trajectories (4.0e7 points), and
        # uniqueness at most two (a failed check), both under the 2^27 limit
        cfg = parse_config(base_doc(grid={**base_doc()["grid"], "T": 1234.0}))
        assert cfg.grid.n_steps == 246800

    def test_hash_tracks_document(self):
        a = parse_config(base_doc())
        b = parse_config(base_doc(seed=999))
        assert a.config_hash != b.config_hash
        assert a.config_hash == parse_config(base_doc()).config_hash

    def test_hash_and_fields_ignore_later_changes_to_the_source_document(self):
        doc = base_doc()
        cfg = parse_config(doc)
        want = parse_config(base_doc()).config_hash
        doc["seed"] = 999
        doc["grid"]["R"] = 9.0
        doc["levels"].append(3.0)
        assert cfg.config_hash == want and cfg.hash16 == want[:16]
        assert cfg.seed == 321 and cfg.raw["grid"]["R"] == 4.0 and cfg.raw["levels"] == [1.0, 2.0]

    def test_default_probes(self):
        doc = base_doc()
        doc.pop("probes")
        cfg = parse_config(doc)
        steps, xs = harness._probe_indices(cfg)
        assert len(steps) == 20 and steps[0] > 0
        assert xs[0] == 0 and np.all(np.diff(xs) == 10)

    def test_moment_order_precondition_rejected_at_experiment(self):
        # L_b = 16, L_sigma = 1 forces k >= 4; k = 2 must be rejected by name
        doc = base_doc(constants={"c": 2.0, "L_b": 16.0, "L_sigma": 1.0})
        with pytest.raises(ConfigError, match="admissible minimum"):
            run_moment_verification(parse_config(doc))
        doc["constants"]["inflate_L_sigma"] = True
        res = run_moment_verification(parse_config(doc))
        assert res.diagnostics["violations"] == 0

    def test_bounded_regime_rejects_order_one(self):
        doc = base_doc(sigma="oscillator", bounded_sigma=True, orders=[1.0, 2.0])
        with pytest.raises(ConfigError, match="k=1 below the admissible minimum 2"):
            run_moment_verification(parse_config(doc))

    def test_zero_diffusion_growth_needs_inflate_or_bound(self):
        doc = base_doc(sigma="zero")
        with pytest.raises(ConfigError, match="positive diffusion growth"):
            run_moment_verification(parse_config(doc))
        doc["constants"]["inflate_L_sigma"] = True
        res = run_moment_verification(parse_config(doc))
        # deterministic heat flow of u0=1 stays at 1; bound 4^k (u0+1)^k at t=0 scale
        assert all(r.verdict == "dominates" for r in res.records)


DECLARED = "declared by coefficient"
OVERRIDE = "config override"
GRID = "grid estimate (lower bound)"


class TestResolveConstants:
    # each branch of the constant ladder: config override, else the value the
    # coefficient declares, else a grid estimate; then the optional inflation
    @pytest.mark.parametrize(
        "over,values,notes",
        [
            (dict(constants={"L_b": 0.5, "L_sigma": 2}),
             (0.5, 2.0, None), {"L_b": OVERRIDE, "L_sigma": OVERRIDE}),
            ({}, (0.0, 1.0, None), {"L_b": DECLARED, "L_sigma": DECLARED}),
            (dict(b="0.5*sin(x)", sigma="x/(1+abs(x)/8)"),
             (0.21230284455520418, 0.5458184778465706, None), {"L_b": GRID, "L_sigma": GRID}),
            (dict(constants={"inflate_L_sigma": True}),
             (0.0, 1.0, None), {"L_b": DECLARED, "L_sigma": DECLARED}),
            (dict(b="clipped_poly", constants={"inflate_L_sigma": True}),
             (8.0, 1.1892071150027212, None),
             {"L_b": DECLARED, "L_sigma": "inflated from 1.0 to 1.1892071150027212"}),
            (dict(sigma="zero", constants={"inflate_L_sigma": True}),
             (0.0, 1.0, None), {"L_b": DECLARED, "L_sigma": "inflated from 0.0 to 1.0"}),
            (dict(sigma="one", bounded_sigma=True),
             (0.0, 1.0, 1.0), {"L_b": DECLARED, "L_sigma": DECLARED, "sigma_sup": DECLARED}),
            (dict(sigma="one", bounded_sigma=True, constants={"sigma_sup": 3}),
             (0.0, 1.0, 3.0), {"L_b": DECLARED, "L_sigma": DECLARED, "sigma_sup": OVERRIDE}),
            (dict(sigma="sin(x)", bounded_sigma=True),
             (0.0, 0.42460568911040836, 0.9999999988731751),
             {"L_b": DECLARED, "L_sigma": GRID, "sigma_sup": GRID}),
        ],
        ids=["override", "declared", "grid-estimate", "inflate-not-needed", "inflated",
             "inflated-from-zero", "sigma-sup-declared", "sigma-sup-override", "sigma-sup-grid"],
    )
    def test_values_and_sources(self, over, values, notes):
        constants, got_notes = harness.resolve_constants(parse_config(base_doc(**over)))
        got = (constants.drift_growth, constants.diffusion_growth, constants.diffusion_sup)
        assert got == values
        # integer overrides become floats, so the provenance JSON spells them alike
        assert all(type(v) is float for v in got if v is not None)
        assert (constants.u0_sup, constants.proof_constant) == (1.0, 2.0)
        assert got_notes == notes


class TestMomentExperiment:
    def test_every_record_carries_a_verdict(self):
        res = run_moment_verification(parse_config(base_doc()))
        assert res.records
        assert all(r.verdict in ("dominates", "violated", "not-applicable") for r in res.records)
        assert all(r.config_hash == parse_config(base_doc()).hash16 for r in res.records)

    def test_pilot_dominates_with_large_margin(self):
        res = run_moment_verification(parse_config(base_doc()))
        assert res.diagnostics["violations"] == 0
        assert res.diagnostics["min_log_margin"] > 100.0

    def test_determinism_across_runs_and_threads(self):
        a = run_moment_verification(parse_config(base_doc()), threads=1)
        b = run_moment_verification(parse_config(base_doc()), threads=3)
        assert render_csv(a) == render_csv(b)
        assert a.to_json() == b.to_json()

    def test_abort_budget_enforced(self):
        cfg = parse_config(base_doc())
        tau = 1.05  # nearly every replication crosses this immediately
        bomb = Coefficient.from_callable(
            "bomb", lambda t, x: np.where(np.abs(x) > tau, np.inf, 0.0), declared_growth=0.0
        )
        cfg = cfg._replace(drift=bomb)
        with pytest.raises(ExperimentError, match="budget"):
            run_moment_verification(cfg)


class TestTailExperiment:
    def tail_doc(self, levels, reps=400):
        return base_doc(
            grid={"R": 4.0, "dx": 0.05, "dt": 0.001, "T": 0.01, "boundary": "dirichlet"},
            replications=reps,
            levels=levels,
            probes={"times": [0.01], "x_stride": 40},
        )

    def test_valid_and_invalid_rows(self):
        # 2000 replications: the zero-count Wilson upper 0.0019 must undercut
        # the N=11 bound exp(-5.70) = 0.0033; 400 would not resolve it
        res = run_tail_verification(parse_config(self.tail_doc([8.0, 11.0], reps=2000)))
        nas = [r for r in res.records if r.verdict == "not-applicable"]
        ok = [r for r in res.records if r.verdict == "dominates"]
        assert nas and ok
        assert all(r.N == 8.0 for r in nas)  # below the validity threshold 10.24
        assert res.diagnostics["violations"] == 0

    def test_zero_exceedance_wilson_value(self):
        res = run_tail_verification(parse_config(self.tail_doc([11.0])))
        n = 400
        expect = Z_95 ** 2 / (n + Z_95 ** 2)
        assert all(r.estimate == 0.0 and r.ci_hi == pytest.approx(expect, rel=1e-12) for r in res.records)

    def test_rejects_when_nothing_is_applicable(self):
        with pytest.raises(ConfigError, match="validity predicate: N=3 below the validity threshold"):
            run_tail_verification(parse_config(self.tail_doc([3.0])))

    def test_unbounded_regime_needs_a_diffusion_growth_constant(self):
        with pytest.raises(ConfigError, match="validity predicate: requires a positive diffusion growth constant"):
            run_tail_verification(parse_config(self.tail_doc([11.0]) | {"sigma": "zero"}))

    def test_rows_read_their_own_probe_time(self):
        # at dt = 1e-10 every probe time is within the probe-matching tolerance
        # of its neighbours; each row must still estimate its own column
        doc = base_doc(grid={"R": 0.01, "dx": 1e-4, "dt": 1e-10, "T": 1e-8},
                       replications=200, levels=[0.005, 9.0],
                       probes={"x_stride": 100, "n_times": 20})
        cfg = parse_config(doc)
        res = run_tail_verification(cfg)
        steps, xs = harness._probe_indices(cfg)
        batch = harness._collect(cfg, (1.005,), steps, xs)
        vals = np.abs(Ensemble.from_batch(batch, cfg.grid).samples)
        want = [np.mean(vals[:, it, ix] >= np.exp(0.005)) for it in range(len(steps)) for ix in range(len(xs))]
        got = [r.estimate for r in res.records if r.N == 0.005]
        assert len(set(want)) > 1 and got == want


class TestConvergenceExperiment:
    def conv_doc(self, levels, reps=128):
        return base_doc(levels=levels, orders=[1.0, 2.0], replications=reps)

    def test_table_and_slope(self):
        res = run_truncation_convergence(parse_config(self.conv_doc([0.5, 1.0, 1.5, 2.0, 3.0])))
        rows = [(r.N, r.estimate) for r in res.records if r.k == 1.0]
        assert len(rows) == 5
        vals = [v for _, v in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))  # nonincreasing in N
        slopes = res.diagnostics["decay_slopes_vs_N32"]
        assert slopes["1.0"] < 0 and slopes["2.0"] < 0
        assert res.diagnostics["plateau_level"] == 3.0
        assert res.diagnostics["thresholds"]["N0"] == 1.0

    def test_single_active_level_slope_undefined(self):
        res = run_truncation_convergence(parse_config(self.conv_doc([1.0, 20.0], reps=32)))
        assert res.diagnostics["decay_slopes_vs_N32"]["1.0"] is None
        assert len([r for r in res.records if r.k == 1.0]) == 2  # table still emitted

    def test_plot_csv_one_row_per_level_and_order(self):
        res = run_truncation_convergence(parse_config(self.conv_doc([0.5, 1.0, 1.5], reps=32)))
        lines = render_convergence_plot_csv(res).strip().split("\n")
        assert lines[0] == "N,k,N_pow_3_2,log_difference"
        assert len(lines) == 1 + 3 * 2


class TestUniquenessExperiment:
    def test_passes_and_records_active_row(self):
        res = run_uniqueness_coupling(parse_config(base_doc(levels=[0.5, 6.0], replications=2)))
        assert any(r.verdict == "identical" and r.estimate == 0.0 for r in res.records)
        low_rows = [r for r in res.records if r.N == 0.5]
        assert low_rows and all(r.verdict == "recorded" and r.estimate > 0 for r in low_rows)

    def test_mismatch_is_a_hard_failure_with_location(self):
        from shelab.harness import _assert_identical
        from shelab.solver import solve_truncated
        from shelab.noise import NoiseSpec

        cfg = parse_config(base_doc())
        spec = NoiseSpec(seed=1, replication=0, grid=cfg.grid)
        a = solve_truncated(3.0, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid, spec)
        b = solve_truncated(3.0, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid,
                            NoiseSpec(seed=2, replication=0, grid=cfg.grid))
        with pytest.raises(ExperimentError, match=r"\(m=\d+, j=\d+\)"):
            _assert_identical(a, b, "doctored pair")

    def test_differing_inactive_levels_name_replication_and_point(self, monkeypatch):
        # a drift that breaks the elementwise contract: of two or more stacked
        # levels it pushes only the last, which is top + 1 in every such pass
        def drift(t, x):
            out = np.zeros_like(x)
            if x.shape[0] > 1:
                out[-1] += 1e-3
            return out

        monkeypatch.setitem(harness._coeff.BUILTINS, "push_last", Coefficient.from_callable("push_last", drift))
        with pytest.raises(ExperimentError) as exc:
            run_uniqueness_coupling(parse_config(base_doc(b="push_last", levels=[0.5, 6.0], replications=2)))
        assert str(exc.value) == (
            "pathwise uniqueness violated for levels 6 vs 7, replication 0: first differing lattice point "
            "(m=1, j=1): np.float64(1.0345112901090616) vs np.float64(1.0345162901090617)")

    def test_stacking_sensitive_drift_fails_the_re_parse_check(self, monkeypatch):
        # a drift that breaks the elementwise contract: it pushes every level
        # of a stacked pass, so the top level of the first pass differs from
        # the lone top-level pass, while two lone re-solves agree
        def drift(t, x):
            out = np.zeros_like(x)
            if x.shape[0] > 1:
                out += 1e-3
            return out

        monkeypatch.setitem(harness._coeff.BUILTINS, "push_stacked", Coefficient.from_callable("push_stacked", drift))
        with pytest.raises(ExperimentError) as exc:
            run_uniqueness_coupling(parse_config(base_doc(b="push_stacked", levels=[0.5, 6.0], replications=2)))
        assert str(exc.value) == (
            "pathwise uniqueness check for re-parsed coefficients at level 6, replication 0: the batched pass "
            "and a re-solve of the replication alone disagree")

    @pytest.mark.parametrize("reps,width", [(6, 4), (2, 2)])
    def test_one_batched_pass(self, monkeypatch, reps, width):
        # one pass over every level the checks read, keeping no lattice, with the top
        # level under the second coefficient pair as its own group, compared with the
        # first pair's top level through the same-level pair (top, top)
        calls, results = [], []
        solve = harness._solver.solve_batch

        def counted(levels, b, sigma, u0, grid, seed, replications, *probes, **kwargs):
            calls.append((levels, len(replications), probes, kwargs))
            results.append(solve(levels, b, sigma, u0, grid, seed, replications, *probes, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness._solver, "solve_batch", counted)
        cfg = parse_config(base_doc(levels=[0.5, 6.0], replications=reps))
        run_uniqueness_coupling(cfg)
        (levels, n, (steps, cells), kwargs), = calls
        assert (levels, n) == ((0.5, 1.5, 6.0, 7.0), width)
        assert len(steps) == len(cells) == 0
        (sol,) = results
        assert sol.samples.size == 0  # no probes, so no sample is kept at any level
        (group_levels, b2, s2), = kwargs.pop("groups")
        assert kwargs == {"pairs": [(0.5, 1.5), (6.0, 7.0), (6.0, 6.0)], "threads": 1}
        assert group_levels == (6.0,) and (b2, s2) == (cfg.drift, cfg.diffusion)

    def test_memory_does_not_grow_with_the_horizon(self):
        # the pass keeps no lattice, so its traced peak (tracemalloc sees numpy's data) at
        # T = 2 is within 10% of the one at T = 1; two full lattices per checked replication
        # took it from 10.2 to 18.5 MB.  The first run warms what a run keeps afterwards
        doc = base_doc(b="0.5*sin(x)", sigma="x/(1+abs(x)/8)", replications=4, levels=[1.0, 2.0, 3.0], seed=1,
                       grid={"R": 8.0, "dx": 0.05, "dt": 0.0025, "T": 1.0, "boundary": "dirichlet"})
        peaks = {}
        for T in (1.0, 1.0, 2.0):
            cfg = parse_config({**doc, "grid": {**doc["grid"], "T": T}})
            tracemalloc.start()
            try:
                run_uniqueness_coupling(cfg)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2.0] <= 1.1 * peaks[1.0]

    def test_passes_are_chunked_by_the_solver(self, monkeypatch):
        # at one replication per chunk every noise draw spans one replication,
        # and the records are those of the unchunked passes
        cfg = parse_config(base_doc(levels=[0.5, 6.0], replications=6))
        expected = run_uniqueness_coupling(cfg).records
        widths = []
        draw = harness._solver.standard_normals

        def recorded(seed, replication, *index):
            widths.append(np.shape(replication)[0])
            return draw(seed, replication, *index)

        monkeypatch.setattr(harness._solver, "chunk_replications", lambda n_levels, n_points: 1)
        monkeypatch.setattr(harness._solver, "standard_normals", recorded)
        assert run_uniqueness_coupling(cfg).records == expected
        assert widths and set(widths) == {1}

    def test_blowup_in_one_replication_raises_its_first_abort(self, monkeypatch):
        # at seed 4 only replication 1 crosses 5 (path max 7.12 at level 3; the
        # others stay below 4.0), so it alone aborts, at the top level
        bomb = Coefficient.from_callable("bomb", lambda t, x: np.where(x > 5.0, np.inf, 0.0))
        monkeypatch.setitem(harness._coeff.BUILTINS, "bomb", bomb)
        cfg = parse_config(base_doc(b="bomb", replications=4, levels=[1.0, 3.0], seed=4))
        with pytest.raises(SolverBlowupError) as exc:
            run_uniqueness_coupling(cfg)
        assert (exc.value.step, exc.value.cell) == (29, 54)
        with pytest.raises(SolverBlowupError) as alone:
            solve_truncated(3.0, bomb, cfg.diffusion, cfg.u0, cfg.grid, NoiseSpec(seed=4, replication=1, grid=cfg.grid))
        assert str(alone.value) == str(exc.value)

    def test_differing_second_parse_names_replication_and_point(self, monkeypatch):
        # the second coefficient pair's drift differs only above 3.37, which at
        # seed 11 replication 0 alone reaches (path max 3.43; the others <= 3.32)
        cfg = parse_config(base_doc(b="0.5*sin(x)", sigma="x/(1+abs(x)/8)", replications=4,
                                    levels=[0.0, 3.0], seed=11))
        parse = Coefficient.from_source
        calls = []

        def from_source(source):
            calls.append(source)
            return parse(source + " + max(x - 3.37, 0)" if len(calls) % 4 == 3 else source)

        monkeypatch.setattr(Coefficient, "from_source", staticmethod(from_source))
        with pytest.raises(ExperimentError) as exc:
            run_uniqueness_coupling(cfg)
        assert str(exc.value) == (
            "pathwise uniqueness violated for re-parsed coefficients at level 3, replication 0: "
            "first differing lattice point (m=29, j=28): np.float64(2.349312081351156) vs "
            "np.float64(2.349595599179111)")

    def test_one_ulp_at_the_last_step_fails_the_re_parse_check(self, monkeypatch):
        # the second parse's diffusion is one ulp above the first's at the last step alone,
        # so the two top-level lattices differ only in their final row
        cfg = parse_config(base_doc(b="0.5*sin(x)", sigma="x/(1+abs(x)/8)", replications=4,
                                    levels=[0.0, 3.0], seed=11))
        last = (cfg.grid.n_steps - 1) * cfg.grid.dt
        parse = Coefficient.from_source
        calls = []

        def nudged(source):
            psi = parse(source)
            return Coefficient.from_callable(
                source, lambda t, x: np.nextafter(psi(t, x), np.inf) if t == last else psi(t, x))

        def from_source(source):
            calls.append(source)
            return nudged(source) if len(calls) % 4 == 0 else parse(source)

        monkeypatch.setattr(Coefficient, "from_source", staticmethod(from_source))
        with pytest.raises(ExperimentError) as exc:
            run_uniqueness_coupling(cfg)
        assert str(exc.value) == (
            "pathwise uniqueness violated for re-parsed coefficients at level 3, replication 0: "
            f"first differing lattice point (m={cfg.grid.n_steps}, j=3): np.float64(0.823290516449586) vs "
            "np.float64(0.8232905164495858)")


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
                     -1e308, 0.1]),
    st.floats(),
    st.floats().map(np.float64),  # a float subclass, which json.dumps writes as a float
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ☃ \U0001f600"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=10,
)
_records = st.builds(Record, **{f: _json_scalars for f in Record._fields})

# one strategy per column: a column of one type, as the experiments write, or of mixed types
_column_kinds = st.sampled_from([
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(max_size=8),
    st.sampled_from(["verify-moments", "a,b", '"', "\r", "x\ny"]),
    st.none(),
    _json_scalars,
    st.one_of(_json_scalars, st.integers(-5, 5).map(np.int64)),  # json.dumps raises on np.int64
])


@st.composite
def _record_tables(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    columns = [draw(st.lists(draw(_column_kinds), min_size=n, max_size=n)) for _ in Record._fields]
    return [Record(*row) for row in zip(*columns)]


def _csv_reference(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(harness.CSV_COLUMNS)
    for r in records:
        writer.writerow([harness._fmt(getattr(r, col)) for col in harness.CSV_COLUMNS])
    return buf.getvalue()


class TestCsvWriter:
    """``render_csv`` is byte-identical to ``csv.writer`` over the ``_fmt`` of each value."""

    @given(records=st.lists(_records, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_csv_writer(self, records):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(harness.CSV_COLUMNS)
        for r in records:
            writer.writerow([harness._fmt(getattr(r, col)) for col in harness.CSV_COLUMNS])
        assert render_csv(ResultSet(experiment="verify-moments", records=records)) == buf.getvalue()


class TestJsonWriter:
    """``to_json`` is byte-identical to ``json.dumps(to_dict(), indent=2, sort_keys=True)``."""

    @staticmethod
    def dumps(res):
        return json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"

    @given(records=st.lists(_records, max_size=4),
           diagnostics=st.dictionaries(st.text(max_size=5), _json_values, max_size=3),
           provenance=st.dictionaries(st.text(max_size=5), _json_values, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, records, diagnostics, provenance):
        res = ResultSet(experiment="verify-moments", records=records, diagnostics=diagnostics,
                        provenance=provenance)
        assert res.to_json() == self.dumps(res)

    def test_empty_records(self):
        res = ResultSet(experiment="uniqueness", records=[], diagnostics={"a": {"b": [1, {}]}})
        assert res.to_json() == self.dumps(res)

    def test_list_valued_field_read_back_falls_back_to_json_dumps(self):
        doc = ResultSet(experiment="verify-moments", records=[], provenance={"config_hash": "abc"}).to_dict()
        doc["records"] = [{f: None for f in CSV_COLUMNS}, {**{f: 1.5 for f in CSV_COLUMNS}, "k": [1, [2.0, None]]}]
        res = ResultSet.from_dict(json.loads(json.dumps(doc)))
        assert res.records[1].k == [1, [2.0, None]]
        assert res.to_json() == self.dumps(res)

    def test_non_json_record_value_still_raises(self):
        res = ResultSet(experiment="verify-moments", records=[Record(**{f: np.int64(1) for f in CSV_COLUMNS})])
        with pytest.raises(TypeError):
            res.to_json()


class TestExport:
    def test_empty_resultset_gives_header_only_csv(self):
        empty = ResultSet(experiment="verify-moments", records=[])
        assert render_csv(empty) == ",".join(CSV_COLUMNS) + "\n"

    def test_json_roundtrip_is_exact(self):
        res = run_moment_verification(parse_config(base_doc()))
        back = ResultSet.from_json(res.to_json())
        assert back == res

    def test_export_writes_files(self, tmp_path):
        res = run_moment_verification(parse_config(base_doc()))
        paths = export(res, tmp_path)
        assert [os.path.basename(p) for p in paths] == [
            f"verify-moments_{parse_config(base_doc()).hash16}.csv",
            f"verify-moments_{parse_config(base_doc()).hash16}.json",
        ]
        text = open(paths[0]).read()
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    @given(records=st.one_of(st.lists(_records, max_size=4), _record_tables()))
    @settings(max_examples=300, deadline=None)
    def test_export_writes_render_csv_and_to_json(self, records):
        # export spells each value once for both files; each file must still equal its reference
        res = ResultSet(experiment="verify-moments", records=records, provenance={"config_hash": "ab"})
        csv_text = render_csv(res)
        assert csv_text == _csv_reference(records)
        with tempfile.TemporaryDirectory() as out:
            try:
                json_text = json.dumps(res.to_dict(), indent=2, sort_keys=True) + "\n"
            except TypeError:  # a value json.dumps cannot write
                with pytest.raises(TypeError):
                    res.to_json()
                with pytest.raises(TypeError):
                    export(res, out)
                return
            assert res.to_json() == json_text
            paths = export(res, out)
            assert [pathlib.Path(p).read_bytes() for p in paths] == [csv_text.encode(), json_text.encode()]

    def test_numpy_float_is_spelled_as_a_float_in_both_files(self, tmp_path):
        rec = Record("verify-moments", np.float64(2.0), 2.0, np.float64(0.25), -np.float64(0.0),
                     np.float64(1.5e-300), None, np.float64(math.inf), np.float64(math.nan), "dominates", 1, "ab")
        res = ResultSet(experiment="verify-moments", records=[rec], provenance={"config_hash": "ab"})
        csv_path, json_path = export(res, tmp_path / "a")
        row = pathlib.Path(csv_path).read_text().splitlines()[1]
        assert row == "verify-moments,2.0,2.0,0.25,-0.0,1.5e-300,,inf,nan,dominates,1,ab"
        assert '"N": 2.0,' in pathlib.Path(json_path).read_text()
        assert cli.main(["--out", str(tmp_path / "b"), "report", "--format", "csv", json_path]) == 0
        assert (tmp_path / "b" / os.path.basename(csv_path)).read_bytes() == pathlib.Path(csv_path).read_bytes()


class TestCli:
    def write_config(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_inflation_admits_order_two_on_the_moment_pilot(self, tmp_path, capsys):
        # clipped_poly declares L_b = 8 against L_sigma = 1: without inflation k = 2 is below
        # the admissible minimum 2.83, and inflation must widen the range to every k >= 2
        doc = json.loads((ROOT / "scripts" / "configs" / "pilot_moments.json").read_text())
        doc["b"] = "clipped_poly"
        cfgp = self.write_config(tmp_path, doc)
        assert cli.main(["--out", str(tmp_path / "plain"), "verify-moments", cfgp]) == 1
        assert "admissible minimum" in capsys.readouterr().err
        doc["constants"]["inflate_L_sigma"] = True
        cfgp = self.write_config(tmp_path, doc)
        assert cli.main(["--out", str(tmp_path / "inflated"), "verify-moments", cfgp]) == 0
        assert "violations': 0" in capsys.readouterr().out

    def test_bounded_regime_hint_on_the_moment_pilot(self, tmp_path, capsys):
        # bounded_sigma is on already: the hint points at the orders and the sup bound, not at
        # the unbounded regime's L_sigma, inflation or bounded_sigma
        doc = json.loads((ROOT / "scripts" / "configs" / "pilot_moments.json").read_text())
        doc.update(bounded_sigma=True, sigma="oscillator", orders=[1, 2])
        assert cli.main(["--out", str(tmp_path), "verify-moments", self.write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert ("k=1 below the admissible minimum 2 (use orders >= 2, and set constants.sigma_sup "
                "if the diffusion declares no sup-norm bound)") in err
        assert "inflate_L_sigma" not in err

    def test_verify_moments_roundtrip_and_exit_codes(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_doc())
        assert cli.main(["--out", str(tmp_path / "o1"), "verify-moments", cfgp]) == 0
        out = capsys.readouterr().out
        assert "verify-moments" in out

    def test_threads_do_not_change_output_bytes(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc())
        assert cli.main(["--out", str(tmp_path / "a"), "--threads", "1", "verify-moments", cfgp]) == 0
        assert cli.main(["--out", str(tmp_path / "b"), "--threads", "4", "verify-moments", cfgp]) == 0
        tag = parse_config(base_doc()).hash16
        a = (tmp_path / "a" / f"verify-moments_{tag}.csv").read_bytes()
        b = (tmp_path / "b" / f"verify-moments_{tag}.csv").read_bytes()
        assert a == b

    def test_config_rejection_exit_code(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_doc(levels=[2.0, 1.0]))
        assert cli.main(["verify-moments", cfgp]) == 1
        assert "config rejected" in capsys.readouterr().err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        assert cli.main(["verify-moments", str(tmp_path / "missing.json")]) == 3

    def test_experiment_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        cfgp = self.write_config(tmp_path, base_doc())
        monkeypatch.setitem(
            cli._EXPERIMENTS, "verify-moments",
            lambda cfg, threads=1: (_ for _ in ()).throw(ExperimentError("boom")),
        )
        assert cli.main(["verify-moments", cfgp]) == 2
        assert "experiment failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-moments", "convergence", "uniqueness"])
    def test_a_coefficient_failure_reads_the_same_from_every_experiment(self, command, tmp_path, capsys):
        # log(x) fails once a state turns non-positive; the growth constants are given, so no
        # estimator grid meets the log first and each experiment fails in its solve
        doc = base_doc(b="log(x)", sigma="one", constants={"c": 2.0, "L_b": 1.0, "L_sigma": 1.0})
        assert cli.main(["--out", str(tmp_path), command, self.write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "experiment failure: coefficient evaluation failed during simulation: log of a non-positive value\n")

    def test_seed_override_changes_estimates_not_hash_column(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc())
        assert cli.main(["--out", str(tmp_path / "s1"), "--seed", "42", "verify-moments", cfgp]) == 0
        tag42 = harness.parse_config(base_doc(seed=42)).hash16
        assert (tmp_path / "s1" / f"verify-moments_{tag42}.csv").exists()

    def test_simulate_writes_loadable_dump(self, tmp_path):
        from shelab.solver import load_trajectory

        cfgp = self.write_config(tmp_path, base_doc(levels=[2.0]))
        out = tmp_path / "sim"
        assert cli.main(["--out", str(out), "simulate", cfgp]) == 0
        tag = parse_config(base_doc(levels=[2.0])).hash16
        traj = load_trajectory(out / f"trajectory_N2_{tag}.bin", out / f"trajectory_N2_{tag}.json")
        assert traj.values.shape == (51, 81)
        assert traj.provenance["diffusion"] == "linear"

    def test_report_converts_json_to_csv(self, tmp_path):
        res = run_moment_verification(parse_config(base_doc()))
        rp = tmp_path / "r.json"
        rp.write_text(res.to_json())
        out = tmp_path / "rep"
        assert cli.main(["--out", str(out), "report", str(rp), "--format", "csv"]) == 0
        tag = parse_config(base_doc()).hash16
        assert (out / f"verify-moments_{tag}.csv").read_text() == render_csv(res)

    @pytest.mark.parametrize("field,value", [
        ("experiment", "../escaped"),
        ("experiment", "assumptions"),
        ("config_hash", "../../escaped"),
        ("config_hash", "ABC123"),
    ])
    def test_report_rejects_names_that_leave_out_dir(self, tmp_path, capsys, field, value):
        doc = ResultSet(experiment="verify-moments", records=[], provenance={"config_hash": "abc"}).to_dict()
        if field == "experiment":
            doc["experiment"] = value
        else:
            doc["provenance"]["config_hash"] = value
        rp = tmp_path / "r.json"
        rp.write_text(json.dumps(doc))
        out = tmp_path / "out" / "inner"
        assert cli.main(["--out", str(out), "report", str(rp)]) == 3
        assert "cannot read results" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["r.json"]

    # additive noise has L_{N,sigma} = 0, whose floor 1e-300 underflows in the drift ratio
    @pytest.mark.parametrize("over", [
        {"b": "linear"},
        {"b": "x", "sigma": "1"},
        {"b": "x", "sigma": "1", "assumption_levels": [1e-300, 1.0, 2.0, 3.0]},
    ], ids=["linear", "additive", "additive-tiny-level"])
    def test_check_assumptions_runs(self, tmp_path, capsys, over):
        cfgp = self.write_config(tmp_path, base_doc(**over))
        out = tmp_path / "asm"
        assert cli.main(["--out", str(out), "check-assumptions", cfgp]) == 0
        printed = capsys.readouterr().out
        assert "verdict: pass" in printed

    # a coefficient that fails on an estimation grid is a fail verdict, whichever grid it fails on:
    # log(x) on the linear-growth grids, 1/(x-2000) on level 8's Lipschitz grid alone
    @pytest.mark.parametrize("over,note", [
        ({"b": "log(x)"}, "log(x): log of a non-positive value somewhere on the estimation grid at t=0.01"),
        ({"b": "1/(x-2000)", "assumption_levels": [5, 6, 7, 8]},
         "1/(x-2000): division by zero somewhere on the estimation grid at t=0.01"),
    ], ids=["linear-growth", "lipschitz"])
    def test_check_assumptions_fails_a_coefficient_that_fails_on_its_grid(self, tmp_path, capsys, over, note):
        cfgp = self.write_config(tmp_path, base_doc(**over))
        out = tmp_path / "asm"
        assert cli.main(["--out", str(out), "check-assumptions", cfgp]) == 0
        assert "verdict: fail" in capsys.readouterr().out
        (written,) = out.glob("assumptions_*.json")
        doc = json.loads(written.read_text())
        assert doc["verdict"] == "fail" and doc["notes"] == [note]


ROOT = pathlib.Path(__file__).resolve().parent.parent
README_JSON = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


class TestShippedConfigs:
    # every config the repository shows or ships must pass the validator
    @pytest.mark.parametrize("block", README_JSON, ids=[f"README-{i}" for i in range(len(README_JSON))])
    def test_readme_json_blocks_parse(self, block):
        parse_config(json.loads(block))

    @pytest.mark.parametrize("path", sorted((ROOT / "scripts" / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_script_configs_parse(self, path):
        harness.load_config(path)

    def test_readme_has_a_config_block(self):
        assert README_JSON
