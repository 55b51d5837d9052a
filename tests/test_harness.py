import dataclasses
import json
import os

import numpy as np
import pytest

from shelab import cli, harness
from shelab.coeff import Coefficient
from shelab.estimators import Z_95
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
            (lambda d: d["grid"].update(R=1e308, dx=1.0, dt=1.0), "grid: .*too many lattice points"),
            (lambda d: d["grid"].update(R=1e7, dx=0.1), "resource budget: .* space-time points"),
            (lambda d: d["grid"].update(T=1e9, dt=0.005), "resource budget: .* space-time points"),
            (lambda d: d.update(grid={**d["grid"], "R": 2e5, "T": 0.005}, probes={"times": [0.005]}),
             "resource budget: .* one solver chunk"),
            (lambda d: d.update(replications=10 ** 7, probes={"x_stride": 1}), "resource budget: .* probe samples"),
            (lambda d: d["probes"].update(x_stride=1, times=[0.25] * 100000), "resource budget: .* probe samples"),
            (lambda d: d.update(replications=3 * 10 ** 7, probes={"x_stride": 10 ** 6, "n_times": 1}),
             "resource budget: .* cell-steps"),
            # one solver pass stacks every level: 300 levels hold 600 x the per-level arrays
            (lambda d: d.update(replications=256, levels=[0.5 * i for i in range(300)],
                                grid={**d["grid"], "R": 200.0}),
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

    def test_valid_config_parses(self):
        cfg = parse_config(base_doc())
        assert cfg.levels == (1.0, 2.0)
        assert cfg.grid.n_points == 81
        assert len(cfg.config_hash) == 64

    def test_hash_tracks_document(self):
        a = parse_config(base_doc())
        b = parse_config(base_doc(seed=999))
        assert a.config_hash != b.config_hash
        assert a.config_hash == parse_config(base_doc()).config_hash

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

    def test_zero_diffusion_growth_needs_inflate_or_bound(self):
        doc = base_doc(sigma="zero")
        with pytest.raises(ConfigError, match="positive diffusion growth"):
            run_moment_verification(parse_config(doc))
        doc["constants"]["inflate_L_sigma"] = True
        res = run_moment_verification(parse_config(doc))
        # deterministic heat flow of u0=1 stays at 1; bound 4^k (u0+1)^k at t=0 scale
        assert all(r.verdict == "dominates" for r in res.records)


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
        cfg = dataclasses.replace(cfg, drift=bomb)
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
        with pytest.raises(ConfigError, match="validity predicate"):
            run_tail_verification(parse_config(self.tail_doc([3.0])))


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


class TestCli:
    def write_config(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

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

    def test_check_assumptions_runs(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_doc(b="linear"))
        out = tmp_path / "asm"
        assert cli.main(["--out", str(out), "check-assumptions", cfgp]) == 0
        printed = capsys.readouterr().out
        assert "verdict: pass" in printed
