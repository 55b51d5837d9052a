"""Command-line interface.

Subcommands: check-assumptions, simulate, verify-moments, verify-tails,
convergence, uniqueness, report.  Exit codes: 0 success, 1 config
rejection, 2 experiment assertion failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, solver
from .noise import NoiseSpec

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2
EXIT_IO = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shelab",
        description="Stochastic heat equation lab: simulate, estimate, verify bounds.",
    )
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--threads", type=int, default=1,
                        help="replication scheduling width; never affects results")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("check-assumptions", "simulate", "verify-moments",
                 "verify-tails", "convergence", "uniqueness"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the experiment config JSON")

    rep = sub.add_parser("report")
    rep.add_argument("results", help="path to a ResultSet JSON file")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_EXPERIMENTS = {
    "verify-moments": harness.run_moment_verification,
    "verify-tails": harness.run_tail_verification,
    "convergence": harness.run_truncation_convergence,
    "uniqueness": harness.run_uniqueness_coupling,
}


def _load(args):
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = max(1, args.threads)
    try:
        if args.command == "report":
            try:
                with open(args.results, "r", encoding="utf-8") as fh:
                    results = harness.ResultSet.from_json(fh.read())
            except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
                raise harness.ExportError(f"cannot read results {args.results}: {err}") from err
            paths = harness.export(results, args.out, formats=(args.format,))
            for p in paths:
                print(p)
            return EXIT_OK

        if args.command == "check-assumptions":
            cfg = _load(args)
            doc = harness.run_assumption_check(cfg)
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"assumptions_{doc['config_hash'][:16]}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"regime: {doc['regime']}")
            print(f"diffusion-rate clause: {doc['clause_sigma']}  (fitted slope {doc['slope_sigma']:.6g})")
            print(f"drift-ratio clause:    {doc['clause_drift']}  (fitted slope {doc['slope_drift']:.6g})")
            print(f"verdict: {doc['verdict']}")
            print(path)
            return EXIT_OK

        if args.command == "simulate":
            cfg = _load(args)
            os.makedirs(args.out, exist_ok=True)
            spec = NoiseSpec(seed=cfg.seed, replication=0, grid=cfg.grid)
            sol = solver.solve_lattice(cfg.levels, cfg.drift, cfg.diffusion, cfg.u0, cfg.grid, spec)
            for level in cfg.levels:
                (traj,) = solver.field_trajectories(sol, (level,), cfg.drift, cfg.diffusion,
                                                    cfg.u0, cfg.grid, spec)
                base = os.path.join(args.out, f"trajectory_N{level:g}_{cfg.hash16}")
                solver.save_trajectory(traj, base + ".bin", base + ".json")
                print(base + ".bin")
            return EXIT_OK

        cfg = _load(args)
        results = _EXPERIMENTS[args.command](cfg, threads=threads)
        paths = harness.export(results, args.out)
        summary = {k: v for k, v in results.diagnostics.items() if not isinstance(v, (list, dict))}
        print(f"{args.command}: {len(results.records)} records; {summary}")
        for p in paths:
            print(p)
        return EXIT_OK

    except harness.ConfigError as err:
        print(f"config rejected: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (harness.ExperimentError, solver.SolverBlowupError, ArithmeticError) as err:
        print(f"experiment failure: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except (harness.ExportError, OSError) as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
