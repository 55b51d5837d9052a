"""Verdicts of scripts/record_bench.py: wins, failures and spread against the bound."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)
summarize = record_bench.summarize

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_clear_gain_on_every_pair():
    s = summarize(BASE, [v * 0.7 for v in BASE], "lower", 0.25)
    assert s["change_wins"] == 10 and s["gain"] is True and s["vs_bound"] == "within"


def test_higher_is_better_flips_the_sign():
    s = summarize(BASE, [v * 0.7 for v in BASE], "higher", 0.25)
    assert s["change_wins"] == 0 and s["change_losses"] == 10
    assert s["gain"] is False and s["vs_bound"] == "worse"


def test_failed_pairs_count_in_the_denominator():
    # nine wins out of ten completed pairs, but only eight of the ten pairs run
    change = [v * 0.7 for v in BASE]
    change[0] = change[1] = None
    s = summarize(BASE, change, "lower", 0.25)
    assert s["pairs"] == 10 and s["completed"] == 8 and s["change_wins"] == 8
    assert s["gain"] is False


def test_more_failures_than_the_base_is_no_gain_and_worse():
    base = list(BASE)
    base[3] = None
    change = [v * 0.5 for v in BASE]
    change[3] = change[4] = None
    s = summarize(base, change, "lower", 0.25)
    assert s["failed"] == {"base": 1, "change": 2}
    assert s["gain"] is False and s["vs_bound"] == "worse"


def test_equal_failures_do_not_block_a_gain():
    base, change = list(BASE), [v * 0.5 for v in BASE]
    base[2] = change[2] = None
    s = summarize(base, change, "lower", 0.25)
    assert s["change_wins"] == 9 and s["gain"] is True and s["vs_bound"] == "within"


def test_gain_needs_the_medians_apart_by_more_than_the_base_iqr():
    base = [1.0, 2.0] * 5
    change = [v - 0.1 for v in base]  # wins every pair by less than the base's spread
    s = summarize(base, change, "lower", 0.25)
    assert s["change_wins"] == 10 and s["gain"] is False


def test_median_worse_than_the_bound():
    s = summarize(BASE, [v * 1.3 for v in BASE], "lower", 0.25)
    assert s["vs_bound"] == "worse"
    s = summarize(BASE, [v * 1.2 for v in BASE], "lower", 0.25)
    assert s["vs_bound"] == "within"


@pytest.mark.parametrize("factor, verdict", [(1.0, "unresolved"), (0.1, "within")])
def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins(factor, verdict):
    base = [0.5, 1.5] * 5  # interquartile range 1.0 around a median of 1.0
    change = [v * factor for v in base]
    assert summarize(base, change, "lower", 0.25)["vs_bound"] == verdict


def test_nothing_completed():
    s = summarize([None] * 10, [None] * 10, "lower", 0.25)
    assert s["completed"] == 0 and s["gain"] is False and s["vs_bound"] == "unresolved"
    s = summarize(BASE, [None] * 10, "lower", 0.25)
    assert s["gain"] is False and s["vs_bound"] == "worse"


def test_both_sides_run_in_the_same_empty_bytecode_state(monkeypatch, tmp_path):
    # neither tree holds a __pycache__ under src/ or benchmark/ when its run starts, stale or
    # not, and no .pyc is written; installed packages keep their bytecode (no cache prefix)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    for side, tree in (("base", "src/shelab"), ("base", "benchmark"), ("change", "src/shelab")):
        cache = tmp_path / side / tree / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "stale.cpython-311.pyc").write_bytes(b"stale")
    seen = []

    def fake_run(argv, cwd, env, **kw):
        caches = [p for tree in ("src", "benchmark") for p in (cwd / tree).rglob("__pycache__")]
        seen.append((cwd.name, env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env, caches))
        summary = {"correct": True, "metrics": {"wall_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(summary) + "\n", stderr="")

    monkeypatch.setattr(record_bench.subprocess, "run", fake_run)
    for side in ("base", "change"):
        assert record_bench.run_once(tmp_path / side, "moments_dense", 1, 1)["ok"]
    assert seen == [("base", "1", False, []), ("change", "1", False, [])]
    assert (tmp_path / "base" / "src" / "shelab").is_dir()  # only the caches went


def test_both_sides_run_from_temporary_copies(monkeypatch, tmp_path):
    # a small checkout with a committed base, an edited and a deleted tracked file, an untracked
    # file and an ignored one: the change side is a copy of the working tree as git lists it,
    # the base a copy of the commit, and neither side runs in the checkout itself
    repo = tmp_path / "checkout"
    (repo / "benchmark").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "paths": ["benchmark"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    (repo / "benchmark" / "run.py").write_text("")
    (repo / "code.py").write_text("base")
    (repo / "gone.py").write_text("base")
    (repo / ".gitignore").write_text("/ignored.txt\n")

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *argv], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "code.py").write_text("change")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("untracked")
    (repo / "ignored.txt").write_text("ignored")
    seen = []

    def fake_run_once(root, workload, seed, seconds, trace=0):
        files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
        seen.append((root, files, (root / "code.py").read_text()))
        return {"ok": True, "metrics": {"wall_s": 1.0}, "result_sha256": {}, "machine": {}, "error": ""}

    monkeypatch.setattr(record_bench, "ROOT", repo)
    monkeypatch.setattr(record_bench, "run_once", fake_run_once)
    assert record_bench.main(["--pr", "1", "--seed", "1"]) == 0
    assert len(seen) == 2 * (record_bench.MIN_PAIRS + 1)
    roots = {root for root, _, _ in seen}
    assert len(roots) == 2 and repo not in roots and not any(root.exists() for root in roots)
    assert all(root.name.startswith("shelab-bench-") and repo not in root.parents for root in roots)
    contents = {(tuple(files), code) for _, files, code in seen}
    assert contents == {((".gitignore", "BENCHMARK.json", "benchmark/run.py", "code.py", "gone.py"), "base"),
                        ((".gitignore", "BENCHMARK.json", "benchmark/run.py", "code.py", "new.py"), "change")}
    assert json.loads((repo / "BENCH_1.json").read_text())["benchmark_identical"] is True
