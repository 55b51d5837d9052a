"""Cross-version golden output: sha256 digests of bytes shelab writes.

Criterion 11 compares two runs of the same build; these digests pin the
bits across builds, so a refactor that claims to keep every bit can prove
it.  A change that alters output bits on purpose must say why and update
the digests below in the same change.
"""

import csv
import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from shelab import cli, solver
from shelab.harness import load_config, parse_config
from shelab.noise import standard_normals

# expression coefficients exercise expr.evaluate inside the solver loop;
# levels 0 and 3 give one active-clamp pair (e^0 = 1 = u0) and one inactive
EXPR_DOC = {
    "b": "0.5*sin(x)",
    "sigma": "x/(1+abs(x)/8)",
    "u0": {"kind": "constant", "value": 1.0},
    "grid": {"R": 4.0, "dx": 0.1, "dt": 0.005, "T": 0.25, "boundary": "dirichlet"},
    "replications": 4,
    "levels": [0.0, 3.0],
    "orders": [2.0],
    "seed": 11,
}

NORMALS_BLOCK_SHA256 = "4b9e10c4003c6be289c8339341346601dfb53f7c8d50861195698f3da7e160fd"
SIMULATE_SHA256 = {
    "trajectory_N0_{tag}.bin": "5e8ca975bafffa337fa371e53eae964191a76b8a66208ecf936dbef0f9641854",
    "trajectory_N0_{tag}.json": "b41a78b39a069b32bea9613deac428704fb3bab6eb5bd9f72ae317439f81144a",
    "trajectory_N3_{tag}.bin": "3fe9f3393ffdf7812a862cfb30a3c25cc1d8de0b8ebe0a74826571df931267a8",
    "trajectory_N3_{tag}.json": "35db6c805298901ffe321e36bd487a02e15e9f0fd78a9e92959c9f23eca3727a",
}
UNIQUENESS_CSV_SHA256 = "23c90a887e555007996d2035cb75ea76516e22cc7e4a89bae10fcd8ec0f93af2"
# levels 0 and 0.5: the clamp bites at the top level as well, so every
# replication's top-level row against level 1.5 is "recorded", not "identical"
CLAMPED_TOP_DOC = {**EXPR_DOC, "levels": [0.0, 0.5]}
CLAMPED_TOP_UNIQUENESS_SHA256 = {
    "uniqueness_{tag}.csv": "2193812f1f025959a22d1ae7db9a128efac43a20ce1b0672bbd9e602db127edc",
    "uniqueness_{tag}.json": "648d388dd7e21f18487cc0fa49128740f06ebba5be17972b2305ad0d65a851c8",
}

PILOT_CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"
# result CSVs of the three pilot experiments, the same at --threads 1 and 2
PILOT_CSV_SHA256 = {
    ("verify-moments", "pilot_moments.json"): {
        "verify-moments_{tag}.csv": "01d034c8a7c4d02eb53a288376a2edb5a7b21573b14e488498428495a7e7a2cd",
    },
    ("convergence", "pilot_convergence.json"): {
        "convergence_{tag}.csv": "c197f0243073aca2562053dd4a4fbac0ba2c501a7e0560166ca5aba98887654a",
        "convergence_{tag}_plot.csv": "7e753037ebbd16f270babda99a3e63abdf8ce565b8330679a9462e661feeea44",
    },
    ("verify-tails", "pilot_tails.json"): {
        "verify-tails_{tag}.csv": "b47fe0247c05a33d6294604d932ccb3b74474a7bc1b775a2694434d928478715",
    },
}

# result JSON of the pilots (records, diagnostics and provenance), the same at
# --threads 1 and 2; uniqueness runs on the convergence pilot, as in
# scripts/run_pilot.py.  Convergence and assumption JSON are not pinned: their
# slopes come from LAPACK least squares, whose last bits may vary by build
PILOT_JSON_SHA256 = {
    ("verify-moments", "pilot_moments.json"):
        "b8b445553c58ff9e69fd372c7e3887f50c8e432ff3b6e210e5cfcaf2c69bcc2e",
    ("verify-tails", "pilot_tails.json"):
        "6d094bf082075698cff9d33a360f46a1d1a4ce523a439699b2c9b2e455c89611",
    ("uniqueness", "pilot_convergence.json"):
        "e1eb9fb42f068c37b4cf70eb60f367e2b8f9c36d064d02b5d9b740ee3cc243b0",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_standard_normals_block_digest():
    reps = np.arange(256, dtype=np.uint64)[:, None]
    cells = np.arange(161, dtype=np.uint64)[None, :]
    block = standard_normals(11, reps, np.uint64(7), cells)
    assert sha256(block.astype("<f8").tobytes()) == NORMALS_BLOCK_SHA256


def test_simulate_and_uniqueness_digests(tmp_path):
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(EXPR_DOC))
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "simulate", str(cfgp)]) == 0
    assert cli.main(["--out", str(out), "uniqueness", str(cfgp)]) == 0
    tag = parse_config(EXPR_DOC).hash16
    got = {name: sha256((out / name.format(tag=tag)).read_bytes()) for name in SIMULATE_SHA256}
    assert got == SIMULATE_SHA256
    assert sha256((out / f"uniqueness_{tag}.csv").read_bytes()) == UNIQUENESS_CSV_SHA256


@pytest.mark.parametrize("chunk", [None, 1])
def test_uniqueness_digests_when_the_top_clamp_bites(chunk, tmp_path, monkeypatch):
    # at chunk 1 each of the four checked replications is its own solver chunk
    if chunk is not None:
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: chunk)
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(CLAMPED_TOP_DOC))
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "uniqueness", str(cfgp)]) == 0
    tag = parse_config(CLAMPED_TOP_DOC).hash16
    rows = list(csv.DictReader(io.StringIO((out / f"uniqueness_{tag}.csv").read_text())))
    assert sum(r["N"] == "0.5" and r["verdict"] == "recorded" for r in rows) == 4
    got = {name: sha256((out / name.format(tag=tag)).read_bytes()) for name in CLAMPED_TOP_UNIQUENESS_SHA256}
    assert got == CLAMPED_TOP_UNIQUENESS_SHA256


@pytest.mark.parametrize("chunk", [None, 37])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command,config", sorted(PILOT_CSV_SHA256))
def test_pilot_result_digests(command, config, threads, chunk, tmp_path, monkeypatch):
    # neither thread nor shard chunking of the stacked solver passes changes
    # a bit; the solver's buffers are sized per chunk.  The pilots' 256, 400
    # and 2000 replications (8 x 81, 2 x 81 and 2 x 161 stacked cells each)
    # are 6, 2 and 20 chunks under solver.chunk_replications and 7, 11 and 55
    # at 37, each with a short last chunk
    if chunk is not None:
        monkeypatch.setattr(solver, "chunk_replications", lambda n_levels, n_points: chunk)
    path = PILOT_CONFIGS / config
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "--threads", str(threads), command, str(path)]) == 0
    tag = load_config(path).hash16
    expected = PILOT_CSV_SHA256[(command, config)]
    got = {name: sha256((out / name.format(tag=tag)).read_bytes()) for name in expected}
    assert got == expected


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command,config", sorted(PILOT_JSON_SHA256))
def test_pilot_json_digests(command, config, threads, tmp_path):
    path = PILOT_CONFIGS / config
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "--threads", str(threads), command, str(path)]) == 0
    got = sha256((out / f"{command}_{load_config(path).hash16}.json").read_bytes())
    assert got == PILOT_JSON_SHA256[(command, config)]
