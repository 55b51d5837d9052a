"""Cross-version golden output: sha256 digests of bytes shelab writes.

Criterion 11 compares two runs of the same build; these digests pin the
bits across builds, so a refactor that claims to keep every bit can prove
it.  A change that alters output bits on purpose must say why and update
the digests below in the same change.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from shelab import cli
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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command,config", sorted(PILOT_CSV_SHA256))
def test_pilot_result_digests(command, config, threads, tmp_path):
    # thread chunking of the stacked solver passes never changes a bit
    path = PILOT_CONFIGS / config
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "--threads", str(threads), command, str(path)]) == 0
    tag = load_config(path).hash16
    expected = PILOT_CSV_SHA256[(command, config)]
    got = {name: sha256((out / name.format(tag=tag)).read_bytes()) for name in expected}
    assert got == expected
