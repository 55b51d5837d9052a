"""Cross-version golden output: sha256 digests of bytes shelab writes.

Criterion 11 compares two runs of the same build; these digests pin the
bits across builds, so a refactor that claims to keep every bit can prove
it.  A change that alters output bits on purpose must say why and update
the digests below in the same change.
"""

import hashlib
import json

import numpy as np

from shelab import cli
from shelab.harness import parse_config
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
