"""Cross-version golden output: sha256 digests of bytes shelab writes.

Criterion 11 compares two runs of the same build; these digests pin the
bits across builds, so a refactor that claims to keep every bit can prove
it.  A change that alters output bits on purpose must say why and update
the digests below in the same change.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

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

NORMALS_BLOCK_SHA256 = "76d7a46be52e241c65921ceeca1fc0051f2a37ea1cacbc36f277c3c2b2666b6c"
SIMULATE_SHA256 = {
    "trajectory_N0_{tag}.bin": "2eca009c6056672e5e8a89c3ce7ec80350dd24b1eb17972917cf92a577f6c575",
    "trajectory_N0_{tag}.json": "753cdccf169d985c869664c9dbd770445c54fde908724fe4f4c442ad77ff8e72",
    "trajectory_N3_{tag}.bin": "f10e0c9caf9647919cee1474dc05cb1d85b2804225c11d7eb5918e1cbb3537ea",
    "trajectory_N3_{tag}.json": "c24cd9c1bed60d89dc1f5abfcd027735493f117f915d0c43e5e02956e65477e5",
}
UNIQUENESS_CSV_SHA256 = "d3f393d7d35afc2dcbb489c596b0274283a9a61bc8dfddada784a420ecf3b219"
# levels 0 and 0.5: the clamp bites at the top level as well, so every
# replication's top-level row against level 1.5 is "recorded", not "identical"
CLAMPED_TOP_DOC = {**EXPR_DOC, "levels": [0.0, 0.5]}
CLAMPED_TOP_UNIQUENESS_SHA256 = {
    "uniqueness_{tag}.csv": "b06d6449d3536a48d2d274365ab982999983c88df9f303cb7ff50e74e5ab500e",
    "uniqueness_{tag}.json": "bcf1358785563d5c70cba09d8c83fefbfd2392134efe001c682562ec4183ad44",
}

PILOT_CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"
# result CSVs of the three pilot experiments, the same at --threads 1 and 2
PILOT_CSV_SHA256 = {
    ("verify-moments", "pilot_moments.json"): {
        "verify-moments_{tag}.csv": "23ef0360f48b285930270d8e85e359d4fcbe16f63cb86c8919ca2fc32e49a81c",
    },
    ("convergence", "pilot_convergence.json"): {
        "convergence_{tag}.csv": "2218f63ed2129780216a297db67020a111859df876535d1484cc1c683eda03a7",
        "convergence_{tag}_plot.csv": "0e603200a15be7cb5aa46d7a45624572c1bfdfb06807f8310c5a7f1385b593e0",
    },
    ("verify-tails", "pilot_tails.json"): {
        "verify-tails_{tag}.csv": "b47fe0247c05a33d6294604d932ccb3b74474a7bc1b775a2694434d928478715",
    },
}

# result JSON of the pilots (records, diagnostics and provenance), the same at
# --threads 1 and 2; uniqueness runs on the convergence pilot, as in
# scripts/run_pilot.py
PILOT_JSON_SHA256 = {
    ("convergence", "pilot_convergence.json"):
        "26190c235d6f8d15f4f85d95e34652b15a6f9f000549d1d1ca1bfa00eb7a6788",
    ("verify-moments", "pilot_moments.json"):
        "e37eb6746e100a37eeed37029bd291e29680479c9c99e34af1bccbcbce8fb2f3",
    ("verify-tails", "pilot_tails.json"):
        "95994b130e2fba2069d2baa638c18f02270c1d8c62a971d35c61c49284405b7e",
    ("uniqueness", "pilot_convergence.json"):
        "5076305878acf82fcdb2fea6568f252fced4cc380ddb41368504890a10120a85",
}

# every pinned result JSON whose numbers come from coeff._fit_line: check-assumptions
# on three configs and convergence on its pilot.  The fit is closed form over
# math.fsum sums of math.log values, so neither the BLAS build nor the OpenBLAS
# core type moves a bit
FITTED_JSON_SHA256 = {
    "check-assumptions EXPR_DOC": "bf6a512d6c389330e94f0943a0613956dcb78999ffeeff35e2be59bfb2fe43fc",
    "check-assumptions pilot_convergence.json": "549b2a432f5ab5fac4ba02a5b677061ad4157fa41ccc8eeb6c05fbca78d0cd37",
    "check-assumptions pilot_moments.json": "ed32c9b5adef10482585a3da93c47a7b3834d69897287c30e507e85544df919f",
    "convergence pilot_convergence.json": PILOT_JSON_SHA256[("convergence", "pilot_convergence.json")],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normals_block_digest() -> str:
    reps = np.arange(256, dtype=np.uint64)[:, None]
    cells = np.arange(161, dtype=np.uint64)[None, :]
    return sha256(standard_normals(11, reps, np.uint64(7), cells, 161).astype("<f8").tobytes())


def test_standard_normals_block_digest():
    assert normals_block_digest() == NORMALS_BLOCK_SHA256


def avx512_dispatch_targets():
    """The AVX-512 targets (X86_V4 and AVX512_*) numpy dispatches to on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__ if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__.get(t)]


def child_env(**extra) -> dict:
    """The environment of a child Python that imports shelab and test_golden from this checkout."""
    here = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(pathlib.Path(solver.__file__).resolve().parents[1]), str(here),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_standard_normals_block_digest_without_avx512_dispatch():
    # the words are integer arithmetic in C, the uniform map is exact and the
    # normal map uses only correctly rounded IEEE operations (+ - * /, sqrt,
    # frexp, copysign), so numpy's SIMD dispatch level must not move a bit
    targets = avx512_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 target on this CPU")
    code = ("from numpy._core._multiarray_umath import __cpu_features__\n"
            f"assert not any(__cpu_features__[t] for t in {targets!r})\n"
            "from test_golden import normals_block_digest\n"
            "print(normals_block_digest())")
    env = child_env(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == NORMALS_BLOCK_SHA256


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


def fitted_config(name, directory) -> pathlib.Path:
    """The config file a FITTED_JSON_SHA256 key names; EXPR_DOC is written to ``directory``."""
    if name != "EXPR_DOC":
        return PILOT_CONFIGS / name
    path = pathlib.Path(directory) / "expr_doc.json"
    path.write_text(json.dumps(EXPR_DOC))
    return path


def fitted_json_digests(directory) -> dict:
    """Run every command and config of FITTED_JSON_SHA256 into ``directory``; return the digests."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    got = {}
    for key in FITTED_JSON_SHA256:
        command, name = key.split(" ")
        path = fitted_config(name, directory)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--out", str(directory), command, str(path)]) == 0
        prefix = "assumptions" if command == "check-assumptions" else command
        got[key] = sha256((directory / f"{prefix}_{load_config(path).hash16}.json").read_bytes())
    return got


def test_fitted_json_digests(tmp_path):
    assert fitted_json_digests(tmp_path) == FITTED_JSON_SHA256


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_fitted_json_digests_do_not_depend_on_the_openblas_core(coretype, tmp_path):
    # OPENBLAS_CORETYPE picks the kernels of numpy's DYNAMIC_ARCH OpenBLAS, in the child alone
    code = f"import json, test_golden\nprint(json.dumps(test_golden.fitted_json_digests({str(tmp_path)!r})))"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(OPENBLAS_CORETYPE=coretype),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == FITTED_JSON_SHA256


def test_shelab_calls_no_library_least_squares():
    # LAPACK and OpenBLAS results depend on the build and the core type; the
    # one fit is coeff._fit_line
    src = pathlib.Path(solver.__file__).resolve().parent
    hits = [f"{path.name}:{number}" for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"linalg|lstsq|polyfit", line)]
    assert hits == []


# sin in the drift and exp in the diffusion: numpy dispatches both by CPU
# features, so these bytes are compared run with run, not pinned to a digest
EXPR_MOMENTS_DOC = {**EXPR_DOC, "replications": 80, "orders": [2.0, 4.0],
                    "sigma": "x/(1+abs(x)/8) + 0.1*exp(-x*x)"}


def test_expression_moments_bytes_do_not_depend_on_chunks_or_threads(tmp_path, monkeypatch):
    # the 80 replications are one solver chunk by default and three (37, 37, 6) at chunk 37
    cfgp = tmp_path / "config.json"
    cfgp.write_text(json.dumps(EXPR_MOMENTS_DOC))
    tag = parse_config(EXPR_MOMENTS_DOC).hash16
    default = solver.chunk_replications
    runs = {}
    for chunk in (None, 37):
        monkeypatch.setattr(solver, "chunk_replications",
                            default if chunk is None else lambda n_levels, n_points: chunk)
        for threads in (1, 2):
            out = tmp_path / f"out_{chunk}_{threads}"
            assert cli.main(["--out", str(out), "--threads", str(threads), "verify-moments", str(cfgp)]) == 0
            runs[chunk, threads] = [(out / f"verify-moments_{tag}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert runs[None, 1][0].count(b"\n") == 1 + 2 * 2 * 20 * 9  # levels x orders x probe times x probe xs
    assert all(files == runs[None, 1] for files in runs.values())
