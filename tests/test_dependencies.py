"""numpy is the only runtime dependency; scipy serves the tests alone.

The project metadata says so, no module of shelab imports scipy, and every
CLI command writes its pinned bytes in a child Python in which
``import scipy`` fails.
"""

import contextlib
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from shelab import cli
from shelab.harness import load_config
from test_golden import (
    FITTED_JSON_SHA256,
    PILOT_CSV_SHA256,
    PILOT_JSON_SHA256,
    SIMULATE_SHA256,
    UNIQUENESS_CSV_SHA256,
    child_env,
    fitted_config,
    sha256,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
# report reads the result set verify-moments wrote, so it runs after it
COMMANDS = ["check-assumptions", "simulate", "verify-moments", "verify-tails", "convergence", "uniqueness", "report"]


def _name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [_name(r) for r in project["dependencies"]] == ["numpy"]
    assert "scipy" in [_name(r) for r in project["optional-dependencies"]["test"]]


def test_shelab_imports_no_scipy():
    src = ROOT / "src" / "shelab"
    hits = [f"{path.name}:{number}" for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\b(import|from)\s+scipy\b", line)]
    assert hits == []


def test_shelab_starts_without_dataclasses():
    # every record type is a NamedTuple: no class is built by dataclass code generation at import
    code = "import sys, shelab.cli, shelab.harness\nprint('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def pinned_files() -> dict:
    """Every file a digest of test_golden pins: ``(command, config) -> {file name template: sha256}``."""
    runs = {}
    for (command, config), files in PILOT_CSV_SHA256.items():
        runs.setdefault((command, config), {}).update(files)
    for (command, config), digest in PILOT_JSON_SHA256.items():
        runs.setdefault((command, config), {})[f"{command}_{{tag}}.json"] = digest
    for key, digest in FITTED_JSON_SHA256.items():
        command, config = key.split(" ")
        prefix = "assumptions" if command == "check-assumptions" else command
        runs.setdefault((command, config), {})[f"{prefix}_{{tag}}.json"] = digest
    runs["simulate", "EXPR_DOC"] = dict(SIMULATE_SHA256)
    runs["uniqueness", "EXPR_DOC"] = {"uniqueness_{tag}.csv": UNIQUENESS_CSV_SHA256}
    # report re-spells the verify-moments result set as the same CSV bytes
    runs["report", "pilot_moments.json"] = PILOT_CSV_SHA256["verify-moments", "pilot_moments.json"]
    return runs


def command_digests(directory) -> dict:
    """Run each command and config of ``pinned_files`` at ``--threads 1``, each command into its
    own directory under ``directory``; return the digests of the pinned files, keyed
    ``"<command> <config> <file name template>"``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    got = {}
    for (command, config), files in sorted(pinned_files().items(), key=lambda run: COMMANDS.index(run[0][0])):
        path = fitted_config(config, directory)
        tag = load_config(path).hash16
        out = directory / command
        target = directory / "verify-moments" / f"verify-moments_{tag}.json" if command == "report" else path
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--out", str(out), "--threads", "1", command, str(target)]) == 0, (command, config)
        for name in files:
            got[f"{command} {config} {name}"] = sha256((out / name.format(tag=tag)).read_bytes())
    return got


def test_every_command_writes_its_pinned_bytes_without_scipy(tmp_path):
    assert {command for command, _ in pinned_files()} == set(COMMANDS)
    # a None entry in sys.modules makes every import of scipy or a submodule raise ImportError
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import json, test_dependencies\n"
            "print(json.dumps(test_dependencies.command_digests(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=child_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    expected = {f"{command} {config} {name}": digest
                for (command, config), files in pinned_files().items() for name, digest in files.items()}
    assert json.loads(proc.stdout) == expected
