"""Smoke runs of the scripts under scripts/ that no other test reaches."""

import pathlib
import subprocess
import sys

from shelab.harness import load_config
from test_golden import FITTED_JSON_SHA256, PILOT_CONFIGS, PILOT_CSV_SHA256, PILOT_JSON_SHA256, child_env, sha256

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_variance_check_runs_and_does_not_depend_on_threads():
    # the script reads harness._collect, harness._probe_indices and Ensemble.from_batch; at
    # dx = 0.025 its 30 replications make two solver chunks, so --threads 2 runs them on a pool
    outputs = []
    for threads in (1, 2):
        proc = subprocess.run([sys.executable, str(SCRIPTS / "variance_check.py"), "--replications", "30",
                               "--threads", str(threads)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    mc = [line.rsplit(" ", 1)[1] for line in outputs[0].splitlines() if "MC [30 reps]" in line]
    assert mc == ["0.371427", "0.239271"]


def test_run_pilot_writes_the_pinned_pilot_files(tmp_path):
    # every result file of the five pilot stages that the golden tests pin, under their digests
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_pilot.py"), "--out", str(out), "--threads", "1"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

    def tag(config):
        return load_config(PILOT_CONFIGS / config).hash16

    expected = {name.format(tag=tag(config)): digest
                for (command, config), files in PILOT_CSV_SHA256.items() for name, digest in files.items()}
    expected.update({f"{command}_{tag(config)}.json": digest
                     for (command, config), digest in PILOT_JSON_SHA256.items()})
    expected[f"assumptions_{tag('pilot_moments.json')}.json"] = FITTED_JSON_SHA256[
        "check-assumptions pilot_moments.json"]
    assert {name: sha256((out / name).read_bytes()) for name in expected} == expected
