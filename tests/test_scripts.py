"""Smoke runs of the scripts under scripts/ that no other test reaches."""

import pathlib
import subprocess
import sys

from test_golden import child_env

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
