"""One benchmark repetition, in a fresh process started by run.py.

    python3 benchmark/worker.py SPEC_JSON RESULT_JSON SPAWN_TIME

SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so ``setup_s`` covers interpreter start, the
``shelab`` import and loading and validating the config, as a user of the
CLI pays them.  ``wall_s`` then covers the workload's CLI commands through
``shelab.cli.main``.  ``calibration_s`` times a fixed loop, unrelated to
shelab, before and after the commands, so that run.py can correct the
times for how fast the machine ran this process.  With ``"trace": true`` in the spec the layers are
wrapped for the timed region only (see tracer.py) and the layer
micro-benchmarks run after it.  Exit status: 0 when every command returned
0, 1 when one did not, 3 when ``shelab`` is not the checkout's copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

CALIBRATION_ROUNDS = 4  # before the commands, and again after them


def main(spec_path, result_path, spawn_time) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import shelab
    import shelab.cli as cli
    import shelab.harness as harness

    if os.path.dirname(os.path.abspath(shelab.__file__)) != os.path.join(spec["src"], "shelab"):
        print(f"imported shelab from {shelab.__file__}, not from {spec['src']}", file=sys.stderr)
        return 3
    harness.load_config(spec["config"]).with_seed(spec["seed"])
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time
    result = {"setup_s": setup_s, "returncodes": []}
    if spec.get("setup_only"):
        return _write(result_path, result, 0)

    calibration = [_calibrate() for _ in range(CALIBRATION_ROUNDS)]
    rec = inst = None
    if spec["trace"]:
        import tracer

        rec = tracer.Recorder()
        inst = tracer.Instrumentation(rec)
    wall_s = 0.0
    try:
        for argv in spec["argvs"]:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            wall_s += time.perf_counter() - start
            result["returncodes"].append(rc)
            if rc != 0:
                break
    finally:
        if inst is not None:
            inst.remove()
    result["wall_s"] = wall_s
    calibration += [_calibrate() for _ in range(CALIBRATION_ROUNDS)]
    result["calibration_s"] = statistics.median(calibration)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        layers, self_by_layer = tracer.layer_metrics(rec, wall_s)
        layers["noise.block_ms"] = tracer.noise_block_ms(spec["seed"])
        layers["estimators.lk_norm_us"] = tracer.lk_norm_us(spec["seed"])
        result["layers"] = layers
        result["self_by_layer"] = self_by_layer
    return _write(result_path, result, 0 if all(rc == 0 for rc in result["returncodes"]) else 1)


def _calibrate() -> float:
    """Time a fixed mix of interpreter, big-integer and small-array numpy work.

    The mix resembles shelab's own, and does not use shelab, so a change to
    shelab cannot change it.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 2048)
    acc = 0
    for i in range(1, 1201):
        acc += (i * i) % 7 + ((1 << 1074) // i) % 3
        x = np.sin(x) * 0.5 + 0.25
    return time.perf_counter() - start


def _write(path, result, status):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
