"""The public names other code relies on: every ``__all__`` entry and the
attributes the benchmark's tracer wraps by name."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import shelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(shelab.__path__))
TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"shelab.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("shelab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_and_restores_every_pinned_name():
    # the tracer looks each name up when it is built, so a deleted name fails here
    import shelab.cli as cli
    import shelab.estimators as est
    import shelab.solver as solver

    tracer = _load_tracer()
    before = (solver.solve_batch, solver.standard_normals, est.Ensemble.__dict__["from_batch"],
              cli._EXPERIMENTS)
    inst = tracer.Instrumentation(tracer.Recorder())
    try:
        assert solver.solve_batch is not before[0]
    finally:
        inst.remove()
    after = (solver.solve_batch, solver.standard_normals, est.Ensemble.__dict__["from_batch"],
             cli._EXPERIMENTS)
    assert all(a is b for a, b in zip(after, before))
