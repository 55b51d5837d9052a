"""Span recorder for the traced benchmark run.

The tracer wraps the public entry point of each shelab layer at the
attribute its caller looks up (``shelab.solver.standard_normals`` for the
solver's noise draws, ``shelab.cli._EXPERIMENTS`` for the experiments, ...),
records one span per call and a few exact counts, and reduces the spans to
the per-layer metrics listed in BENCHMARK.json.  Nothing in ``src/shelab``
is modified: the wrappers exist only inside a traced worker process and are
removed again before it exits.

Spans are kept per thread.  A span's parent is the innermost open span on
the same thread, so a layer's self time (duration minus the time its
children cover) never goes negative when ``--threads`` runs solves on pool
threads.  Work the tracer does itself, such as counting clamped elements,
is recorded as a ``trace`` span so that it is not charged to the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import threading
import time

import numpy as np

clock = time.perf_counter

# span names are a layer, or a layer and a sub-part ("solver.io")
LAYERS = ("noise", "coeff", "expr", "kernel", "solver", "estimators", "bounds", "harness")


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None


class Recorder:
    """Collects spans in memory, one list and one open-span stack per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._lists = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._lists.append((threading.current_thread() is threading.main_thread(), local.spans))
        return local

    def call(self, name, fn, args, kwargs, count=None):
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        span = Span(name, parent)
        local.spans.append(span)
        local.stack.append(span)
        span.start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = clock()
            local.stack.pop()
        if count is not None:
            bookkeeping = Span("trace", parent)
            local.spans.append(bookkeeping)
            bookkeeping.start = clock()
            span.counts = count(args, kwargs, result)
            bookkeeping.end = clock()
        return result

    def spans(self):
        """(on_main_thread, span) for every recorded span."""
        with self._lock:
            lists = list(self._lists)
        return [(main, s) for main, spans in lists for s in spans]


# -- instrumentation -----------------------------------------------------------


class Instrumentation:
    """Installs the wrappers on construction; ``remove`` restores the originals."""

    def __init__(self, rec: Recorder):
        import shelab.bounds as bounds
        import shelab.cli as cli
        import shelab.coeff as coeff
        import shelab.estimators as est
        import shelab.expr as expr
        import shelab.harness as harness
        import shelab.kernel as kernel
        import shelab.solver as solver

        self.rec = rec
        self._saved = []

        for name, count in (("standard_normals", _draws_of_array),
                            ("generate", _draws_of_field),
                            ("stream_for_level_pair", _draws_of_field_pair)):
            self._patch(solver, name, "noise", count)
        self._patch(solver, "truncated_fn", None, wrap=self._wrap_truncated_fn(coeff))
        self._patch(solver, "solve_batch", "solver", _batch_counts(solver.solve_batch))
        self._patch(solver, "solve_truncated", "solver", _trajectory_counts)
        self._patch(solver, "solve_pair_coupled", "solver")
        self._patch(solver, "save_trajectory", "solver.io", _dump_bytes)

        for name in ("check_assumption", "level_constants", "linear_growth_constant"):
            self._patch(coeff, name, "coeff.constants")
        self._patch(expr, "evaluate", "expr")
        self._patch(kernel.InitialCondition, "__call__", "kernel")

        self._patch(est, "lk_norm", "estimators", _moment_samples)
        self._patch(est, "tail_probability", "estimators", _moment_samples)
        self._patch(est, "coupled_sup_difference", "estimators", _pair_samples(est.coupled_sup_difference))
        for name in ("weighted_norm", "wilson_interval"):
            self._patch(est, name, "estimators")
        for cls in (est.Ensemble, est.PairEnsemble):
            self._patch(cls, "from_batch", "estimators")

        for name in bounds.__all__:
            if inspect.isfunction(getattr(bounds, name)):
                self._patch(bounds, name, "bounds")
        self._patch(bounds.BoundReport, "compare", "bounds")

        for name in ("run_moment_verification", "run_tail_verification",
                     "run_truncation_convergence", "run_uniqueness_coupling",
                     "run_assumption_check"):
            self._patch(harness, name, "harness")
        self._patch(harness, "export", "harness.export", _export_bytes)
        # the CLI dispatches experiments through a table filled at import time
        self._saved.append((cli, "_EXPERIMENTS", cli._EXPERIMENTS))
        cli._EXPERIMENTS = {cmd: getattr(harness, fn.__name__) for cmd, fn in cli._EXPERIMENTS.items()}

    def _patch(self, owner, attr, name, count=None, wrap=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if wrap is not None:
            setattr(owner, attr, wrap(raw))
            return
        rec = self.rec
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, count)

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def _wrap_truncated_fn(self, coeff):
        rec = self.rec

        def wrap(truncated_fn):
            @functools.wraps(truncated_fn)
            def traced_truncated_fn(psi, level):
                clamped = truncated_fn(psi, level)
                lv = level if isinstance(level, coeff.TruncationLevel) else coeff.TruncationLevel(float(level))
                bound = lv.clamp_bound

                def count(args, kwargs, result):
                    x = np.asarray(args[1])
                    return {"clip_active": int(np.count_nonzero(np.abs(x) > bound)), "clip_elems": int(x.size)}

                @functools.wraps(clamped)
                def traced_clamped(*args, **kwargs):
                    return rec.call("coeff", clamped, args, kwargs, count)

                return traced_clamped

            return traced_truncated_fn

        return wrap

    def remove(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


# -- counters, evaluated outside the timed span --------------------------------


def _draws_of_array(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _draws_of_field(args, kwargs, result):
    return {"draws": int(result.increments.size)}


def _draws_of_field_pair(args, kwargs, result):
    # one realisation exposed to both levels: drawn once
    return {"draws": int(result[0].increments.size)}


def _batch_counts(solve_batch):
    sig = inspect.signature(solve_batch)

    def count(args, kwargs, result):
        grid = sig.bind(*args, **kwargs).arguments["grid"]
        n_levels, n_reps = result.samples.shape[:2]
        return {"cell_steps": n_levels * n_reps * grid.n_points * grid.n_steps, "chunks": 1}

    return count


def _trajectory_counts(args, kwargs, result):
    rows, cols = result.values.shape
    return {"cell_steps": (rows - 1) * cols}


def _dump_bytes(args, kwargs, result):
    return {"io_bytes": sum(os.path.getsize(p) for p in args[1:3] if p is not None)}


def _export_bytes(args, kwargs, result):
    return {"export_bytes": sum(os.path.getsize(p) for p in result)}


def _moment_samples(args, kwargs, result):
    return {"samples": int(result.count)}


def _pair_samples(coupled_sup_difference):
    sig = inspect.signature(coupled_sup_difference)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        pair, horizon = bound["pair"], bound["T"]
        n_times = sum(1 for t in pair.probe_times if 0 < t <= horizon * (1 + 1e-12))
        return {"samples": pair.count * n_times * pair.probe_xs.size}

    return count


# -- reduction to per-layer metrics ----------------------------------------------


def layer_metrics(rec: Recorder, wall_s: float):
    """Per-layer metrics of one traced repetition, and self time by layer.

    A layer's ``busy_s`` and ``calls`` count only its outermost spans, so a
    layer entry point that calls another (``check_assumption`` calling
    ``level_constants``) is not counted twice; ``self_s`` sums every span.
    """
    spans = rec.spans()
    child_s = {}
    for _, s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + (s.end - s.start)

    busy, self_s, calls, counts = {}, {}, {}, {}
    root_s = 0.0
    for main, s in spans:
        dur = s.end - s.start
        own = dur - child_s.get(id(s), 0.0)
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        if _outermost(s):
            busy[s.name] = busy.get(s.name, 0.0) + dur
            calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent is None and main and s.name != "trace":
            root_s += dur
        for key, val in (s.counts or {}).items():
            counts[key] = counts.get(key, 0) + val

    def b(name):
        return busy.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    cell_steps = counts.get("cell_steps", 0)
    draws = counts.get("draws", 0)
    samples = counts.get("samples", 0)
    batch_busy = sum(s.end - s.start for _, s in spans if (s.counts or {}).get("chunks"))
    return {
        "noise.calls": calls.get("noise", 0),
        "noise.draws": draws,
        "noise.busy_s": b("noise"),
        "noise.ns_per_draw": per(b("noise"), draws, 1e9),
        "noise.draws_per_cell_step": per(draws, cell_steps),
        "coeff.calls": calls.get("coeff", 0),
        "coeff.busy_s": b("coeff"),
        "coeff.clip_active_frac": per(counts.get("clip_active", 0), counts.get("clip_elems", 0)),
        "coeff.constants_s": b("coeff.constants"),
        "expr.calls": calls.get("expr", 0),
        "expr.busy_s": b("expr"),
        "kernel.calls": calls.get("kernel", 0),
        "kernel.busy_s": b("kernel"),
        "solver.calls": calls.get("solver", 0),
        "solver.busy_s": b("solver"),
        "solver.self_s": self_s.get("solver", 0.0),
        "solver.cell_steps": cell_steps,
        "solver.ns_per_cell_step_self": per(self_s.get("solver", 0.0), cell_steps, 1e9),
        "solver.io_s": b("solver.io"),
        "solver.io_bytes": counts.get("io_bytes", 0),
        "estimators.calls": calls.get("estimators", 0),
        "estimators.samples": samples,
        "estimators.busy_s": b("estimators"),
        "estimators.ns_per_sample": per(b("estimators"), samples, 1e9),
        "bounds.calls": calls.get("bounds", 0),
        "bounds.busy_s": b("bounds"),
        "harness.chunks": counts.get("chunks", 0),
        "harness.self_s": self_s.get("harness", 0.0),
        "harness.worker_util": per(batch_busy, wall_s),
        "harness.export_s": b("harness.export"),
        "harness.export_bytes": counts.get("export_bytes", 0),
        "trace.root_coverage": per(root_s, wall_s),
    }, {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) for layer in LAYERS}


def _outermost(span) -> bool:
    p = span.parent
    while p is not None:
        if p.name == span.name:
            return False
        p = p.parent
    return True


# -- layer micro-benchmarks ------------------------------------------------------


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t = clock()
        fn()
        times.append(clock() - t)
    return statistics.median(times)


def noise_block_ms(seed: int) -> float:
    """One 256-replication x 161-cell ``standard_normals`` block, median of 15."""
    from shelab.noise import standard_normals

    reps = np.arange(256, dtype=np.uint64)[:, None]
    cells = np.arange(161, dtype=np.uint64)[None, :]
    return 1e3 * _median_time(lambda: standard_normals(seed, reps, np.uint64(0), cells), 15)


def lk_norm_us(seed: int) -> float:
    """One ``lk_norm`` of order 2 over 400 samples, median of 31."""
    from shelab.estimators import Ensemble, lk_norm

    samples = np.random.default_rng(seed).standard_normal((400, 1, 1))
    ens = Ensemble.from_samples(samples, [0.1], [0.0])
    return 1e6 * _median_time(lambda: lk_norm(ens, 2.0, 0.1, 0.0), 31)
