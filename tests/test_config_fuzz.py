"""The config validator is total: a near-valid document parses or is a ConfigError.

Documents are drawn close to the shipped pilot configs (one key replaced,
retyped, scaled, deleted or added, or a whole ``u0`` object), so the type,
range and budget clauses are reached, not just the key check.  A second
kind of variant sets one element of a number list to an edge value, or
draws ``b`` and ``sigma`` together, or both: a list scaled as a whole stays
ordered, and one key at a time never pairs two coefficients.  Every
rejected document also goes through the CLI, which must exit 1 without a
traceback.  Near-valid variants of a tiny document (9 cells, 4 steps, 30
replications) that parse are run through every CLI command, which must
return an exit code and raise nothing; check-assumptions must give a
verdict.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import tempfile
import warnings

from hypothesis import assume, example, given, settings, strategies as st

from shelab import cli
from shelab.harness import ConfigError, parse_config

PILOTS = [json.loads(p.read_text())
          for p in sorted((pathlib.Path(__file__).parent.parent / "scripts" / "configs").glob("*.json"))]

# optional keys no pilot sets, so that adding one is a mutation too
OPTIONAL_PATHS = [
    ("assumption_levels",), ("bounded_sigma",), ("grid", "boundary"), ("u0", "bound"),
    ("constants", "L_b"), ("constants", "L_sigma"), ("constants", "sigma_sup"),
    ("constants", "inflate_L_sigma"), ("probes", "n_times"), ("probes", "times"), ("probes", "x_stride"),
]
EXPRESSIONS = ["x", "1", "0.5*sin(x)", "log(x)", "1/x", "sqrt(x)", "x^0.5", "exp(x)", "exp(1000*x)",
               "1e999", "t", "sin(", "y", ""]

json_scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
                | st.text(max_size=6) | st.sampled_from(EXPRESSIONS))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
SCALES = [-1, 0, 2, 10 ** 6, 10 ** 30, 1e-9, 1e-3, 0.5, 1.5, 1e3, 1e12, 1e300]
EDGE_NUMBERS = [0, -1, 1e-300, 1e300]


def _paths(doc):
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
    return paths + [p for p in OPTIONAL_PATHS if p not in paths]


def _is_plain_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _scaled(value, factor):
    if isinstance(value, bool) or not isinstance(value, (int, float, list)):
        return value
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    return value * factor


@st.composite
def one_key_mutated(draw, bases=PILOTS):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    path = draw(st.sampled_from(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        if not isinstance(parent.get(key), dict):
            parent[key] = {}
        parent = parent[key]
    key = path[-1]
    old = parent.get(key)
    how = draw(st.sampled_from(["replace", "retype", "scale", "delete"]))
    if how == "delete":
        parent.pop(key, None)
    elif how == "replace" or old is None:
        parent[key] = draw(json_values)
    elif how == "retype":
        parent[key] = draw(st.sampled_from([str(old), [old], {"value": old}, bool(old)]
                                           + ([int(old)] if isinstance(old, float) else [])
                                           + ([float(old)] if _is_plain_int(old) else [])))
    else:
        parent[key] = _scaled(old, draw(st.sampled_from(SCALES)))
    return doc


@st.composite
def element_or_coefficients_mutated(draw, bases=PILOTS):
    """One element of a number list set to an edge value (``assumption_levels`` at its
    default where unset), or ``b`` and ``sigma`` drawn together from ``EXPRESSIONS``, or both."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    how = draw(st.sampled_from(["element", "coefficients", "both"]))
    if how != "coefficients":
        doc.setdefault("assumption_levels", [1.0, 2.0, 3.0, 4.0])
        lists = [value for value in [*doc.values(), *doc.get("probes", {}).values()]
                 if isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value)]
        values = draw(st.sampled_from(lists))
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(EDGE_NUMBERS))
    if how != "element":
        doc["b"], doc["sigma"] = draw(st.sampled_from(EXPRESSIONS)), draw(st.sampled_from(EXPRESSIONS))
    return doc


numbers = st.floats(allow_nan=False) | st.integers(-10, 10)
u0_objects = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["constant", "indicator", "expr", "bogus"]),
    "value": numbers | json_scalars,
    "a": numbers,
    "b": numbers,
    "source": st.sampled_from(EXPRESSIONS) | json_scalars,
    "bound": numbers | json_scalars,
})


def _parses_or_exits_1(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-window warnings of scaled grids
        try:
            parse_config(doc)
            return  # accepted: never run
        except ConfigError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["--out", os.path.join(tmp, "out"), "verify-moments", path])
    assert code == 1, err.getvalue()
    assert "config rejected" in err.getvalue() and "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=None)
@given(one_key_mutated())
def test_near_valid_documents_parse_or_exit_1(doc):
    _parses_or_exits_1(doc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PILOTS), u0_objects)
@example(PILOTS[0], {"kind": "expr", "source": "log(x)"})
@example(PILOTS[0], {"kind": "expr", "source": "1/x", "bound": 1.0})
def test_u0_objects_parse_or_exit_1(pilot, u0):
    _parses_or_exits_1({**pilot, "u0": u0})


@settings(max_examples=60, deadline=None)
@given(element_or_coefficients_mutated())
def test_edited_lists_and_coefficient_pairs_parse_or_exit_1(doc):
    _parses_or_exits_1(doc)


TINY = {"b": "zero", "sigma": "linear", "u0": {"kind": "constant", "value": 1.0},
        "grid": {"R": 0.4, "dx": 0.1, "dt": 0.005, "T": 0.02, "boundary": "dirichlet"},
        "replications": 30, "levels": [1.0, 2.0], "orders": [2.0], "seed": 7, "bounded_sigma": False,
        "constants": {"c": 2.0}, "probes": {"times": [0.01, 0.02], "x_stride": 2}}
CONFIG_COMMANDS = ["check-assumptions", "simulate", "verify-moments", "verify-tails", "convergence", "uniqueness"]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_ASSERTION, cli.EXIT_IO}


def _runs_to_an_exit_code(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small-window warnings of the tiny grid
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return  # rejections are the tests above
        # a scaled count or grid can parse and still take minutes; keep each run small
        assume(cfg.grid.n_steps <= 100 and cfg.replications * cfg.grid.n_points * cfg.grid.n_steps <= 10 ** 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "out")
            runs = [[command, path] for command in CONFIG_COMMANDS]
            for argv in runs:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(["--out", out, *argv])
                assert code in EXIT_CODES, err.getvalue()
                if argv[0] == "check-assumptions":
                    assert code == cli.EXIT_OK, err.getvalue()
                if argv[0] == "verify-moments" and code == cli.EXIT_OK:
                    # the written result set reads back through report
                    runs += [["report", str(p)] for p in pathlib.Path(out).glob("verify-moments_*.json")]


@settings(max_examples=40, deadline=None)
@given(one_key_mutated([TINY]))
@example(TINY)
def test_accepted_documents_run_to_an_exit_code(doc):
    _runs_to_an_exit_code(doc)


@settings(max_examples=60, deadline=None)
@given(element_or_coefficients_mutated([TINY]))
def test_accepted_lists_and_coefficient_pairs_run_to_an_exit_code(doc):
    _runs_to_an_exit_code(doc)
