import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import expr
from shelab.coeff import BUILTINS, Coefficient
from test_config_fuzz import EXPRESSIONS as FUZZ_SOURCES

# sin(1000 rad) via independent high-precision range reduction (mpmath, 40 digits)
SIN_1000 = 0.82687954053200256026


def compile_source(source):
    return expr.Compiled(expr.parse(source))


def ev(source, t=0.0, x=0.0):
    return expr.evaluate(compile_source(source), t, x)


def test_identity_variable():
    assert ev("x", x=5.0) == 5.0
    assert ev("t", t=2.5) == 2.5


def test_oscillator_at_zero_matches_range_reduced_oracle():
    assert ev("sin(1000*(1+abs(x))^0.25)", x=0.0) == pytest.approx(SIN_1000, abs=1e-12)


def test_linear_time_space_mix():
    assert ev("2*t + x", t=1.0, x=3.0) == 5.0


@pytest.mark.parametrize(
    "source,value",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2^3^2", 512.0),      # right-associative
        ("-2^2", -4.0),        # unary minus binds looser than ^
        ("2^-1", 0.5),
        ("6/3/2", 1.0),        # left-associative
        ("2--3", 5.0),
        ("min(3, max(1, 2))", 2.0),
        ("sqrt(abs(-9))", 3.0),
        ("exp(0) + log(1)", 1.0),
        ("1e2 + 2.5e-1", 100.25),
        (".5*4", 2.0),
    ],
)
def test_precedence_and_literals(source, value):
    assert ev(source) == pytest.approx(value, rel=1e-15)


def test_vectorised_evaluation_matches_scalar():
    node = compile_source("sin(x) + t*x^2")
    xs = np.linspace(-3, 3, 17)
    vec = expr.evaluate(node, 0.7, xs)
    scal = np.array([expr.evaluate(node, 0.7, float(v)) for v in xs])
    assert np.array_equal(vec, scal)


class TestErrors:
    def test_syntax_error_reports_byte_offset(self):
        with pytest.raises(expr.ParseError) as exc:
            expr.parse("1 + $")
        assert exc.value.offset == 4

    def test_byte_offset_counts_utf8_bytes(self):
        # the two-byte character shifts byte offsets past the char index
        with pytest.raises(expr.ParseError) as exc:
            expr.parse("(π)")
        assert exc.value.offset == 1
        with pytest.raises(expr.ParseError) as exc:
            expr.parse("x + π + $")
        assert exc.value.offset == 4  # the pi itself is the first bad byte

    def test_unknown_identifier(self):
        with pytest.raises(expr.ParseError, match="unknown identifier"):
            expr.parse("foo(x)")

    def test_arity_mismatch(self):
        with pytest.raises(expr.ParseError, match="argument"):
            expr.parse("min(x)")
        with pytest.raises(expr.ParseError, match="argument"):
            expr.parse("sin(x, t)")

    def test_trailing_input(self):
        with pytest.raises(expr.ParseError, match="trailing"):
            expr.parse("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(expr.ParseError):
            expr.parse("(1 + 2")

    @pytest.mark.parametrize(
        "source,x",
        [("log(x)", -1.0), ("log(x)", 0.0), ("1/x", 0.0), ("sqrt(x)", -4.0), ("x^0.5", -4.0), ("exp(x)", 1e6)],
    )
    def test_domain_violations_raise(self, source, x):
        with pytest.raises(expr.EvalDomainError):
            ev(source, x=x)

    def test_literal_zero_divisor_raises_when_evaluated(self):
        node = compile_source("x/0")  # parses: the error belongs to evaluation
        for x in (1.0, np.array([-1.0, 0.0, 2.0])):
            with pytest.raises(expr.EvalDomainError, match="^division by zero$"):
                expr.evaluate(node, 0.0, x)
        # the dividend's own domain error comes first, as in a tree walk
        with pytest.raises(expr.EvalDomainError, match="log of a non-positive value"):
            ev("log(x)/0", x=-1.0)

    def test_non_finite_result_names_the_expression(self):
        with pytest.raises(expr.EvalDomainError, match=r"non-finite result from exp\(x\)"):
            ev("exp(x)", x=1000.0)
        with pytest.raises(expr.EvalDomainError, match=r"from 2.0 \* exp\(x\)"):
            ev("2*exp(x)", x=np.array([0.0, 1000.0]))


def test_parser_determinism():
    node1 = expr.parse("sin(1000*(1+abs(x))^0.25) - t/3")
    node2 = expr.parse("sin(1000*(1+abs(x))^0.25) - t/3")
    assert node1 == node2
    xs = np.linspace(-5, 5, 101)
    assert np.array_equal(expr.evaluate(expr.Compiled(node1), 0.2, xs), expr.evaluate(expr.Compiled(node2), 0.2, xs))


# ---- print/reparse round-trip -------------------------------------------------

_leaves = st.one_of(
    st.builds(expr.Num, st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    st.just(expr.Var("x")),
    st.just(expr.Var("t")),
)


def _total_exprs(children):
    # total functions only, so that evaluation is defined for every input
    return st.one_of(
        st.builds(expr.Neg, children),
        st.builds(expr.BinOp, st.sampled_from("+-*"), children, children),
        st.builds(lambda a: expr.Call("sin", (a,)), children),
        st.builds(lambda a: expr.Call("cos", (a,)), children),
        st.builds(lambda a: expr.Call("abs", (a,)), children),
        st.builds(lambda a, b: expr.Call("min", (a, b)), children, children),
        st.builds(lambda a, b: expr.Call("max", (a, b)), children, children),
    )


ast_strategy = st.recursive(_leaves, _total_exprs, max_leaves=25)


@given(ast_strategy)
@settings(max_examples=200, deadline=None)
def test_roundtrip_print_parse_evaluates_identically(node):
    text = expr.to_source(node)
    reparsed = expr.parse(text)
    xs = np.array([-2.75, -1.0, -0.3, 0.0, 0.4, 1.0, 3.25])
    for t in (0.0, 0.7):
        a = expr.evaluate(expr.Compiled(node), t, xs)
        b = expr.evaluate(expr.Compiled(reparsed), t, xs)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "source",
    ["x/(1+t)", "(1+abs(x))^0.25", "-x^2 - -3", "2^-(x*0 + 1)", "min(x, t) * max(x, -t)"],
)
def test_roundtrip_with_partial_ops(source):
    node = expr.parse(source)
    text = expr.to_source(node)
    reparsed = expr.parse(text)
    for x in (-2.0, 0.5, 3.0):
        assert expr.evaluate(expr.Compiled(node), 0.3, x) == expr.evaluate(expr.Compiled(reparsed), 0.3, x)


# ---- compiled closures against a direct tree walk ------------------------------


def reference_evaluate(node, t, x):
    """The recursive interpreter that ``expr.evaluate`` replaced; kept as the reference."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _reference_eval(node, float(t), x)
        out = np.broadcast_to(np.asarray(out, dtype=float), x.shape)
    if not np.isfinite(out).all():
        raise expr.EvalDomainError(f"non-finite result from {expr.to_source(node)}")
    if x.ndim == 0:
        return float(out)
    return np.array(out)


def _reference_eval(node, t, x):
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Var):
        return x if node.name == "x" else t
    if isinstance(node, expr.Neg):
        return -np.asarray(_reference_eval(node.arg, t, x))
    if isinstance(node, expr.BinOp):
        a = _reference_eval(node.left, t, x)
        b = _reference_eval(node.right, t, x)
        if node.op == "+":
            return np.add(a, b)
        if node.op == "-":
            return np.subtract(a, b)
        if node.op == "*":
            return np.multiply(a, b)
        if node.op == "/":
            if np.any(np.asarray(b) == 0):
                raise expr.EvalDomainError("division by zero")
            return np.divide(a, b)
        out = np.power(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if not np.all(np.isfinite(out)):
            raise expr.EvalDomainError("invalid power (negative base or zero to a negative exponent)")
        return out
    args = [np.asarray(_reference_eval(a, t, x), dtype=float) for a in node.args]
    if node.name == "log":
        if np.any(args[0] <= 0):
            raise expr.EvalDomainError("log of a non-positive value")
        return np.log(args[0])
    if node.name == "sqrt":
        if np.any(args[0] < 0):
            raise expr.EvalDomainError("sqrt of a negative value")
        return np.sqrt(args[0])
    unary = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
    if node.name in unary:
        return unary[node.name](args[0])
    return (np.minimum if node.name == "min" else np.maximum)(args[0], args[1])


def outcome(evaluator, node, t, x):
    """Bytes and type of the result, or the domain error's message."""
    try:
        value = evaluator(node, t, x)
    except expr.EvalDomainError as err:
        return ("error", str(err))
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (value.dtype.str, value.shape, value.tobytes())


XS = np.array([-2.75, -1.0, -0.3, -0.0, 0.0, 0.4, 1.0, 3.25, 700.0])


def assert_compiled_matches_reference(node):
    compiled = expr.Compiled(node)
    for t in (0.0, 0.7):
        assert outcome(expr.evaluate, compiled, t, XS) == outcome(reference_evaluate, node, t, XS)
        assert outcome(expr.evaluate, compiled, t, XS.reshape(3, 3)[:, ::2]) == outcome(
            reference_evaluate, node, t, XS.reshape(3, 3)[:, ::2])
        for x in XS[[0, 3, 4, 6, 8]]:
            assert outcome(expr.evaluate, compiled, t, float(x)) == outcome(reference_evaluate, node, t, float(x))


def _partial_exprs(children):
    # domain errors: zero divisors, negative bases, log/sqrt of non-positive values, overflow
    return st.one_of(
        _total_exprs(children),
        st.builds(expr.BinOp, st.sampled_from("/^"), children, children),
        st.builds(lambda a: expr.Call("log", (a,)), children),
        st.builds(lambda a: expr.Call("sqrt", (a,)), children),
        st.builds(lambda a: expr.Call("exp", (a,)), children),
    )


partial_ast_strategy = st.recursive(
    st.one_of(_leaves, st.just(expr.Num(0.0)), st.just(expr.Num(8.0))), _partial_exprs, max_leaves=12)


@given(ast_strategy)
@settings(max_examples=200, deadline=None)
def test_compiled_matches_reference_bitwise(node):
    assert_compiled_matches_reference(node)


@given(partial_ast_strategy)
@settings(max_examples=300, deadline=None)
def test_compiled_domain_errors_match_reference(node):
    assert_compiled_matches_reference(node)


@pytest.mark.parametrize(
    "source",
    ["x/0", "x/8", "x/(1+abs(x)/8)", "0.5*sin(x)", "x", "t", "2", "-x", "x/t", "log(x)/0", "0/x",
     "(x-1)^0.5", "0^-1", "sqrt(x)*t", "exp(x*x)", "min(x, 1/x)", "sin(1000*(1+abs(x))^0.25)"],
)
def test_compiled_matches_reference_on_named_cases(source):
    assert_compiled_matches_reference(expr.parse(source))


@given(ast_strategy)
@settings(max_examples=100, deadline=None)
def test_coefficient_equality_and_hash_ignore_the_compiled_form(node):
    text = expr.to_source(node)
    a, b = Coefficient(name=text, ast=node), Coefficient.parse(text)
    # the dataclass hash of the compared fields, as before coefficients compiled their AST
    assert hash(a) == hash((text, node, None, None))
    assert (a == b) == (b.ast == node)
    assert a == Coefficient(name=text, ast=node) and hash(a) == hash(Coefficient(name=text, ast=node))
    assert a.compiled is not Coefficient(name=text, ast=node).compiled  # one compiled form per object
    assert "compiled" not in repr(a)
    xs = XS[:4]
    assert outcome(lambda n, t, x: a(t, x), node, 0.7, xs) == outcome(reference_evaluate, node, 0.7, xs)


# ---- check-free forms on the clamp box -----------------------------------------


def _parsed(sources):
    nodes = []
    for source in sources:
        try:
            nodes.append(expr.parse(source))
        except expr.ParseError:
            pass
    return nodes


def _box(t_max, bound):
    return {"t": (0.0, t_max), "x": (-bound, bound)}


@given(st.one_of(st.sampled_from(_parsed(FUZZ_SOURCES)), partial_ast_strategy),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0]), st.floats(0.0, 2.0), st.data())
@settings(max_examples=300, deadline=None)
def test_box_form_stays_in_its_enclosure_and_matches_checked_evaluate(node, level, t_max, data):
    bound = math.exp(level)
    checked = expr.Compiled(node)
    boxed = checked.on_box(t_max, bound)
    enclosure = expr._enclose(node, _box(t_max, bound))
    assert boxed.checked == (enclosure is None)
    inside = st.floats(-bound, bound)
    xs = np.array([-bound, -0.0, 0.0, bound] + data.draw(st.lists(inside, min_size=1, max_size=16)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a proved form raises no float flag either
        for t in (0.0, t_max, data.draw(st.floats(0.0, t_max))):
            # the same bits, or the same error, as the checked form
            assert outcome(expr.evaluate, boxed, t, xs) == outcome(expr.evaluate, checked, t, xs)
            x = data.draw(inside)
            assert outcome(expr.evaluate, boxed, t, x) == outcome(expr.evaluate, checked, t, x)
            if enclosure is not None:
                values = expr.evaluate(boxed, t, xs)
                assert enclosure[0] <= values.min() and values.max() <= enclosure[1]


@pytest.mark.parametrize("source", ["x/3", "0.1*x", "x + 0.1", "x - 0.1", "sqrt(abs(x))", "exp(x)",
                                    "log(2 + x)", "sin(x)", "cos(x)", "(2 + x)^0.5", "x^3"])
def test_enclosure_ends_round_outward(source):
    # the endpoint arithmetic alone would give exactly the values at the box's ends
    node = expr.parse(source)
    lo, hi = expr._enclose(node, _box(1.0, 1.0))
    ends = expr.evaluate(expr.Compiled(node), 0.0, np.array([-1.0, 1.0]))
    assert lo < ends.min() and ends.max() < hi


# lattice_expr's and the golden EXPR_DOC's coefficients (uniqueness solves up to level 4 = N + 1),
# the oscillator's expression, and bounded powers and exponentials
@pytest.mark.parametrize("source", ["0.5*sin(x)", "x/(1+abs(x)/8)", "sin(1000*(1+abs(x))^0.25)",
                                    "x^2", "exp(x) - t", "log(1 + abs(x))", "sqrt(abs(x))/(1 + t)"])
def test_expressions_proved_on_the_box_take_the_check_free_path(source):
    assert not expr.Compiled(expr.parse(source)).on_box(1.0, math.exp(4.0)).checked


@pytest.mark.parametrize("source,x,message", [
    ("log(x)", -1.0, "^log of a non-positive value$"),
    ("1/x", 0.0, "^division by zero$"),
    ("x^0.5", -4.0, r"^invalid power \(negative base or zero to a negative exponent\)$"),
    ("exp(x)", 1000.0, r"^non-finite result from exp\(x\)$"),
])
def test_checks_that_may_fire_on_the_box_are_kept(source, x, message):
    # level 7: the box reaches e^7 > 709, where exp overflows
    compiled = expr.Compiled(expr.parse(source))
    boxed = compiled.on_box(1.0, math.exp(7.0))
    assert boxed.checked
    for form in (compiled, boxed):
        with pytest.raises(expr.EvalDomainError, match=message):
            expr.evaluate(form, 0.0, np.array([0.5, x]))


def test_box_form_returns_fresh_arrays():
    xs = np.array([-1.0, 0.5])
    for source in ("x", "2", "t"):
        out = expr.evaluate(expr.Compiled(expr.parse(source)).on_box(1.0, 1.0), 0.5, xs)
        assert out is not xs and out.shape == xs.shape and out.flags.writeable


def test_builtin_coefficients_keep_their_path():
    assert all(psi.on_box(1.0, 2.0) is psi for psi in BUILTINS.values())
