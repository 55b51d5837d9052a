import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shelab import expr

# sin(1000 rad) via independent high-precision range reduction (mpmath, 40 digits)
SIN_1000 = 0.82687954053200256026


def ev(source, t=0.0, x=0.0):
    return expr.evaluate(expr.parse(source), t, x)


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
    node = expr.parse("sin(x) + t*x^2")
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
    assert np.array_equal(expr.evaluate(node1, 0.2, xs), expr.evaluate(node2, 0.2, xs))


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
        a = expr.evaluate(node, t, xs)
        b = expr.evaluate(reparsed, t, xs)
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
        assert expr.evaluate(node, 0.3, x) == expr.evaluate(reparsed, 0.3, x)
