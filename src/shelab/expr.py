"""Tiny arithmetic expression language for space-time coefficient functions.

Expressions are real-valued functions of the state variable ``x`` and time
``t``, e.g. ``"sin(1000*(1+abs(x))^0.25)"`` or ``"2*t + x"``.  Grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?
    atom   := number | "x" | "t" | ident "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right-associative and binds tighter than unary minus; ``+ - * /``
are left-associative with the usual precedence.  Known functions: sin, cos,
exp, log, abs, sqrt (one argument) and min, max (two arguments).

An AST is evaluated through its :class:`Compiled` form, nested closures
built once per tree, so a coefficient called every solver step pays no tree
walk.  Evaluation is numpy-vectorised: ``evaluate(compiled, t, x)`` accepts
scalars or arrays for ``x`` and raises :class:`EvalDomainError` on any
domain violation (log of a non-positive number, division by zero,
fractional power of a negative base) or non-finite result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "Node",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "Compiled",
    "evaluate",
    "to_source",
]

_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
}


class ParseError(ValueError):
    """Syntax or name error; ``offset`` is the byte offset into the source."""

    def __init__(self, message, source, pos):
        self.offset = len(source[:pos].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


class EvalDomainError(ArithmeticError):
    """Raised when evaluation hits a domain violation or non-finite value."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "t"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Node = Num | Var | Neg | BinOp | Call


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.start() != pos:
            raise ParseError(f"unexpected character {source[pos]!r}", source, pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), pos))
        else:
            tokens.append((m.group("op"), m.group("op"), pos))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[0]!r}", self.source, tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[0]!r}", self.source, tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "ident":
            if value in ("x", "t"):
                return Var(value)
            if value not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {value!r}", self.source, pos)
            self.expect("(")
            args = [self.expr()]
            while self.peek() == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            if len(args) != _FUNCTIONS[value]:
                raise ParseError(
                    f"{value} takes {_FUNCTIONS[value]} argument(s), got {len(args)}",
                    self.source,
                    pos,
                )
            return Call(value, tuple(args))
        raise ParseError(f"expected a value, got {kind!r}", self.source, pos)


def parse(source: str) -> Node:
    """Parse UTF-8 source text into an AST."""
    return _Parser(source).parse()


class Compiled:
    """An AST compiled once into nested closures; evaluate it with :func:`evaluate`.

    The closures call the same numpy ufuncs, in the same order, as a direct
    walk of the tree would, so compiling never changes a bit.  ``node`` is
    kept for error messages; ``reads_t`` says whether the expression reads
    ``t`` at all.
    """

    __slots__ = ("node", "fn", "reads_t")

    def __init__(self, node: Node):
        self.node = node
        self.fn = _compile(node)
        self.reads_t = _reads_t(node)


def evaluate(compiled: Compiled, t, x):
    """Evaluate a compiled expression at time ``t`` (scalar) and state ``x``
    (scalar or array)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = compiled.fn(float(t), x)
    if type(out) is not np.ndarray or out.shape != x.shape or out is x:
        # a constant, a scalar-only subtree or ``x`` itself: a fresh array of x's shape
        out = np.array(np.broadcast_to(np.asarray(out, dtype=float), x.shape))
    if not np.isfinite(out).all():
        raise EvalDomainError(f"non-finite result from {to_source(compiled.node)}")
    if x.ndim == 0:
        return float(out)
    return out


def _any(mask):
    """``np.any`` of a comparison result that may be a Python bool."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _reads_t(node) -> bool:
    """Whether ``node`` reads the time variable ``t``."""
    if isinstance(node, Var):
        return node.name == "t"
    if isinstance(node, Neg):
        return _reads_t(node.arg)
    if isinstance(node, BinOp):
        return _reads_t(node.left) or _reads_t(node.right)
    if isinstance(node, Call):
        return any(map(_reads_t, node.args))
    return False


def _compile(node):
    """Closure ``(t, x) -> value`` for ``node``; children evaluate left to right."""
    if isinstance(node, Num):
        value = float(node.value)
        return lambda t, x: value
    if isinstance(node, Var):
        if node.name == "x":
            return lambda t, x: x
        return lambda t, x: t
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda t, x: np.negative(arg(t, x))
    if isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        if node.op in _ARITH:
            ufunc = _ARITH[node.op]
            return lambda t, x: ufunc(left(t, x), right(t, x))
        if node.op == "/":
            def divide(t, x):
                a, b = left(t, x), right(t, x)
                if _any(b == 0):
                    raise EvalDomainError("division by zero")
                return np.divide(a, b)

            return divide

        def power(t, x):
            # reject fractional powers of negative bases and 0^negative,
            # both of which numpy maps to nan/inf silently
            out = np.power(left(t, x), right(t, x))
            if not np.isfinite(out).all():
                raise EvalDomainError("invalid power (negative base or zero to a negative exponent)")
            return out

        return power
    if isinstance(node, Call):
        args = [_compile(a) for a in node.args]
        if node.name in ("min", "max"):
            ufunc = np.minimum if node.name == "min" else np.maximum
            first, second = args
            return lambda t, x: ufunc(first(t, x), second(t, x))
        (arg,) = args
        if node.name == "log":
            def log(t, x):
                a = arg(t, x)
                if _any(a <= 0):
                    raise EvalDomainError("log of a non-positive value")
                return np.log(a)

            return log
        if node.name == "sqrt":
            def sqrt(t, x):
                a = arg(t, x)
                if _any(a < 0):
                    raise EvalDomainError("sqrt of a negative value")
                return np.sqrt(a)

            return sqrt
        ufunc = _UNARY[node.name]
        return lambda t, x: ufunc(arg(t, x))
    raise TypeError(f"not an AST node: {node!r}")


# Precedence levels used by the printer; must agree with the grammar above.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, (Var, Call)):
        return _PREC_ATOM
    if isinstance(node, Num):
        return _PREC_ATOM if node.value >= 0 else _PREC_NEG
    if isinstance(node, Neg):
        return _PREC_NEG
    op = node.op
    if op in "+-":
        return _PREC_ADD
    if op in "*/":
        return _PREC_MUL
    return _PREC_POW


def _wrap(text, node_prec, min_prec):
    return f"({text})" if node_prec < min_prec else text


def to_source(node: Node) -> str:
    """Render an AST back to source text that reparses to an equivalent AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _wrap(to_source(node.arg), _prec(node.arg), _PREC_NEG)
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    op = node.op
    if op == "^":
        # base must sit at atom level; exponent is a factor (may be negative)
        base = _wrap(to_source(node.left), _prec(node.left), _PREC_ATOM)
        exponent = _wrap(to_source(node.right), _prec(node.right), _PREC_NEG)
        return f"{base}^{exponent}"
    here = _prec(node)
    left = _wrap(to_source(node.left), _prec(node.left), here)
    # left-associative: the right child needs strictly higher precedence
    right = _wrap(to_source(node.right), _prec(node.right), here + 1)
    return f"{left} {op} {right}"
