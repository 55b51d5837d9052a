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

Evaluation is numpy-vectorised: ``evaluate(node, t, x)`` accepts scalars or
arrays for ``x`` and raises :class:`EvalDomainError` on any domain violation
(log of a non-positive number, division by zero, fractional power of a
negative base) or non-finite result.
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


def evaluate(node: Node, t, x):
    """Evaluate ``node`` at time ``t`` (scalar) and state ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _eval(node, float(t), x)
        out = np.broadcast_to(np.asarray(out, dtype=float), x.shape)
    if not np.isfinite(out).all():
        raise EvalDomainError(f"non-finite result from {to_source(node)}")
    if x.ndim == 0:
        return float(out)
    return np.array(out)


def _eval(node, t, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else t
    if isinstance(node, Neg):
        return -np.asarray(_eval(node.arg, t, x))
    if isinstance(node, BinOp):
        a = _eval(node.left, t, x)
        b = _eval(node.right, t, x)
        if node.op == "+":
            return np.add(a, b)
        if node.op == "-":
            return np.subtract(a, b)
        if node.op == "*":
            return np.multiply(a, b)
        if node.op == "/":
            if np.any(np.asarray(b) == 0):
                raise EvalDomainError("division by zero")
            return np.divide(a, b)
        # "^": reject fractional powers of negative bases and 0^negative,
        # both of which numpy maps to nan/inf silently.
        out = np.power(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if not np.all(np.isfinite(out)):
            raise EvalDomainError("invalid power (negative base or zero to a negative exponent)")
        return out
    if isinstance(node, Call):
        args = [np.asarray(_eval(a, t, x), dtype=float) for a in node.args]
        if node.name == "log":
            if np.any(args[0] <= 0):
                raise EvalDomainError("log of a non-positive value")
            return np.log(args[0])
        if node.name == "sqrt":
            if np.any(args[0] < 0):
                raise EvalDomainError("sqrt of a negative value")
            return np.sqrt(args[0])
        if node.name == "sin":
            return np.sin(args[0])
        if node.name == "cos":
            return np.cos(args[0])
        if node.name == "exp":
            return np.exp(args[0])
        if node.name == "abs":
            return np.abs(args[0])
        if node.name == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
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
