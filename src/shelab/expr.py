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

A caller that only ever evaluates on a known box, ``t`` in [0, t_max] and
``x`` in [-bound, bound] (the solver, whose clamp clips every state
argument), can compile for that box with :meth:`Compiled.on_box`.  An
outward-rounded interval enclosure of each node on the box decides which
checks can never fire there: a division's zero scan, a power's finiteness
pass and the log and sqrt domain scans, and, once every node's enclosure
is finite, :func:`evaluate`'s ``np.errstate`` and final finiteness pass.
Only those are left out; a check the enclosure cannot rule out stays with
its message.  No bit moves: the closures call the same ufuncs in the same
order on the same arrays, and a dropped check only read them.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

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
    """Raised when evaluation hits a domain violation or non-finite value.

    ``rank`` orders an expression's checks as evaluation meets them: its
    node checks are numbered in post-order (children left to right), and
    the final finiteness check of :func:`evaluate` comes after them all.
    """

    def __init__(self, message, rank=math.inf):
        super().__init__(message)
        self.rank = rank


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str  # "x" or "t"


class Neg(NamedTuple):
    arg: "Node"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


class Call(NamedTuple):
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
    ``t`` at all; ``checked`` says whether :func:`evaluate` guards the call
    with ``np.errstate`` and a final finiteness pass (always, but for a form
    from :meth:`on_box` whose whole tree is proved).
    """

    __slots__ = ("node", "fn", "reads_t", "checked")

    def __init__(self, node: Node):
        self.node = node
        self.fn = _compile(node)
        self.reads_t = _reads_t(node)
        self.checked = True

    def on_box(self, t_max: float, bound: float) -> "Compiled":
        """This expression compiled for calls with ``t`` in [0, t_max] and every ``x`` in
        [-bound, bound] alone, without the checks that its enclosure on that box proves dead.

        A division, power, log or sqrt keeps its check unless the enclosure of
        its subtree is finite and rules the check out; :func:`evaluate` drops
        its ``errstate`` and final finiteness pass only when the enclosure of
        every node is.  A dropped check could not have fired, and the
        closures call the same ufuncs in the same order, so on the box every
        result and every error is the one the checked form gives.
        """
        box = {"t": (0.0, float(t_max)), "x": (-float(bound), float(bound))}
        boxed = Compiled.__new__(Compiled)
        boxed.node, boxed.reads_t = self.node, self.reads_t
        boxed.fn = _compile(self.node, box)
        boxed.checked = _enclose(self.node, box) is None
        return boxed


def evaluate(compiled: Compiled, t, x):
    """Evaluate a compiled expression at time ``t`` (scalar) and state ``x``
    (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if compiled.checked:
        with np.errstate(all="ignore"):
            out = compiled.fn(float(t), x)
    else:
        out = compiled.fn(float(t), x)
    if type(out) is not np.ndarray or out.shape != x.shape or out is x:
        # a constant, a scalar-only subtree or ``x`` itself: a fresh array of x's shape
        out = np.array(np.broadcast_to(np.asarray(out, dtype=float), x.shape))
    if compiled.checked and not np.isfinite(out).all():
        raise EvalDomainError(f"non-finite result from {to_source(compiled.node)}")
    if x.ndim == 0:
        return float(out)
    return out


def _any(mask):
    """``np.any`` of a comparison result that may be a Python bool."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "log": np.log, "sqrt": np.sqrt}
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


def _compile(node, box=None, ranks=None):
    """Closure ``(t, x) -> value`` for ``node``; children evaluate left to right.

    With a ``box`` (see :meth:`Compiled.on_box`), a node whose enclosure on
    it is proved (:func:`_enclose`) is compiled without its check.  Each
    check takes the next number of ``ranks`` after its children are
    compiled, so the numbers follow evaluation order; its error carries it.
    """
    ranks = itertools.count() if ranks is None else ranks
    if isinstance(node, Num):
        value = float(node.value)
        return lambda t, x: value
    if isinstance(node, Var):
        if node.name == "x":
            return lambda t, x: x
        return lambda t, x: t
    if isinstance(node, Neg):
        arg = _compile(node.arg, box, ranks)
        return lambda t, x: np.negative(arg(t, x))
    if isinstance(node, BinOp):
        left, right = _compile(node.left, box, ranks), _compile(node.right, box, ranks)
        if node.op in _ARITH or _proved(node, box):
            ufunc = _ARITH.get(node.op, np.divide if node.op == "/" else np.power)
            return lambda t, x: ufunc(left(t, x), right(t, x))
        rank = next(ranks)
        if node.op == "/":
            def divide(t, x):
                a, b = left(t, x), right(t, x)
                if _any(b == 0):
                    raise EvalDomainError("division by zero", rank)
                return np.divide(a, b)

            return divide

        def power(t, x):
            # reject fractional powers of negative bases and 0^negative,
            # both of which numpy maps to nan/inf silently
            out = np.power(left(t, x), right(t, x))
            if not np.isfinite(out).all():
                raise EvalDomainError("invalid power (negative base or zero to a negative exponent)", rank)
            return out

        return power
    if isinstance(node, Call):
        args = [_compile(a, box, ranks) for a in node.args]
        if node.name in ("min", "max"):
            ufunc = np.minimum if node.name == "min" else np.maximum
            first, second = args
            return lambda t, x: ufunc(first(t, x), second(t, x))
        (arg,) = args
        checked = node.name in ("log", "sqrt") and not _proved(node, box)
        rank = next(ranks) if checked else None
        if checked and node.name == "log":
            def log(t, x):
                a = arg(t, x)
                if _any(a <= 0):
                    raise EvalDomainError("log of a non-positive value", rank)
                return np.log(a)

            return log
        if checked and node.name == "sqrt":
            def sqrt(t, x):
                a = arg(t, x)
                if _any(a < 0):
                    raise EvalDomainError("sqrt of a negative value", rank)
                return np.sqrt(a)

            return sqrt
        ufunc = _UNARY[node.name]
        return lambda t, x: ufunc(arg(t, x))
    raise TypeError(f"not an AST node: {node!r}")


def _proved(node, box):
    """Whether ``box`` is given and the enclosure of ``node`` on it is proved."""
    return box is not None and _enclose(node, box) is not None


# Ulps by which the enclosure widens the ends of sin, cos, exp, log and ^, computed
# with Python's math: numpy's own accuracy tests hold its float64 sin, cos, exp and log
# within 1 ulp of the correctly rounded value, and libm's are within 1 ulp too
# (numpy's power and math.pow differed by at most 1 ulp on 300,000 random pairs on
# an AVX-512 host); 4 ulps also cover the ulp doubling at a binade boundary.
_ULPS = 4


def _widen(lo, hi, ulps=1):
    """``(lo, hi)`` moved outward by ``ulps`` floats at each end; None unless both ends are finite."""
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    lo, hi = float(lo), float(hi)
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


def _trig(f, peak, lo, hi):
    """Range of ``f`` (sin or cos) on [lo, hi], before widening: its values at the ends, and
    1 or -1 wherever a maximum ``peak + 2k pi`` or a minimum ``peak + (2k + 1) pi`` may lie in it."""
    if hi - lo > 2.0 * math.pi or max(-lo, hi) > 1e6:
        return -1.0, 1.0
    ends = [f(lo), f(hi)]
    # an extremum within 1e-6 of an end counts as inside: far more than the float error here
    for k in range(math.ceil((lo - peak) / math.pi - 1e-6), math.floor((hi - peak) / math.pi + 1e-6) + 1):
        ends.append(-1.0 if k % 2 else 1.0)
    return min(ends), max(ends)


def _power(a, b):
    """Range of ``a^b`` over two intervals, before widening, or None if it may be undefined or unbounded."""
    (a0, a1), (b0, b1) = a, b
    if a0 > 0 or (a0 == 0 and b0 > 0):
        # monotone in each argument: the extremes are corners
        values = [math.pow(u, v) for u in (a0, a1) for v in (b0, b1)]
    elif b0 == b1 and b0 >= 0 and b0.is_integer():
        # a whole exponent n: |a|^n for even n, monotone for odd n
        ends = (a0, a1) if b0 % 2 else (abs(a0), abs(a1), 0.0 if a0 < 0 < a1 else abs(a0))
        values = [math.pow(u, b0) for u in ends]
    else:
        return None
    return min(values), max(values)


def _enclose(node, box):
    """An interval ``(lo, hi)`` holding every value the compiled ``node`` takes on ``box``, or None.

    ``box`` maps ``"t"`` and ``"x"`` to intervals.  Each interval operation
    rounds its ends outward: one ulp for ``+ - * /`` and sqrt, which IEEE
    754 rounds correctly, ``_ULPS`` for the rest.  None means not proved: an
    end is not finite, or a check of the subtree (a zero divisor, a log or
    sqrt argument out of its domain, a power that may be undefined) could
    fire on the box.
    """
    if isinstance(node, Num):
        return (node.value, node.value) if math.isfinite(node.value) else None
    if isinstance(node, Var):
        return box[node.name]
    if isinstance(node, Neg):
        op, children = "neg", (node.arg,)
    elif isinstance(node, BinOp):
        op, children = node.op, (node.left, node.right)
    else:
        op, children = node.name, node.args
    ivs = [_enclose(c, box) for c in children]
    if None in ivs:
        return None
    (a0, a1), (b0, b1) = ivs[0], ivs[-1]
    try:
        if op == "neg":
            return -a1, -a0
        if op == "abs":
            return (a0, a1) if a0 >= 0 else (-a1, -a0) if a1 <= 0 else (0.0, max(-a0, a1))
        if op in ("min", "max"):
            f = min if op == "min" else max
            return f(a0, b0), f(a1, b1)
        if op == "+":
            return _widen(a0 + b0, a1 + b1)
        if op == "-":
            return _widen(a0 - b1, a1 - b0)
        if op == "*" or (op == "/" and (b0 > 0 or b1 < 0)):
            values = [u * v if op == "*" else u / v for u in (a0, a1) for v in (b0, b1)]
            return _widen(min(values), max(values))
        if op == "sqrt" and a0 >= 0:
            return _widen(math.sqrt(a0), math.sqrt(a1))
        if op == "log" and a0 > 0:
            return _widen(math.log(a0), math.log(a1), _ULPS)
        if op == "exp":
            return _widen(math.exp(a0), math.exp(a1), _ULPS)
        if op in ("sin", "cos"):
            return _widen(*_trig(getattr(math, op), math.pi / 2 if op == "sin" else 0.0, a0, a1), _ULPS)
        if op == "^" and (ab := _power((a0, a1), (b0, b1))) is not None:
            return _widen(*ab, _ULPS)
    except OverflowError:
        pass  # math.exp or math.pow beyond the float range
    return None


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
