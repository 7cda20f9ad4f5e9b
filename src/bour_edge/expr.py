"""Expression trees for smooth one-variable functions.

Grammar (EBNF):

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , { "^" , integer } ;
    atom     = number | variable | function , "(" , expr , ")" | "(" , expr , ")" ;
    function = "sin" | "cos" | "sqrt" | "exp" ;
    number   = digits , [ "." , digits ] , [ ("e"|"E") , ["+"|"-"] , digits ] ;
    integer  = [ "-" ] , digits ;

The single variable defaults to ``s``. Exponents must be integer literals.

One tree walk, ``evaluate``, computes a tree on a backend: ``FLOAT`` here
(``SmoothFn.__call__``) or ``jets.JET`` (``jets.jet_eval``, Taylor mode). A
backend lifts literals and supplies div, pow, sin, cos, exp and sqrt; the
guards on a value (``check_divisor``, ``check_sqrt``, ``check_angle``,
overflow) are written once here, so floats and jets accept and refuse the
same points.

First derivatives do not need jets. ``differentiate`` builds the derivative
tree of a tree once, with the usual rules, and ``SmoothFn.prime`` caches it
as a ``SmoothFn``, so U'(s) is a float walk like U(s). Its divisors are those
an order-1 jet checks, so ``f.prime(x)`` refuses exactly where the order-1
jet of ``f`` at ``x`` does. Jets serve order >= 2 and Taylor series.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, ExprSyntaxError

_FUNCTIONS = ("sin", "cos", "sqrt", "exp")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class IntPow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str  # one of _FUNCTIONS
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, var):
        self.text = text
        self.var = var
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = IntPow(node, self.integer_literal())
            else:
                return node

    def integer_literal(self):
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected integer exponent", pos)
        if not text.isdigit():
            raise ExprSyntaxError(f"non-integer exponent {text!r}", pos)
        self.advance()
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text))
        if kind == "ident":
            self.advance()
            if text == self.var:
                return Var()
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)


DIV_FLOOR = 1e-14  # every backend refuses a denominator value below this


def check_divisor(value):
    """Refuse a denominator whose value is ~0."""
    if abs(value) < DIV_FLOOR:
        raise DomainError(f"division by ~0 (denominator value {value!r})")


def check_sqrt(value):
    """Refuse sqrt below 0; a derivative of sqrt also floors its divisor 2 sqrt."""
    if value < 0.0:
        raise DomainError(f"sqrt of {value!r}")


def check_angle(value):
    """Refuse sin and cos of a non-finite value (inf or NaN); returns the value."""
    if not math.isfinite(value):
        raise DomainError(f"sin/cos of {value!r}")
    return value


# + - * and unary minus are the value type's own operators; const(value, x)
# lifts a literal to the type of x.
Backend = namedtuple("Backend", "const div pow sin cos exp sqrt")


def _float_div(a, b):
    check_divisor(b)
    return a / b


def _float_pow(base, n):
    if n < 0:
        return _float_div(1.0, base ** -n)
    return base**n


def _float_sqrt(v):
    check_sqrt(v)
    return math.sqrt(v)


FLOAT = Backend(
    const=lambda value, x: value, div=_float_div, pow=_float_pow,
    sin=lambda v: math.sin(check_angle(v)), cos=lambda v: math.cos(check_angle(v)),
    exp=math.exp, sqrt=_float_sqrt,
)


def _walk(node, x, ops):
    kind = type(node)
    if kind is BinOp:
        a = _walk(node.left, x, ops)
        b = _walk(node.right, x, ops)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return ops.div(a, b)
    if kind is Var:
        return x
    if kind is Const:
        return ops.const(node.value, x)
    if kind is IntPow:
        return ops.pow(_walk(node.base, x, ops), node.exponent)
    if kind is Call:
        return getattr(ops, node.fn)(_walk(node.arg, x, ops))
    if kind is Neg:
        return -_walk(node.arg, x, ops)
    raise TypeError(f"unknown node {node!r}")


def evaluate(node, x, ops):
    """The tree ``node`` at ``x`` on the backend ``ops``; overflow is a DomainError."""
    try:
        return _walk(node, x, ops)
    except OverflowError as exc:
        raise DomainError(f"overflow in expression evaluation ({exc})") from exc


# Derivative trees. A zero derivative (literal 0) is folded away; a zero
# literal of the tree is not, so the derivative it multiplies is still
# evaluated and keeps its guards, as it does in an order-1 jet.
_ZERO, _ONE = Const(0.0), Const(1.0)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else BinOp("+", a, b)


def _sub(a, b):
    return a if b == _ZERO else _neg(b) if a == _ZERO else BinOp("-", a, b)


def _neg(a):
    return a if a == _ZERO else Neg(a)


def _scale(d, v):
    """d * v for a derivative d and a value v."""
    if d == _ZERO or v == _ONE:
        return d
    return v if d == _ONE else BinOp("*", v, d)


def differentiate(node):
    """The tree of d(node)/dx.

    Every divisor is one the order-1 jet also checks, so the derivative is
    refused where the jet is: d(a/b) = (da - (a/b) db)/b divides by b, a
    negative power d(g^n) = n (g^n/g) dg divides by g^|n| and g only, and
    d(sqrt g) = dg/(2 sqrt g) is never folded, so its divisor is checked even
    when dg is 0.
    """
    kind = type(node)
    if kind is Const:
        return _ZERO
    if kind is Var:
        return _ONE
    if kind is Neg:
        return _neg(differentiate(node.arg))
    if kind is BinOp:
        a, b = node.left, node.right
        da, db = differentiate(a), differentiate(b)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_scale(db, a), _scale(da, b))
        num = _sub(da, _scale(db, node))
        return _ZERO if num == _ZERO else BinOp("/", num, b)
    if kind is IntPow:
        g, n = node.base, node.exponent
        dg = differentiate(g)
        if n == 1 or dg == _ZERO:
            return dg
        if n == 0:
            return _scale(dg, _ZERO)
        if n < 0:
            return _neg(_scale(dg, BinOp("*", Const(float(-n)), BinOp("/", node, g))))
        return _scale(dg, BinOp("*", Const(float(n)), g if n == 2 else IntPow(g, n - 1)))
    if kind is Call:
        g = node.arg
        dg = differentiate(g)
        if node.fn == "sqrt":
            return BinOp("/", dg, BinOp("*", Const(2.0), node))
        if node.fn == "sin":
            return _scale(dg, Call("cos", g))
        if node.fn == "cos":
            return _neg(_scale(dg, Call("sin", g)))
        return _scale(dg, node)
    raise TypeError(f"unknown node {node!r}")


# Precedence levels used by the printer; parentheses are emitted whenever a
# child's level is below what its position requires, so printing and
# reparsing reproduces the tree exactly.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, (Const, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, IntPow):
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL


def _print(node, min_level, var):
    if isinstance(node, Const):
        v = node.value
        if v < 0:
            return f"(-{-v!r})"
        return repr(v)
    if isinstance(node, Var):
        return var
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg, _LEVEL_ADD, var)})"
    if isinstance(node, IntPow):
        text = f"{_print(node.base, _LEVEL_ATOM, var)}^{node.exponent}"
    elif isinstance(node, Neg):
        text = f"-{_print(node.arg, _LEVEL_NEG, var)}"
    elif node.op in "+-":
        text = f"{_print(node.left, _LEVEL_ADD, var)} {node.op} {_print(node.right, _LEVEL_MUL, var)}"
    else:
        text = f"{_print(node.left, _LEVEL_MUL, var)} {node.op} {_print(node.right, _LEVEL_NEG, var)}"
    if _level(node) < min_level:
        return f"({text})"
    return text


@dataclass(frozen=True)
class SmoothFn:
    """A smooth function of one real variable, held as an expression tree."""

    root: object
    source_text: str = field(compare=False, default="")
    var: str = field(compare=False, default="s")

    def __call__(self, x):
        return evaluate(self.root, float(x), FLOAT)

    @cached_property
    def prime(self):
        """The derivative, as a SmoothFn; its tree is built on first use."""
        return SmoothFn(differentiate(self.root), var=self.var)

    def to_source(self):
        return _print(self.root, 0, self.var)

    def _combine(self, other, op):
        if isinstance(other, (int, float)):
            other = SmoothFn(Const(float(other)), var=self.var)
        node = BinOp(op, self.root, other.root)
        return SmoothFn(node, _print(node, 0, self.var), self.var)

    def __add__(self, other):
        return self._combine(other, "+")

    def __radd__(self, other):
        return SmoothFn(Const(float(other)), var=self.var)._combine(self, "+")

    def __sub__(self, other):
        return self._combine(other, "-")

    def __rsub__(self, other):
        return SmoothFn(Const(float(other)), var=self.var)._combine(self, "-")

    def __mul__(self, other):
        return self._combine(other, "*")

    def __rmul__(self, other):
        return SmoothFn(Const(float(other)), var=self.var)._combine(self, "*")

    def __truediv__(self, other):
        return self._combine(other, "/")

    def __neg__(self):
        node = Neg(self.root)
        return SmoothFn(node, _print(node, 0, self.var), self.var)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        node = IntPow(self.root, n)
        return SmoothFn(node, _print(node, 0, self.var), self.var)


def parse_expr(text, var="s"):
    """Parse ``text`` into a SmoothFn over the variable ``var``."""
    root = _Parser(text, var).parse()
    return SmoothFn(root, text, var)
