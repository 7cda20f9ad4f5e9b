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
``parse_expr`` refuses a tree deeper than ``MAX_DEPTH``, or parentheses,
calls and unary minus nested deeper than that, with ``ExprSyntaxError``;
``SmoothFn`` arithmetic refuses a taller result with ``ValueError``.

``compile_tree`` turns a tree into a straight-line Python function on a
backend: ``FLOAT`` here or ``jets.JET`` (Taylor mode). A backend lifts
literals and supplies div, pow, sin, cos, exp and sqrt; the guards on a value
(``check_divisor``, ``check_sqrt``, ``check_angle``, overflow) are written
once here, so floats and jets accept and refuse the same points. A
``SmoothFn`` compiles its tree once per backend, on first use:
``SmoothFn.__call__`` runs the float function and ``jets.jet_eval`` the jet
one. ``Emitter`` and ``define`` are the generator itself, which
``bour.point_kernel``, ``natural.chart_loop`` and ``profile.table_loop``
also drive to compile several trees that share subtrees into one function.
``FLOAT_FORMS`` spells FLOAT's guards into the code, so a value they accept
costs no Python call.

``compile_rows`` drives them to compile a Python formula, run once on
``Name`` leaves, into one loop over rows of floats: what reads only its
parameters, through + - * and powers n >= 0, is computed once before the
loop. An (h, m) family member's star scan (``profile.star_scan_kernel``),
its metric forms (``bour.metric_form_kernel``) and a mesh row
(``bour.mesh_row_kernel``) are such loops, each built once per process from
the formula the float path also runs; a member then costs one generated
loop over 1,025 star rows and one over 50 metric points, and a mesh row one
loop over its columns, where each cost a Python call chain per point.

First derivatives do not need jets. ``differentiate`` builds the derivative
tree of a tree once, with the usual rules, and ``SmoothFn.prime`` caches it
as a ``SmoothFn``, so U'(s) is a compiled float call like U(s). Its divisors
are those an order-1 jet checks, so ``f.prime(x)`` refuses exactly where the
order-1 jet of ``f`` at ``x`` does. Jets serve order >= 2 and Taylor series.
"""

from __future__ import annotations

import copy
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property

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
class Name:
    """A value that generated code binds itself, under ``id`` (see ``Emitter``)."""

    id: str


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


# The deepest tree parse_expr accepts, and the deepest nesting of parentheses,
# function calls and unary minus. A derivative tree is at most about three
# times as deep as its tree, so parsing, differentiate, to_source and
# compile_tree all stay well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (node, height of its tree)."""

    def __init__(self, text, var):
        self.text = text
        self.var = var
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

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

    def grow(self, height, pos):
        """The height of a node over a child of ``height``, made at ``pos``."""
        if height >= MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested too deeply (more than {MAX_DEPTH} levels)", pos)
        return height + 1

    def parse(self):
        """The tree and its height."""
        result = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return result

    def expr(self):
        node, height = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, right_height = self.term()
                node, height = BinOp(text, node, right), self.grow(max(height, right_height), pos)
            else:
                return node, height

    def term(self):
        node, height = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, right_height = self.unary()
                node, height = BinOp(text, node, right), self.grow(max(height, right_height), pos)
            else:
                return node, height

    def unary(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.nesting = self.grow(self.nesting, pos)
            arg, height = self.unary()
            self.nesting -= 1
            return Neg(arg), self.grow(height, pos)
        return self.power()

    def power(self):
        node, height = self.atom()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node, height = IntPow(node, self.integer_literal()), self.grow(height, pos)
            else:
                return node, height

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
            return Const(float(text)), 1
        if kind == "ident":
            self.advance()
            if text == self.var:
                return Var(), 1
            if text in _FUNCTIONS:
                self.expect_op("(")
                self.nesting = self.grow(self.nesting, pos)
                arg, height = self.expr()
                self.nesting -= 1
                self.expect_op(")")
                return Call(text, arg), self.grow(height, pos)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            self.advance()
            self.nesting = self.grow(self.nesting, pos)
            result = self.expr()
            self.nesting -= 1
            self.expect_op(")")
            return result
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
# lifts a literal to the type of x, and is None where a literal already is a
# value of that type.
Backend = namedtuple("Backend", "const div pow sin cos exp sqrt")


# The float guards call the check_ functions only where those refuse (or
# where NaN makes the test inconclusive), so a point they accept costs one call.
def _float_div(a, b):
    if not abs(b) >= DIV_FLOOR:
        check_divisor(b)
    return a / b


def _float_pow(base, n):
    if n < 0:
        return _float_div(1.0, base ** -n)
    return base**n


def _float_sqrt(v):
    if not v >= 0.0:
        check_sqrt(v)
    return math.sqrt(v)


def _float_sin(v):
    return math.sin(v if math.isfinite(v) else check_angle(v))


def _float_cos(v):
    return math.cos(v if math.isfinite(v) else check_angle(v))


FLOAT = Backend(const=None, div=_float_div, pow=_float_pow, sin=_float_sin, cos=_float_cos,
                exp=math.exp, sqrt=_float_sqrt)


# How compiled code spells each operation: / ^ (to a negative power) sin cos
# exp sqrt call the backend's guarded functions, which ``Emitter`` binds under
# these names.
FORMS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "_div({}, {})", "neg": "-{}",
         "^": "_pow({}, {})", "sin": "_sin({})", "cos": "_cos({})", "exp": "_exp({})",
         "sqrt": "_sqrt({})"}

# FORMS for code on FLOAT with the guards written in: a value that a guard accepts
# costs no Python call, and one it refuses, or a NaN, goes to FLOAT's guarded
# function, which raises as FLOAT does. The values are FORMS' bit for bit.
FLOAT_FORMS = {**FORMS, "/": "({0} / {1} if abs({1}) >= " + repr(DIV_FLOOR) + " else _div({0}, {1}))",
               "sin": "(_msin({0}) if {0} - {0} == 0.0 else _sin({0}))",
               "cos": "(_mcos({0}) if {0} - {0} == 0.0 else _cos({0}))",
               "sqrt": "(_msqrt({0}) if {0} >= 0.0 else _sqrt({0}))"}


class Emitter:
    """Straight-line code for trees on the backend ``ops``, one line per distinct subtree.

    ``emit`` appends the lines that compute a tree and returns the name that
    holds its value. Temporaries are computed in the order a left-to-right
    post-order walk first reaches them, so the code returns the walk's result
    bit for bit and raises the walk's first error; a node already emitted, or
    a right-hand side already bound, is not computed again. ``Var`` is ``x``,
    a ``Name`` is what ``bound`` maps its id to, and literals reach the code
    only as names bound in ``env``; an integer exponent is written into it.
    """

    def __init__(self, ops):
        self.env = {"_div": ops.div, "_pow": ops.pow, "_sin": ops.sin, "_cos": ops.cos,
                    "_exp": ops.exp, "_sqrt": ops.sqrt, "_const": ops.const,
                    "_msin": math.sin, "_mcos": math.cos, "_msqrt": math.sqrt,
                    "_DomainError": DomainError}
        self.lifts = ops.const is not None
        self.literals = {}
        self.temps = {}  # right-hand side -> the temporary that holds it
        # id of an emitted node -> (the node, the name that holds its value); the node
        # is kept so that its id cannot pass to a tree built later
        self.names = {}
        self.bound = {}
        self.lines = []

    def fork(self):
        """A branch that goes on from here with lines of its own; the literals stay shared."""
        branch = copy.copy(self)
        branch.temps, branch.names, branch.bound = dict(self.temps), dict(self.names), dict(self.bound)
        branch.lines = []
        return branch

    def literal(self, value):
        key = repr(value)  # tells 0.0 from -0.0, which Const equality does not
        if key not in self.literals:
            self.literals[key] = f"_c{len(self.literals)}"
            self.env[self.literals[key]] = value
        return self.literals[key]

    def bind(self, rhs):
        if rhs not in self.temps:
            self.temps[rhs] = f"t{len(self.temps)}"
            self.lines.append(f"{self.temps[rhs]} = {rhs}")
        return self.temps[rhs]

    def emit(self, node, forms=FORMS):
        """The name of ``node``'s value; its operations are spelled as ``forms`` says."""
        key = id(node)
        if key in self.names:
            return self.names[key][1]
        kind = type(node)
        if kind is BinOp:
            a, b = self.emit(node.left, forms), self.emit(node.right, forms)
            name = self.bind(forms[node.op].format(a, b))
        elif kind is Var:
            name = "x"
        elif kind is Name:
            name = self.bound[node.id]
        elif kind is Const:
            name = self.literal(node.value)
            if self.lifts:
                name = self.bind(f"_const({name}, x)")
        elif kind is IntPow:
            # A power n >= 0 is the value type's own, as the backend's pow computes it.
            form = forms["^"] if node.exponent < 0 else "{} ** {}"
            name = self.bind(form.format(self.emit(node.base, forms), node.exponent))
        elif kind is Call and node.fn in _FUNCTIONS:
            name = self.bind(forms[node.fn].format(self.emit(node.arg, forms)))
        elif kind is Neg:
            name = self.bind(forms["neg"].format(self.emit(node.arg, forms)))
        else:
            raise TypeError(f"unknown node {node!r}")
        self.names[key] = node, name
        return name


def guarded(lines):
    """``lines`` with overflow raised as a DomainError, in the namespace of an ``Emitter``."""
    return ["try:", *(f"    {line}" for line in lines), "except OverflowError as exc:",
            "    raise _DomainError(f'overflow in expression evaluation ({exc})') from exc"]


def define(env, param, head, body):
    """``compiled(param)`` in the namespace ``env``: the lines ``head``, then ``body``
    ``guarded`` (no ``body``, no guard). The source is kept as ``.source``."""
    source = "\n".join([f"def compiled({param}):",
                         *(f"    {line}" for line in [*head, *(guarded(body) if body else ())])])
    exec(compile(source, "<expression>", "exec"), env)
    compiled = env["compiled"]
    compiled.source = source
    return compiled


def compile_tree(root, ops):
    """The tree ``root`` as a Python function of x on the backend ``ops``.

    The code is ``Emitter``'s, so it returns a left-to-right walk's result
    bit for bit and raises the walk's first error.
    """
    code = Emitter(ops)
    result = code.emit(root)
    return define(code.env, "x", (), [*code.lines, f"return {result}"])


def compile_rows(formula, row_names, param_names, forms=FORMS, names=None):
    """``formula`` over many rows, as one generated function ``compiled(rows, *params)``.

    ``formula`` is called once, on ``SmoothFn`` leaves ``Name(id)`` for each
    row name and then each parameter name, and returns one tree or a tuple of
    trees. The function returns the list of their values at each row of
    ``rows``, an iterable of tuples in ``row_names`` order, with operations
    spelled as ``forms`` says; ``names`` binds the functions ``forms`` calls
    beyond ``FLOAT``'s. ``rows``, ``out``, ``t<i>`` and names that start with
    an underscore are the code's own.

    Every subtree that reads only parameters and literals through + - *,
    negation and powers n >= 0 is computed once, before the loop; no / and no
    call is. In the loop the calls (sqrt, sin, cos, exp), with their
    arguments, come first, then the rest, each in the order a left-to-right
    walk of the results reaches it. Where ``forms`` spells each operation as
    the formula's float run computes it, the values are that run's, row by
    row and bit for bit. So is the first refusal, with its type and message,
    if the formula takes its calls before any other step of a row that can
    fail, as ``bour.profile_rates`` does; overflow is not turned into a
    DomainError. Of the hoisted operations only a power can raise (an
    overflowing float ** int); if one does, the rows are run by the same code
    with nothing hoisted, built then.
    """
    return _row_loop(formula, tuple(row_names), tuple(param_names), forms, dict(names or {}), True)


def _row_loop(formula, row_names, param_names, forms, names, hoist):
    leaves = [SmoothFn(Name(name)) for name in (*row_names, *param_names)]
    result = formula(*leaves)
    single = not isinstance(result, tuple)
    roots = [result.root] if single else [f.root for f in result]
    code = Emitter(FLOAT)
    code.env.update(names)
    code.bound.update((name, name) for name in param_names)
    if hoist:
        params, memo, seen = set(param_names), {}, set()
        for root in roots:
            _emit_largest(root, code, forms, lambda node: _invariant(node, params, memo), seen)
    loop = code.fork()
    loop.bound.update((name, name) for name in row_names)
    seen = set()
    for root in roots:
        _emit_largest(root, loop, forms, lambda node: type(node) is Call, seen)
    values = [loop.emit(root, forms) for root in roots]
    value = values[0] if single else f"({', '.join(values)},)"
    args = ", ".join(("rows", *param_names))
    head = []
    if code.lines:
        unhoisted = cache(lambda: _row_loop(formula, row_names, param_names, forms, names, False))
        code.env["_unhoisted"] = lambda *args: unhoisted()(*args)
        head = ["try:", *(f"    {line}" for line in code.lines),
                "except OverflowError:", f"    return _unhoisted({args})"]
    return define(code.env, args, [
        *head, "out = []", f"for {', '.join(row_names)} in rows:",
        *(f"    {line}" for line in loop.lines), f"    out.append({value})", "return out"], ())


def _emit_largest(node, code, forms, accept, seen):
    """Emit into ``code`` each largest subtree of ``node`` that ``accept`` takes, left
    to right; ``seen`` holds the ids of the nodes visited so far."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if accept(node):
        code.emit(node, forms)
        return
    for name in ("arg", "left", "right", "base"):
        child = getattr(node, name, None)
        if child is not None:
            _emit_largest(child, code, forms, accept, seen)


def _invariant(node, params, memo):
    """Whether ``node`` reads only the parameters ``params`` and literals, through
    + - *, negation and powers n >= 0."""
    key = id(node)
    if key not in memo:
        kind = type(node)
        if kind is Name:
            memo[key] = node.id in params
        elif kind is Const:
            memo[key] = True
        elif kind is BinOp:
            memo[key] = (node.op in "+-*" and _invariant(node.left, params, memo)
                         and _invariant(node.right, params, memo))
        elif kind is Neg:
            memo[key] = _invariant(node.arg, params, memo)
        elif kind is IntPow:
            memo[key] = node.exponent >= 0 and _invariant(node.base, params, memo)
        else:
            memo[key] = False
    return memo[key]


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
    when dg is 0. A node shared by several parents is differentiated once,
    and its derivative is shared too.
    """
    return _differentiate(node, {})


def _differentiate(node, memo):
    """d(node)/dx; ``memo`` maps the id of each node done so far to its derivative."""
    key = id(node)
    if key in memo:
        return memo[key]
    kind = type(node)
    if kind is Const:
        d = _ZERO
    elif kind is Var:
        d = _ONE
    elif kind is Neg:
        d = _neg(_differentiate(node.arg, memo))
    elif kind is BinOp:
        a, b = node.left, node.right
        da, db = _differentiate(a, memo), _differentiate(b, memo)
        if node.op == "+":
            d = _add(da, db)
        elif node.op == "-":
            d = _sub(da, db)
        elif node.op == "*":
            d = _add(_scale(db, a), _scale(da, b))
        else:
            num = _sub(da, _scale(db, node))
            d = _ZERO if num == _ZERO else BinOp("/", num, b)
    elif kind is IntPow:
        g, n = node.base, node.exponent
        dg = _differentiate(g, memo)
        if n == 1 or dg == _ZERO:
            d = dg
        elif n == 0:
            d = _scale(dg, _ZERO)
        elif n < 0:
            d = _neg(_scale(dg, BinOp("*", Const(float(-n)), BinOp("/", node, g))))
        else:
            d = _scale(dg, BinOp("*", Const(float(n)), g if n == 2 else IntPow(g, n - 1)))
    elif kind is Call:
        g = node.arg
        dg = _differentiate(g, memo)
        if node.fn == "sqrt":
            d = BinOp("/", dg, BinOp("*", Const(2.0), node))
        elif node.fn == "sin":
            d = _scale(dg, Call("cos", g))
        elif node.fn == "cos":
            d = _neg(_scale(dg, Call("sin", g)))
        else:
            d = _scale(dg, node)
    else:
        raise TypeError(f"unknown node {node!r}")
    memo[key] = d
    return d


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
    """A smooth function of one real variable, held as an expression tree.

    ``height`` is the number of nodes on the longest path from the root to a
    leaf. The parser and the arithmetic operators pass it in, so arithmetic
    can refuse a tree taller than ``MAX_DEPTH`` without walking its operands;
    otherwise it is measured once, on construction.
    """

    root: object
    source_text: str = field(compare=False, default="")
    var: str = field(compare=False, default="s")
    height: int = field(compare=False, default=None)

    def __post_init__(self):
        if self.height is None:
            object.__setattr__(self, "height", _height(self.root, {}))

    def __call__(self, x):
        return self.float_fn(float(x))

    @cached_property
    def float_fn(self):
        """The tree compiled for floats (``compile_tree`` on ``FLOAT``)."""
        return compile_tree(self.root, FLOAT)

    @cached_property
    def jet_fn(self):
        """The tree compiled for jets (``compile_tree`` on ``jets.JET``)."""
        from .jets import JET  # jets imports this module

        return compile_tree(self.root, JET)

    def __getstate__(self):
        # Compiled functions cannot be pickled; they are rebuilt on first use.
        return {k: v for k, v in self.__dict__.items() if k not in ("float_fn", "jet_fn")}

    @cached_property
    def prime(self):
        """The derivative, as a SmoothFn; its tree is built on first use."""
        return SmoothFn(differentiate(self.root), var=self.var)

    def to_source(self):
        return _print(self.root, 0, self.var)

    def _grown(self, node, *operands):
        """A SmoothFn of ``node`` over ``operands``; refused past MAX_DEPTH."""
        height = 1 + max(f.height for f in operands)
        if height > MAX_DEPTH:
            raise ValueError(f"expression nested too deeply (more than {MAX_DEPTH} levels)")
        return SmoothFn(node, var=self.var, height=height)

    def _combine(self, other, op):
        if isinstance(other, (int, float)):
            other = SmoothFn(Const(float(other)), var=self.var)
        return self._grown(BinOp(op, self.root, other.root), self, other)

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
        return self._grown(Neg(self.root), self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        return self._grown(IntPow(self.root, n), self)


def _height(node, memo):
    """The height of the tree at ``node``; ``memo`` measures a shared subtree once."""
    key = id(node)
    if key not in memo:
        height = 0
        for name in ("arg", "left", "right", "base"):
            child = getattr(node, name, None)
            if child is not None:
                height = max(height, _height(child, memo))
        memo[key] = height + 1
    return memo[key]


def parse_expr(text, var="s"):
    """Parse ``text`` into a SmoothFn over the variable ``var``."""
    root, height = _Parser(text, var).parse()
    return SmoothFn(root, text, var, height)
