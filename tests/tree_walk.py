"""The evaluations that generated code replaced, kept as oracles.

``walk_eval(node, x, ops)`` evaluates a tree node by node, left to right,
with no shared subtrees, on the backend ``ops`` (``expr.FLOAT`` or
``jets.JET``). The compiled functions must agree with it bit for bit.

``walked_rates(data, w)`` is ``bour.profile_rates`` at the float point w as
it was composed before the point kernel: U(w), V(w) and ``sqrt_at(w)``, each
evaluated on its own. ``EdgeData.point_kernel`` must agree with it bit for
bit, and raise the same errors.
"""

from bour_edge.bour import profile_rates
from bour_edge.errors import DomainError
from bour_edge.expr import FLOAT, BinOp, Call, Const, IntPow, Neg, Var
from bour_edge.jets import JET, _check_order, variable_jet
from bour_edge.profile import sqrt_at


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
        return node.value if ops.const is None else ops.const(node.value, x)
    if kind is IntPow:
        return ops.pow(_walk(node.base, x, ops), node.exponent)
    if kind is Call:
        return getattr(ops, node.fn)(_walk(node.arg, x, ops))
    if kind is Neg:
        return -_walk(node.arg, x, ops)
    raise TypeError(f"unknown node {node!r}")


def walk_eval(node, x, ops):
    """The tree ``node`` at ``x`` on the backend ``ops``; overflow is a DomainError."""
    try:
        return _walk(node, x, ops)
    except OverflowError as exc:
        raise DomainError(f"overflow in expression evaluation ({exc})") from exc


def walked_call(f, x):
    """``SmoothFn.__call__`` by the walk."""
    return walk_eval(f.root, float(x), FLOAT)


def walked_jet_eval(f, base, order):
    """``jets.jet_eval`` by the walk."""
    _check_order(order)
    return walk_eval(f.root, variable_jet(float(base), order), JET)


def walked_rates(data, w):
    """(x, x', z', theta_s) at w from U, V and sqrt_at, evaluated one by one."""
    return profile_rates(data, w**data.k, data.u_value(w), data.v_value(w), sqrt_at(w))
