"""Compiled expression functions against the tree walk, and the parser's depth bound."""

import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_jets import _expr_strategy
from tree_walk import walk_eval

from bour_edge import bour, natural
from bour_edge.errors import ExprSyntaxError
from bour_edge.expr import FLOAT, MAX_DEPTH, BinOp, Const, Emitter, Var, define, differentiate, parse_expr
from bour_edge.jets import JET, jet_eval, variable_jet


def _bits(value):
    """Exact bits of a float or of a jet's coefficients; hex keeps signed zeros."""
    if isinstance(value, float):
        return value.hex()
    return value.base.hex(), tuple(c.hex() for c in value.coeffs)


def _outcome(call):
    try:
        return "value", _bits(call())
    except Exception as exc:  # the comparison covers every error type
        return "error", type(exc), str(exc)


def _assert_compiled_is_walked(f, x):
    assert _outcome(lambda: f(x)) == _outcome(lambda: walk_eval(f.root, float(x), FLOAT))
    assert _outcome(lambda: jet_eval(f, x, 3)) == _outcome(
        lambda: walk_eval(f.root, variable_jet(float(x), 3), JET))


@given(fa=_expr_strategy, fb=_expr_strategy, op=st.sampled_from("+-*/"),
       base=st.floats(min_value=-2.5, max_value=2.5))
@settings(max_examples=300, deadline=None)
def test_compiled_is_walked_bit_for_bit(fa, fb, op, base):
    f = parse_expr(f"({fa}) {op} ({fb})")
    _assert_compiled_is_walked(f, base)
    _assert_compiled_is_walked(f.prime, base)


_s = parse_expr("s")


@pytest.mark.parametrize("f, x", [
    (_s * -0.0 + _s * 0.0, 1.0),  # Const(-0.0) == Const(0.0), but the two must not merge
    (_s * 0.0 + _s * -0.0, 1.0),
    (parse_expr("1e999"), 0.5),
    (parse_expr("0*sqrt(s)"), 0.0),
    (parse_expr("1/s"), 1e-200),
    (parse_expr("exp(2000*s^2)"), 1.0),
    (parse_expr("sin(1e200*1e200*s)"), 1.0),
    (parse_expr("sin(s)*sin(s) - 1/(s - 1) + 1/(s - 1)"), 1.0),
    (parse_expr("sin(s)*sin(s) + sin(s)^2/(s^-2 + 1)"), 0.3),
    (parse_expr("2.5"), -1.0),
    (parse_expr("-s"), 0.0),
])
def test_compiled_named_cases(f, x):
    _assert_compiled_is_walked(f, x)
    _assert_compiled_is_walked(f.prime, x)


def test_signed_zero_literals_stay_apart():
    assert (_s * -0.0 + _s * 0.0)(1.0).hex() == "0x0.0p+0"
    assert (_s * -0.0 - _s * 0.0)(1.0).hex() == "-0x0.0p+0"


def test_compiled_functions_are_cached():
    U = parse_expr("1 - s*cos(s) + sin(s)")
    assert U.float_fn is U.float_fn
    assert U.jet_fn is U.jet_fn
    assert U.prime.float_fn is U.prime.float_fn


@pytest.mark.parametrize("build, bad_offset", [
    (lambda n: "+".join(["s"] * n), lambda n: 2 * n - 3),  # height n: a left-deep sum
    (lambda n: "(" * n + "s" + ")" * n, lambda n: n - 1),  # n nested parentheses
    (lambda n: "sin(" * (n - 1) + "s" + ")" * (n - 1), lambda n: 0),
    (lambda n: "-" * (n - 1) + "s", lambda n: 0),
    (lambda n: "s" + "^1" * (n - 1), lambda n: 2 * n - 3),
])
def test_parser_depth_bound(build, bad_offset):
    parse_expr(build(MAX_DEPTH))
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as err:
        parse_expr(build(MAX_DEPTH + 1))
    assert err.value.position == bad_offset(MAX_DEPTH + 1)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _with_frames_left(frames, call):
    """``call()`` with only ``frames`` frames left below the recursion limit."""
    def descend(n):
        return call() if n == 0 else descend(n - 1)
    return descend(sys.getrecursionlimit() - _stack_depth() - frames)


@pytest.mark.parametrize("text", [
    "(" * MAX_DEPTH + "s + 2" + ")" * MAX_DEPTH,  # deepest nesting for the parser
    "1/(" * (MAX_DEPTH - 1) + "s" + ")" * (MAX_DEPTH - 1),  # derivative three times as deep
    "+".join(["s"] * MAX_DEPTH),
])
def test_trees_at_the_bound_need_under_600_frames(text):
    # Parsing, differentiate, to_source and both compiled forms of a tree at
    # the bound fit in 600 frames, well inside the default limit of 1000.
    def pipeline():
        f = parse_expr(text)
        f.to_source()
        f.prime.to_source()
        return f(0.5), f.prime(0.5), jet_eval(f, 0.5, 3), jet_eval(f.prime, 0.5, 2)

    assert _with_frames_left(600, pipeline) == pipeline()


def test_a_used_datum_still_pickles(edge_k1):
    edge_k1.U.prime(0.3)
    jet_eval(edge_k1.U, 0.3, 2)
    bour.sample_mesh(edge_k1, rows=6, cols=5)
    natural.roundtrip(edge_k1, n_tab=128)
    assert edge_k1._point_kernel is not None
    copy = pickle.loads(pickle.dumps(edge_k1))
    assert copy == edge_k1
    assert copy.U(0.3) == edge_k1.U(0.3)
    assert copy.U.prime(0.3) == edge_k1.U.prime(0.3)
    assert copy._point_kernel is None
    for w in (-0.7, -5e-4, 0.0, 0.3):
        assert ([v.hex() for v in copy.point_kernel(w)]
                == [v.hex() for v in edge_k1.point_kernel(w)])
    assert copy.point_kernel is not edge_k1.point_kernel


def test_the_point_kernel_computes_a_shared_subtree_once(edge_k1):
    # the README datum: U = 1 - s cos(s) + sin(s) and U' = s sin(s) share cos(s)
    # and sin(s), which the kernel calls once each
    source = edge_k1.point_kernel.source
    assert source.count("_cos(") == 1 and source.count("_sin(") == 1


def test_arithmetic_refuses_a_tree_past_the_bound():
    f = parse_expr("s")
    for _ in range(MAX_DEPTH - 1):
        f = f + 1.0
    assert f.height == MAX_DEPTH
    with pytest.raises(ValueError, match=f"nested too deeply \\(more than {MAX_DEPTH} levels\\)"):
        f + 1.0
    with pytest.raises(ValueError, match="nested too deeply"):
        -f
    with pytest.raises(ValueError, match="nested too deeply"):
        f**2


def test_arithmetic_tree_at_the_bound_evaluates_differentiates_and_prints():
    f = parse_expr("s")
    for _ in range(MAX_DEPTH - 1):
        f = 0.5 * f if f.height % 2 else f + 1.0
    assert f.height == MAX_DEPTH
    assert f.source_text == ""
    reparsed = parse_expr(f.to_source())
    assert reparsed.root == f.root and reparsed.height == MAX_DEPTH
    assert walk_eval(f.root, 0.3, FLOAT).hex() == f(0.3).hex()
    assert f.prime(0.3) == pytest.approx(jet_eval(f, 0.3, 1).coeffs[1], rel=1e-15)


def test_arithmetic_height_check_does_not_walk_shared_subtrees():
    # f * f shares its operands: a tree of height n has n distinct nodes but
    # 2^n - 1 root-to-leaf paths, so only a check that reads heights returns.
    f = parse_expr("s")
    for _ in range(MAX_DEPTH - 1):
        f = f * f
    assert f.height == MAX_DEPTH
    with pytest.raises(ValueError, match="nested too deeply"):
        f * f


def _distinct_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, name) for name in ("arg", "left", "right", "base")
                         if hasattr(node, name))
    return len(seen)


def _squared(n):
    f = parse_expr("s")
    for _ in range(n):
        f = f * f
    return f


def test_differentiate_shares_the_derivative_of_a_shared_subtree():
    n = 12
    f = _squared(n)
    assert _distinct_nodes(f.root) == n + 1
    assert _distinct_nodes(differentiate(f.root)) <= 5 * n


def test_compiled_squaring_chain_is_linear_in_its_height():
    # s^(2^40) by 40 squarings: 2^40 root-to-leaf paths, 41 distinct nodes
    f = _squared(40)
    assert f(1.0) == 1.0
    assert f.prime(1.0) == 2.0**40


def test_an_emitter_keeps_the_trees_it_has_named():
    # The Emitter knows a node by its id; a tree dropped after it was emitted must
    # not lend its id, and so its name, to a tree built later.
    code = Emitter(FLOAT)
    names = [code.emit(BinOp("+", Var(), Const(float(i)))) for i in range(64)]
    assert len(set(names)) == 64
    f = define(code.env, "x", (), [*code.lines, f"return ({', '.join(names)},)"])
    assert f(0.5) == tuple(0.5 + i for i in range(64))
