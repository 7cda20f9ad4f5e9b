"""First derivatives from the derivative tree (SmoothFn.prime)."""

import math

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_jets import _SYMPY_CASES, _expr_strategy

from bour_edge import natural
from bour_edge.errors import DomainError
from bour_edge.expr import parse_expr
from bour_edge.jets import jet_eval


def test_jet_sqrt_refuses_a_derivative_divisor_below_the_floor():
    # sqrt'(1e-30) = 1/(2e-15): the divisor 2 sqrt(s) is below the division floor.
    with pytest.raises(DomainError):
        jet_eval(parse_expr("sqrt(s)"), 1e-30, 1)
    with pytest.raises(DomainError):
        parse_expr("sqrt(s)").prime(1e-30)


@pytest.mark.parametrize("text", _SYMPY_CASES)
@pytest.mark.parametrize("base", [0.0, 0.4, -1.1])
def test_prime_matches_sympy(text, base):
    s = sp.symbols("s")
    expected = float(sp.diff(sp.sympify(text.replace("^", "**")), s).subs(s, base))
    assert parse_expr(text).prime(base) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("s", [-0.8, -0.1, 0.0, 0.3, 0.7])
def test_prime_closed_forms(s):
    # README datum: U' = s sin s; edge_k2: U' = s^2 sin s.
    assert parse_expr("1 - s*cos(s) + sin(s)").prime(s) == pytest.approx(s * math.sin(s), abs=1e-15)
    U2 = parse_expr("(-s^2+2)*cos(s) + 2*s*sin(s) - 1")
    assert U2.prime(s) == pytest.approx(s * s * math.sin(s), abs=1e-15)


def _outcome(call):
    try:
        return call()
    except DomainError:
        return None


@given(fa=_expr_strategy, fb=_expr_strategy, op=st.sampled_from("+-*/"),
       base=st.floats(min_value=-2.5, max_value=2.5))
@settings(max_examples=300, deadline=None)
def test_prime_refuses_and_agrees_with_the_order_one_jet(fa, fb, op, base):
    f = parse_expr(f"({fa}) {op} ({fb})")
    if _outcome(lambda: f(base)) is None:
        return
    got = _outcome(lambda: f.prime(base))
    want = _outcome(lambda: jet_eval(f, base, 1).coeffs[1])
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("text, x", [
    ("sqrt(s)", 0.0), ("0*sqrt(s)", 0.0), ("sqrt(s)^0", 0.0), ("sqrt(0*s)", 0.3),
    ("s^0", 0.0), ("1/s^2", 2e-7), ("s^-3", 1e-4), ("1/(s - 0.5)", 0.5 + 1e-13),
])
def test_prime_guards_match_the_order_one_jet(text, x):
    f = parse_expr(text)
    f(x)
    got = _outcome(lambda: f.prime(x))
    want = _outcome(lambda: jet_eval(f, x, 1).coeffs[1])
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-12)


def test_prime_is_built_once_and_prints_to_its_tree():
    U = parse_expr("1 - s*cos(s) + sin(s) + 0.1*s^4 - 0.05*s^6*exp(s)/(2 + s^2)^-2")
    assert U.prime is U.prime
    assert parse_expr(U.prime.to_source()).root == U.prime.root
    assert parse_expr(U.prime.prime.to_source()).root == U.prime.prime.root


def test_smooth_profile_rates_match_sympy():
    u = sp.symbols("s")
    x_text, z_text = "1 + s^2 + sin(s)/3", "s^3 - s*exp(s/2)"
    profile = natural.HelicoidalInput(parse_expr(x_text), parse_expr(z_text), h=0.2, interval=(-1.0, 1.0))
    x_sym, z_sym = (sp.sympify(t.replace("^", "**")) for t in (x_text, z_text))
    for base in (-0.6, 0.0, 0.45):
        x, xdot, zdot = profile.rates(base)
        assert x == parse_expr(x_text)(base)
        assert xdot == pytest.approx(float(sp.diff(x_sym, u).subs(u, base)), rel=1e-12, abs=1e-14)
        assert zdot == pytest.approx(float(sp.diff(z_sym, u).subs(u, base)), rel=1e-12, abs=1e-14)
