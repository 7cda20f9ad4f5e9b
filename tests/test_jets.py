import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bour_edge.errors import DomainError, NotDivisible
from bour_edge.expr import parse_expr
from bour_edge.jets import (
    MAX_ORDER,
    Jet,
    constant_jet,
    jet_compose,
    jet_divide_by_power,
    jet_eval,
    jet_invert,
    jet_pow_real,
    jet_sqrt,
    variable_jet,
)


def test_sine_maclaurin():
    j = jet_eval(parse_expr("sin(s)"), 0.0, 3)
    assert j.coeffs == pytest.approx((0.0, 1.0, 0.0, -1.0 / 6.0), abs=1e-15)


def test_example_metric_function_jet():
    j = jet_eval(parse_expr("1 - s*cos(s) + sin(s)"), 0.0, 5)
    assert j.coeffs == pytest.approx((1.0, 0.0, 0.0, 1.0 / 3.0, 0.0, -1.0 / 30.0), abs=1e-15)


def test_constant_jet():
    j = jet_eval(parse_expr("7"), 2.0, 4)
    assert j.coeffs == (7.0, 0.0, 0.0, 0.0, 0.0)


_SYMPY_CASES = [
    "1 - s*cos(s) + sin(s)",
    "exp(s)*cos(2*s)",
    "sqrt(1 + s^2)",
    "(s + 2)/(s^2 + 1)",
    "sin(s)^3 - cos(s)^2",
    "exp(-s^2/2)",
    "(-s^2+2)*cos(s) + 2*s*sin(s) - 1",
]


@pytest.mark.parametrize("text", _SYMPY_CASES)
@pytest.mark.parametrize("base", [0.0, 0.4, -1.1])
def test_jets_match_symbolic_differentiation(text, base):
    s = sp.symbols("s")
    expr = sp.sympify(text.replace("^", "**"))
    j = jet_eval(parse_expr(text), base, 8)
    for i in range(9):
        expected = float(sp.diff(expr, s, i).subs(s, base))
        assert j.derivative_value(i) == pytest.approx(expected, rel=1e-10, abs=1e-10), (text, i)


def test_divide_by_power_shift():
    j = jet_eval(parse_expr("s*sin(s)"), 0.0, 5)
    quotient = jet_divide_by_power(j, 1)
    expected = jet_eval(parse_expr("sin(s)"), 0.0, 4)
    assert quotient.coeffs == pytest.approx(expected.coeffs, abs=1e-15)
    assert quotient.order == 4


def test_divide_by_power_order_two():
    j = jet_eval(parse_expr("s^2*sin(s)"), 0.0, 7)
    quotient = jet_divide_by_power(j, 2)
    expected = jet_eval(parse_expr("sin(s)"), 0.0, 5)
    assert quotient.coeffs == pytest.approx(expected.coeffs, abs=1e-15)


def test_divide_by_power_rejects_nonvanishing():
    j = jet_eval(parse_expr("1 + s"), 0.0, 4)
    with pytest.raises(NotDivisible):
        jet_divide_by_power(j, 1)


def test_max_order_enforced():
    with pytest.raises(ValueError):
        jet_eval(parse_expr("s"), 0.0, MAX_ORDER + 1)
    jet_eval(parse_expr("exp(s)"), 0.0, MAX_ORDER)  # at the cap is fine


def test_division_by_small_constant_raises_eagerly():
    num = jet_eval(parse_expr("1 + s"), 0.0, 4)
    den = constant_jet(1e-15, 0.0, 4)
    with pytest.raises(DomainError):
        num / den


def test_sqrt_and_pow_real_domain():
    with pytest.raises(DomainError):
        jet_sqrt(constant_jet(-1.0, 0.0, 3))
    with pytest.raises(DomainError):
        jet_pow_real(constant_jet(0.0, 0.0, 3), 0.5)


_expr_strategy = st.sampled_from([
    "sin(s)", "cos(s)", "exp(s/2)", "1 + s^2", "s^3 - 2*s", "sqrt(2 + s^2)",
    "s*cos(s)", "1/(2 + s)",
])


@given(fa=_expr_strategy, fb=_expr_strategy,
       base=st.floats(min_value=-1.2, max_value=1.2))
@settings(max_examples=150, deadline=None)
def test_product_rule_cauchy(fa, fb, base):
    order = 9
    a = jet_eval(parse_expr(fa), base, order)
    b = jet_eval(parse_expr(fb), base, order)
    product = jet_eval(parse_expr(fa) * parse_expr(fb), base, order)
    cauchy = a * b
    scale = max(max(abs(c) for c in cauchy.coeffs), 1.0)
    for got, want in zip(product.coeffs, cauchy.coeffs):
        assert abs(got - want) <= 1e-12 * scale


@given(fa=_expr_strategy, base=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_first_coefficient_matches_finite_difference(fa, base):
    f = parse_expr(fa)
    j = jet_eval(f, base, 4)
    eps = 1e-6
    fd = (f(base + eps) - f(base - eps)) / (2 * eps)
    assert abs(j.coeffs[1] - fd) < 1e-6


def test_taylor_vs_derivative_conversion():
    j = jet_eval(parse_expr("exp(s)"), 0.0, 6)
    assert j.derivatives() == pytest.approx(tuple(1.0 for _ in range(7)), rel=1e-14)
    assert j.derivative_value(5) == pytest.approx(1.0, rel=1e-14)


def test_antiderivative_and_differentiate_roundtrip():
    j = jet_eval(parse_expr("cos(2*s)"), 0.3, 8)
    back = j.antiderivative(5.0).differentiate()
    assert back.coeffs == pytest.approx(j.coeffs, rel=1e-14)


def test_compose_and_invert():
    f = jet_eval(parse_expr("sin(s)"), 0.0, 9)
    inv = jet_invert(f)
    # arcsin series: y + y^3/6 + 3 y^5/40 + 15 y^7/336
    assert inv.coeffs[1] == pytest.approx(1.0)
    assert inv.coeffs[3] == pytest.approx(1.0 / 6.0)
    assert inv.coeffs[5] == pytest.approx(3.0 / 40.0)
    assert inv.coeffs[7] == pytest.approx(15.0 / 336.0)
    ident = jet_compose(f, inv)
    assert ident.coeffs[1] == pytest.approx(1.0)
    assert max(abs(c) for c in ident.coeffs[2:]) < 1e-13


def test_jet_polynomial_evaluation():
    j = jet_eval(parse_expr("1 + 2*s + 3*s^2"), 0.0, 4)
    assert j(0.5) == pytest.approx(1 + 1 + 0.75)


def test_variable_jet_layout():
    v = variable_jet(1.5, 3)
    assert v.coeffs == (1.5, 1.0, 0.0, 0.0)
    assert isinstance(v, Jet)


def _assert_order_zero_is_float(f, x):
    """The order-0 jet value is the float value bit for bit, or both raise."""
    try:
        want = f(x)
    except DomainError:
        with pytest.raises(DomainError):
            jet_eval(f, x, 0)
    else:
        assert jet_eval(f, x, 0).value.hex() == want.hex()


@pytest.mark.parametrize("text, x", [("1/s", 1e-200), ("sqrt(s)", 0.0)])
def test_order_zero_jet_guards_match_float(text, x):
    _assert_order_zero_is_float(parse_expr(text), x)


def test_sqrt_at_zero_has_no_derivative():
    with pytest.raises(DomainError):
        jet_eval(parse_expr("sqrt(s)"), 0.0, 1)


@pytest.mark.parametrize("text, x", [
    ("exp(s)", 800.0), ("(1e200*s)^2", 1.0),
    ("cos(1e200*1e200*s)", 1.0), ("sin(1e200*1e200*s)", 1.0), ("sin(0*(1e200*1e200*s))", 1.0),
])
def test_overflow_is_a_domain_error(text, x):
    f = parse_expr(text)
    with pytest.raises(DomainError):
        f(x)
    with pytest.raises(DomainError):
        jet_eval(f, x, 2)


@given(fa=_expr_strategy, fb=_expr_strategy, op=st.sampled_from("+-*/"),
       base=st.floats(min_value=-1.2, max_value=1.2))
@settings(max_examples=200, deadline=None)
def test_order_zero_jet_is_float_evaluation(fa, fb, op, base):
    _assert_order_zero_is_float(parse_expr(f"({fa}) {op} ({fb})"), base)
