import math

import pytest

from bour_edge.errors import QuadratureFailure
from bour_edge.quadrature import _kronrod_panel, integrate, integrate_cumulative


def simpson(f, a, b, panels=4096):
    """Independent fixed-grid composite Simpson oracle."""
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3.0


def test_kronrod_polynomial_exactness():
    # the 15-point Kronrod rule integrates degree <= 22 exactly
    for deg in (7, 13, 22):
        value, _ = _kronrod_panel(lambda x, d=deg: x**d, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (deg + 1), abs=1e-15)


def test_known_integrals():
    value, err = integrate(math.sin, 0.0, math.pi, 1e-13)
    assert value == pytest.approx(2.0, abs=1e-13)
    assert err < 1e-12
    value, _ = integrate(lambda x: math.exp(-x * x), 0.0, 3.0, 1e-13)
    assert value == pytest.approx(math.erf(3.0) * math.sqrt(math.pi) / 2.0, abs=1e-13)


def test_orientation():
    forward, _ = integrate(math.cos, 0.0, 0.5, 1e-13)
    backward, _ = integrate(math.cos, 0.5, 0.0, 1e-13)
    assert backward == -forward
    assert integrate(math.cos, 0.3, 0.3)[0] == 0.0


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * math.sin(3 * x) * math.exp(-x), 0.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -1.0, 3.0),
    (lambda x: math.sqrt(1.0 + x * x) * math.cos(x), 0.0, 1.5),
])
def test_against_simpson_oracle(f, a, b):
    adaptive, _ = integrate(f, a, b, 1e-12)
    assert adaptive == pytest.approx(simpson(f, a, b), abs=1e-10)


def test_budget_failure():
    # integrable endpoint singularity with a tiny budget cannot reach 1e-15
    with pytest.raises(QuadratureFailure):
        integrate(lambda x: math.sqrt(abs(x)), 0.0, 1.0, 1e-15, max_subdivisions=3)


def test_cumulative_matches_prefix_integrals():
    nodes = [0.0, 0.2, 0.5, 0.9, 1.4]
    cumulative = integrate_cumulative(math.cos, nodes, 1e-13)
    for node, value in zip(nodes, cumulative):
        assert value == pytest.approx(math.sin(node), abs=1e-12)


def test_cumulative_descending_nodes():
    nodes = [0.0, -0.3, -0.8]
    cumulative = integrate_cumulative(math.cos, nodes, 1e-13)
    for node, value in zip(nodes, cumulative):
        assert value == pytest.approx(math.sin(node), abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_tolerances_that_are_not_positive_and_finite_are_refused(tol):
    # a NaN tolerance used to end the loop after one panel
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(math.cos, 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_cumulative(math.cos, [0.0, 0.5, 1.0], tol)


_SCALAR_CASES = [
    (math.sin, 0.0, math.pi, 1e-13),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-13),
    (lambda x: math.sqrt(abs(x) + 1e-3), 0.7, -0.9, 1e-11),
    (lambda x: x**7 - 3.0 * x, -2.0, 1.5, 1e-15),
]


@pytest.mark.parametrize("f,a,b,tol", _SCALAR_CASES)
def test_one_component_pass_is_the_scalar_pass_bit_for_bit(f, a, b, tol):
    value, err = integrate(f, a, b, tol)
    assert integrate(lambda x: (f(x),), a, b, tol) == ((value,), (err,))
    nodes = [a, 0.3 * a + 0.7 * b, b]
    assert [v for (v,) in integrate_cumulative(lambda x: (f(x),), nodes, tol)] == \
        integrate_cumulative(f, nodes, tol)


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def test_each_component_meets_tol_under_one_subdivision():
    # cos needs one panel on [-1, 1]; the narrow Lorentzian needs many
    easy, hard = math.cos, lambda x: 1.0 / (1.0 + 400.0 * x * x)
    exact = (2.0 * math.sin(1.0), math.atan(20.0) / 10.0)
    tol = 1e-12
    counts = [_counted(easy), _counted(hard)]
    for f in counts:
        integrate(f, -1.0, 1.0, tol)
    assert counts[0].calls == 15 < counts[1].calls
    pair = _counted(lambda x: (easy(x), hard(x)))
    values, errors = integrate(pair, -1.0, 1.0, tol)
    assert pair.calls == counts[1].calls  # the hard component sets the subdivision
    for value, err, want, f in zip(values, errors, exact, (easy, hard)):
        assert err <= tol
        assert abs(value - want) <= tol
        assert abs(value - integrate(f, -1.0, 1.0, 1e-15)[0]) <= tol
    # in either order
    swapped, _ = integrate(lambda x: (hard(x), easy(x)), -1.0, 1.0, tol)
    assert swapped == values[::-1]


def test_vector_orientation_and_empty_interval():
    f = lambda x: (math.cos(x), math.exp(x))  # noqa: E731
    forward, _ = integrate(f, 0.0, 0.5, 1e-13)
    backward, _ = integrate(f, 0.5, 0.0, 1e-13)
    assert backward == tuple(-v for v in forward)
    assert integrate(f, 0.3, 0.3) == ((0.0, 0.0), (0.0, 0.0))


def test_vector_cumulative_matches_prefix_integrals():
    nodes = [0.0, -0.3, -0.8]
    cumulative = integrate_cumulative(lambda x: (math.cos(x), math.sin(x)), nodes, 1e-13)
    assert cumulative[0] == (0.0, 0.0)
    for node, (c, s) in zip(nodes, cumulative):
        assert c == pytest.approx(math.sin(node), abs=1e-12)
        assert s == pytest.approx(1.0 - math.cos(node), abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_vector_integrands_refuse_the_same_tolerances(tol):
    f = lambda x: (math.cos(x), x)  # noqa: E731
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(f, 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_cumulative(f, [0.0, 0.5, 1.0], tol)


def test_vector_budget_failure():
    f = lambda x: (math.cos(x), math.sqrt(abs(x)))  # noqa: E731
    with pytest.raises(QuadratureFailure, match="not reached after 3 panels"):
        integrate(f, 0.0, 1.0, 1e-15, max_subdivisions=3)
