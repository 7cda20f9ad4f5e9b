import heapq
import math

import pytest

from bour_edge import quadrature
from bour_edge.errors import QuadratureFailure
from bour_edge.quadrature import _XGK, _panel, integrate, integrate_cumulative, pointwise


def simpson(f, a, b, panels=4096):
    """Independent fixed-grid composite Simpson oracle."""
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3.0


def one(f):
    """f as a one-component integrand."""
    return pointwise(lambda x: (f(x),))


def test_kronrod_polynomial_exactness():
    # the 15-point Kronrod rule integrates degree <= 22 exactly
    for deg in (7, 13, 22):
        (value,), _ = _panel(pointwise(lambda x, d=deg: (x**d,)), 0.0, 1.0)
        assert value == pytest.approx(1.0 / (deg + 1), abs=1e-15)


def test_known_integrals():
    (value,), (err,) = integrate(one(math.sin), 0.0, math.pi, 1e-13)
    assert value == pytest.approx(2.0, abs=1e-13)
    assert err < 1e-12
    (value,), _ = integrate(pointwise(lambda x: (math.exp(-x * x),)), 0.0, 3.0, 1e-13)
    assert value == pytest.approx(math.erf(3.0) * math.sqrt(math.pi) / 2.0, abs=1e-13)


def test_orientation():
    (forward,), _ = integrate(one(math.cos), 0.0, 0.5, 1e-13)
    (backward,), _ = integrate(one(math.cos), 0.5, 0.0, 1e-13)
    assert backward == -forward
    assert integrate(one(math.cos), 0.3, 0.3)[0] == (0.0,)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * math.sin(3 * x) * math.exp(-x), 0.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -1.0, 3.0),
    (lambda x: math.sqrt(1.0 + x * x) * math.cos(x), 0.0, 1.5),
])
def test_against_simpson_oracle(f, a, b):
    (adaptive,), _ = integrate(one(f), a, b, 1e-12)
    assert adaptive == pytest.approx(simpson(f, a, b), abs=1e-10)


def test_budget_failure(monkeypatch):
    # integrable endpoint singularity with a tiny budget cannot reach 1e-15
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
    with pytest.raises(QuadratureFailure):
        integrate(pointwise(lambda x: (math.sqrt(abs(x)),)), 0.0, 1.0, 1e-15)


def test_cumulative_matches_prefix_integrals():
    nodes = [0.0, 0.2, 0.5, 0.9, 1.4]
    cumulative = integrate_cumulative(one(math.cos), nodes, 1e-13)
    for node, (value,) in zip(nodes, cumulative):
        assert value == pytest.approx(math.sin(node), abs=1e-12)


def test_cumulative_descending_nodes():
    nodes = [0.0, -0.3, -0.8]
    cumulative = integrate_cumulative(one(math.cos), nodes, 1e-13)
    for node, (value,) in zip(nodes, cumulative):
        assert value == pytest.approx(math.sin(node), abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_tolerances_that_are_not_positive_and_finite_are_refused(tol):
    # a NaN tolerance used to end the loop after one panel
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(one(math.cos), 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_cumulative(one(math.cos), [0.0, 0.5, 1.0], tol)


_SCALAR_CASES = [
    (math.sin, 0.0, math.pi, 1e-13),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-13),
    (lambda x: math.sqrt(abs(x) + 1e-3), 0.7, -0.9, 1e-11),
    (lambda x: x**7 - 3.0 * x, -2.0, 1.5, 1e-15),
]
# (value, error estimate, cumulative integrals at the nodes a, 0.3 a + 0.7 b and b)
# of each case by float.hex, keyed by (a, b, tol), as computed by the
# scalar-integrand pass this module had before every integrand became a tuple.
_SCALAR_BITS = {
    (0.0, math.pi, 1e-13):
        ("0x1.0000000000000p+1", "0x1.e853bfdbcfa74p-48",
         ("0x0.0p+0", "0x1.96791823aad2ep+0", "0x1.0000000000000p+1")),
    (-1.0, 1.0, 1e-13):
        ("0x1.1945c10eaa046p-1", "0x1.1a981e1ad0000p-46",
         ("0x0.0p+0", "0x1.fc043b9a7387dp-2", "0x1.1945c10eaa046p-1")),
    (0.7, -0.9, 1e-11):
        ("-0x1.ec3bf96144844p-1", "0x1.b6fd7f02bf700p-40",
         ("0x0.0p+0", "-0x1.258d853949d94p-1", "-0x1.ec3bf9614484ap-1")),
    (-2.0, 1.5, 1e-15):
        ("-0x1.a2bdfffffffffp+4", "0x1.618dab0184066p-61",
         ("0x0.0p+0", "-0x1.a4db4c8f8fd55p+4", "-0x1.a2bdffffffffdp+4")),
}


@pytest.mark.parametrize("f,a,b,tol", _SCALAR_CASES)
def test_one_component_pass_is_the_scalar_pass_bit_for_bit(f, a, b, tol):
    (value,), (err,) = integrate(one(f), a, b, tol)
    nodes = [a, 0.3 * a + 0.7 * b, b]
    cumulative = tuple(v.hex() for (v,) in integrate_cumulative(one(f), nodes, tol))
    assert (value.hex(), err.hex(), cumulative) == _SCALAR_BITS[a, b, tol]


def _counted(f):
    """The batched integrand f, counting the points it reads."""
    def g(xs):
        g.calls += len(xs)
        return f(xs)
    g.calls = 0
    return g


def test_each_component_meets_tol_under_one_subdivision():
    # cos needs one panel on [-1, 1]; the narrow Lorentzian needs many
    easy, hard = math.cos, lambda x: 1.0 / (1.0 + 400.0 * x * x)
    exact = (2.0 * math.sin(1.0), math.atan(20.0) / 10.0)
    tol = 1e-12
    counts = [_counted(one(easy)), _counted(one(hard))]
    for f in counts:
        integrate(f, -1.0, 1.0, tol)
    assert counts[0].calls == 15 < counts[1].calls
    pair = _counted(pointwise(lambda x: (easy(x), hard(x))))
    values, errors = integrate(pair, -1.0, 1.0, tol)
    assert pair.calls == counts[1].calls  # the hard component sets the subdivision
    for value, err, want, f in zip(values, errors, exact, (easy, hard)):
        assert err <= tol
        assert abs(value - want) <= tol
        assert abs(value - integrate(one(f), -1.0, 1.0, 1e-15)[0][0]) <= tol
    # in either order
    swapped, _ = integrate(pointwise(lambda x: (hard(x), easy(x))), -1.0, 1.0, tol)
    assert swapped == values[::-1]


def test_vector_orientation_and_empty_interval():
    f = pointwise(lambda x: (math.cos(x), math.exp(x)))
    forward, _ = integrate(f, 0.0, 0.5, 1e-13)
    backward, _ = integrate(f, 0.5, 0.0, 1e-13)
    assert backward == tuple(-v for v in forward)
    assert integrate(f, 0.3, 0.3) == ((0.0, 0.0), (0.0, 0.0))


def test_vector_cumulative_matches_prefix_integrals():
    nodes = [0.0, -0.3, -0.8]
    f = pointwise(lambda x: (math.cos(x), math.sin(x)))
    cumulative = integrate_cumulative(f, nodes, 1e-13)
    assert cumulative[0] == (0.0, 0.0)
    assert integrate_cumulative(f, nodes[:1]) == [(0.0, 0.0)]  # a single node keeps the shape
    for node, (c, s) in zip(nodes, cumulative):
        assert c == pytest.approx(math.sin(node), abs=1e-12)
        assert s == pytest.approx(1.0 - math.cos(node), abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_vector_integrands_refuse_the_same_tolerances(tol):
    f = pointwise(lambda x: (math.cos(x), x))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate(f, 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integrate_cumulative(f, [0.0, 0.5, 1.0], tol)


def test_vector_budget_failure(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
    f = pointwise(lambda x: (math.cos(x), math.sqrt(abs(x))))
    with pytest.raises(QuadratureFailure, match="not reached after 3 panels"):
        integrate(f, 0.0, 1.0, 1e-15)


def test_a_panel_reads_its_15_points_in_one_call_in_the_scalar_order():
    calls = []

    def f(xs):
        calls.append(list(xs))
        return [(x, 1.0) for x in xs]

    a, b = -0.3, 1.1
    _panel(f, a, b)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    # the points at which the scalar rule called its integrand, one by one
    want = [mid]
    for x in _XGK[:7]:
        want += [mid - half * x, mid + half * x]
    assert [[x.hex() for x in xs] for xs in calls] == [[x.hex() for x in want]]


def _heap_integrate(f, a, b, tol):
    """integrate as written before the first panel could be returned on its own:
    the heap is built whatever the first panel's errors are."""
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    values, errors = _panel(f, a, b)
    heap = [(-max(errors), a, b, values, errors)]
    total_val, total_err = values, errors
    while any(e > tol for e in total_err):
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = _panel(f, pa, pm)
        rv, re = _panel(f, pm, pb)
        total_val = [t + (l + r - p) for t, l, r, p in zip(total_val, lv, rv, pval)]
        total_err = [t + (l + r - p) for t, l, r, p in zip(total_err, le, re, perr)]
        heapq.heappush(heap, (-max(le), pa, pm, lv, le))
        heapq.heappush(heap, (-max(re), pm, pb, rv, re))
    return tuple(sign * v for v in total_val), tuple(total_err)


@pytest.mark.parametrize("f,a,b,tol,one_panel", [
    (lambda x: (math.cos(x), x * x), 0.0, 0.5, 1e-12, True),
    (lambda x: (math.cos(x), math.exp(x)), 0.7, -0.2, 1e-13, True),  # reversed
    (lambda x: (1.0 / (1.0 + 400.0 * x * x), math.cos(x)), -1.0, 1.0, 1e-12, False),
    (lambda x: (math.nan, math.cos(x)), 0.0, 1.0, 1e-12, True),  # a NaN error ends at once
])
def test_the_one_panel_return_is_the_adaptive_path(f, a, b, tol, one_panel):
    counted = _counted(pointwise(f))
    got = integrate(counted, a, b, tol)
    want = _heap_integrate(pointwise(f), a, b, tol)
    assert [[v.hex() for v in part] for part in got] == [[v.hex() for v in part] for part in want]
    assert (counted.calls == 15) == one_panel
