import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bour_edge._vec import cross, dot, fma, linspace, max_abs, solve2

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(finite, finite, finite)
def test_fma_rounds_once(a, b, c):
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        want = float(exact)
    except OverflowError:
        want = math.inf if exact > 0 else -math.inf
    if exact == 0:
        want = a * b + c  # IEEE's sign of an exact zero
    got = fma(a, b, c)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_fma_differs_from_the_unfused_expression():
    # 1 + 2^-52 squared is 1 + 2^-51 + 2^-104; the product alone rounds the last term away
    a = 1.0 + 2.0**-52
    assert a * a - 1.0 == 2.0**-51
    assert fma(a, a, -1.0) == 2.0**-51 + 2.0**-104


def test_fma_of_non_finite_operands_is_the_plain_expression():
    assert fma(math.inf, 2.0, 1.0) == math.inf
    assert math.isnan(fma(math.inf, 0.0, 1.0))
    assert math.isnan(fma(1.0, 2.0, math.nan))


def test_dot_fuses_each_term_after_the_first():
    a = (1.0 + 2.0**-52, 1.0 + 2.0**-52)
    assert dot(a, a) == fma(a[1], a[1], a[0] * a[0])
    assert dot((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == 32.0


def test_cross_is_orthogonal_and_antisymmetric():
    a, b = (1.0, 2.0, 3.0), (-4.0, 0.5, 2.0)
    c = cross(a, b)
    assert c == (2.5, -14.0, 8.5)
    assert cross(b, a) == tuple(-x for x in c)
    assert dot(a, c) == 0.0 and dot(b, c) == 0.0


def test_max_abs_propagates_nan_from_any_component():
    assert max_abs((-3.0, 2.0)) == 3.0
    assert math.isnan(max_abs((math.nan, 1.0)))
    assert math.isnan(max_abs((1.0, math.nan)))


@pytest.mark.parametrize("a, b, x", [
    (((2.0, 1.0), (1.0, 3.0)), (3.0, 5.0), (0.8, 1.4)),
    (((0.0, 1.0), (2.0, 0.0)), (3.0, 4.0), (2.0, 3.0)),  # needs the row swap
])
def test_solve2(a, b, x):
    assert solve2(a, b) == pytest.approx(x, rel=1e-15)


@pytest.mark.parametrize("a", [((0.0, 1.0), (0.0, 2.0)), ((1.0, 2.0), (2.0, 4.0))])
def test_solve2_refuses_a_singular_matrix(a):
    with pytest.raises(ValueError, match="singular matrix"):
        solve2(a, (1.0, 1.0))


def _matches_numpy(lo, hi, n):
    """linspace(lo, hi, n) is np.linspace's bit for bit; a NaN (0 * inf where the span
    overflows) matches a NaN."""
    got = np.array(linspace(lo, hi, n), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, n)
    nan = np.isnan(want)
    return (np.isnan(got) == nan).all() and got[~nan].tobytes() == want[~nan].tobytes()


@given(finite, finite, st.integers(min_value=0, max_value=300))
def test_linspace_matches_numpy_bit_for_bit(lo, hi, n):
    assert _matches_numpy(lo, hi, n)


@pytest.mark.parametrize("lo, hi, n", [
    (-0.8, 0.8, 2),  # the two ends only
    (0.2, 0.0, 6),  # descending, as revolution_path runs h -> 0
    (1.0, -3.5, 41),
    (0.0, 2.0 * math.pi, 60),
    (5e-324, 2e-323, 7),  # the step underflows to 0
    (-1e-322, 1e-322, 300),
    (1.0, 1.0 + 2.0**-52, 1000),
    (-1.7976931348623157e308, 1.7976931348623157e308, 5),  # the span overflows
    (3.0, 4.0, 1),
    (3.0, 4.0, 0),
])
def test_linspace_matches_numpy_on_edge_cases(lo, hi, n):
    assert all(type(v) is float for v in linspace(lo, hi, n))
    assert _matches_numpy(lo, hi, n)


@pytest.mark.parametrize("n", [2.0, 2.5, "3"])
def test_linspace_refuses_a_non_integer_count_as_numpy_does(n):
    with pytest.raises(TypeError):
        np.linspace(0.0, 1.0, n)
    with pytest.raises(TypeError):
        linspace(0.0, 1.0, n)
