"""Arithmetic on the small vectors of the oracles and classifiers, as tuples.

A dot product is a chain of fused multiply-adds (one rounding per term after
the first product), which is what an FMA BLAS ``ddot`` computes, and the
2x2 solve keeps LAPACK ``dgesv``'s order of operations, and ``linspace``
numpy's. Values computed through numpy on such hardware therefore keep their
bytes here.
"""

from __future__ import annotations

import math
import operator


def fma(a, b, c):
    """a * b + c with a single rounding; non-finite operands take the plain expression."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    num = na * nb * dc + nc * da * db
    if num == 0:  # exact cancellation: the plain expression has IEEE's sign of zero
        return a * b + c
    try:
        return num / (da * db * dc)  # int / int is correctly rounded
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = fma(x, y, acc)
    return acc


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def max_abs(v):
    """max |v_i|; NaN when a component is NaN, as numpy's max."""
    values = [abs(x) for x in v]
    return math.nan if any(x != x for x in values) else max(values)


def solve2(a, b):
    """x with a x = b for a 2x2 matrix a (rows) by partial pivoting.

    The multiplier is scaled by the pivot's reciprocal and the substitutions
    are fused, in dgesv's order. ValueError if a pivot is 0.
    """
    (a00, a01), (a10, a11) = a
    b0, b1 = b
    if abs(a10) > abs(a00):
        (a00, a01, b0), (a10, a11, b1) = (a10, a11, b1), (a00, a01, b0)
    if a00 == 0.0:
        raise ValueError("singular matrix")
    l10 = a10 * (1.0 / a00)
    u11 = a11 - l10 * a01
    if u11 == 0.0:
        raise ValueError("singular matrix")
    x1 = fma(-l10, b0, b1) / u11
    return fma(-a01, x1, b0) / a00, x1


def linspace(lo, hi, n):
    """n evenly spaced floats from lo to hi as a list, bit for bit numpy 2's ``np.linspace``.

    Value i is i * step + lo with step = (hi - lo) / (n - 1), or
    (i / (n - 1)) * (hi - lo) + lo where step underflows to 0; the last is hi.
    A non-integer n is a TypeError and a negative one a ValueError, as in numpy.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"Number of samples, {n}, must be non-negative.")
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    if n < 2:
        return [0.0 * delta + lo] * n
    div = n - 1
    step = delta / div
    if step == 0.0:
        values = [(i / div) * delta + lo for i in range(n)]
    else:
        values = [i * step + lo for i in range(n)]
    values[-1] = hi
    return values
