"""Truncated Taylor ("jet") arithmetic.

A jet stores the Taylor coefficients c_i = f^(i)(base)/i! of a function at a
base point, truncated at a configurable order. Storing Taylor coefficients
rather than raw derivatives keeps high-order arithmetic well conditioned
(no factorial growth); conversion helpers are provided.

All recurrences are the standard ones for truncated power series: Cauchy
products, reciprocal/quotient recursion, sin/cos pair recursion, exp and
sqrt recursions, term-wise differentiation/integration, composition and
compositional inversion. ``JET`` is the jet backend of ``expr.compile_tree``:
``jet_eval`` runs a tree's compiled jet function (``SmoothFn.jet_fn``), and
the division, sqrt and sin/cos guards are the ones ``expr`` defines, applied
to the constant term; at order >= 1, ``jet_sqrt`` also floors its divisor
2 sqrt(c_0). First derivatives come from ``SmoothFn.prime``, not from jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NotDivisible
from .expr import DIV_FLOOR, Backend, SmoothFn, check_angle, check_divisor, check_sqrt

MAX_ORDER = 32


def _check_order(order):
    if order < 0:
        raise ValueError("jet order must be non-negative")
    if order > MAX_ORDER:
        raise ValueError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")


def require_order(needed, carried, needs):
    """ValueError unless series carried to order ``carried`` reach ``needed``.

    ``needs`` says who needs which series, as in "the natural chart at k = 8
    needs the x and z series".
    """
    if needed > carried:
        raise ValueError(f"{needs} at s = 0 to order {needed}, but they stop at order "
                         f"{carried} (jets.MAX_ORDER = {MAX_ORDER})")


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients c_0..c_M of a scalar function at ``base``."""

    base: float
    coeffs: tuple

    def __post_init__(self):
        _check_order(len(self.coeffs) - 1)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def derivative_value(self, i):
        """f^(i)(base) recovered from the stored Taylor coefficient."""
        if i > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {i}")
        return self.coeffs[i] * math.factorial(i)

    def derivatives(self):
        return tuple(c * math.factorial(i) for i, c in enumerate(self.coeffs))

    def truncated(self, order):
        if order >= self.order:
            return self
        return Jet(self.base, self.coeffs[: order + 1])

    def differentiate(self):
        """Jet of f', one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(self.base, tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))

    def antiderivative(self, constant=0.0):
        """Jet of the antiderivative with value ``constant`` at base; one order higher."""
        return Jet(self.base, (float(constant),) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def __call__(self, x):
        """Evaluate the truncated polynomial at ``x`` (Horner)."""
        dx = x - self.base
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * dx + c
        return acc

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, (int, float)):
            other = constant_jet(float(other), self.base, self.order)
        if other.base != self.base:
            raise ValueError("jet bases differ")
        n = min(self.order, other.order)
        return self.truncated(n), other.truncated(n)

    def __add__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Jet(a.base, tuple(y - x for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return Jet(self.base, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self._pair(other)
        n = a.order
        # The i = 0 terms seed the sums, so the value is the plain float product.
        a0 = a.coeffs[0]
        out = [a0 * y for y in b.coeffs]
        for i in range(1, n + 1):
            x = a.coeffs[i]
            if x == 0.0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += x * b.coeffs[j]
        return Jet(a.base, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        check_divisor(b.coeffs[0])
        n = a.order
        out = [0.0] * (n + 1)
        for j in range(n + 1):
            acc = a.coeffs[j]
            for i in range(j):
                acc -= out[i] * b.coeffs[j - i]
            out[j] = acc / b.coeffs[0]
        return Jet(a.base, tuple(out))

    def __rtruediv__(self, other):
        return constant_jet(float(other), self.base, self.order) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("jet ** requires an integer exponent; use jet_pow_real")
        if n < 0:
            return 1.0 / self ** (-n)
        result = constant_jet(1.0, self.base, self.order)
        factor = self
        p = n
        while p:
            if p & 1:
                result = result * factor
            p >>= 1
            if p:
                factor = factor * factor
        # The value is the float power, as a float evaluation computes it.
        return Jet(self.base, (self.coeffs[0] ** n,) + result.coeffs[1:])


def constant_jet(value, base=0.0, order=0):
    return Jet(base, (float(value),) + (0.0,) * order)


def variable_jet(base, order):
    coeffs = [0.0] * (order + 1)
    coeffs[0] = float(base)
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(float(base), tuple(coeffs))


def jet_sin_cos(f):
    """Jets of (sin f, cos f)."""
    check_angle(f.coeffs[0])
    n = f.order
    s = [0.0] * (n + 1)
    c = [0.0] * (n + 1)
    s[0] = math.sin(f.coeffs[0])
    c[0] = math.cos(f.coeffs[0])
    for j in range(1, n + 1):
        ss = 0.0
        cc = 0.0
        for i in range(1, j + 1):
            ss += i * f.coeffs[i] * c[j - i]
            cc += i * f.coeffs[i] * s[j - i]
        s[j] = ss / j
        c[j] = -cc / j
    return Jet(f.base, tuple(s)), Jet(f.base, tuple(c))


def jet_exp(f):
    n = f.order
    h = [0.0] * (n + 1)
    h[0] = math.exp(f.coeffs[0])
    for j in range(1, n + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += i * f.coeffs[i] * h[j - i]
        h[j] = acc / j
    return Jet(f.base, tuple(h))


def jet_sqrt(f):
    check_sqrt(f.coeffs[0])
    n = f.order
    h = [0.0] * (n + 1)
    h[0] = math.sqrt(f.coeffs[0])
    if n:
        check_divisor(2.0 * h[0])
    for j in range(1, n + 1):
        acc = f.coeffs[j]
        for i in range(1, j):
            acc -= h[i] * h[j - i]
        h[j] = acc / (2.0 * h[0])
    return Jet(f.base, tuple(h))


def jet_pow_real(f, alpha):
    """f ** alpha for real alpha; requires f(base) > 0."""
    if f.coeffs[0] <= 0.0:
        raise DomainError(f"real power of non-positive jet value {f.coeffs[0]!r}")
    n = f.order
    h = [0.0] * (n + 1)
    h[0] = f.coeffs[0] ** alpha
    for j in range(1, n + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (alpha * i - (j - i)) * f.coeffs[i] * h[j - i]
        h[j] = acc / (j * f.coeffs[0])
    return Jet(f.base, tuple(h))


def jet_compose(outer, inner):
    """Jet of outer(inner(.)) at inner.base; requires inner(base) == outer.base."""
    if abs(inner.coeffs[0] - outer.base) > 1e-9 * max(1.0, abs(outer.base)):
        raise ValueError(
            f"composition base mismatch: inner value {inner.coeffs[0]!r}, outer base {outer.base!r}"
        )
    n = min(outer.order, inner.order)
    shifted = Jet(inner.base, (0.0,) + inner.truncated(n).coeffs[1:])
    acc = constant_jet(outer.coeffs[n], inner.base, n)
    for j in range(n - 1, -1, -1):
        acc = acc * shifted + outer.coeffs[j]
    return acc


def jet_invert(f):
    """Compositional inverse: g with f(g(y)) = y, as a jet at y0 = f(base).

    Requires f'(base) != 0. Coefficients are fixed one order at a time:
    appending b_m to g changes f(g) by f'(base) * b_m * (y-y0)^m + higher,
    so each residual coefficient determines the next b_m. That coefficient
    needs the composition to order m only.
    """
    n = f.order
    if n < 1 or abs(f.coeffs[1]) < DIV_FLOOR:
        raise DomainError("cannot invert a jet with vanishing first coefficient")
    y0 = f.coeffs[0]
    b = [f.base, 1.0 / f.coeffs[1]] + [0.0] * (n - 1)
    for m in range(2, n + 1):
        comp = jet_compose(f.truncated(m), Jet(y0, tuple(b)))
        b[m] = -comp.coeffs[m] / f.coeffs[1]
    return Jet(y0, tuple(b))


def jet_divide_by_power(j, k, tol=None):
    """Jet of f(s)/s^k at 0, given the jet of f at 0 with f vanishing to order k.

    ``tol`` bounds the magnitude allowed for the first k coefficients; the
    default is 1e-9 relative to the largest retained coefficient.
    """
    if j.base != 0.0:
        raise ValueError("jet_divide_by_power requires a jet based at 0")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > j.order:
        raise ValueError(f"jet of order {j.order} cannot be divided by s^{k}")
    retained = j.coeffs[k:]
    if tol is None:
        scale = max((abs(c) for c in retained), default=0.0)
        tol = 1e-9 * max(scale, 1e-30)
    bad = [(i, c) for i, c in enumerate(j.coeffs[:k]) if abs(c) > tol]
    if bad:
        i, c = bad[0]
        raise NotDivisible(f"coefficient of s^{i} is {c!r}, exceeding tolerance {tol!r}")
    return Jet(0.0, retained)


JET = Backend(
    const=lambda value, x: constant_jet(value, x.base, x.order),
    div=Jet.__truediv__, pow=Jet.__pow__,
    sin=lambda f: jet_sin_cos(f)[0], cos=lambda f: jet_sin_cos(f)[1],
    exp=jet_exp, sqrt=jet_sqrt,
)


def jet_eval(f: SmoothFn, base, order) -> Jet:
    """Jet of the expression ``f`` at ``base``, to the given order."""
    _check_order(order)
    return f.jet_fn(variable_jet(float(base), order))
