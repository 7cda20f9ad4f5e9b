"""The Bour datum {U, h, m, eps0, eps1, eps2, k, J} and its admissibility check.

A datum is admissible when U > 0 on J, the first k derivatives of U vanish
at 0 (so U'(s) = s^k V(s) for a smooth V), and the radicand

    rho(s)^2 = m^2 U(s)^2 - h^2 - m^4 U(s)^2 V(s)^2

stays strictly positive on J (the "star" condition). V is recovered from the
jet of U' near 0 and from the direct quotient U'(s)/s^k away from 0.

A datum carries U's Taylor series at 0 (``u_jet``), evaluated once by
``make_edge_data`` at an order chosen from k, and V's series cut from it.
Every series at s = 0 is cut from these two; ``EdgeData.series`` holds those
of x, z and the theta integral, built on first use and freed with the datum.

``make_edge_data`` is the one checker of a datum's fields; ``sibling``, an
(h, m) family member of a valid datum, re-checks only h, m and the star condition.
U and V do not depend on h or m, so a datum and its siblings share one table
of U and V on the default star grid (``EdgeData.star_grid``), evaluated on
first use; each member's scan then costs one radicand per grid point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import (
    NegativeRadicand,
    NonPositiveU,
    NonVanishingLowDerivative,
    StarViolation,
)
from .expr import SmoothFn, parse_expr
from .jets import MAX_ORDER, Jet, jet_divide_by_power, jet_eval, require_order

DATUM_FIELDS = ("U", "h", "m", "eps0", "eps1", "eps2", "k", "J")  # in JSON order

# Inside this radius V is evaluated from its jet at 0; the direct quotient
# U'(s)/s^k loses about k digits there.
V_SWITCH_RADIUS = 1e-3

DEFAULT_STAR_SAMPLES = 1024
_BISECT_WIDTH = 1e-10


@dataclass(frozen=True)
class EdgeData:
    """Data naming a generic helicoidal n-type edge (n = k + 1)."""

    U: SmoothFn
    h: float
    m: float
    eps0: int
    eps1: int
    eps2: int
    k: int
    J: tuple
    u_jet: Jet = field(compare=False, default=None)  # U's series at 0
    v_jet: Jet = field(compare=False, default=None)  # V's, cut from u_jet
    # The least rho^2 of the star scan; None on a replace() copy.
    _rho_min: float = field(compare=False, default=None, repr=False)
    _series: tuple = field(compare=False, default=None, repr=False)
    # A one-slot holder for star_grid, shared by the datum and its siblings.
    _star_grid: list = field(compare=False, default_factory=lambda: [None], repr=False)

    @property
    def n(self):
        return self.k + 1

    def u_value(self, s):
        return self.U(s)

    def v_value(self, s):
        if abs(s) < V_SWITCH_RADIUS:
            return self.v_jet(s)
        return self.U.prime(s) / s**self.k

    @property
    def series(self):
        """Jets at 0 of x, z and the theta integral (``bour.series_at_zero``), built once.

        Kept in a field, not by cached_property: writing to ``__dict__`` would
        slow every later attribute read of the datum.
        """
        if self._series is None:
            from .bour import series_at_zero  # bour imports this module

            object.__setattr__(self, "_series", series_at_zero(self))
        return self._series

    @property
    def star_grid(self):
        """(grid, U, V) on the default star grid (``grid_values``), evaluated once.

        The holder is shared with every ``sibling``, so the first scan of any
        member fills it for all. NonPositiveU leaves it empty.
        """
        if self._star_grid[0] is None:
            self._star_grid[0] = grid_values(self, DEFAULT_STAR_SAMPLES)
        return self._star_grid[0]

    def replace(self, **kwargs):
        """An unchecked copy with fields overridden; the scan's rho_min, the series
        and the star grid's values are dropped, since U or J may change. A new U
        (a tree or its text) or k gets U's and V's series at 0 anew."""
        if "U" in kwargs or "k" in kwargs:
            U, k = kwargs.get("U", self.U), kwargs.get("k", self.k)
            if isinstance(U, str):
                U = kwargs["U"] = parse_expr(U)
            u_jet = _u_series(U, k)
            kwargs.update(u_jet=u_jet, v_jet=jet_divide_by_power(u_jet.differentiate(), k, tol=None))
        return dataclasses.replace(self, _rho_min=None, _series=None, _star_grid=[None], **kwargs)

    def to_dict(self):
        doc = {name: getattr(self, name) for name in DATUM_FIELDS}
        doc.update(U=self.U.source_text or self.U.to_source(), J=list(self.J))
        return doc

    def to_json(self):
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ValidationReport:
    star_ok: bool
    rho_min: float  # minimum of the radicand rho^2 over the sampled grid
    failures: tuple


def x_squared(u, h, m):
    """m^2 U^2 - h^2, the squared profile radius, from U; floats or jets."""
    return m * m * (u * u) - h * h


def star_radicand(u, v, h, m):
    """rho^2 = m^2 U^2 - h^2 - m^4 U^2 V^2 from U and V; floats or jets."""
    return x_squared(u, h, m) - m**4 * (u * u) * (v * v)


def sqrt_at(s):
    """Float sqrt of Bour quantities at s; NegativeRadicand unless the radicand is > 0."""
    def sqrt(r):
        if not r > 0.0:
            raise NegativeRadicand(f"radicand {r!r} is not positive at s = {s!r}",
                                   location=s, value=r)
        return math.sqrt(r)
    return sqrt


def radicand(data: EdgeData, s):
    return star_radicand(data.u_value(s), data.v_value(s), data.h, data.m)


def rho(data: EdgeData, s):
    """sqrt(m^2 U^2 - h^2 - m^4 U^2 V^2) at s; positive on a valid datum."""
    return sqrt_at(s)(radicand(data, s))


def grid_values(data: EdgeData, samples):
    """The star grid of J with U and V at each point, as lists (grid, us, vs).

    The grid has ``samples`` equal steps' end points, plus s = 0 if missing.
    U is evaluated once per point. Raises NonPositiveU at the first point
    where U is not positive, before any V is evaluated.
    """
    lo, hi = data.J
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    if not any(abs(g) < 1e-15 for g in grid):
        grid.append(0.0)
        grid.sort()
    us = [data.u_value(s) for s in grid]
    for s, u in zip(grid, us):
        if not u > 0.0:
            raise NonPositiveU(f"U({s!r}) = {u!r} is not positive on J")
    return grid, us, [data.v_value(s) for s in grid]


def check_star(data: EdgeData, samples=DEFAULT_STAR_SAMPLES):
    """Evaluate the radicand on a grid plus bisection near sign changes.

    The default grid reads U and V from ``data.star_grid``, shared with the
    datum's siblings; another grid evaluates them afresh (``grid_values``).
    """
    if samples < 16:
        raise ValueError("samples must be at least 16")
    if samples == DEFAULT_STAR_SAMPLES:
        grid, us, vs = data.star_grid
    else:
        grid, us, vs = grid_values(data, samples)
    values = [star_radicand(u, v, data.h, data.m) for u, v in zip(us, vs)]
    rho_min = min(values)
    failures = [("rho_at_zero" if s == 0.0 else "rho_positive", s, val)
                for s, val in zip(grid, values) if not val > 0.0]
    # A sign change needs a non-positive value, so a clean scan skips the pairs.
    pairs = zip(zip(grid, values), zip(grid[1:], values[1:])) if failures else ()
    for (s0, v0), (s1, v1) in pairs:
        if (v0 > 0.0) == (v1 > 0.0):
            continue
        a, b, va = s0, s1, v0
        while b - a > _BISECT_WIDTH:
            mid = 0.5 * (a + b)
            vm = radicand(data, mid)
            if (vm > 0.0) == (va > 0.0):
                a, va = mid, vm
            else:
                b = mid
        cross = 0.5 * (a + b)
        failures.append(("rho_sign_change", cross, radicand(data, cross)))
    failures.sort(key=lambda item: item[1])
    return ValidationReport(star_ok=not failures, rho_min=rho_min, failures=tuple(failures))


def _u_series(U, k):
    """U's series at 0, to the order the readers of a datum with this k need."""
    # The natural chart needs z to order 2k + 13, and z keeps k orders fewer
    # than U (V loses k + 1 of them, the antiderivative gives one back).
    order = min(3 * k + 13, MAX_ORDER)
    require_order(k + 1, order, f"V = U'/s^k at k = {k} needs U's series")
    return jet_eval(U, 0.0, order)


def _number(name, value, kind=float):
    """value as kind, int or float; ValueError naming the field unless it is one.

    An integral float such as 1.0 counts as an int; a bool counts as neither.
    """
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a real number'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an int past the float range
        return math.inf if value > 0 else -math.inf


def _checked_hm(h, m, J):
    """h and m as floats, refused unless they and J are finite and 0 < m < 2^256."""
    h, m = _number("h", h), _number("m", m)
    if not all(math.isfinite(v) for v in (h, m, *J)):
        raise ValueError(f"h, m and J must be finite, got h={h!r}, m={m!r}, J={J!r}")
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    if m >= 2.0**256:  # star_radicand's m**4 would overflow
        raise ValueError(f"m must be below 2^256, got {m!r}")
    return h, m


def _star_checked(data, samples):
    """The (h, m) tail: the star scan, then StarViolation or the datum with its rho_min."""
    report = check_star(data, samples)
    if not report.star_ok:
        raise StarViolation(f"star condition fails at {len(report.failures)} location(s), "
                            f"first at s = {report.failures[0][1]!r}", failures=report.failures)
    object.__setattr__(data, "_rho_min", report.rho_min)  # data is not shared yet
    return data


def make_edge_data(U, h, m, eps0, eps1, eps2, k, J, zero_tol=None, samples=DEFAULT_STAR_SAMPLES):
    """Validated constructor for an EdgeData, and the one checker of a datum's fields.

    Raises ValueError naming a field of the wrong type or value, and
    NonPositiveU, NonVanishingLowDerivative or StarViolation when the
    admissibility conditions fail.
    """
    if isinstance(U, str):
        U = parse_expr(U)
    k, eps0, eps1, eps2 = (_number(name, value, int) for name, value in
                           (("k", k), ("eps0", eps0), ("eps1", eps1), ("eps2", eps2)))
    try:
        lo, hi = J
    except (TypeError, ValueError):
        raise ValueError(f"J must be two real numbers, got {J!r}") from None
    J = (_number("J", lo), _number("J", hi))
    h, m = _checked_hm(h, m, J)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    for name, eps in (("eps0", eps0), ("eps1", eps1), ("eps2", eps2)):
        if eps not in (+1, -1):
            raise ValueError(f"{name} must be +1 or -1, got {eps!r}")
    if not (J[0] <= 0.0 <= J[1]) or J[0] >= J[1]:
        raise ValueError(f"J must be an interval containing 0, got {J!r}")

    u_jet = _u_series(U, k)
    u0 = u_jet.coeffs[0]
    if not u0 > 0.0:
        raise NonPositiveU(f"U(0) = {u0!r} is not positive")
    band = (1e-9 if zero_tol is None else zero_tol) * max(1.0, abs(u0))
    for i in range(1, k + 1):
        di = u_jet.derivative_value(i)
        if not abs(di) <= band:
            raise NonVanishingLowDerivative(
                f"U^({i})(0) = {di!r} exceeds the zero tolerance {band!r}"
            )
    v_jet = jet_divide_by_power(u_jet.differentiate(), k, tol=None)
    data = EdgeData(U=U, h=h, m=m, eps0=eps0, eps1=eps1, eps2=eps2,
                    k=k, J=J, u_jet=u_jet, v_jet=v_jet)
    return _star_checked(data, samples)


def sibling(data: EdgeData, h, m):
    """The valid datum's (h, m) sibling: U, k, J, signs, U's series and the star
    grid's values are shared, so only h, m and the star condition (default grid)
    are checked again."""
    h, m = _checked_hm(h, m, data.J)
    member = dataclasses.replace(data, h=h, m=m, _rho_min=None, _series=None)
    return _star_checked(member, DEFAULT_STAR_SAMPLES)


def datum_from_dict(payload, zero_tol=None, samples=DEFAULT_STAR_SAMPLES):
    """make_edge_data over the DATUM_FIELDS of a mapping, passed on unconverted."""
    return make_edge_data(**{name: payload[name] for name in DATUM_FIELDS},
                          zero_tol=zero_tol, samples=samples)


def datum_from_json(text, **kwargs):
    return datum_from_dict(json.loads(text), **kwargs)
