"""The Bour datum {U, h, m, eps0, eps1, eps2, k, J} and its admissibility check.

A datum is admissible when U > 0 on J, the first k derivatives of U vanish
at 0 (so U'(s) = s^k V(s) for a smooth V), and the radicand

    rho(s)^2 = m^2 U(s)^2 - h^2 - m^4 U(s)^2 V(s)^2

stays strictly positive on J (the "star" condition). V is recovered from the
jet of U' near 0 and from the direct quotient U'(s)/s^k away from 0.

A datum carries U's Taylor series at 0 (``u_jet``), evaluated once by
``make_edge_data`` at an order chosen from k, and V's series cut from it.
Every series at s = 0 is cut from these two; ``EdgeData.series`` holds those
of x, z and the theta integral, built on first use and freed with the datum,
and ``EdgeData.point_kernel`` the rates at a float point, as generated code.

``make_edge_data`` is the one checker of a datum's fields; ``sibling``, an
(h, m) family member of a valid datum, re-checks only h, m and the star condition.
U and V do not depend on h or m, so a datum and its siblings share one U
program (``EdgeData.u_program``, built by ``u_program`` on first use): two
loops generated and compiled together for U, k and v_jet, one that reads U,
U' and V over a list of points, U's and U''s trees in one pass per point,
and one that reads U alone. Every float reader of U and V goes through it:
``u_value`` and ``v_value``, the star grid, deform's metric values, x per
mesh row, forms.csv and the roundtrip's checks. Where a loop raises or meets
a U that is not positive, the points are read one by one by U's and U''s
own compiled trees, so the error is the pointwise one. The datum and its
siblings also share one table of U and V on the default star grid
(``EdgeData.star_grid``), read on first use through that program. Each
member's scan then runs ``star_radicand`` over the table's rows in one
generated loop (``star_scan_kernel``, built once per process), with m^2,
h^2 and m^4 computed once, and reads the failures only when the least
radicand, or the sum that carries a NaN, is not positive. Since rho^2 is
m^2 U^2 (1 - m^2 V^2) - h^2, a member passes that scan, up to rounding,
exactly when h^2 is below A(m), the least rho^2 of the scan at h = 0. A
family takes that one scan per m (``star_bound``), and decides each member
whose h^2 lies farther from A(m) than a proven rounding margin without a
scan of its own (``decided_sibling``); only a member inside that tie band
is scanned. The siblings also share deform's values at the metric sample
points (``EdgeData.metric_values``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache

from .errors import (
    DomainError,
    NegativeRadicand,
    NonPositiveU,
    NonVanishingLowDerivative,
    StarViolation,
)
from .expr import FLOAT, FLOAT_FORMS, Emitter, SmoothFn, compile_rows, define, parse_expr
from .jets import MAX_ORDER, Jet, jet_divide_by_power, jet_eval, require_order

DATUM_FIELDS = ("U", "h", "m", "eps0", "eps1", "eps2", "k", "J")  # in JSON order

# Inside this radius V is evaluated from its jet at 0; the direct quotient
# U'(s)/s^k loses about k digits there.
V_SWITCH_RADIUS = 1e-3

DEFAULT_STAR_SAMPLES = 1024
_BISECT_WIDTH = 1e-10
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_NORMAL = 2.0**-1022


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
    # The least rho^2 of the star scan; None on a replace() copy, and on a family
    # member that the star bound decided without a scan (``decided_sibling``).
    _rho_min: float = field(compare=False, default=None, repr=False)
    _series: tuple = field(compare=False, default=None, repr=False)
    _point_kernel: object = field(compare=False, default=None, repr=False)
    # One-slot holders for u_program, star_grid and metric_values, shared by the datum
    # and its siblings.
    _u_program: list = field(compare=False, default_factory=lambda: [None], repr=False)
    _star_grid: list = field(compare=False, default_factory=lambda: [None], repr=False)
    _metric_values: list = field(compare=False, default_factory=lambda: [None], repr=False)

    @property
    def n(self):
        return self.k + 1

    def u_value(self, s):
        """U(s), read through the datum's U program (``u_values``)."""
        return u_values(self, (s,))[0]

    def v_value(self, s):
        """V(s): the series inside V_SWITCH_RADIUS, else U'(s)/s^k, with U' read through
        the datum's U program (``uv_table``), or its own compiled tree where that
        raises or meets a U that is not positive."""
        if abs(s) < V_SWITCH_RADIUS:
            return self.v_jet(s)
        table = uv_table(self, (float(s),))
        if table is None:
            return self.U.prime(s) / s**self.k
        return table[1][0]

    @property
    def u_program(self):
        """U, U' and V of the datum as one generated program (``u_program``), built on
        first use. It depends only on U, k and v_jet, so the holder is shared with
        every ``sibling``, kept by replace() unless U, k or v_jet changes, and left
        out by pickling."""
        if self._u_program[0] is None:
            self._u_program[0] = u_program(self)
        return self._u_program[0]

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
    def point_kernel(self):
        """bour.profile_rates at a float point w, as one generated function of w
        (``bour.point_kernel``), built on first use.

        Kept in a field, as the series are. replace() and sibling() drop it,
        since h, m, U or k may change, and pickling leaves it out.
        """
        if self._point_kernel is None:
            from .bour import point_kernel  # bour imports this module

            object.__setattr__(self, "_point_kernel", point_kernel(self))
        return self._point_kernel

    def __getstate__(self):
        # Generated code cannot be pickled; the copy builds its kernel and U program anew.
        return {**self.__dict__, "_point_kernel": None, "_u_program": [None]}

    @property
    def star_grid(self):
        """(grid, U, V) on the default star grid (``grid_values``), evaluated once.

        The holder is shared with every ``sibling``, so the first scan of any
        member fills it for all. NonPositiveU leaves it empty.
        """
        if self._star_grid[0] is None:
            self._star_grid[0] = grid_values(self, DEFAULT_STAR_SAMPLES)
        return self._star_grid[0]

    @property
    def metric_values(self):
        """(s, s^k, U(s), V(s)) at the metric sample points of ``deform``, evaluated
        once (``deform.metric_values``). They depend only on U, k and J, so the
        holder is shared with every ``sibling``, as star_grid's is."""
        if self._metric_values[0] is None:
            from .deform import metric_values  # deform imports this module

            self._metric_values[0] = metric_values(self)
        return self._metric_values[0]

    def replace(self, **kwargs):
        """An unchecked copy with fields overridden; the scan's rho_min, the series,
        the point kernel and the values of the star grid and the metric points are
        dropped, since U or J may change. A new U (a tree or its text) or k gets U's
        and V's series at 0 anew, and a U program of its own."""
        if "U" in kwargs or "k" in kwargs:
            U, k = kwargs.get("U", self.U), kwargs.get("k", self.k)
            if isinstance(U, str):
                U = kwargs["U"] = parse_expr(U)
            u_jet = _u_series(U, k)
            kwargs.update(u_jet=u_jet, v_jet=jet_divide_by_power(u_jet.differentiate(), k, tol=None))
        if "v_jet" in kwargs:
            kwargs["_u_program"] = [None]
        return dataclasses.replace(self, _rho_min=None, _series=None, _point_kernel=None,
                                   _star_grid=[None], _metric_values=[None], **kwargs)

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


def root_at(r, s):
    """Float sqrt of the Bour quantity r at s; NegativeRadicand unless r > 0."""
    if not r > 0.0:
        raise NegativeRadicand(f"radicand {r!r} is not positive at s = {s!r}", location=s, value=r)
    return math.sqrt(r)


def sqrt_at(s):
    """root_at at s, as the one-argument sqrt that profile_rates takes."""
    return lambda r: root_at(r, s)


def radicand(data: EdgeData, s):
    """rho^2 at s, with U and V read by one call of the datum's ``uv_table``; by
    ``u_value`` and ``v_value`` where that call refuses, so the values and errors are
    theirs."""
    table = uv_table(data, (float(s),))
    if table is None:
        return star_radicand(data.u_value(s), data.v_value(s), data.h, data.m)
    return star_radicand(table[0][0], table[1][0], data.h, data.m)


def rho(data: EdgeData, s):
    """sqrt(m^2 U^2 - h^2 - m^4 U^2 V^2) at s; positive on a valid datum."""
    return sqrt_at(s)(radicand(data, s))


def grid_values(data: EdgeData, samples):
    """The star grid of J with U and V at each point, as lists (grid, us, vs).

    The grid has ``samples`` equal steps' end points, plus s = 0 if missing.
    U is evaluated once per point. Raises NonPositiveU at the first point
    where U is not positive, before any V is evaluated.

    The values come from the datum's U program (``uv_table``). If it raises,
    or finds a U that is not positive, U and V are read point by point
    instead, so the error is the pointwise reading's, in its order: U' may
    refuse a point where V is read from its series, and a U' error at one
    point must not come before a U that is not positive at a later one.
    """
    lo, hi = data.J
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    if not any(abs(g) < 1e-15 for g in grid):
        grid.append(0.0)
        grid.sort()
    table = uv_table(data, grid)
    if table is not None:
        return grid, *table
    us = [data.U(s) for s in grid]
    for s, u in zip(grid, us):
        if not u > 0.0:
            raise NonPositiveU(f"U({s!r}) = {u!r} is not positive on J")
    return grid, us, [data.v_value(s) for s in grid]


# The two loops of a datum's U program: ``table(points)`` and ``values(points)``.
UProgram = namedtuple("UProgram", "table values")


def u_program(data: EdgeData):
    """U, U' and V over lists of points, as one program generated for the datum's U, k
    and v_jet, and compiled with one ``compile()`` call (``expr.define``).

    ``table(points)``, at float points, returns the lists (us, vs) bit for bit
    as U and ``v_value`` read them, or None at the first point where U is not
    positive. ``values(points)`` returns U at each float(point), bit for bit as
    U(point). U's tree and its derivative's are emitted together, with FLOAT's
    guards written in (``expr.FLOAT_FORMS``), so a subtree they share, such as
    a sin or cos, runs once per point; ``values`` runs U's lines alone. V is
    U'/s^k outside V_SWITCH_RADIUS and the datum's ``v_jet`` inside it, but
    ``table`` reads U' at every point, and neither loop turns an error into a
    DomainError: a reader falls back to the point-by-point path when a loop
    raises (``uv_table``, ``u_values``).
    """
    code = Emitter(FLOAT)
    code.env["_vjet"] = data.v_jet
    u = code.emit(data.U.root, FLOAT_FORMS)
    u_lines = code.lines[:]
    up = code.emit(data.U.prime.root, FLOAT_FORMS)
    radius = code.literal(V_SWITCH_RADIUS)
    table = ["def table(points):", "    us, vs = [], []", "    for x in points:",
             *(f"        {line}" for line in code.lines),
             f"        if not {u} > 0.0:", "            return None", f"        us.append({u})",
             f"        vs.append(_vjet(x) if abs(x) < {radius} else {up} / x ** {data.k})",
             "    return us, vs"]
    values = ["def values(points):", "    out = []", "    for x in points:", "        x = float(x)",
              *(f"        {line}" for line in u_lines), f"        out.append({u})", "    return out"]
    return UProgram(*define(code.env, "", [*table, *values, "return table, values"], ())())


def table_loop(data: EdgeData):
    """The datum's U program's ``table`` (``u_program``), which reads the star grid."""
    return data.u_program.table


def uv_table(data: EdgeData, points):
    """(us, vs) at the float ``points`` in one call of the datum's ``table_loop``, bit
    for bit as U and ``v_value`` read them; None where the loop raises or meets a U
    that is not positive, so that the caller reads the points one by one and
    raises the pointwise error."""
    try:
        return table_loop(data)(points)
    except (ArithmeticError, DomainError):
        return None


def u_values(data: EdgeData, points):
    """U at each point in one call of the datum's U program, bit for bit as U reads
    it; U's compiled tree point by point where the program raises, so the error is
    U's own."""
    try:
        return data.u_program.values(points)
    except (ArithmeticError, DomainError):
        return [data.U(s) for s in points]


@cache
def star_scan_kernel():
    """``star_radicand`` over rows (u, v), as ``expr.compile_rows`` generates it once
    per process: ``kernel(rows, h, m)`` is the list of the radicands, bit for bit.
    m^2, h^2 and m^4 are computed once per call."""
    return compile_rows(star_radicand, ("u", "v"), ("h", "m"))


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
    values = star_scan_kernel()(zip(us, vs), data.h, data.m)
    rho_min = min(values)
    # min() passes over a NaN after the first value, and a sum holds it: the scan is
    # clean when both are positive, and otherwise every value is tested.
    failures = [] if rho_min > 0.0 and sum(values) > 0.0 else [
        ("rho_at_zero" if s == 0.0 else "rho_positive", s, val)
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


def star_bound(data: EdgeData, m):
    """(D, margin) that decide the star scan of every member (h, m) of the valid datum
    on the shared default grid (``data.star_grid``), from one scan at h = 0; None
    where that scan proves nothing. Reads the grid as a member's scan would, so it
    raises the errors of that reading.

    A member whose H = fl(h*h) is below fl(D - margin) passes its scan, and one whose
    H is above fl(D + margin) fails it (``decided_sibling``); in between lies the
    tie band, where only the member's own scan decides.

    Proof. The scan's value at row i is r_i = fl(fl(A_i - H) - B_i), with its two
    terms A_i = fl(fl(m*m) * fl(u_i*u_i)) and B_i = fl(fl(m**4 * fl(u_i*u_i)) *
    fl(v_i*v_i)) (``star_scan_kernel``). At h = 0, H = 0 and it is c_i = fl(A_i - B_i);
    D = min c_i. The difference of two floats is exact where it is subnormal, so,
    with u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 2.2), a rounded difference has the sign of the exact one and lies within
    u times its size of it; hence r_i > 0 exactly when fl(A_i - H) > B_i. Rounding is
    monotone, so M, computed from the largest U and |V| of the grid as the scan spells
    the terms, is at least every A_i and B_i, and |c_i| <= M. margin = 4uM, exact since
    it is a normal number.
    - Valid: if H < fl(D - margin) <= D - 4uM + u(M + 4uM) < D - 2uM, then H < M, so
      |A_i - H| <= M, and on every row fl(A_i - H) - B_i >= A_i - B_i - H - uM
      >= c_i - 2uM - H >= D - 2uM - H > 0.
    - Invalid: if H > fl(D + margin) >= D + 4uM - u(M + 4uM) > D + 2uM, take a row j
      with c_j = D. If H >= A_j, fl(A_j - H) <= 0 <= B_j. Otherwise 0 < A_j - H <= M
      and fl(A_j - H) - B_j <= A_j - B_j - H + uM <= D + 2uM - H < 0. Either way
      r_j <= 0.
    A D - margin or D + margin that overflows decides no member. Where a c_i is a NaN
    or infinite (the sum holds either, and min() passes over a NaN), or M is not
    finite, or margin is not a normal number, there is no bound.
    """
    grid, us, vs = data.star_grid
    values = star_scan_kernel()(zip(us, vs), 0.0, m)
    if not math.isfinite(sum(values)):
        return None
    umax, vmax = max(us), max(map(abs, vs))  # U is positive on the grid
    uu = umax * umax
    margin = 4.0 * _UNIT_ROUNDOFF * max(m * m * uu, m**4 * uu * (vmax * vmax))
    if not _SMALLEST_NORMAL <= margin < math.inf:
        return None
    return min(values), margin


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


def _sibling_copy(data, h, m):
    return dataclasses.replace(data, h=h, m=m, _rho_min=None, _series=None, _point_kernel=None)


def sibling(data: EdgeData, h, m):
    """The valid datum's (h, m) sibling: U, k, J, signs, U's series and the values
    of the star grid and the metric points are shared, so only h, m and the star
    condition (default grid) are checked again."""
    h, m = _checked_hm(h, m, data.J)
    return _star_checked(_sibling_copy(data, h, m), DEFAULT_STAR_SAMPLES)


def decided_sibling(data: EdgeData, h, m, bounds):
    """sibling(data, h, m), or None where the star bound of m proves it invalid.

    ``bounds`` maps m to its ``star_bound`` and is filled on first use, so the
    members of one m share one bound pass. A member whose h*h clears the bound's
    margin is decided without a scan: a valid one is sibling's copy, with no
    rho_min, and an invalid one is None. A member in the tie band, or of an m
    without a bound, is scanned as ``sibling`` scans it, and raises as it does.
    h and m are checked first, with sibling's errors.
    """
    h, m = _checked_hm(h, m, data.J)
    if m not in bounds:
        bounds[m] = star_bound(data, m)
    bound = bounds[m]
    if bound is not None:
        d, margin = bound
        if h * h > d + margin:
            return None
        if h * h < d - margin:
            return _sibling_copy(data, h, m)
    return _star_checked(_sibling_copy(data, h, m), DEFAULT_STAR_SAMPLES)


def datum_from_dict(payload, zero_tol=None, samples=DEFAULT_STAR_SAMPLES):
    """make_edge_data over the DATUM_FIELDS of a mapping, passed on unconverted."""
    return make_edge_data(**{name: payload[name] for name in DATUM_FIELDS},
                          zero_tol=zero_tol, samples=samples)


def datum_from_json(text, **kwargs):
    return datum_from_dict(json.loads(text), **kwargs)
