"""Forward pipeline: from a helicoidal profile curve to natural coordinates.

Given a profile gamma(u) = (x(u), z(u)) and pitch h, the helicoidal surface

    f(u, v) = (x(u) cos v, x(u) sin v, z(u) + h v)

is singular exactly where xdot^2 + zdot^2 = 0 (for x != 0). Around a
singular point u0 of multiplicity k+1 the surface admits coordinates (s, t)
in which the metric is s^(2k) ds^2 + U(s)^2 dt^2:

  1. shear t = v + phi(u), phi' = h zdot / (x^2 + h^2), which makes the
     u-lines orthogonal to the screw direction; the sheared speed is
     |f~_u|^2 = xdot^2 + zdot^2 x^2 / (x^2 + h^2);
  2. the canonical parameter s(u) of that speed (|d gamma~/ds| = |s|^k);
  3. U(s) = sqrt(x(u(s))^2 + h^2).

The shear phi(u) and U(s) are tabulated on the canonical parameter's nodes
and read between them through the in-repo PCHIP (``pchip.Pchip``), as the
canonical parameter is. Everything the chart reads at a point is the triple
(speed, phi', x), read for a whole list of points at once: the 15 points of
a quadrature panel, which integrates the sheared speed and phi' together in
one pass over the canonical parameter's nodes, then each side's nodes, whose
speed ``roundtrip``'s metric check reads and whose x makes the U table, then
the band around u0 where both integrals come from jets, so phi(u0) = 0
exactly. A Bour profile reads them through one loop generated for its datum
(``chart_loop``); any other profile through one ``rates`` call per point.

``roundtrip`` drives this pipeline on a profile read back from a Bour datum
and compares the recovered metric function with the original U.

A profile is any object with the pitch ``h``, the parameter ``interval``
(lo, hi) and two methods: ``rates(u) -> (x, xdot, zdot)`` and
``jets(u0, order) -> (x jet, z jet)``. ``HelicoidalInput`` gives these
from two expressions. ``BourProfile`` reads a datum (h and J are the
datum's), and ``ReparamProfile`` re-reads a profile in a chart's s on the
chart's s-range; these two give jets at 0 only. ``BourProfile.rates`` reads
the datum's point kernel (``bour.point_kernel``); the chart reads its own
loop instead, unless a subclass overrides ``rates``, whose override the chart
then calls at each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import quadrature
from .bour import rate_code
from .cusps import CanonicalParameter, canonical_from_speed
from .expr import SmoothFn, define, guarded
from .jets import Jet, jet_compose, jet_eval, jet_sqrt, require_order
from .pchip import Pchip
from .profile import EdgeData

DEFAULT_SAMPLES = 256
DEFAULT_TABULATION = 512
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class HelicoidalInput:
    """Profile (x(u), z(u)) from two expression trees, with pitch h on an interval."""

    x: SmoothFn
    z: SmoothFn
    h: float
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        samples = [self.x(float(u)) for u in np.linspace(lo, hi, 64)]
        if any(v == 0.0 for v in samples) or min(samples) < 0.0 < max(samples):
            raise ValueError("profile meets the axis: x vanishes on the interval")

    def rates(self, u):
        return self.x(u), self.x.prime(u), self.z.prime(u)

    def jets(self, u0, order):
        return jet_eval(self.x, u0, order), jet_eval(self.z, u0, order)


class BourProfile:
    """Profile (x(s), z(s)) read back from a Bour datum, with its h and J.

    x is closed form and z needs a quadrature, but rates come from one call of
    the datum's point kernel per point, and jets at 0 from the datum's series.
    The chart reads (speed, phi', x) at many points through ``chart_loop``,
    generated on first use; neither is built before it is read.
    """

    def __init__(self, data: EdgeData):
        self.data = data
        self.h = data.h
        self.interval = data.J

    def rates(self, s):
        return self.data.point_kernel(s)[:3]

    @cached_property
    def chart_loop(self):
        """The datum's ``chart_loop``."""
        return chart_loop(self.data)

    def jets(self, u0, order):
        if u0 != 0.0:
            raise ValueError("Bour profiles carry jets at 0 only")
        return tuple(j.truncated(order) for j in self.data.series[:2])


class ReparamProfile:
    """A profile re-read in the s-parameter of an already-computed chart, on its s-range."""

    def __init__(self, base, canonical: CanonicalParameter):
        self.base = base
        self.canonical = canonical
        self.h = base.h
        self.interval = (float(canonical.s_table[0]), float(canonical.s_table[-1]))

    def rates(self, sigma):
        u = float(self.canonical.u_of_s(sigma))
        du = 1.0 / float(self.canonical.dsdu_of_u(u))
        x, xd, zd = self.base.rates(u)
        return x, xd * du, zd * du

    def jets(self, u0, order):
        if u0 != 0.0:
            raise ValueError("reparametrized profiles carry jets at 0 only")
        u_j = self.canonical.u_jet.truncated(order)
        return tuple(jet_compose(j, u_j) for j in self.base.jets(self.canonical.u0, order))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(g, a, b, width=1e-12):
    """Position of the minimum of g on [a, b], bracketed to ``width``."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > width:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN * (b - a)
            g2 = g(x2)
    return 0.5 * (a + b)


def _speed_sq(profile, u):
    _, xd, zd = profile.rates(u)
    return xd ** 2 + zd ** 2


def _sheared_speed_sq(x, xd, zd, h):
    """|f~_u|^2 = xdot^2 + zdot^2 x^2 / (x^2 + h^2); floats or jets."""
    x_sq = x * x
    return xd * xd + zd * zd * x_sq / (x_sq + h * h)


def _shear_rate(x, zd, h):
    """phi' = h zdot / (x^2 + h^2); floats, jets or trees."""
    return h * zd / (x * x + h * h)


def _chart_values(profile, u):
    """(speed, phi', x) at u from one call of the profile's rates."""
    x, xd, zd = profile.rates(u)
    h = profile.h
    return math.sqrt(_sheared_speed_sq(x, xd, zd, h)), _shear_rate(x, zd, h), x


def chart_loop(data: EdgeData):
    """``_chart_values`` of the datum's ``BourProfile`` at each point of a list, as one
    loop generated for the datum.

    ``loop(us)`` returns the list of (speed, phi', x), bit for bit, and refuses
    at the first point where the pointwise path refuses, with the same error.
    Each point runs ``bour.rate_code``: x, x' and z' in the point kernel's
    order, then the sheared speed and phi' on trees (theta_s is not read), so
    the point kernel's subtrees are computed once; the speed's square root is
    math's, as ``_chart_values`` takes it. w^k stays outside the overflow
    guard, as in the point kernel.
    """
    h = data.h

    def outputs(emit, x, xd, zd, _):
        speed_sq, phi_rate = _sheared_speed_sq(x, xd, zd, h), _shear_rate(x, zd, h)
        for f in (x, xd, zd):  # in the point kernel's order, so a refusal comes where it did
            emit(f)
        return f"_msqrt({emit(speed_sq)})", emit(phi_rate), emit(x)

    env, head, body = rate_code(data, outputs, "out.append(({},))")
    return define(env, "us", ["out = []", "for w in us:",
                              *(f"    {line}" for line in [*head, *guarded(body)]), "return out"], ())


def singular_set(profile, n_samples=DEFAULT_SAMPLES):
    """Parameter values where the helicoidal surface is singular."""
    if n_samples < 64:
        raise ValueError("n_samples must be at least 64")
    lo, hi = profile.interval
    grid = np.linspace(lo, hi, n_samples)
    g = np.array([_speed_sq(profile, float(u)) for u in grid])
    speed_scale = max(math.sqrt(float(np.max(g))), 1e-30)
    accept = (1e-8 * speed_scale) ** 2
    roots = []

    def push(u):
        for r in roots:
            if abs(r - u) < 1e-9 * (hi - lo):
                return
        roots.append(u)

    for i in range(1, n_samples - 1):
        if g[i] <= g[i - 1] and g[i] <= g[i + 1]:
            u_star = _golden_minimize(
                lambda u: _speed_sq(profile, u), float(grid[i - 1]), float(grid[i + 1])
            )
            if _speed_sq(profile, u_star) <= accept:
                push(u_star)
    if g[0] <= accept:
        push(float(grid[0]))
    if g[-1] <= accept:
        push(float(grid[-1]))
    return sorted(roots)


@dataclass(frozen=True)
class GenericityCheck:
    ok: bool
    failures: tuple


def check_generic(profile, u0, k, tol=DEFAULT_TOL):
    """Is u0 a generic singular point of multiplicity k+1 for this profile?"""
    xj, zj = profile.jets(u0, k + 1)
    dx = [xj.derivative_value(i) for i in range(k + 2)]
    dz = [zj.derivative_value(i) for i in range(k + 2)]
    scale = max(max(abs(v) for v in dx), max(abs(v) for v in dz), 1e-300)
    failures = []
    if abs(dx[0]) <= tol * scale:
        failures.append(f"axis intersection: x({u0!r}) = {dx[0]!r}")
    for i in range(1, k + 1):
        if abs(dx[i]) > tol * scale:
            failures.append(f"x^({i})({u0!r}) = {dx[i]!r} does not vanish")
        if abs(dz[i]) > tol * scale:
            failures.append(f"z^({i})({u0!r}) = {dz[i]!r} does not vanish")
    if abs(dz[k + 1]) <= tol * scale:
        failures.append(f"z^({k + 1})({u0!r}) = {dz[k + 1]!r} vanishes (not generic)")
    return GenericityCheck(ok=not failures, failures=tuple(failures))


@dataclass
class NaturalChart:
    u0: float
    k: int
    h: float
    canonical: CanonicalParameter
    U_table: np.ndarray
    U_of_s: Pchip
    U_jet: Jet  # jet of U at s = 0
    phi_table: np.ndarray  # phi on the canonical nodes, phi(u0) = 0
    phi_of_u: Pchip
    max_low_derivative: float  # max |U^(i)(0)|, 1 <= i <= k

    @property
    def u_table(self):
        return self.canonical.u_table

    @property
    def s_table(self):
        return self.canonical.s_table

    @property
    def phi_nodes(self):
        return self.canonical.u_table

    def to_dict(self):
        return {
            "u0": self.u0,
            "k": self.k,
            "h": self.h,
            "u": [float(v) for v in self.u_table],
            "s": [float(v) for v in self.s_table],
            "U": [float(v) for v in self.U_table],
            "phi_u": [float(v) for v in self.phi_nodes],
            "phi": [float(v) for v in self.phi_table],
            "max_low_derivative": self.max_low_derivative,
        }


def natural_coordinates(profile, u0, k, n_tab=DEFAULT_TABULATION,
                        quad_tol=quadrature.DEFAULT_TOL):
    """The natural chart (s, t) of the profile's surface around the singular point u0.

    The canonical parameter integrates the sheared speed and the shear rate
    phi' in one pass over its nodes (``canonical_from_speed``), so each
    quadrature point is read once, and each node once more. phi is tabulated
    on those nodes; near u0 it comes from its jet, which makes phi(u0) = 0
    exact.
    """
    report = check_generic(profile, u0, k)
    if not report.ok:
        raise ValueError("not a generic singular point: " + "; ".join(report.failures))
    h = profile.h

    order = 2 * k + 12
    xj, zj = profile.jets(u0, order + 1)
    # The canonical series lose 2k + 1 orders to the speed's zero, and the
    # chart's U series must still reach U^(k).
    require_order(3 * k + 1, min(xj.order, zj.order),
                  f"the natural chart at k = {k} needs the x and z series")
    xdj, zdj = xj.differentiate(), zj.differentiate()
    jets = (_sheared_speed_sq(xj, xdj, zdj, h), _shear_rate(xj, zdj, h))

    if type(profile).rates is BourProfile.rates:
        read = profile.chart_loop
    else:
        read = quadrature.pointwise(partial(_chart_values, profile))

    def rates(us):
        return [(speed, phi_rate) for speed, phi_rate, _ in read(us)]

    def at_node(us):
        return [(speed, x) for speed, _, x in read(us)]

    canonical = canonical_from_speed(rates, jets, u0, k, profile.interval, n_tab, quad_tol,
                                     at_node=at_node)
    phi_table = canonical.integral_tables[0]
    phi_of_u = Pchip(canonical.u_table, phi_table)

    # x at each node comes from the call that read its speed.
    x_values = np.array([values[0] for values in canonical.node_values])
    U_table = np.sqrt(x_values**2 + h**2)
    U_of_s = Pchip(canonical.s_table, U_table)

    xu_jet = jet_compose(xj.truncated(canonical.u_jet.order), canonical.u_jet)
    U_jet = jet_sqrt(xu_jet * xu_jet + h**2)
    max_low = max((abs(U_jet.derivative_value(i)) for i in range(1, k + 1)), default=0.0)

    return NaturalChart(
        u0=u0, k=k, h=h, canonical=canonical,
        U_table=U_table, U_of_s=U_of_s, U_jet=U_jet,
        phi_table=phi_table, phi_of_u=phi_of_u,
        max_low_derivative=max_low,
    )


@dataclass
class RoundtripReport:
    sup_error_U: float
    sup_error_metric: float
    m_hat: float
    chart: NaturalChart

    def to_dict(self):
        return {
            "sup_error_U": self.sup_error_U,
            "sup_error_metric": self.sup_error_metric,
            "m_hat": self.m_hat,
        }


def roundtrip(data: EdgeData, s_probe=None, n_tab=DEFAULT_TABULATION,
              quad_tol=quadrature.DEFAULT_TOL):
    """Rebuild natural coordinates from the datum's own surface.

    The recovered metric function sqrt(x^2 + h^2) must be m * U; the report
    compares it (normalized by the recovered m) against the original U, and
    checks the recovered metric coefficients against s^(2k) and U(s)^2.
    Requires 0 in the interior of J (the chart tabulates on both sides of
    the singular curve). Probes outside the chart's s-range are skipped;
    ValueError if none is left.
    """
    profile = BourProfile(data)
    chart = natural_coordinates(profile, 0.0, data.k, n_tab, quad_tol)
    u0_val = data.u_value(0.0)
    m_hat = float(chart.U_of_s(0.0)) / u0_val

    s_lo, s_hi = float(chart.s_table[0]), float(chart.s_table[-1])
    if s_probe is None:
        s_probe = np.linspace(0.98 * s_lo, 0.98 * s_hi, 101)
    inside = [float(sp) for sp in s_probe if s_lo <= float(sp) <= s_hi]
    if not inside:
        raise ValueError(f"no s_probe point lies in the chart's s-range [{s_lo!r}, {s_hi!r}]")
    sup_u = 0.0
    for sp in inside:
        sup_u = max(sup_u, abs(float(chart.U_of_s(sp)) / m_hat - data.u_value(sp)))

    canonical = chart.canonical
    dsdu_interp = canonical.s_of_u.derivative()
    sup_metric = 0.0
    for u, s, U_rec, speed in zip(chart.u_table.tolist(), chart.s_table.tolist(),
                                  chart.U_table.tolist(), canonical.speed_table.tolist()):
        if s < s_lo * 0.98 or s > s_hi * 0.98:
            continue
        g_rec = (U_rec / m_hat) ** 2
        sup_metric = max(sup_metric, abs(g_rec - data.u_value(s) ** 2))
        if abs(u) > 1e-3:
            e_rec = (speed / float(dsdu_interp(u))) ** 2
            sup_metric = max(sup_metric, abs(e_rec - s ** (2 * data.k)))
    return RoundtripReport(sup_error_U=sup_u, sup_error_metric=sup_metric, m_hat=m_hat, chart=chart)


def second_pass_chart(data: EdgeData, chart: NaturalChart, n_tab=DEFAULT_TABULATION,
                      quad_tol=quadrature.DEFAULT_TOL):
    """Extract natural coordinates again, from the recovered parametrization.

    The chart's s is already canonical, so the second extraction should be a
    fixed point up to tabulation error; used by the stability tests.
    """
    profile = ReparamProfile(BourProfile(data), chart.canonical)
    return natural_coordinates(profile, 0.0, data.k, n_tab, quad_tol)
