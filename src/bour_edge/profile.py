"""The Bour datum {U, h, m, eps0, eps1, eps2, k, J} and its admissibility check.

A datum is admissible when U > 0 on J, the first k derivatives of U vanish
at 0 (so U'(s) = s^k V(s) for a smooth V), and the radicand

    rho(s)^2 = m^2 U(s)^2 - h^2 - m^4 U(s)^2 V(s)^2

stays strictly positive on J (the "star" condition). V is recovered from the
jet of U' near 0 and from the direct quotient U'(s)/s^k away from 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import (
    NegativeRadicand,
    NonPositiveU,
    NonVanishingLowDerivative,
    StarViolation,
)
from .expr import SmoothFn, parse_expr
from .jets import Jet, jet_divide_by_power, jet_eval

# Inside this radius V is evaluated from its jet at 0; the direct quotient
# U'(s)/s^k loses about k digits there.
V_SWITCH_RADIUS = 1e-3
V_JET_ORDER = 12

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
    v_jet: Jet = field(compare=False, default=None)

    @property
    def n(self):
        return self.k + 1

    def u_value(self, s):
        return self.U(s)

    def u_jet(self, order):
        return jet_eval(self.U, 0.0, order)

    def v_value(self, s):
        if abs(s) < V_SWITCH_RADIUS:
            return self.v_jet(s)
        return self.U.prime(s) / s**self.k

    def replace(self, **kwargs):
        """A sibling datum sharing U, k, J; signs/parameters overridden."""
        fields = dict(
            U=self.U, h=self.h, m=self.m, eps0=self.eps0, eps1=self.eps1,
            eps2=self.eps2, k=self.k, J=self.J, v_jet=self.v_jet,
        )
        fields.update(kwargs)
        return EdgeData(**fields)

    def to_dict(self):
        return {
            "U": self.U.source_text or self.U.to_source(),
            "h": self.h,
            "m": self.m,
            "eps0": self.eps0,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "k": self.k,
            "J": [self.J[0], self.J[1]],
        }

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


def _zero_band(data_u_jet, tol=None):
    u0 = data_u_jet.coeffs[0]
    if tol is None:
        tol = 1e-9
    return tol * max(1.0, abs(u0))


def check_star(data: EdgeData, samples=DEFAULT_STAR_SAMPLES):
    """Evaluate the radicand on a grid plus bisection near sign changes."""
    if samples < 16:
        raise ValueError("samples must be at least 16")
    lo, hi = data.J
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    if not any(abs(g) < 1e-15 for g in grid):
        grid.append(0.0)
        grid.sort()
    values = [radicand(data, s) for s in grid]
    failures = []
    rho_min = min(values)
    for s, val in zip(grid, values):
        if not val > 0.0:
            name = "rho_at_zero" if s == 0.0 else "rho_positive"
            failures.append((name, s, val))
    for (s0, v0), (s1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if v0 > 0.0 and v1 > 0.0:
            continue
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


def make_edge_data(U, h, m, eps0, eps1, eps2, k, J, zero_tol=None, samples=DEFAULT_STAR_SAMPLES):
    """Validated constructor for an EdgeData.

    Raises NonPositiveU, NonVanishingLowDerivative or StarViolation when the
    admissibility conditions fail.
    """
    if isinstance(U, str):
        U = parse_expr(U)
    m = float(m)
    h = float(h)
    lo, hi = float(J[0]), float(J[1])
    if not all(math.isfinite(v) for v in (h, m, lo, hi)):
        raise ValueError(f"h, m and J must be finite, got h={h!r}, m={m!r}, J={J!r}")
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    for name, eps in (("eps0", eps0), ("eps1", eps1), ("eps2", eps2)):
        if eps not in (+1, -1):
            raise ValueError(f"{name} must be +1 or -1, got {eps!r}")
    if not (lo <= 0.0 <= hi) or lo >= hi:
        raise ValueError(f"J must be an interval containing 0, got {J!r}")

    u_jet = jet_eval(U, 0.0, V_JET_ORDER + k + 1)
    u0 = u_jet.coeffs[0]
    if not u0 > 0.0:
        raise NonPositiveU(f"U(0) = {u0!r} is not positive")
    band = _zero_band(u_jet, zero_tol)
    for i in range(1, k + 1):
        di = u_jet.derivative_value(i)
        if not abs(di) <= band:
            raise NonVanishingLowDerivative(
                f"U^({i})(0) = {di!r} exceeds the zero tolerance {band!r}"
            )
    v_jet = jet_divide_by_power(u_jet.differentiate(), k, tol=None)

    data = EdgeData(U=U, h=h, m=m, eps0=eps0, eps1=eps1, eps2=eps2,
                    k=int(k), J=(lo, hi), v_jet=v_jet)

    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    for s in grid:
        u = U(s)
        if not u > 0.0:
            raise NonPositiveU(f"U({s!r}) = {u!r} is not positive on J")

    report = check_star(data, samples)
    if not report.star_ok:
        raise StarViolation(
            f"star condition fails at {len(report.failures)} location(s), "
            f"first at s = {report.failures[0][1]!r}",
            failures=report.failures,
        )
    return data


def datum_from_dict(payload, zero_tol=None, samples=DEFAULT_STAR_SAMPLES):
    return make_edge_data(
        U=payload["U"],
        h=float(payload["h"]),
        m=float(payload["m"]),
        eps0=int(payload["eps0"]),
        eps1=int(payload["eps1"]),
        eps2=int(payload["eps2"]),
        k=int(payload["k"]),
        J=tuple(payload["J"]),
        zero_tol=zero_tol,
        samples=samples,
    )


def datum_from_json(text, **kwargs):
    return datum_from_dict(json.loads(text), **kwargs)
