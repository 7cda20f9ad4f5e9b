"""Geometric invariants of a datum, each computed two independent ways.

Closed forms (functions of U-derivatives at 0, h, m and the signs):

    kappa_nu = rho(0) / (m^2 U(0)^2)
    kappa_t  = h / (m^2 U(0)^2)
    omega_{n,n+i} = eps1 eps2 m^2 U(0) U^(n+i)(0) / (((n-1)!)^((n+i)/n) rho(0))
    beta_{n,2n}   = (eps1 eps2 / rho(0)) (m^2 U(0) U^(2n)(0)/((n-1)!)^2
                                          - C(2n-1, n) h^2/(m^2 U(0)^2))

Numeric oracles evaluate the defining formulas on the parametrization itself:
kappa_nu from the second t-derivative of the singular helix against the unit
normal; kappa_t from the two-term torsion determinant formula with the mixed
s,t derivative taken by Richardson-extrapolated central differences of jet
coefficients; omega and beta from the directional-derivative quotient with
all s-derivatives read from jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._vec import cross, dot
from .bour import psi_jet_at_zero, x_of_s
from .errors import LadderViolated
from .jets import require_order
from .profile import EdgeData, rho, sqrt_at, star_radicand

LADDER_TOL = 1e-9


def _u0(data):
    return data.u_value(0.0)


def _v0(data):
    return data.v_jet.coeffs[0]


def _ladder_band(data):
    return LADDER_TOL * max(1.0, abs(_u0(data)))


def kappa_map(u0, v0, h, m, sqrt):
    """(kappa_nu, kappa_t) from U(0), V(0), h, m and the backend's sqrt; floats or jets."""
    scale = m * m * (u0 * u0)
    return sqrt(star_radicand(u0, v0, h, m)) / scale, h / scale


def _kappas(data):
    return kappa_map(_u0(data), _v0(data), data.h, data.m, sqrt_at(0.0))


def kappa_nu(data: EdgeData):
    """Limiting normal curvature along the singular curve (closed form)."""
    return _kappas(data)[0]


def kappa_t(data: EdgeData):
    """Cusp-directional torsion along the singular curve (closed form)."""
    return _kappas(data)[1]


def _helix_theta(data, t):
    return data.eps1 * t / data.m


def psi_t_at_zero(data: EdgeData, t=0.0):
    """d/dt of the singular helix Psi(0, .), differentiated analytically."""
    x0 = x_of_s(data, 0.0)
    th = _helix_theta(data, t)
    rate = data.eps1 / data.m
    return (-x0 * math.sin(th) * rate, x0 * math.cos(th) * rate, data.h * rate)

def psi_tt_at_zero(data: EdgeData, t=0.0):
    x0 = x_of_s(data, 0.0)
    th = _helix_theta(data, t)
    rate = data.eps1 / data.m
    return (-x0 * math.cos(th) * rate**2, -x0 * math.sin(th) * rate**2, 0.0)


def unit_normal_at_zero(data: EdgeData, t=0.0):
    """The unit normal of the surface along the singular curve."""
    x0 = x_of_s(data, 0.0)
    v0 = _v0(data)
    r0 = rho(data, 0.0)
    th = _helix_theta(data, t)
    e2, h, m = data.eps2, data.h, data.m
    scale = -e2 / x0
    return (
        scale * (e2 * r0 * math.cos(th) - h * m * v0 * math.sin(th)),
        scale * (e2 * r0 * math.sin(th) + h * m * v0 * math.cos(th)),
        scale * (-data.eps0 * m * v0 * x0),
    )


def kappa_nu_numeric(data: EdgeData, t=0.0):
    """Oracle: Psi_tt . nu / |Psi_t|^2 on the singular curve."""
    pt = psi_t_at_zero(data, t)
    ptt = psi_tt_at_zero(data, t)
    nu = unit_normal_at_zero(data, t)
    return dot(ptt, nu) / dot(pt, pt)


def _s_derivative(data, t, j, order=None):
    """Psi_{s^j}(0, t) as a vector, from the component jets."""
    jets = psi_jet_at_zero(data, t, j if order is None else order)
    return tuple(jet.derivative_value(j) for jet in jets)


def kappa_t_numeric(data: EdgeData, t=0.0, step=1e-5):
    """Oracle: the full two-term torsion formula at (0, t).

    The mixed derivative Psi_{s^n t} is a central difference in t of
    Psi_{s^n}, Richardson-extrapolated once.
    """
    n = data.n

    def eta_n(tv):
        return _s_derivative(data, tv, n)

    def central(hh):
        return tuple((a - b) / (2.0 * hh) for a, b in zip(eta_n(t + hh), eta_n(t - hh)))

    mixed = tuple((4.0 * a - b) / 3.0 for a, b in zip(central(step / 2.0), central(step)))
    pt = psi_t_at_zero(data, t)
    ptt = psi_tt_at_zero(data, t)
    en = eta_n(t)
    normal = cross(pt, en)  # det(pt, en, v) = normal . v
    cross_sq = dot(normal, normal)
    term1 = dot(normal, mixed) / cross_sq
    term2 = dot(pt, en) * dot(normal, ptt) / (dot(pt, pt) * cross_sq)
    return term1 - term2


def _ladder(data):
    """The jet of U at 0 to order 2n, and the first rung j of the omega ladder
    whose U^(n+j)(0) does not vanish within tolerance (n when none, 1 <= j < n)."""
    n = data.n
    u_jet = data.u_jet.truncated(2 * n)
    band = _ladder_band(data)
    for j in range(1, n):
        require_order(n + j, u_jet.order, f"the omega ladder at k = {data.k} needs U's series")
        if abs(u_jet.derivative_value(n + j)) > band:
            return u_jet, j
    return u_jet, n


def _require_ladder(data, upto):
    """The jet of _ladder, once U^(n+j)(0), j = 1..upto, are found to vanish."""
    u_jet, j = _ladder(data)
    if j <= upto:
        n = data.n
        raise LadderViolated(
            f"U^({n + j})(0) = {u_jet.derivative_value(n + j)!r} is nonzero; "
            f"omega_(n,n+{j}) does not vanish"
        )
    return u_jet


def omega(data: EdgeData, i):
    """(n, n+i)-cuspidal curvature, closed form; 1 <= i <= n-1."""
    n = data.n
    if not 1 <= i <= n - 1:
        if i == n:
            raise ValueError("omega with i = n is the bias; use beta()")
        raise ValueError(f"omega index i = {i!r} outside 1..{n - 1}")
    un_i = _require_ladder(data, i - 1).derivative_value(n + i)
    fact = math.factorial(n - 1) ** ((n + i) / n)
    return data.eps1 * data.eps2 * data.m**2 * _u0(data) * un_i / (fact * rho(data, 0.0))


def beta(data: EdgeData):
    """(n, 2n)-bias, closed form; requires the full omega ladder to vanish."""
    n = data.n
    u2n = _require_ladder(data, n - 1).derivative_value(2 * n)
    u0 = _u0(data)
    first = data.m**2 * u0 * u2n / math.factorial(n - 1) ** 2
    second = math.comb(2 * n - 1, n) * data.h**2 / (data.m**2 * u0**2)
    return data.eps1 * data.eps2 * (first - second) / rho(data, 0.0)


def omega_numeric(data: EdgeData, i, t=0.0):
    """Oracle for omega (and, at i = n, for beta): the general quotient

        |xi f|^((n+i)/n) det(xi f, eta^n f, eta^(n+i) f) / |xi f x eta^n f|^((2n+i)/n)

    with xi = d/dt, eta = d/ds at (0, t), s-derivatives from jets.
    """
    n = data.n
    if not 1 <= i <= n:
        raise ValueError(f"omega index i = {i!r} outside 1..{n}")
    jets = psi_jet_at_zero(data, t, n + i)
    eta_n = tuple(jet.derivative_value(n) for jet in jets)
    eta_ni = tuple(jet.derivative_value(n + i) for jet in jets)
    xi = psi_t_at_zero(data, t)
    xi_norm = math.sqrt(dot(xi, xi))
    normal = cross(xi, eta_n)
    cross_norm = math.sqrt(dot(normal, normal))
    det = dot(normal, eta_ni)  # det(xi, eta_n, eta_ni)
    return xi_norm ** ((n + i) / n) * det / cross_norm ** ((2 * n + i) / n)


def beta_numeric(data: EdgeData, t=0.0):
    return omega_numeric(data, data.n, t)


@dataclass(frozen=True)
class InvariantPair:
    closed: float
    oracle: float

    @property
    def discrepancy(self):
        return abs(self.closed - self.oracle)


@dataclass(frozen=True)
class InvariantReport:
    kappa_nu: InvariantPair
    kappa_t: InvariantPair
    omegas: tuple  # ((i, InvariantPair), ...) for the defined indices
    beta: InvariantPair | None
    max_discrepancy: float


def compute_invariant_report(data: EdgeData) -> InvariantReport:
    pairs = [
        InvariantPair(kappa_nu(data), kappa_nu_numeric(data)),
        InvariantPair(kappa_t(data), kappa_t_numeric(data)),
    ]
    # omega_(n,n+i) is defined while the ladder below i vanishes; beta needs all of it.
    _, first_rung = _ladder(data)
    omegas = []
    for i in range(1, min(first_rung, data.n - 1) + 1):
        pair = InvariantPair(omega(data, i), omega_numeric(data, i))
        omegas.append((i, pair))
        pairs.append(pair)
    beta_pair = None
    if first_rung == data.n:
        beta_pair = InvariantPair(beta(data), beta_numeric(data))
        pairs.append(beta_pair)
    return InvariantReport(
        kappa_nu=pairs[0],
        kappa_t=pairs[1],
        omegas=tuple(omegas),
        beta=beta_pair,
        max_discrepancy=max(p.discrepancy for p in pairs),
    )


def report_to_dict(report: InvariantReport):
    return {
        "kappa_nu": {"closed": report.kappa_nu.closed, "oracle": report.kappa_nu.oracle},
        "kappa_t": {"closed": report.kappa_t.closed, "oracle": report.kappa_t.oracle},
        "omega": [[i, pair.closed, pair.oracle] for i, pair in report.omegas],
        "beta": None if report.beta is None else {"closed": report.beta.closed, "oracle": report.beta.oracle},
        "max_discrepancy": report.max_discrepancy,
    }
