"""Plane-curve cusp classification, canonical parameters, and edge types.

The classifier decides among 3/2, 5/2, 7/2, 4/3 and 5/3 cusps from the
derivative vectors of a plane curve at a singular point. Every decision is an
exact zero/sign test in theory; numerically each quantity is compared against
a band tol * scale^d where d is its homogeneity degree in the curve (so the
classification is invariant under scaling the curve). The decisions are
made on the derivative vectors divided by the power of two nearest scale,
exactly, so a tiny or huge curve neither underflows nor overflows there; the
witnesses are reported at the curve's own scale.

Decision tree at a singular point (gamma' = 0):

    gamma'' != 0:
        det(gamma'', gamma''') != 0                          -> 3/2
        else gamma''' = c1 gamma'';
        det(gamma'', 3 gamma^(5) - 10 c1 gamma^(4)) != 0     -> 5/2
        else gamma^(5) - (10/3) c1 gamma^(4) = c2 gamma'';
        det(gamma'', gamma^(7) - 7 c1 gamma^(6)
                     - (7 c2 - (70/3) c1^3) gamma^(4)) != 0  -> 7/2
    gamma'' = 0, gamma''' != 0:
        det(gamma''', gamma^(4)) != 0                        -> 4/3
        else det(gamma''', gamma^(5)) != 0                   -> 5/3

Anything else is reported as undetermined rather than guessed.

A canonical parameter s(u) is tabulated on nodes and read between them
through the in-repo PCHIP (``pchip.Pchip``): s(u), its inverse u(s) and
ds/du. ``canonical_from_speed`` reads the speed, and any rates integrated
with it, through quadrature integrands, which take a list of points per call
(see ``quadrature``): a panel's 15 points, then each side's nodes, then the
nodes of the band around u0 where the integrals come from jets.
``canonical_parameter`` lifts a curve's pointwise speed to that shape with
``quadrature.pointwise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import quadrature
from ._vec import dot, max_abs
from .errors import NotDiffeo, UnsupportedK, WrongMultiplicity
from .expr import SmoothFn
from .jets import (
    Jet,
    jet_compose,
    jet_divide_by_power,
    jet_eval,
    jet_invert,
    jet_pow_real,
    jet_sqrt,
    require_order,
)
from .profile import EdgeData

if TYPE_CHECKING:
    import numpy as np

    from .pchip import Pchip

DEFAULT_TOL = 1e-8

TAG_32 = "3/2"
TAG_52 = "5/2"
TAG_72 = "7/2"
TAG_43 = "4/3"
TAG_53 = "5/3"
TAG_REGULAR = "regular"
TAG_UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class CuspType:
    tag: str
    witnesses: dict

    def to_dict(self):
        return {"tag": self.tag, "witnesses": dict(self.witnesses)}


@dataclass(frozen=True)
class PlaneCurveJet:
    x: Jet
    y: Jet

    def __post_init__(self):
        if self.x.base != self.y.base:
            raise ValueError("component jets must share a base point")
        if self.x.order != self.y.order:
            raise ValueError("component jets must share an order")

    @property
    def base(self):
        return self.x.base

    @property
    def order(self):
        return self.x.order

    def derivative(self, j):
        return self.x.derivative_value(j), self.y.derivative_value(j)

    @staticmethod
    def from_functions(fx: SmoothFn, fy: SmoothFn, base=0.0, order=7):
        return PlaneCurveJet(jet_eval(fx, base, order), jet_eval(fy, base, order))


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _scaled(raw):
    """(vectors / 2^p, p, scale / 2^p), where scale is the largest |component| past the
    point itself and 2^p the power of two nearest it.

    Dividing by 2^p is exact, and keeps products of the vectors from underflowing
    or overflowing on a tiny or huge curve. Quantities of degree 0 in the curve
    (c1, c2) are unchanged by it, and those of degree 2 (the determinants) are
    read back by 4^p; where no product under- or overflows either way, every
    decision and witness is the unscaled one.
    """
    scale = max(max(max_abs(v) for v in raw[1:]), 1e-300)
    frac, p = math.frexp(scale)
    if frac * frac < 0.5:
        p -= 1
    return [(math.ldexp(a, -p), math.ldexp(b, -p)) for a, b in raw], p, math.ldexp(scale, -p)


def classify_plane_cusp(curve: PlaneCurveJet, tol=DEFAULT_TOL) -> CuspType:
    if curve.order < 7:
        raise ValueError("classification needs jets of order at least 7")
    raw = [curve.derivative(j) for j in range(8)]
    d, p, scale = _scaled(raw)

    def vec_zero(v):
        return max_abs(v) <= tol * scale

    def det_zero(x):
        return abs(x) <= tol * scale * scale

    def back(x):
        try:
            return math.ldexp(x, 2 * p)
        except OverflowError:  # ldexp raises where a product would give inf
            return math.copysign(math.inf, x)

    if not vec_zero(d[1]):
        return CuspType(TAG_REGULAR, {"gamma1_norm": max_abs(raw[1])})

    if not vec_zero(d[2]):
        det_32 = _det2(d[2], d[3])
        if not det_zero(det_32):
            return CuspType(TAG_32, {"det_32": back(det_32)})
        d2_sq = dot(d[2], d[2])  # 0 only by underflow, under a tol near 1e-160
        c1 = dot(d[3], d[2]) / d2_sq if d2_sq > 0.0 else math.nan
        det_52 = _det2(d[2], [3.0 * a - 10.0 * c1 * b for a, b in zip(d[5], d[4])])
        if not det_zero(det_52):
            return CuspType(TAG_52, {"det_32": back(det_32), "c1": c1, "det_52": back(det_52)})
        c2 = dot([a - (10.0 / 3.0) * c1 * b for a, b in zip(d[5], d[4])], d[2]) / d2_sq
        w = 7.0 * c2 - (70.0 / 3.0) * c1**3
        det_72 = _det2(d[2], [a - 7.0 * c1 * b - w * c for a, b, c in zip(d[7], d[6], d[4])])
        witnesses = {"det_32": back(det_32), "c1": c1, "det_52": back(det_52), "c2": c2,
                     "det_72": back(det_72)}
        return CuspType(TAG_UNDETERMINED if det_zero(det_72) else TAG_72, witnesses)

    if not vec_zero(d[3]):
        det_43 = _det2(d[3], d[4])
        if not det_zero(det_43):
            return CuspType(TAG_43, {"det_43": back(det_43)})
        det_53 = _det2(d[3], d[5])
        tag = TAG_UNDETERMINED if det_zero(det_53) else TAG_53
        return CuspType(tag, {"det_43": back(det_43), "det_53": back(det_53)})

    return CuspType(TAG_UNDETERMINED, {"note": "multiplicity exceeds 3"})


def reparametrize_curve(curve: PlaneCurveJet, phi: SmoothFn, tol=DEFAULT_TOL):
    """Jet of gamma(phi(.)) at the same base; phi must fix the base point."""
    phi_jet = jet_eval(phi, curve.base, curve.order)
    if abs(phi_jet.coeffs[0] - curve.base) > 1e-9 * max(1.0, abs(curve.base)):
        raise ValueError(f"phi({curve.base!r}) = {phi_jet.coeffs[0]!r} does not fix the base point")
    if abs(phi_jet.coeffs[1]) < tol:
        raise NotDiffeo(f"phi'({curve.base!r}) = {phi_jet.coeffs[1]!r} is too small")
    return PlaneCurveJet(jet_compose(curve.x, phi_jet), jet_compose(curve.y, phi_jet)), phi_jet


def reparam_invariance_check(curve: PlaneCurveJet, phi: SmoothFn, tol=DEFAULT_TOL):
    """Classify a curve and its reparametrization by phi.

    Returns (original CuspType, reparametrized CuspType, derived_c1) where
    derived_c1 = c1 phi'(0) + 3 phi''(0)/phi'(0) predicts the reparametrized
    curve's c1 from the original one.
    """
    reparam, phi_jet = reparametrize_curve(curve, phi, tol)
    original = classify_plane_cusp(curve, tol)
    transformed = classify_plane_cusp(reparam, tol)
    c1 = original.witnesses.get("c1")
    if c1 is None:
        d, _, _ = _scaled([curve.derivative(j) for j in range(4)])
        denom = dot(d[2], d[2])
        c1 = dot(d[3], d[2]) / denom if denom > 0.0 else math.nan
    p1 = phi_jet.derivative_value(1)
    p2 = phi_jet.derivative_value(2)
    derived_c1 = c1 * p1 + 3.0 * p2 / p1
    return original, transformed, derived_c1


@dataclass
class CanonicalParameter:
    """Tabulated parameter s(u) with |dgamma/ds| = |s|^k near a singular point.

    ``speed_table`` holds the speed at each node, and ``integral_tables``
    the integral from u0 to each node of every extra rate that was
    integrated along with the speed (see ``canonical_from_speed``).
    ``node_values`` holds, at each node, the values read there along with
    the speed.
    """

    u0: float
    k: int
    u_table: np.ndarray
    s_table: np.ndarray
    s_of_u: Pchip
    u_of_s: Pchip
    dsdu_of_u: Pchip
    s_jet: Jet  # jet of s(u) at u0
    u_jet: Jet  # jet of the inverse u(s) at 0
    speed_table: np.ndarray
    integral_tables: tuple
    node_values: tuple

    def __call__(self, u):
        return float(self.s_of_u(u))

    def inverse(self, s):
        return float(self.u_of_s(s))


_JET_BAND = 1e-3


def canonical_from_speed(rates, jets, u0, k, interval, n_samples=512,
                         quad_tol=quadrature.DEFAULT_TOL, *, at_node=None):
    """Canonical parameter from the speed function |gamma'|.

    ``rates(us)`` is a quadrature integrand (see ``quadrature``): it returns,
    at each point of the list ``us``, the tuple (speed, *extra) of the speed
    and any rates whose integrals from u0 are wanted on the same nodes.
    ``jets`` holds their jets at u0 in the same order, except that the first
    is the jet of speed^2, which must vanish to order exactly 2k. The
    construction integrates the speed from u0 and takes the (k+1)-st root:

        s(u) = sign(u - u0) ((k+1) |int_u0^u speed|)^(1/(k+1)).

    Inside a small band around u0 every integral comes from jets (the direct
    quadrature, to ``quad_tol``, loses digits there); outside it, one
    cumulative quadrature per side integrates all the rates together, from
    the band edge outward, and the two branches are stitched at the edge.
    The nodes are read by ``at_node(us)``, which returns (speed, *values) at
    each point of ``us``, in three calls: each side's nodes after its
    quadrature, then the band's. The values are kept in ``node_values``, and
    the speed at every node outside the band. By default ``at_node`` is
    ``rates``.
    """
    import numpy as np

    from .pchip import Pchip

    lo, hi = interval
    if not (lo < u0 < hi):
        raise ValueError(f"u0 = {u0!r} must be interior to {interval!r}")
    speed_sq_jet, *extra_jets = jets
    w_jet = Jet(u0, jet_divide_by_power(Jet(0.0, speed_sq_jet.coeffs), 2 * k, tol=math.inf).coeffs)
    if w_jet.coeffs[0] <= 0.0:
        raise WrongMultiplicity(
            f"speed^2 does not vanish to order exactly {2 * k} at u0 = {u0!r}"
        )
    # Smooth signed speed (u-u0)^k sqrt(w); its antiderivative A satisfies
    # |A| = |int_u0^u speed| on both sides of u0.
    signed_speed_jet = Jet(u0, (0.0,) * k + jet_sqrt(w_jet).coeffs)
    a_jet = signed_speed_jet.antiderivative()
    b_jet = Jet(u0, jet_divide_by_power(Jet(0.0, a_jet.coeffs), k + 1, tol=math.inf).coeffs)
    s_jet = Jet(u0, (0.0, 1.0) + (0.0,) * (b_jet.order - 1)) * jet_pow_real(
        (k + 1.0) * b_jet, 1.0 / (k + 1.0)
    )
    u_jet = jet_invert(s_jet)
    ds_jet = s_jet.differentiate()
    extra_integral_jets = [j.antiderivative() for j in extra_jets]

    band = min(_JET_BAND, 0.25 * (hi - u0), 0.25 * (u0 - lo))
    at_node = rates if at_node is None else at_node
    entries = []  # (u, |A(u)|, from_jet, speed, extra integrals from u0, node values)
    for side, end in ((-1.0, lo), (1.0, hi)):
        edge = u0 + side * band
        nodes = [float(u) for u in np.linspace(u0, end, max(2, n_samples // 2))
                 if side * (u - edge) > 0.0]
        cumulative = quadrature.integrate_cumulative(rates, [edge] + nodes, quad_tol)[1:]
        a_edge = abs(a_jet(edge))
        extra_edge = [j(edge) for j in extra_integral_jets]
        for u, a, (speed, *values) in zip(nodes, cumulative, at_node(nodes)):
            entries.append((u, a_edge + abs(a[0]), False, speed,
                            [e + v for e, v in zip(extra_edge, a[1:])], tuple(values)))
    band_nodes = [float(u) for u in np.linspace(u0 - band, u0 + band, 65)]
    for u, (_, *values) in zip(band_nodes, at_node(band_nodes)):
        entries.append((u, abs(a_jet(u)), True, abs(signed_speed_jet(u)),
                        [j(u) for j in extra_integral_jets], tuple(values)))
    entries.sort(key=lambda e: e[0])

    us, ss, ds, speeds, integrals, node_values = [], [], [], [], [], []
    for u, a_abs, from_jet, speed, extra, values in entries:
        if us and u - us[-1] < 1e-13 * (hi - lo):
            continue
        us.append(u)
        speeds.append(speed)
        integrals.append(extra)
        node_values.append(values)
        if from_jet:
            ss.append(s_jet(u))
            ds.append(ds_jet(u))
        else:
            ss.append(math.copysign(((k + 1.0) * a_abs) ** (1.0 / (k + 1.0)), u - u0))
            ds.append(((k + 1.0) * a_abs) ** (-k / (k + 1.0)) * speed)
    u_table = np.array(us)
    s_table = np.array(ss)
    s_of_u = Pchip(u_table, s_table)
    u_of_s = Pchip(s_table, u_table)
    dsdu_of_u = Pchip(u_table, np.array(ds))
    return CanonicalParameter(
        u0=u0, k=k, u_table=u_table, s_table=s_table, s_of_u=s_of_u,
        u_of_s=u_of_s, dsdu_of_u=dsdu_of_u, s_jet=s_jet, u_jet=u_jet,
        speed_table=np.array(speeds), integral_tables=tuple(np.array(c) for c in zip(*integrals)),
        node_values=tuple(node_values),
    )


def canonical_parameter(curve, u0, k, interval, n_samples=512, tol=DEFAULT_TOL):
    """Canonical parameter for a curve given as a sequence of SmoothFn.

    The curve must have multiplicity k+1 at u0 (its first k derivatives
    vanish there, the (k+1)-st does not); WrongMultiplicity otherwise.
    """
    comps = list(curve)
    n = k + 1
    order = 16
    # The speed^2 series keeps order - 1 and loses 2k orders to its zero.
    require_order(2 * k + 1, order, f"the canonical parameter at k = {k} needs the curve's series")
    jets = [jet_eval(f, u0, order) for f in comps]
    derivs = [tuple(j.derivative_value(i) for j in jets) for i in range(min(2 * k + 4, order + 1))]
    scale = max(max_abs(v) for v in derivs[1:])
    scale = max(scale, 1e-300)
    for i in range(1, n):
        if max_abs(derivs[i]) > tol * scale:
            raise WrongMultiplicity(
                f"derivative {i} does not vanish at u0 = {u0!r}: {derivs[i]!r}"
            )
    if max_abs(derivs[n]) <= tol * scale:
        raise WrongMultiplicity(f"derivative {n} vanishes at u0 = {u0!r}")

    def speed(u):
        return (math.sqrt(sum(f.prime(u) ** 2 for f in comps)),)

    djets = [j.differentiate() for j in jets]
    speed_sq_jet = sum(dj * dj for dj in djets)
    return canonical_from_speed(quadrature.pointwise(speed), (speed_sq_jet,), u0, k, interval, n_samples)


# Decisive derivative orders of U for each edge family, in test order.
_EDGE_RULES = {
    1: ((3, TAG_32), (5, TAG_52), (7, TAG_72)),
    2: ((4, TAG_43), (5, TAG_53)),
}


def classify_edge(data: EdgeData, tol=DEFAULT_TOL) -> CuspType:
    """Edge type of a datum from the U-derivatives at 0 (k in {1, 2})."""
    if data.k not in _EDGE_RULES:
        raise UnsupportedK(f"edge classification is only available for k in (1, 2), got {data.k}")
    derivs = {j: data.u_jet.derivative_value(j) for j in range(8)}
    scale = max(max(abs(v) for v in derivs.values()), 1e-300)
    witnesses = {}
    for order, tag in _EDGE_RULES[data.k]:
        value = derivs[order]
        witnesses[f"U{order}"] = value
        if abs(value) > tol * scale:
            return CuspType(tag, witnesses)
    return CuspType(TAG_UNDETERMINED, witnesses)


def profile_curve_jet(data: EdgeData, order=7) -> PlaneCurveJet:
    """Jet at s = 0 of the profile curve (x(s), z(s)) of the datum."""
    x_j, z_j, _ = data.series
    return PlaneCurveJet(x_j.truncated(order), z_j.truncated(order))


def classify_edge_via_profile(data: EdgeData, tol=DEFAULT_TOL) -> CuspType:
    """Independent edge classification through the profile-curve cusp."""
    return classify_plane_cusp(profile_curve_jet(data), tol)
