"""Isometric deformation families, invariant inversion, isomers.

Every valid (h, m) with the same U, k and signs yields a surface with the
same first fundamental form; the pair psi(h, m) = (kappa_nu, kappa_t) moves
diffeomorphically over the admissible region, with Jacobian determinant
1 / (m^3 rho(0) U(0)^2). Inverting psi is a damped 2x2 Newton iteration whose
Jacobian comes from evaluating psi on jets; steps are halved until the
radicand at s = 0 stays positive, and the solution is re-validated on all of J.

A family's members share U and V at the metric sample points
(``metric_reference``), so a member's forms are one call of
``bour.fundamental_forms``: one generated loop over the 50 points, built once
per process, with the (h, m) work done once per member. The values are kept
in a holder the base shares with its siblings (``EdgeData.metric_values``),
so a later family or the ``isomers`` of the same base read none of them again.

Two data are compared at METRIC_SAMPLE_COUNT seeded points (s, t), drawn as
numpy's ``default_rng(METRIC_SEED).uniform`` draws them. The generator's 100
values in [0, 1) are stored in ``_METRIC_DRAWS``, so no command needs numpy to
draw them; a new METRIC_SEED or count means regenerating that tuple, which
``tests/test_deform.py`` checks against numpy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import bour, cusps, invariants, quadrature
from ._fmt import fmt17
from ._vec import linspace, max_abs, solve2
from .errors import BourEdgeError, DomainError, NoConvergence, StarViolation
from .jets import jet_sqrt, variable_jet
from .profile import EdgeData, rho, sibling, sqrt_at

METRIC_SAMPLE_COUNT = 50
METRIC_SEED = 20260809

# np.random.default_rng(METRIC_SEED).random(2 * METRIC_SAMPLE_COUNT): the draws for s, then t.
_METRIC_DRAWS = (
    0.6920719597572101, 0.4111793386211946, 0.19935033008505954, 0.49402353893144624,
    0.9319805617761172, 0.4966232802949134, 0.8982722671919591, 0.8596268918508094,
    0.05875893139415156, 0.9098456434590587, 0.6835046868869014, 0.986712274003414,
    0.9099985974642125, 0.745889052652003, 0.32748817059436397, 0.4984987611659334,
    0.8517576056148783, 0.5437051897516535, 0.5803410042316813, 0.5368866177796795,
    0.9402551231647767, 0.1636346179013316, 0.24418993174430004, 0.8861757577143073,
    0.5251903059054874, 0.32546890350422075, 0.8432698941550183, 0.7503309754690262,
    0.36764071593575454, 0.7699270627590791, 0.10883783590956186, 0.11081434475387864,
    0.7696563829686708, 0.4965710117308676, 0.36178602056190234, 0.4054362271354398,
    0.6470879484102822, 0.09468900339960462, 0.8972146219496073, 0.31824446670327045,
    0.5391105960139108, 0.9523781401874132, 0.24721431754800338, 0.4419185219580285,
    0.8045061822307742, 0.9653635699093888, 0.3680641010272442, 0.8391195714225131,
    0.14329938125388686, 0.9899933385695012, 0.6205669319954675, 0.08233934662598252,
    0.9091607935744116, 0.6449598098433478, 0.18505987686551206, 0.4897059953429723,
    0.02626716666564599, 0.40446810581584147, 0.19767430009746, 0.35481296757220715,
    0.3016040420940619, 0.941283720085587, 0.33514791888858797, 0.6784088148146384,
    0.6480059530807403, 0.6250795384273018, 0.18916360773952712, 0.8976199162477153,
    0.47837782555752884, 0.9380119734776861, 0.5349061349875972, 0.5038566620183594,
    0.23070449431885587, 0.4064957238689143, 0.04769036472037236, 0.8859555281539427,
    0.5454454792465276, 0.5992730559286705, 0.31759775895872966, 0.43887213374293066,
    0.32900324811563186, 0.35324195285976445, 0.03415602251582528, 0.18992419673495786,
    0.9003178228284446, 0.34071478840901004, 0.15779431341865569, 0.9611821290026755,
    0.3106183272477392, 0.24307669875446447, 0.7387611644547535, 0.7500281060647742,
    0.21995591496619848, 0.33912085020904603, 0.094397222745365, 0.3170502036698426,
    0.7660647642186207, 0.2341997963281952, 0.28100744747926, 0.7313050811796251,
)


@dataclass(frozen=True)
class FamilyMember:
    h: float
    m: float
    valid: bool
    data: EdgeData | None
    metric_deviation: float | None  # max |delta E| + |delta F| + |delta G| vs base


@dataclass(frozen=True)
class DeformationFamily:
    base: EdgeData
    members: tuple

    def valid_members(self):
        return [mem for mem in self.members if mem.valid]


def _uniform(low, high, draws):
    """Generator.uniform(low, high) from its draws u in [0, 1): low + (high - low) * u."""
    span = high - low
    return [low + span * u for u in draws]


def _metric_sample_points(data):
    """(s, t) pairs, s uniform on 0.9 J and t on [0, 2 pi)."""
    lo, hi = data.J
    ss = _uniform(0.9 * lo, 0.9 * hi, _METRIC_DRAWS[:METRIC_SAMPLE_COUNT])
    ts = _uniform(0.0, 2.0 * math.pi, _METRIC_DRAWS[METRIC_SAMPLE_COUNT:])
    return list(zip(ss, ts))


def _metric_values(data, points):
    """(s, s^k, U(s), V(s)) at each sample point, for bour.fundamental_form_from."""
    values = []
    for s, _ in points:  # the forms do not depend on t
        s = float(s)
        values.append((s, s**data.k, data.u_value(s), data.v_value(s)))
    return values


def metric_values(data: EdgeData):
    """_metric_values at the datum's metric sample points; ``EdgeData.metric_values``
    keeps them for the datum and its siblings."""
    return _metric_values(data, _metric_sample_points(data))


def metric_reference(data: EdgeData, values):
    """(values, forms): ``values``, the (s, s^k, U(s), V(s)) at each sample point, and
    the datum's forms (E, F, G) there (``bour.fundamental_forms``).

    The values depend only on U, k and J, so every datum sharing those (an
    (h, m) sibling, a sign variant) is compared with one reference.
    """
    return values, bour.fundamental_forms(data, values)


def metric_deviation(a: EdgeData, b: EdgeData, points=None, *, reference=None):
    """max over sample points of |dE| + |dF| + |dG| between two data.

    ``reference`` is ``metric_reference(a, points)``, passed when b shares
    a's U and k; a's forms and U, V at the points are then read from it.
    """
    if reference is None:
        if points is None:
            points = _metric_sample_points(a)
        reference = metric_reference(a, _metric_values(a, points))
        b_values = _metric_values(b, points)
    else:
        b_values = reference[0]
    return max([0.0, *(abs(Ea - Eb) + abs(Fa - Fb) + abs(Ga - Gb) for (Ea, Fa, Ga), (Eb, Fb, Gb)
                       in zip(reference[1], bour.fundamental_forms(b, b_values)))])


def _grid_axis(name, center, span, count, floor=-math.inf):
    """count values over center +- span (the lower end clipped to floor); [center] for 1."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count!r}")
    if count == 1:
        return [center]
    return linspace(max(center - span, floor), center + span, count)


def deformation_family(data: EdgeData, h_span, m_span, nh, nm) -> DeformationFamily:
    """Validity grid of (h, m) around the base, with metric checks.

    h runs over nh values of base.h +- h_span and m over nm values of
    base.m +- m_span (clipped to m > 0); a count of 1 takes the base's own
    value. Invalid combinations are kept in the grid with valid=False.
    Members share U and V with the base: on the star grid through
    ``sibling``, and at the metric sample points through one
    ``metric_reference``, which also holds the base's forms.
    """
    hs = _grid_axis("nh", data.h, h_span, nh)
    ms = _grid_axis("nm", data.m, m_span, nm, floor=1e-6)
    reference = None
    members = []
    for h in hs:
        for m in ms:
            try:
                member = sibling(data, h, m)
            except BourEdgeError:
                members.append(FamilyMember(h, m, False, None, None))
                continue
            if reference is None:  # on the first valid member: a family with none reads no form
                reference = metric_reference(data, data.metric_values)
            dev = metric_deviation(data, member, reference=reference)
            members.append(FamilyMember(h, m, True, member, dev))
    return DeformationFamily(base=data, members=tuple(members))


def invariant_map(data: EdgeData):
    """(kappa_nu, kappa_t) of the datum."""
    return invariants.kappa_nu(data), invariants.kappa_t(data)


def jacobian_det(data: EdgeData):
    """Closed-form Jacobian determinant of (h, m) -> (kappa_nu, kappa_t)."""
    u0 = data.u_value(0.0)
    return 1.0 / (data.m**3 * rho(data, 0.0) * u0**2)


def jacobian_fd(data: EdgeData, step=1e-5):
    """Finite-difference determinant of the same map, for cross-checking."""
    import numpy as np

    u0 = data.u_value(0.0)
    v0 = data.v_jet.coeffs[0]

    def psi(h, m):
        return np.array(invariants.kappa_map(u0, v0, h, m, sqrt_at(0.0)))

    h0, m0 = data.h, data.m
    col_h = (psi(h0 + step, m0) - psi(h0 - step, m0)) / (2 * step)
    col_m = (psi(h0, m0 + step) - psi(h0, m0 - step)) / (2 * step)
    return float(np.linalg.det(np.column_stack([col_h, col_m])))


def _psi_and_jacobian(u0, v0, h, m):
    """psi(h, m) and its Jacobian from order-1 jets in h and m; None, None if rho(0)^2 <= 0."""
    try:
        by_h = invariants.kappa_map(u0, v0, variable_jet(h, 1), m, jet_sqrt)
        by_m = invariants.kappa_map(u0, v0, h, variable_jet(m, 1), jet_sqrt)
    except DomainError:
        return None, None
    psi = tuple(j.value for j in by_h)
    return psi, tuple((dh.coeffs[1], dm.coeffs[1]) for dh, dm in zip(by_h, by_m))


@dataclass(frozen=True)
class InversionResult:
    h: float
    m: float
    data: EdgeData
    iterations: int
    residual: float


def invert_invariants(data0: EdgeData, target, tol=1e-12, max_iterations=50) -> InversionResult:
    """Solve (kappa_nu, kappa_t)(h, m) = target by damped Newton from data0.

    Raises NoConvergence if the iteration stalls, StarViolation if the
    solution fails admissibility on all of J.
    """
    u0 = data0.u_value(0.0)
    v0 = data0.v_jet.coeffs[0]
    target_nu, target_t = (float(v) for v in target)
    h, m = data0.h, data0.m
    psi, jac = _psi_and_jacobian(u0, v0, h, m)
    if psi is None:
        raise StarViolation("starting datum has non-positive radicand at 0")
    for iteration in range(max_iterations):
        residual = (psi[0] - target_nu, psi[1] - target_t)
        if max_abs(residual) < tol:
            solved = sibling(data0, h, m)  # re-checks the star condition on J
            return InversionResult(h=h, m=m, data=solved, iterations=iteration,
                                   residual=max_abs(residual))
        step = solve2(jac, (-residual[0], -residual[1]))
        scale = 1.0
        while scale > 1e-12:
            h_new, m_new = h + scale * step[0], m + scale * step[1]
            if m_new > 0.0:
                psi_new, jac_new = _psi_and_jacobian(u0, v0, h_new, m_new)
                if psi_new is not None:
                    break
            scale *= 0.5
        else:
            raise NoConvergence("step damping exhausted without an admissible iterate")
        h, m, psi, jac = h_new, m_new, psi_new, jac_new
    raise NoConvergence(f"no convergence after {max_iterations} Newton iterations")


@dataclass(frozen=True)
class HelixInvariants:
    radius: float
    z_advance_per_angle: float  # |dz / d theta| along the singular curve


def singular_helix_invariants(data: EdgeData) -> HelixInvariants:
    """Radius and |dz/dtheta| of the singular curve, from sampled points."""
    p0 = bour.psi(data, 0.0, 0.0).position
    p1 = bour.psi(data, 0.0, 0.5).position
    radius = math.hypot(p0[0], p0[1])
    dtheta = bour.theta(data, 0.0, 0.5) - bour.theta(data, 0.0, 0.0)
    dz = p1[2] - p0[2]
    return HelixInvariants(radius=radius, z_advance_per_angle=abs(dz / dtheta))


@dataclass(frozen=True)
class IsomerSet:
    variants: tuple  # four EdgeData over (eps1, eps2) in {(+,+), (+,-), (-,+), (-,-)}
    metric_deviation: float
    helix: tuple  # HelixInvariants per variant

    def variant(self, eps1, eps2):
        for member in self.variants:
            if member.eps1 == eps1 and member.eps2 == eps2:
                return member
        raise KeyError((eps1, eps2))


def isomers(data: EdgeData) -> IsomerSet:
    """The four sign variants sharing the metric and the singular helix."""
    variants = tuple(
        data.replace(eps1=e1, eps2=e2)
        for e1, e2 in ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
    )
    # the values the base shares with its family, if one has read them
    reference = metric_reference(variants[0], data.metric_values)
    dev = max(metric_deviation(variants[0], v, reference=reference) for v in variants[1:])
    helix = tuple(singular_helix_invariants(v) for v in variants)
    return IsomerSet(variants=variants, metric_deviation=dev, helix=helix)


def revolution_path(data: EdgeData, steps) -> list:
    """Members along the linear pitch schedule h0 -> 0 (all remain valid)."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return [sibling(data, h, data.m) for h in linspace(data.h, 0.0, steps)]


def export_family(family: DeformationFamily, out_dir, rows=40, cols=40,
                  tol=quadrature.DEFAULT_TOL):
    """One OBJ per valid member plus family.csv with the invariant summary.

    rows and cols are checked first: a refused grid writes no file.
    """
    bour.check_grid_shape(rows, cols)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "family.csv")
    with open(csv_path, "w") as fh:
        fh.write("h,m,valid,kappa_nu,kappa_t,edge_type\n")
        for member in family.members:
            if member.valid:
                kn, kt = invariant_map(member.data)
                tag = cusps.classify_edge(member.data).tag
                fh.write(
                    f"{fmt17(member.h)},{fmt17(member.m)},true,"
                    f"{fmt17(kn)},{fmt17(kt)},{tag}\n"
                )
                mesh = bour.sample_mesh(member.data, rows=rows, cols=cols, tol=tol)
                name = f"member_h{member.h:.6g}_m{member.m:.6g}.obj"
                bour.write_obj(mesh, os.path.join(out_dir, name))
            else:
                fh.write(f"{fmt17(member.h)},{fmt17(member.m)},false,,,\n")
    return csv_path
