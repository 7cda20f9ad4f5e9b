import math
import os

import pytest

from bour_edge import deform, invariants
from bour_edge.cusps import classify_edge
from bour_edge.errors import NoConvergence, StarViolation
from bour_edge.expr import parse_expr
from bour_edge.profile import make_edge_data


def test_family_contains_revolution_member(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=0.2, m_span=0.0, nh=3, nm=1)
    by_h = {round(m.h, 10): m for m in family.members}
    assert by_h[0.0].valid  # (h, m) = (0, 1): the revolution member
    assert by_h[0.4].valid


def test_family_invalid_member(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=1.3, m_span=0.0, nh=3, nm=1)
    flags = {round(m.h, 10): m.valid for m in family.members}
    assert flags[1.5] is False
    assert flags[0.2] is True


def test_family_members_share_metric(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=0.15, m_span=0.1, nh=5, nm=5)
    valid = family.valid_members()
    assert valid
    assert max(m.metric_deviation for m in valid) < 3e-8


def test_family_edge_type_preserved(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=0.15, m_span=0.1, nh=3, nm=3)
    tags = {classify_edge(m.data).tag for m in family.valid_members()}
    assert tags == {"3/2"}


def test_family_invariant_pairs_distinct(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=0.1, m_span=0.05, nh=3, nm=3)
    pairs = [deform.invariant_map(m.data) for m in family.valid_members()]
    rounded = {(round(a, 12), round(b, 12)) for a, b in pairs}
    assert len(rounded) == len(pairs)


def test_jacobian_example_value(edge_k1):
    assert deform.jacobian_det(edge_k1) == pytest.approx(1.0 / math.sqrt(0.96), abs=1e-12)
    assert deform.jacobian_det(edge_k1) == pytest.approx(1.02062, abs=1e-4)


def test_jacobian_fd_agreement(edge_k1, edge_k2, corpus):
    for d in [edge_k1, edge_k2] + list(corpus):
        closed = deform.jacobian_det(d)
        fd = deform.jacobian_fd(d)
        assert abs(fd / closed - 1.0) < 1e-5


def test_jacobian_m_scaling_at_h_zero():
    # with h = 0 and V(0) = 0: det = 1/(m^4 U0^3); doubling m scales by 1/16,
    # i.e. the 1/8 from m^3 times the rho(0) ratio 1/2
    base = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.4, 0.4))
    doubled = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=2.0, eps0=1, eps1=1,
                             eps2=-1, k=1, J=(-0.4, 0.4))
    assert deform.jacobian_det(doubled) == pytest.approx(deform.jacobian_det(base) / 16.0, rel=1e-12)


def test_invert_fixed_point(edge_k1):
    result = deform.invert_invariants(edge_k1, deform.invariant_map(edge_k1))
    assert result.iterations <= 1
    assert result.h == pytest.approx(edge_k1.h, abs=1e-14)
    assert result.m == pytest.approx(edge_k1.m, abs=1e-14)


def test_invert_recovers_perturbed_parameters(edge_k1):
    target_data = make_edge_data(edge_k1.U, h=0.1, m=1.05, eps0=1, eps1=1, eps2=-1,
                                 k=1, J=edge_k1.J)
    result = deform.invert_invariants(edge_k1, deform.invariant_map(target_data))
    assert result.h == pytest.approx(0.1, abs=1e-8)
    assert result.m == pytest.approx(1.05, abs=1e-8)
    assert result.data.h == result.h


def test_invert_negative_pitch_branch(edge_k1):
    # kappa_t < 0 targets live at h < 0 and are reachable
    target_data = make_edge_data(edge_k1.U, h=-0.15, m=0.95, eps0=1, eps1=1, eps2=-1,
                                 k=1, J=edge_k1.J)
    result = deform.invert_invariants(edge_k1, deform.invariant_map(target_data))
    assert result.h == pytest.approx(-0.15, abs=1e-8)


def test_invert_unreachable_target(edge_k1):
    # kappa_nu is always positive; a negative target cannot be attained
    with pytest.raises((NoConvergence, StarViolation)):
        deform.invert_invariants(edge_k1, (-1.0, 0.2))


def test_isomers_variants_and_metric(edge_k1):
    iso = deform.isomers(edge_k1)
    assert len(iso.variants) == 4
    signs = {(v.eps1, v.eps2) for v in iso.variants}
    assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    # the isometric dual of (+,+) is the (+,-) variant, present in the set
    assert iso.variant(1, -1).eps2 == -1
    assert iso.metric_deviation < 1e-8


def test_isomer_helix_invariants(edge_k1):
    iso = deform.isomers(edge_k1)
    expected_radius = math.sqrt(edge_k1.m**2 * edge_k1.u_value(0.0) ** 2 - edge_k1.h**2)
    for hel in iso.helix:
        assert hel.radius == pytest.approx(expected_radius, abs=1e-14)
        assert hel.z_advance_per_angle == pytest.approx(abs(edge_k1.h), abs=1e-14)


def test_revolution_path_schedule(edge_k1):
    path = deform.revolution_path(edge_k1, 5)
    assert [round(p.h, 10) for p in path] == [0.2, 0.15, 0.1, 0.05, 0.0]
    u0 = edge_k1.u_value(0.0)
    for member in path:
        # every member is valid by construction (it would have raised) and
        # kappa_t is exactly linear in h
        assert invariants.kappa_t(member) == pytest.approx(
            member.h / (member.m**2 * u0**2), abs=1e-12)
    assert invariants.kappa_t(path[-1]) == 0.0


def test_revolution_path_kappa_nu_monotone(edge_k1):
    path = deform.revolution_path(edge_k1, 6)
    values = [invariants.kappa_nu(p) for p in path]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_export_family_layout(edge_k1, tmp_path):
    family = deform.deformation_family(edge_k1, h_span=0.05, m_span=0.0, nh=2, nm=1)
    out = tmp_path / "family"
    deform.export_family(family, out, rows=4, cols=4)
    names = sorted(os.listdir(out))
    assert "family.csv" in names
    objs = [n for n in names if n.endswith(".obj")]
    assert len(objs) == len(family.valid_members())
    assert all(n.startswith("member_h") and "_m" in n for n in objs)
    lines = (out / "family.csv").read_text().splitlines()
    assert lines[0] == "h,m,valid,kappa_nu,kappa_t,edge_type"
    assert len(lines) == 1 + len(family.members)
    assert lines[1].endswith(",3/2")


@pytest.mark.parametrize("nh, nm, name", [(0, 3, "nh"), (-1, 3, "nh"), (3, 0, "nm"), (2, -4, "nm")])
def test_family_refuses_a_count_below_one(edge_k1, nh, nm, name):
    with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {min(nh, nm)}$"):
        deform.deformation_family(edge_k1, h_span=0.1, m_span=0.1, nh=nh, nm=nm)


def test_family_count_of_one_samples_the_base(edge_k1):
    family = deform.deformation_family(edge_k1, h_span=0.1, m_span=0.05, nh=1, nm=1)
    assert [(mem.h, mem.m) for mem in family.members] == [(edge_k1.h, edge_k1.m)]
    family = deform.deformation_family(edge_k1, h_span=0.1, m_span=0.05, nh=1, nm=3)
    assert [mem.h for mem in family.members] == [edge_k1.h] * 3
    assert [mem.m for mem in family.members] == [0.95, 1.0, 1.05]


def test_family_evaluates_U_once_per_star_grid_and_metric_point(monkeypatch):
    U = parse_expr("1 - s*cos(s) + sin(s)")
    calls = []
    call = type(U).__call__
    monkeypatch.setattr(type(U), "__call__", lambda f, x: calls.append(f is U) or call(f, x))
    base = make_edge_data(U, h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1, k=1, J=(-0.8, 0.8), samples=64)
    calls.clear()
    family = deform.deformation_family(base, h_span=0.1, m_span=0.05, nh=3, nm=3)
    assert all(mem.valid for mem in family.members)  # no bisection, which calls U again
    # The default star grid (1024 points and s = 0), then the metric sample points.
    assert sum(calls) == 1025 + deform.METRIC_SAMPLE_COUNT
    calls.clear()
    deform.deformation_family(base, h_span=0.1, m_span=0.05, nh=3, nm=3)
    assert sum(calls) == deform.METRIC_SAMPLE_COUNT  # the base keeps its star grid
    calls.clear()
    deform.isomers(base)
    assert sum(calls) == deform.METRIC_SAMPLE_COUNT + 4 * 2  # + two helix points per variant


def test_family_deviations_match_metric_deviation(edge_k1, corpus):
    for data in [edge_k1] + list(corpus[:4]):
        family = deform.deformation_family(data, h_span=0.3, m_span=0.2, nh=3, nm=3)
        points = deform._metric_sample_points(data)
        for mem in family.valid_members():
            assert mem.metric_deviation == deform.metric_deviation(data, mem.data, points)
    iso = deform.isomers(edge_k1)
    points = deform._metric_sample_points(edge_k1)
    assert iso.metric_deviation == max(deform.metric_deviation(iso.variants[0], v, points)
                                       for v in iso.variants[1:])


def test_metric_deviation_of_a_different_U_is_large(edge_k1):
    other = make_edge_data("1.1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1,
                           k=1, J=(-0.8, 0.8))
    assert deform.metric_deviation(edge_k1, other) > 0.2  # G = U^2 moves by about 0.2
