import math
import os
from types import SimpleNamespace

import numpy as np
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


# (datum, target kappa_nu, target kappa_t, h, m) at 4850ab0, when Newton's step
# went through numpy.linalg.solve, by float.hex. The targets are the invariants
# of seeded (h, m) siblings.
INVERSIONS = [
    ("readme", "0x1.e863a7ea9a600p-1", "0x1.21127defc9856p-3", "0x1.36e3f78bbd380p-3", "0x1.097c3d68405b4p+0"),
    ("readme", "0x1.d2b168d9f24d9p-1", "0x1.a7b8ee53525d9p-3", "0x1.e4ffc9795b35ap-3", "0x1.11e2cdc011d36p+0"),
    ("readme", "0x1.0bb92416aa04dp+0", "0x1.39c799c07a69ap-3", "0x1.18df7a4e7ab75p-3", "0x1.e468cac4b4d05p-1"),
    ("readme", "0x1.0c56589a081cfp+0", "0x1.28cf35843342bp-3", "0x1.0913a4f8726d0p-3", "0x1.e3db5d894812cp-1"),
    ("readme", "0x1.0a72396752b4cp+0", "0x1.26b531340a8fcp-2", "0x1.f974e65bea0bcp-3", "0x1.da224edf61241p-1"),
    ("readme", "0x1.08f561e04ac2dp+0", "0x1.db41d8ca21d16p-3", "0x1.a66d373affb07p-3", "0x1.e2b4528283d37p-1"),
    ("edge_k2", "0x1.eb39be2cefd66p-1", "0x1.cb277e290ccb9p-5", "0x1.f11d798d8a97dp-5", "0x1.0a5f5275ee99bp+0"),
    ("edge_k2", "0x1.d3e9b74b8cfeep-1", "0x1.8e94168262fffp-4", "0x1.d7e02645e4e68p-4", "0x1.168bc169c23b8p+0"),
    ("edge_k2", "0x1.0c42afe03b442p+0", "0x1.5d1faa71d5af4p-4", "0x1.3bd9cae21101ep-4", "0x1.e6fdc9c4da902p-1"),
    ("edge_k2", "0x1.ecb5c39b58e0dp-1", "0x1.dae52bf07da0cp-4", "0x1.f97891e215339p-4", "0x1.081cd5f99c38cp+0"),
    ("edge_k2", "0x1.ec5259ab35cedp-1", "0x1.31f172482d393p-4", "0x1.48e79aae6c8f5p-4", "0x1.096ece13f4a98p+0"),
    ("edge_k2", "0x1.e352c0e8ceec9p-1", "0x1.49aa655bfa015p-4", "0x1.6f46aa087ca63p-4", "0x1.0e3571d1d4739p+0"),
]


def test_inversions_keep_their_reference_values(digest_data):
    for name, kappa_nu, kappa_t, h, m in INVERSIONS:
        result = deform.invert_invariants(digest_data[name],
                                          (float.fromhex(kappa_nu), float.fromhex(kappa_t)))
        for got, want in ((result.h, float.fromhex(h)), (result.m, float.fromhex(m))):
            assert abs(got - want) <= 4 * math.ulp(want)


def test_stored_metric_draws_are_those_of_the_seeded_generator():
    # A new METRIC_SEED or METRIC_SAMPLE_COUNT needs the stored tuple regenerated.
    draws = np.random.default_rng(deform.METRIC_SEED).random(2 * deform.METRIC_SAMPLE_COUNT)
    assert deform._METRIC_DRAWS == tuple(draws.tolist())


@pytest.mark.parametrize("J", [(-0.8, 0.8), (-0.7, 0.7), (-0.45, 0.3), (-1e-3, 2.5),
                               (-123.456, 7.0), (-1e-300, 1e-300)])
def test_metric_sample_points_match_the_seeded_generator(J):
    rng = np.random.default_rng(deform.METRIC_SEED)
    ss = rng.uniform(0.9 * J[0], 0.9 * J[1], deform.METRIC_SAMPLE_COUNT)
    ts = rng.uniform(0.0, 2.0 * math.pi, deform.METRIC_SAMPLE_COUNT)
    points = deform._metric_sample_points(SimpleNamespace(J=J))  # it reads only J
    assert all(type(s) is float and type(t) is float for s, t in points)
    assert np.array(points).tobytes() == np.column_stack([ss, ts]).tobytes()
