import io
import math

import numpy as np
import pytest

from bour_edge import bour, quadrature
from bour_edge.errors import NegativeRadicand
from bour_edge.profile import make_edge_data


def simpson(f, a, b, panels=4096):
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3.0


def test_x_of_s_examples(edge_k1):
    assert bour.x_of_s(edge_k1, 0.0) == pytest.approx(math.sqrt(0.96), abs=1e-15)
    flipped = edge_k1.replace(eps0=-1)
    for s in (-0.4, 0.0, 0.6):
        assert bour.x_of_s(flipped, s) == -bour.x_of_s(edge_k1, s)


def test_x_of_s_collapses_for_h_zero():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.2, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.6, 0.6))
    for s in (-0.5, 0.0, 0.3):
        assert bour.x_of_s(data, s) == pytest.approx(1.2 * data.u_value(s), rel=1e-14)


def test_x_of_s_invalid_datum(edge_k1):
    with pytest.raises(NegativeRadicand):
        bour.x_of_s(edge_k1.replace(h=1.5), 0.0)


def test_z_at_zero_is_exactly_zero(edge_k1, edge_k2):
    assert bour.z_of_s(edge_k1, 0.0) == 0.0
    assert bour.z_of_s(edge_k2, 0.0) == 0.0


def test_z_against_simpson_oracle(edge_k1):
    d = edge_k1
    f = bour._z_integrand(d)
    for s in (0.5, -0.35):
        expected = d.eps2 * d.m * simpson(f, 0.0, s)
        assert bour.z_of_s(d, s) == pytest.approx(expected, abs=1e-10)


def test_theta_against_simpson_oracle(edge_k1):
    d = edge_k1
    f = bour._theta_integrand(d)
    value = bour.theta(d, 0.5, 0.0)
    expected = -d.eps2 * d.h * simpson(f, 0.0, 0.5) / d.m
    assert value != 0.0
    assert value == pytest.approx(expected, abs=1e-10)


def test_theta_trivial_cases(edge_k1):
    assert bour.theta(edge_k1, 0.0, 1.3) == pytest.approx(1.3, abs=1e-15)
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=2.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.4, 0.4))
    for s in (-0.3, 0.0, 0.25):
        assert bour.theta(data, s, 0.8) == pytest.approx(0.8 / 2.0, abs=1e-15)


def test_z_parity_for_even_metric_function(edge_k2):
    # for even U the z-integrand has the parity of s^k: even k makes z odd,
    # odd k makes z even
    for s in (0.2, 0.45):
        assert bour.z_of_s(edge_k2, -s) == pytest.approx(-bour.z_of_s(edge_k2, s), abs=1e-11)
    d1 = make_edge_data("2 - cos(s)", h=0.3, m=0.8, eps0=1, eps1=1, eps2=1,
                        k=1, J=(-0.8, 0.8))
    for s in (0.2, 0.45):
        assert bour.z_of_s(d1, -s) == pytest.approx(bour.z_of_s(d1, s), abs=1e-11)


def test_near_zero_branch_agrees_with_quadrature(edge_k1):
    d = edge_k1
    for s in (2e-5, -7e-5, 9.9e-5):
        jet_value = bour.z_of_s(d, s)
        quad_value = d.eps2 * d.m * quadrature.integrate(bour._z_integrand(d), 0.0, s, 1e-14)[0]
        assert jet_value == pytest.approx(quad_value, abs=1e-14)
        jet_theta = bour._theta_integral(d, s, 1e-13)
        quad_theta = quadrature.integrate(bour._theta_integrand(d), 0.0, s, 1e-15)[0]
        assert jet_theta == pytest.approx(quad_theta, abs=1e-14)


def test_psi_at_singular_point(edge_k1):
    p = bour.psi(edge_k1, 0.0, 0.0)
    assert p.position == pytest.approx((math.sqrt(0.96), 0.0, 0.0), abs=1e-15)
    assert p.singular


def test_singular_curve_is_helix(edge_k1):
    d = edge_k1
    radius = abs(bour.x_of_s(d, 0.0))
    for t in np.linspace(0.0, 5.0, 7):
        p = bour.psi(d, 0.0, float(t)).position
        assert math.hypot(p[0], p[1]) == pytest.approx(radius, rel=1e-14)
        # third coordinate affine in t
        assert p[2] == pytest.approx(d.h * d.eps1 * t / d.m, abs=1e-14)


def test_rotational_periodicity_h_zero():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.6, 0.6))
    for s in (-0.4, 0.3):
        a = bour.psi(data, s, 1.0).position
        b = bour.psi(data, s, 1.0 + 2.0 * math.pi * data.m).position
        assert a == pytest.approx(b, abs=1e-12)


def test_helicoidal_equivariance(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        for s, t, delta in ((0.3, 1.0, 0.37), (-0.2, 0.0, 1.1)):
            moved = np.array(bour.psi(d, s, t + delta).position)
            base = np.array(bour.psi(d, s, t).position)
            ang = d.eps1 * delta / d.m
            rot = np.array([
                [math.cos(ang), -math.sin(ang), 0.0],
                [math.sin(ang), math.cos(ang), 0.0],
                [0.0, 0.0, 1.0],
            ])
            predicted = rot @ base + np.array([0.0, 0.0, d.h * d.eps1 * delta / d.m])
            assert np.max(np.abs(moved - predicted)) < 1e-10


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_metric_identity_random_points(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(7)
    lo, hi = d.J
    for _ in range(200):
        s = float(rng.uniform(lo, hi))
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        form = bour.first_fundamental_form(d, s, t)
        assert abs(form.E - s ** (2 * d.k)) < 1e-8
        assert abs(form.F) < 1e-8
        assert abs(form.G - d.u_value(s) ** 2) < 1e-8


def test_metric_at_singular_row(edge_k1):
    form = bour.first_fundamental_form(edge_k1, 0.0, 1.0)
    assert form.E == 0.0
    assert form.F == 0.0
    assert form.G == pytest.approx(edge_k1.u_value(0.0) ** 2, rel=1e-14)


def test_metric_invariant_across_h_m(edge_k1):
    # two valid data with the same U, k but different (h, m) are isometric
    other = make_edge_data(edge_k1.U, h=0.1, m=1.05, eps0=1, eps1=1, eps2=-1,
                           k=1, J=edge_k1.J)
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = float(rng.uniform(-0.7, 0.7))
        t = float(rng.uniform(0.0, 6.0))
        fa = bour.first_fundamental_form(edge_k1, s, t)
        fb = bour.first_fundamental_form(other, s, t)
        assert abs(fa.E - fb.E) < 1e-8
        assert abs(fa.F - fb.F) < 1e-8
        assert abs(fa.G - fb.G) < 1e-8


def test_jet_constant_term_is_surface_point(edge_k1):
    t = 0.7
    jets = bour.psi_jet_at_zero(edge_k1, t, 6)
    point = bour.psi(edge_k1, 0.0, t)
    for jet, coord in zip(jets, point.position):
        assert jet.coeffs[0] == pytest.approx(coord, abs=1e-14)


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_jet_low_coefficients_vanish(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    jets = bour.psi_jet_at_zero(d, 1.3, 2 * d.k + 2)
    for i in range(1, d.k + 1):
        for jet in jets:
            assert abs(jet.coeffs[i]) < 1e-10


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_jet_leading_derivative_norm(request, fixture_name):
    # Psi_{s^{k+1}}(0,t) has norm k! since the reduced direction is unit
    d = request.getfixturevalue(fixture_name)
    jets = bour.psi_jet_at_zero(d, 0.4, d.k + 1)
    vec = np.array([jet.derivative_value(d.k + 1) for jet in jets])
    assert np.linalg.norm(vec) == pytest.approx(math.factorial(d.k), rel=1e-9)


def test_jet_reduced_direction_orthogonal_to_flow(edge_k1, edge_k2):
    from bour_edge.invariants import psi_t_at_zero

    for d in (edge_k1, edge_k2):
        for t in (0.0, 1.0):
            jets = bour.psi_jet_at_zero(d, t, d.k + 1)
            reduced = np.array([jet.derivative_value(d.k + 1) for jet in jets]) / math.factorial(d.k)
            flow = psi_t_at_zero(d, t)
            assert abs(float(reduced @ flow)) < 1e-9
            assert np.linalg.norm(reduced) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_jet_truncation_consistency(edge_k1, order):
    # truncated jet evaluation agrees with pointwise psi to O(s^(order+1))
    s, t = 1e-2, 0.9
    jets = bour.psi_jet_at_zero(edge_k1, t, order)
    truncated = np.array([jet(s) for jet in jets])
    pointwise = np.array(bour.psi(edge_k1, s, t).position)
    assert np.max(np.abs(truncated - pointwise)) < 10.0 * abs(s) ** (order + 1)


def test_mesh_minimal_grid(edge_k1):
    mesh = bour.sample_mesh(edge_k1, (0.1, 0.2), (0.0, 1.0), rows=2, cols=2)
    assert mesh.positions.shape == (2, 2, 3)
    buf = io.StringIO()
    bour.write_obj(mesh, buf)
    lines = buf.getvalue().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1
    assert lines[0].startswith("# bour-edge ")
    assert "datum=" in lines[0]


def test_mesh_contains_exact_singular_row(edge_k1):
    mesh = bour.sample_mesh(edge_k1, (-0.5, 0.5), None, rows=9, cols=5)
    assert mesh.singular_row is not None
    assert mesh.s_values[mesh.singular_row] == 0.0
    assert np.all(np.diff(mesh.s_values) > 0)
    assert np.all(np.diff(mesh.t_values) > 0)
    point = mesh.point(mesh.singular_row, 0)
    assert point.singular
    # default t-range spans a full turn
    assert mesh.t_values[-1] == pytest.approx(2.0 * math.pi * edge_k1.m)


def test_mesh_without_singular_row(edge_k1):
    mesh = bour.sample_mesh(edge_k1, (0.1, 0.5), (0.0, 1.0), rows=5, cols=4)
    assert mesh.singular_row is None


def test_mesh_revolution_and_k2_members(edge_k1, edge_k2):
    # the h = 0 member is a surface of revolution: singular circle at s = 0
    rev = make_edge_data(edge_k1.U, h=0.0, m=1.0, eps0=1, eps1=1, eps2=-1,
                         k=1, J=edge_k1.J)
    mesh = bour.sample_mesh(rev, (-0.5, 0.5), None, rows=9, cols=12)
    ring = mesh.positions[mesh.singular_row]
    assert np.allclose(ring[:, 2], 0.0, atol=1e-12)
    radii = np.hypot(ring[:, 0], ring[:, 1])
    assert np.allclose(radii, abs(bour.x_of_s(rev, 0.0)), atol=1e-12)
    # the k = 2 datum meshes over its own domain
    mesh2 = bour.sample_mesh(edge_k2, (-0.5, 0.5), None, rows=7, cols=7)
    assert mesh2.singular_row is not None
    assert np.isfinite(mesh2.positions).all()


def test_mesh_range_validation(edge_k1):
    with pytest.raises(ValueError):
        bour.sample_mesh(edge_k1, (-2.0, 0.5), (0.0, 1.0), rows=4, cols=4)
    with pytest.raises(ValueError):
        bour.sample_mesh(edge_k1, (0.0, 0.5), (0.0, 1.0), rows=1, cols=4)


def test_form_csv_layout(edge_k1, tmp_path):
    path = tmp_path / "forms.csv"
    bour.write_form_csv(edge_k1, [0.0, 0.3], [0.0, 1.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,t,E,F,G"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == pytest.approx(edge_k1.u_value(0.0) ** 2)
