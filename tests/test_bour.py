import gc
import io
import math
import weakref

import numpy as np
import pytest

from bour_edge import bour, cusps, invariants, quadrature
from bour_edge.errors import DomainError, NegativeRadicand
from bour_edge.profile import make_edge_data, rho


def simpson(f, a, b, panels=4096):
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4 if i % 2 else 2) * f(a + i * h)
    return total * h / 3.0


def z_integrand(d):
    """w^k U rho / (m^2 U^2 - h^2): z' without its factor eps2 m, from the docstring."""
    return lambda w: w**d.k * d.u_value(w) * rho(d, w) / (d.m**2 * d.u_value(w) ** 2 - d.h**2)


def theta_integrand(d):
    """w^k rho / (U (m^2 U^2 - h^2)): theta_s without its factor -eps2 h / m."""
    return lambda w: w**d.k * rho(d, w) / (d.u_value(w) * (d.m**2 * d.u_value(w) ** 2 - d.h**2))


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
    f = z_integrand(d)
    for s in (0.5, -0.35):
        expected = d.eps2 * d.m * simpson(f, 0.0, s)
        assert bour.z_of_s(d, s) == pytest.approx(expected, abs=1e-10)


def test_theta_against_simpson_oracle(edge_k1):
    d = edge_k1
    f = theta_integrand(d)
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
        quad_value = d.eps2 * d.m * quadrature.integrate(z_integrand(d), 0.0, s, 1e-14)[0]
        assert jet_value == pytest.approx(quad_value, abs=1e-14)
        # theta(s, 0) = -eps2 h / m times the raw integral; compared unscaled
        jet_theta = bour.theta(d, s, 0.0, 1e-13) * d.m / (-d.eps2 * d.h)
        quad_theta = quadrature.integrate(theta_integrand(d), 0.0, s, 1e-15)[0]
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
    point = bour.psi(edge_k1, float(mesh.s_values[mesh.singular_row]), float(mesh.t_values[0]))
    assert point.singular
    assert point.position == tuple(mesh.positions[mesh.singular_row, 0])
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


def test_mesh_refuses_non_finite_or_reversed_ranges(edge_k1):
    for s_range, t_range in (((0.5, -0.5), None), ((0.1, 0.1), None), ((math.nan, 0.5), None),
                             (None, (0.0, math.nan)), (None, (1.0, 0.0)), (None, (-math.inf, 1.0))):
        with pytest.raises(ValueError, match="must be finite with lo < hi"):
            bour.sample_mesh(edge_k1, s_range, t_range, rows=3, cols=3)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_tolerances_that_are_not_positive_and_finite_are_refused(edge_k1, tol):
    for call in (lambda: bour.z_of_s(edge_k1, 0.5, tol), lambda: bour.theta(edge_k1, 5e-5, 0.0, tol),
                 lambda: bour.sample_mesh(edge_k1, rows=2, cols=2, tol=tol)):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_floats_and_jets_refuse_the_same_angles(edge_k1, t):
    with pytest.raises(DomainError, match="sin/cos"):
        bour.psi(edge_k1, 0.3, t)
    with pytest.raises(DomainError, match="sin/cos"):
        bour.psi_jet_at_zero(edge_k1, t, 3)
# Psi on a 5 x 3 mesh (rows, then cols) and at s = 5e-5, -3e-5 with t = 1.3,
# by float.hex, as computed when z and theta were integrated from their raw
# integrands. Defining them by z' and theta_s moves the last bits only.
_DRIFT_REFERENCE = {
    "readme": (
        '0x1.a0e69f93983b2p-1 0x1.a178fbe5bb6f9p-5 -0x1.0bc6182499924p-2',
        '-0x1.a0e69f93983b2p-1 -0x1.a178fbe5bb6fdp-5 0x1.779fd6af0489dp-2',
        '0x1.a0e69f93983b3p-1 0x1.a178fbe5bb6bap-5 0x1.fd82e2c15152ep-1',
        '0x1.ea9e2a43269f3p-1 0x1.f40d97eea7296p-7 -0x1.33a99a0197da0p-4',
        '-0x1.ea9e2a43269f3p-1 -0x1.f40d97eea7251p-7 0x1.1b3dc4299c12cp-1',
        '0x1.ea9e2a43269f3p-1 0x1.f40d97eea7118p-7 0x1.2e785dc9b5906p+0',
        '0x1.f5a7cecdb684ap-1 0x0.0p+0 0x0.0p+0',
        '-0x1.f5a7cecdb684ap-1 0x1.14add3361c4abp-53 0x1.41b2f769cf0e0p-1',
        '0x1.f5a7cecdb684ap-1 -0x1.14add3361c4abp-52 0x1.41b2f769cf0e0p+0',
        '0x1.0047c1bf0e6e8p+0 0x1.f91621ca39dffp-7 -0x1.33e70c851a2e0p-4',
        '-0x1.0047c1bf0e6e8p+0 -0x1.f91621ca39d59p-7 0x1.1b3615d92bc84p-1',
        '0x1.0047c1bf0e6e8p+0 0x1.f91621ca39d12p-7 0x1.2e7486a17d6b2p+0',
        '0x1.2428ddb6222afp+0 0x1.ca53a0cc32f49p-5 -0x1.0e1d4f57289c4p-2',
        '-0x1.2428ddb6222afp+0 -0x1.ca53a0cc32f45p-5 0x1.75489f7c757fdp-2',
        '0x1.2428ddb6222afp+0 0x1.ca53a0cc32f32p-5 0x1.fc57472809cdep-1',
        '0x1.0c626faeabb53p-2 0x1.e35fcfad9483ap-1 0x1.0a3d708ecc8e2p-2',
        '0x1.0c626fb151b0ep-2 0x1.e35fcfad36495p-1 0x1.0a3d709c43e7dp-2',
    ),
    "edge_k2": (
        '0x1.0d51b8bbec4e1p+0 -0x1.43d24322ce0c0p-7 0x1.8ed4b36e3ef7bp-4',
        '-0x1.0d51b8bbec4e1p+0 0x1.43d24322ce097p-7 0x1.a56824455ecc0p-2',
        '0x1.0d51b8bbec4e1p+0 -0x1.43d24322ce0e1p-7 0x1.738d8dd796ed0p-1',
        '0x1.ff565db2de562p-1 -0x1.690bd3f57c476p-10 0x1.c0cb60966af91p-7',
        '-0x1.ff565db2de562p-1 0x1.690bd3f57c4aap-10 0x1.4fb9526e8265dp-2',
        '0x1.ff565db2de562p-1 -0x1.690bd3f57cedcp-10 0x1.48b624ec28b9ep-1',
        '0x1.fd6efe4c9b8a5p-1 0x0.0p+0 0x0.0p+0',
        '-0x1.fd6efe4c9b8a5p-1 0x1.18f80700db071p-53 0x1.41b2f769cf0e0p-2',
        '0x1.fd6efe4c9b8a5p-1 -0x1.18f80700db071p-52 0x1.41b2f769cf0e0p-1',
        '0x1.ff565db2de566p-1 0x1.690bd3f57c473p-10 -0x1.c0cb60966af89p-7',
        '-0x1.ff565db2de566p-1 -0x1.690bd3f57c045p-10 0x1.33ac9c651bb64p-2',
        '0x1.ff565db2de566p-1 0x1.690bd3f57c60ep-10 0x1.3aafc9e775622p-1',
        '0x1.0d51b8bbec4e1p+0 0x1.43d24322ce0c0p-7 -0x1.8ed4b36e3ef7bp-4',
        '-0x1.0d51b8bbec4e1p+0 -0x1.43d24322ce003p-7 0x1.bbfb951c7ea02p-3',
        '0x1.0d51b8bbec4e1p+0 0x1.43d24322cdfb8p-7 0x1.0fd860fc072f1p-1',
        '0x1.108bb74643074p-2 0x1.eade6f318b2adp-1 0x1.0a3d70a3d6acep-3',
        '0x1.108bb746430cbp-2 0x1.eade6f318b29fp-1 0x1.0a3d70a3d71e7p-3',
    ),
}


@pytest.mark.parametrize("fixture_name, name", [("edge_k1", "readme"), ("edge_k2", "edge_k2")])
def test_mesh_vertices_keep_their_reference_values(request, fixture_name, name):
    d = request.getfixturevalue(fixture_name)
    mesh = bour.sample_mesh(d, rows=5, cols=3)
    points = [tuple(mesh.positions[r, c]) for r in range(5) for c in range(3)]
    points += [bour.psi(d, s, 1.3).position for s in (5e-5, -3e-5)]
    reference = [[float.fromhex(v) for v in text.split()] for text in _DRIFT_REFERENCE[name]]
    assert np.max(np.abs(np.array(points) - np.array(reference))) <= 1e-14


def test_form_csv_layout(edge_k1, tmp_path):
    path = tmp_path / "forms.csv"
    bour.write_form_csv(edge_k1, [0.0, 0.3], [0.0, 1.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,t,E,F,G"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) == pytest.approx(edge_k1.u_value(0.0) ** 2)


def _readme_datum():
    return make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1,
                          k=1, J=(-0.8, 0.8), samples=64)


def _use_series(d):
    invariants.compute_invariant_report(d)
    cusps.classify_edge_via_profile(d)
    bour.z_of_s(d, 5e-5)


def test_a_used_datum_is_freed():
    d = _readme_datum()
    _use_series(d)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_series_at_zero_is_cut_from_the_datum(monkeypatch):
    d = _readme_datum()
    jet_calls, series_calls = [], []
    jet_fn = d.U.jet_fn
    d.U.__dict__["jet_fn"] = lambda x: jet_calls.append(x.order) or jet_fn(x)
    series_at_zero = bour.series_at_zero
    monkeypatch.setattr(bour, "series_at_zero", lambda data: series_calls.append(1) or series_at_zero(data))
    _use_series(d)
    assert jet_calls == []
    assert series_calls == [1]
    assert d.series[0].order == d.u_jet.order == 3 * d.k + 13
    assert d.series[1].order == d.v_jet.order + 1 == 2 * d.k + 13
    d.replace(h=0.1).series  # a sibling builds its own
    assert series_calls == [1, 1]


def test_row_reads_z_and_theta_from_one_pass(corpus, edge_k1, edge_k2):
    # for h != 0 the pair (z', theta_s) shares one subdivision, each component
    # to tol; for h = 0, z alone is integrated, as by z_of_s
    for d in [edge_k1, edge_k2] + corpus[:8]:
        for s in np.linspace(d.J[0], d.J[1], 13):
            s = float(s)
            x, z, theta0 = bour._row(d, s, 1e-12)
            assert x == bour.x_of_s(d, s)
            separate = (bour.z_of_s(d, s, 1e-12), bour.theta(d, s, 0.0, 1e-12))
            if d.h == 0.0 or abs(s) < bour.NEAR_ZERO_RADIUS:
                assert (z, theta0) == separate
            else:
                assert abs(z - separate[0]) <= 1e-15
                assert abs(theta0 - separate[1]) <= 1e-15
