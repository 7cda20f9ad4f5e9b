import hashlib
import math

import numpy as np
import pytest

from bour_edge import bour, natural
from bour_edge.expr import parse_expr
from bour_edge.profile import make_edge_data


def test_singular_set_common_zero():
    # xdot = 2u and zdot = 3u^2 vanish together exactly at 0
    inp = natural.HelicoidalInput(parse_expr("1 + s^2"), parse_expr("s^3"),
                                  h=0.4, interval=(-1.0, 1.0))
    roots = natural.singular_set(inp)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-9


def test_singular_set_regular_profile_empty():
    inp = natural.HelicoidalInput(parse_expr("2 + sin(s)"), parse_expr("s"),
                                  h=0.1, interval=(-1.0, 1.0))
    assert natural.singular_set(inp) == []


def test_singular_set_off_origin():
    # shifted singular point at u = 0.25
    inp = natural.HelicoidalInput(parse_expr("1 + (s - 0.25)^2"), parse_expr("(s - 0.25)^3"),
                                  h=0.0, interval=(-0.5, 1.0))
    roots = natural.singular_set(inp)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.25, abs=1e-9)


def test_singular_set_of_bour_profile(edge_k1):
    profile = natural.BourProfile(edge_k1)
    roots = natural.singular_set(profile)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-9


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_bour_profile_rates_match_differences(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    profile = natural.BourProfile(d)
    step = 1e-4
    for s in (-0.55, -0.2, 0.15, 0.5):
        x, xd, zd = profile.rates(s)
        assert x == bour.x_of_s(d, s)
        xd_fd = (bour.x_of_s(d, s + step) - bour.x_of_s(d, s - step)) / (2 * step)
        zd_fd = (bour.z_of_s(d, s + step) - bour.z_of_s(d, s - step)) / (2 * step)
        assert xd == pytest.approx(xd_fd, abs=2e-8)
        assert zd == pytest.approx(zd_fd, abs=2e-8)


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_bour_profile_jets_only_at_zero(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    with pytest.raises(ValueError, match="at 0 only"):
        natural.BourProfile(d).jets(0.3, 4)


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_natural_coordinates_of_bour_profile_is_the_roundtrip_chart(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    chart = natural.natural_coordinates(natural.BourProfile(d), 0.0, d.k, n_tab=128)
    assert chart.to_dict() == natural.roundtrip(d, n_tab=128).chart.to_dict()


def test_axis_crossing_rejected():
    with pytest.raises(ValueError, match="axis"):
        natural.HelicoidalInput(parse_expr("s"), parse_expr("s^2"), h=0.1, interval=(-1.0, 1.0))


def test_check_generic_diagnostics():
    inp = natural.HelicoidalInput(parse_expr("1 + s^2"), parse_expr("s^3"),
                                  h=0.4, interval=(-1.0, 1.0))
    chk1 = natural.check_generic(inp, 0.0, 1)
    assert not chk1.ok
    assert any("z^(2)" in f for f in chk1.failures)
    chk2 = natural.check_generic(inp, 0.0, 2)
    assert not chk2.ok
    assert any("x^(2)" in f for f in chk2.failures)


def test_check_generic_axis_diagnostic():
    # x = s^2 meets the axis only at 0, between the 64 screening samples
    profile = natural.HelicoidalInput(parse_expr("s^2"), parse_expr("1 + s^2"),
                                      h=0.1, interval=(-1.0, 1.0))
    chk = natural.check_generic(profile, 0.0, 1)
    assert not chk.ok
    assert any("axis intersection" in f for f in chk.failures)


def test_check_generic_passes_on_bour_profile(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        profile = natural.BourProfile(d)
        chk = natural.check_generic(profile, 0.0, d.k)
        assert chk.ok, chk.failures


def test_generic_profile_example():
    # x = 1 + u^2 cannot be generic, but x = 1 + u^3, z = u^2 is for k = 1
    inp = natural.HelicoidalInput(parse_expr("1 + s^3"), parse_expr("s^2"),
                                  h=0.2, interval=(-0.5, 0.5))
    chk = natural.check_generic(inp, 0.0, 1)
    assert chk.ok


def test_phi_vanishes_for_revolution():
    inp = natural.HelicoidalInput(parse_expr("1 + s^3"), parse_expr("s^2"),
                                  h=0.0, interval=(-0.5, 0.5))
    chart = natural.natural_coordinates(inp, 0.0, 1, n_tab=128)
    assert np.max(np.abs(chart.phi_table)) == 0.0


def test_shear_orthogonality():
    inp = natural.HelicoidalInput(parse_expr("2 + sin(s)"), parse_expr("s^2"),
                                  h=0.3, interval=(-1.0, 1.0))
    profile = inp
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = float(rng.uniform(-1.0, 1.0))
        v = float(rng.uniform(0.0, 6.0))
        x, xd, zd = profile.rates(u)
        phi_prime = inp.h * zd / (x**2 + inp.h**2)
        f_u = np.array([xd * math.cos(v), xd * math.sin(v), zd])
        f_v = np.array([-x * math.sin(v), x * math.cos(v), inp.h])
        sheared = f_u - phi_prime * f_v
        assert abs(float(sheared @ f_v)) < 1e-9


def test_phi_table_matches_direct_quadrature():
    inp = natural.HelicoidalInput(parse_expr("1 + s^3"), parse_expr("s^2"),
                                  h=0.5, interval=(-0.5, 0.5))
    chart = natural.natural_coordinates(inp, 0.0, 1, n_tab=256)
    profile = inp

    def integrand(u):
        x, _, zd = profile.rates(u)
        return inp.h * zd / (x**2 + inp.h**2)

    from bour_edge.quadrature import integrate, pointwise
    for u, phi in zip(chart.phi_nodes[::16], chart.phi_table[::16]):
        (expected,), _ = integrate(pointwise(lambda w: (integrand(w),)), 0.0, float(u), 1e-13)
        assert float(phi) == pytest.approx(expected, abs=1e-9)
    # the interpolant derivative tracks the closed-form shear rate coarsely
    dphi = chart.phi_of_u.derivative()
    for u in np.linspace(-0.4, 0.4, 21):
        assert float(dphi(u)) == pytest.approx(integrand(float(u)), abs=1e-4)


def test_generic_profile_chart_metric_reproduction():
    # chart from a plain expression profile: E = s^(2k), G matches the chart U
    inp = natural.HelicoidalInput(parse_expr("1 + s^3 - 0.2*s^4"), parse_expr("s^2 + 0.3*s^3"),
                                  h=0.4, interval=(-0.5, 0.5))
    chart = natural.natural_coordinates(inp, 0.0, 1)
    profile = inp
    for u, s in zip(chart.u_table[::8], chart.s_table[::8]):
        u, s = float(u), float(s)
        if abs(u) < 2e-3 or abs(u) > 0.45:
            continue
        x, xd, zd = profile.rates(u)
        speed = math.sqrt(xd ** 2 + zd ** 2 * x**2 / (x**2 + inp.h**2))
        e_rec = (speed / float(chart.canonical.dsdu_of_u(u))) ** 2
        assert abs(e_rec - s ** 2) < 1e-6
        g_rec = float(chart.U_of_s(s)) ** 2
        assert abs(g_rec - (x**2 + inp.h**2)) < 1e-6


def test_chart_low_derivatives_vanish(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        report = natural.roundtrip(d)
        assert report.chart.max_low_derivative < 1e-7


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_roundtrip_recovers_metric_function(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    report = natural.roundtrip(d, s_probe=np.linspace(-0.5, 0.5, 41))
    assert report.sup_error_U < 1e-6
    assert report.m_hat == pytest.approx(d.m, abs=1e-9)


def test_roundtrip_metric_reproduction(edge_k1):
    report = natural.roundtrip(edge_k1)
    assert report.sup_error_metric < 1e-6


def test_roundtrip_m_normalization():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=2.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.4, 0.4))
    report = natural.roundtrip(data, s_probe=np.linspace(-0.3, 0.3, 31))
    assert report.m_hat == pytest.approx(2.0, abs=1e-9)
    assert report.sup_error_U < 1e-6


def test_roundtrip_second_pass_is_fixed_point(edge_k1):
    report = natural.roundtrip(edge_k1, s_probe=np.linspace(-0.5, 0.5, 41))
    chart2 = natural.second_pass_chart(edge_k1, report.chart)
    m2 = float(chart2.U_of_s(0.0)) / edge_k1.u_value(0.0)
    for sp in np.linspace(-0.45, 0.45, 31):
        first = float(report.chart.U_of_s(sp)) / report.m_hat
        second = float(chart2.U_of_s(sp)) / m2
        assert abs(first - second) < 1e-8


def test_chart_metric_sampling(edge_k1):
    # E = s^(2k), G = U(s)^2 reproduced by the recovered chart directly
    report = natural.roundtrip(edge_k1)
    chart = report.chart
    profile = natural.BourProfile(edge_k1)
    dsdu = chart.canonical.s_of_u.derivative()
    for u, s, U_rec in zip(chart.u_table[::16], chart.s_table[::16], chart.U_table[::16]):
        u, s = float(u), float(s)
        if abs(u) < 1e-2 or abs(u) > 0.7:
            continue
        x, xd, zd = profile.rates(u)
        speed = math.sqrt(xd ** 2 + zd ** 2 * x**2 / (x**2 + edge_k1.h**2))
        e_rec = (speed / float(dsdu(u))) ** 2
        assert abs(e_rec - s ** (2 * edge_k1.k)) < 1e-6
        assert abs((U_rec / report.m_hat) ** 2 - edge_k1.u_value(s) ** 2) < 1e-6


def test_natural_chart_json_dump(edge_k1):
    chart = natural.roundtrip(edge_k1).chart
    doc = chart.to_dict()
    assert set(doc) == {"u0", "k", "h", "u", "s", "U", "phi_u", "phi", "max_low_derivative"}
    assert len(doc["u"]) == len(doc["s"]) == len(doc["U"])
    assert doc["k"] == 1


def test_natural_coordinates_requires_genericity():
    inp = natural.HelicoidalInput(parse_expr("1 + s^2"), parse_expr("s^3"),
                                  h=0.4, interval=(-1.0, 1.0))
    with pytest.raises(ValueError, match="generic"):
        natural.natural_coordinates(inp, 0.0, 1)


@pytest.mark.parametrize("k", range(3, 8))
def test_roundtrip_for_higher_k(high_k_data, k):
    # the chart reads x and z to order 2k + 13 from the series at 0
    report = natural.roundtrip(high_k_data[k], n_tab=384)
    assert report.sup_error_U < 1e-6
    assert report.sup_error_metric < 1e-6


def test_roundtrip_refuses_probes_outside_the_chart(edge_k1):
    with pytest.raises(ValueError, match="no s_probe point lies in the chart's s-range"):
        natural.roundtrip(edge_k1, s_probe=np.linspace(5.0, 6.0, 10), n_tab=128)


# Sampled chart tables and roundtrip reports at 6dda1d8, whose phi table and
# canonical speed came from two separate quadratures, by float.hex. The speed
# now shares one pass with phi' and must keep these bytes.
_CHART_INDICES = (0, 37, 74, 111, 148, 185, 222, 259, 296, 333, 370, 407, 444, 481, 518, 555, 574)
_CHART_REFERENCE = {
    "edge_k1": {
        "report": {"sup_error_U": "0x1.5f173e0000000p-30", "sup_error_metric": "0x1.8c00000000000p-46",
                   "m_hat": "0x1.0000000000000p+0"},
        "s": ("-0x1.999999999999bp-1 -0x1.5e2af7c4915e3p-1 -0x1.22bc55ef8922cp-1 -0x1.ce9b683501ceap-2 "
              "-0x1.57be248af157cp-2 -0x1.c1c1c1c1c1c1dp-3 -0x1.a80e74db41a82p-4 -0x1.cac083126e979p-11 "
              "0x1.26e978d4fdf3cp-12 0x1.67ce349b0167ep-5 0x1.47ae147ae147bp-3 0x1.1ab44de7811acp-2 "
              "0x1.919191919191ap-2 0x1.04376a9dd1044p-1 0x1.3fa60c72d93fap-1 0x1.7b14ae47e17b2p-1 "
              "0x1.999999999999bp-1"),
        "U": ("0x1.ae15b2267ae51p-1 0x1.cbea242b90628p-1 0x1.e1bf4ac7babaap-1 0x1.f095486ed18e2p-1 "
              "0x1.f99dddb38d317p-1 0x1.fe337e330a13bp-1 0x1.ffcf91ec678a2p-1 0x1.fffffffe14f12p-1 "
              "0x1.0000000008276p+0 0x1.0001d9bfc4245p+0 0x1.00593fe7bc1bcp+0 0x1.01c82fb829bcdp+0 "
              "0x1.05114fedbcb4ep+0 0x1.0aea6e748e41fp+0 0x1.13f77493ef5d2p+0 0x1.20c5b7fbefc4bp+0 "
              "0x1.28f526ecc28d8p+0"),
    },
    "edge_k2": {
        "report": {"sup_error_U": "0x1.3764440000000p-30", "sup_error_metric": "0x1.8000000000000p-50",
                   "m_hat": "0x1.0000000000000p+0"},
        "s": ("-0x1.6666666666666p-1 -0x1.326598cbff326p-1 -0x1.fcc996632ffcbp-2 -0x1.94c7fb2e6194cp-2 "
              "-0x1.2cc65ff9932ccp-2 -0x1.8989898989899p-3 -0x1.730ca63fd9731p-4 -0x1.cac083126e979p-11 "
              "0x1.26e978d4fdf3cp-12 0x1.3ad46e07a13adp-5 0x1.1eb851eb851ecp-3 0x1.eebb885521eebp-3 "
              "0x1.5f5f5f5f5f5f5p-2 0x1.c760fa942dc74p-2 0x1.17b14ae47e17ap-1 0x1.4bb2187ee54bap-1 "
              "0x1.6666666666666p-1"),
        "U": ("0x1.0e8b861ac23dap+0 0x1.07e2c09ca3358p+0 0x1.03cb6711ad700p+0 0x1.0189221b73ecap+0 "
              "0x1.0078c93b05c1ap+0 0x1.00163f16d9edap+0 0x1.00011a3235893p+0 0x1.0000000000294p+0 "
              "0x1.0000000000008p+0 0x1.00000925ebb06p+0 0x1.000647c702af0p+0 0x1.00376ead5e0c2p+0 "
              "0x1.00e02e2da09dap+0 0x1.0272ceabe2580p+0 0x1.05833064d4a70p+0 0x1.0ac189668b3e4p+0 "
              "0x1.0e8b861ac23dap+0"),
    },
}


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_chart_tables_and_report_keep_their_bytes(request, fixture_name):
    want = _CHART_REFERENCE[fixture_name]
    report = natural.roundtrip(request.getfixturevalue(fixture_name))
    chart = report.chart
    assert len(chart.s_table) == _CHART_INDICES[-1] + 1
    for name, table in (("s", chart.s_table), ("U", chart.U_table)):
        assert [float(table[i]).hex() for i in _CHART_INDICES] == want[name].split()
    assert {k: v.hex() for k, v in report.to_dict().items()} == want["report"]


# phi, the canonical speed and the x read at each chart node, by float.hex, as
# computed at 5c26e59, where each node and each quadrature point was read by a
# call of the point kernel and the sheared speed and phi' were formed from its
# rates in Python. The chart loop must keep these bytes. edge_k1 and edge_k2
# use the default n_tab and keep a sample at _CHART_INDICES; every datum keeps
# the SHA-256 of each whole table, its float.hex values joined by spaces.
_CHART_NODE_SAMPLES = {
    "edge_k1": {
        "phi": (
            "-0x1.000463ae9a4d6p-4 -0x1.7673787e3cd05p-5 -0x1.0380f9ee39257p-5 -0x1.4b5437c679372p-6 "
            "-0x1.7196e3cd173a9p-7 -0x1.3f73e1204720ep-8 -0x1.1e0e10b81e93ep-10 "
            "-0x1.4f9d38fed9394p-24 -0x1.15653a3126000p-27 -0x1.9cb01b45a03abp-13 "
            "-0x1.53ce6c917f14dp-9 -0x1.f0edc9bfd7075p-8 -0x1.e62999f4870a2p-7 -0x1.861afeb68153cp-6 "
            "-0x1.14bd5ff0012a3p-5 -0x1.67ff96565173fp-5 -0x1.9147a31c19ef2p-5"),
        "speed": (
            "0x1.999999999999cp-1 0x1.5e2af7c4915e2p-1 0x1.22bc55ef8922cp-1 0x1.ce9b683501ceap-2 "
            "0x1.57be248af157cp-2 0x1.c1c1c1c1c1c1dp-3 0x1.a80e74db41a82p-4 0x1.cac083126e979p-11 "
            "0x1.26e978d4fdf3cp-12 0x1.67ce349b0167ep-5 0x1.47ae147ae147ap-3 0x1.1ab44de7811acp-2 "
            "0x1.919191919191ap-2 0x1.04376a9dd1045p-1 0x1.3fa60c72d93fbp-1 0x1.7b14ae47e17b2p-1 "
            "0x1.9999999999999p-1"),
        "x": (
            "0x1.a1b7710d71859p-1 0x1.c05ebaece9adap-1 0x1.d6bd0792f9828p-1 0x1.e5e9190d6b471p-1 "
            "0x1.ef2389b4f2f57p-1 0x1.f3d1c530b9fe7p-1 0x1.f57660f8e488cp-1 0x1.f5a7cecbc1558p-1 "
            "0x1.f5a7cecdc7298p-1 0x1.f5ab95d6da775p-1 0x1.f65dfb92ce50cp-1 0x1.f94adc406212bp-1 "
            "0x1.fffedd824fde0p-1 0x1.05f588612f669p+0 0x1.0f2cebc0d5ab8p+0 0x1.1c3278d30df24p+0 "
            "0x1.2482aff73c736p+0"),
    },
    "edge_k2": {
        "phi": (
            "0x1.33cc32adba66ep-7 0x1.99f6697d0f968p-8 0x1.ecb9df52553b0p-9 0x1.012f88ca2256fp-9 "
            "0x1.b0d62d7f5d2c3p-11 0x1.ecc87758d1881p-13 0x1.a0c849b6e6187p-16 0x1.8ad34954e2e67p-36 "
            "-0x1.a392ee84761f2p-41 -0x1.fe3a502d1638fp-20 -0x1.7f40acee1c9edp-14 "
            "-0x1.e61f42f8c0c10p-12 -0x1.553f0ea57e1f4p-10 -0x1.68603396ae131p-9 "
            "-0x1.404d41163b0f5p-8 -0x1.f94076d3bfa57p-8 -0x1.33cc32adba66ep-7"),
        "speed": (
            "0x1.f5c28f5c28f5bp-2 0x1.6eb709999a3ebp-2 0x1.f99855cb93464p-3 0x1.4003e6816e468p-3 "
            "0x1.61618aa98afbdp-4 0x1.2e7bc91663b10p-5 0x1.0ce6d53e891b6p-7 0x1.9b0ab2e1693c1p-21 "
            "0x1.53bd1676640a8p-24 0x1.832dce312371cp-10 0x1.41205bc01a36dp-6 0x1.de0c25c481f79p-5 "
            "0x1.e246ab0f73d81p-4 0x1.9504efbbcf915p-3 0x1.3193ec06b0b6cp-2 0x1.adc6073e37c06p-2 "
            "0x1.f5c28f5c28f5bp-2"),
        "x": (
            "0x1.0d54c36c47de4p+0 0x1.06a41cf0944cep+0 0x1.0287b8957319bp+0 0x1.0042993a289c3p+0 "
            "0x1.fe61c7bbd910ep-1 0x1.fd9bb5d6fb2bbp-1 0x1.fd713588e6389p-1 0x1.fd6efe4c9bdd4p-1 "
            "0x1.fd6efe4c9b8b5p-1 0x1.fd6f10b00b932p-1 0x1.fd7b9e0d44612p-1 0x1.fdde6a830f5ccp-1 "
            "0x1.ff319ae96d969p-1 0x1.012d6e7c9ad90p+0 0x1.0441a4e181b72p+0 0x1.09865784c3a6dp+0 "
            "0x1.0d54c36c47de4p+0"),
    },
}
_CHART_NODE_SHA256 = {
    "edge_k1": {
        "phi": "943de88cf67ef0e781aafb79256bf7c7877b5ec8f26fb0fe876bd0a6ca394fe4",
        "speed": "d57f1fe1508d346a5270326615c2952ff97edb3e29a0cef280830089ceb4e266",
        "x": "0d946f6abb3c96b08cc7a63de0ecafc7180f0cd53b68c2d897940dd2b4648d1b",
    },
    "edge_k2": {
        "phi": "0655cda42fb2722611d0d0a860ca7a6d500a41dc2de87480a4535f1e9efca6a4",
        "speed": "c7a00414b467bc1c33c235139cb9b8f4b90e01e2ca97875550050d004b9e01b2",
        "x": "02c93ce7fde4fdeeb31744e264ed29f89be3c086c5d5383d09c7d1da18390fc7",
    },
    "high_k3": {
        "phi": "d64d7c9c6c069115e7317205203466fc5b9a1115dd9e1c661d7738d2fc9870ba",
        "speed": "b948b2a76ef8f002804ba2b9a0934d931c623f5c917f382b28bb4941beed5c93",
        "x": "48400c7dbeba1021d3f55505baec18f2f71a94c81926e76093e2cc5eed9ac126",
    },
    "high_k4": {
        "phi": "36ec39387e8454c9ce1aab725632dfc3bc1ff73a92ebd1b37c26af19870467bd",
        "speed": "b30fb97fd3f85f535069ddbc408aee7cb922313aff3408804473449dd7b43a70",
        "x": "0a49c6e8b6252edb8306653e6a2b30b9d7525001bcf736321ac20b970e01b474",
    },
    "high_k5": {
        "phi": "7913f4c9404031452133b1e698ca2543dddbe6d54f6b7b9bdd6637e928af392e",
        "speed": "0ce40ea833c75e7b23ff9d2735fb9ab3bfe67a2c104251f0a35a8910c36df157",
        "x": "71a6438af7bebed4f995ee977a2edba562b585f73fe320133d27e5b428132f5c",
    },
    "high_k6": {
        "phi": "a4b1ecdb4b80abb8940249918a6b4e242c86e0fd3e7d161b8c7b1594665f857c",
        "speed": "f95e6a6e0f2e86300f067b89391cbfd823d1261336e3b1365c03db944022ce6c",
        "x": "6bdf29f3f37864b23445e9b381cf3e476dfd514c5702b22cd1df1feb993c5c0f",
    },
    "high_k7": {
        "phi": "46050679d06571b36335aafdabec82188e5c10dd14eded9568685d094d5bbf61",
        "speed": "ca5b14428a4df27994d28c1b1422b53e76ff2fbf52998f17f62080bbebb9cb53",
        "x": "380be42372180eed3c2074063d8660e71e0a3a2a2b27705ea7c21e0e21f35b9e",
    },
}


def _node_tables(chart):
    return {"phi": chart.phi_table.tolist(), "speed": chart.canonical.speed_table.tolist(),
            "x": [values[0] for values in chart.canonical.node_values]}


@pytest.mark.parametrize("name", ["edge_k1", "edge_k2", *(f"high_k{k}" for k in range(3, 8))])
def test_chart_node_tables_keep_their_bytes(request, high_k_data, name):
    if name.startswith("high_k"):
        chart = natural.roundtrip(high_k_data[int(name[6:])], n_tab=384).chart
    else:
        chart = natural.roundtrip(request.getfixturevalue(name)).chart
    for table, values in _node_tables(chart).items():
        hexes = [float(v).hex() for v in values]
        assert hashlib.sha256(" ".join(hexes).encode()).hexdigest() == _CHART_NODE_SHA256[name][table]
        if name in _CHART_NODE_SAMPLES:
            assert [hexes[i] for i in _CHART_INDICES] == _CHART_NODE_SAMPLES[name][table].split()


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_roundtrip_report_fields_are_plain_floats(request, fixture_name):
    # sup_error_metric was an np.float64 on edge_k2 at 6dda1d8
    report = natural.roundtrip(request.getfixturevalue(fixture_name))
    for value in report.to_dict().values():
        assert type(value) is float


@pytest.mark.parametrize("fixture_name", ["edge_k1", "edge_k2"])
def test_phi_is_anchored_at_the_singular_point(request, fixture_name):
    d = request.getfixturevalue(fixture_name)
    chart = natural.roundtrip(d, n_tab=128).chart
    assert chart.phi_of_u(chart.u0) == 0.0
    assert list(chart.phi_nodes) == list(chart.u_table)
    # phi(u) = int_0^u h zdot / (x^2 + h^2), near 0 (from the jet) and away from it
    profile = natural.BourProfile(d)

    def integrand(u):
        x, _, zd = profile.rates(u)
        return d.h * zd / (x**2 + d.h**2)

    from bour_edge.quadrature import integrate, pointwise
    near = [i for i, u in enumerate(chart.u_table) if 0.0 < abs(u) <= 1e-3]
    for i in near[::8] + list(range(0, len(chart.u_table), 16)):
        (expected,), _ = integrate(pointwise(lambda w: (integrand(w),)), 0.0, float(chart.u_table[i]), 1e-14)
        assert float(chart.phi_table[i]) == pytest.approx(expected, abs=1e-11)


def test_chart_speed_table_is_the_sheared_speed(edge_k1):
    chart = natural.roundtrip(edge_k1, n_tab=128).chart
    profile = natural.BourProfile(edge_k1)
    for u, speed in zip(chart.u_table.tolist(), chart.canonical.speed_table.tolist()):
        x, xd, zd = profile.rates(u)
        direct = math.sqrt(natural._sheared_speed_sq(x, xd, zd, edge_k1.h))
        if abs(u) > 1e-3:  # a node's own rates
            assert speed == direct
        else:  # the speed's jet inside the band
            assert speed == pytest.approx(direct, abs=1e-15)


def test_natural_coordinates_read_each_node_once(edge_k1):
    # The chart loop reads every quadrature panel's 15 points in one call, then
    # each side's nodes in one call, then the band's 65. 11,872 rates calls at
    # 6dda1d8, which integrated phi' and the speed in two passes on two node sets,
    # 6,112 with one pass for both; each point was one call then.
    profile = natural.BourProfile(edge_k1)
    loop = profile.chart_loop
    reads = []
    profile.chart_loop = lambda us: reads.append(len(us)) or loop(us)
    chart = natural.natural_coordinates(profile, 0.0, 1, n_tab=384)
    node_reads = [i for i, n in enumerate(reads) if n != 15]
    assert len(node_reads) == 3 and node_reads[-1] == len(reads) - 1 and reads[-1] == 65
    side_nodes = reads[node_reads[0]] + reads[node_reads[1]]
    assert side_nodes + 65 == len(chart.u_table)
    assert len(reads) - 3 >= side_nodes  # a panel or more per segment between nodes
    assert 6000 < sum(reads) <= 6500  # 6,177: one panel per segment


def test_a_profile_that_overrides_rates_is_read_through_them(edge_k1):
    # The chart loop stands in for BourProfile.rates only; an override is called
    # at every point, and gives the loop's chart, since the two agree bit for bit.
    class Counted(natural.BourProfile):
        calls = 0

        def rates(self, s):
            Counted.calls += 1
            return super().rates(s)

    profile = Counted(edge_k1)
    chart = natural.natural_coordinates(profile, 0.0, 1, n_tab=384)
    assert "chart_loop" not in vars(profile)  # never built
    loop_chart = natural.natural_coordinates(natural.BourProfile(edge_k1), 0.0, 1, n_tab=384)
    assert 0 < Counted.calls <= 6500
    assert chart.to_dict() == loop_chart.to_dict()
    assert chart.canonical.speed_table.tolist() == loop_chart.canonical.speed_table.tolist()


def test_the_roundtrip_never_builds_the_point_kernel():
    d = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1,
                       k=1, J=(-0.8, 0.8))
    natural.roundtrip(d, n_tab=128)
    assert d._point_kernel is None
