import math

import numpy as np
import pytest

from bour_edge import invariants as inv
from bour_edge.errors import LadderViolated
from bour_edge.profile import make_edge_data, rho


def test_kappa_nu_example_value(edge_k1):
    assert inv.kappa_nu(edge_k1) == pytest.approx(math.sqrt(0.96), abs=1e-12)


def test_kappa_nu_h_zero():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.25, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.6, 0.6))
    # V(0) = 0, so rho(0) = m U(0) and kappa_nu = 1/(m U(0))
    assert inv.kappa_nu(data) == pytest.approx(1.0 / (1.25 * data.u_value(0.0)), rel=1e-14)


def test_kappa_nu_sign_blind(edge_k1):
    base = inv.kappa_nu(edge_k1)
    for e0 in (1, -1):
        for e1 in (1, -1):
            for e2 in (1, -1):
                assert inv.kappa_nu(edge_k1.replace(eps0=e0, eps1=e1, eps2=e2)) == base


def test_kappa_nu_oracle_agreement(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        for t in (0.0, 1.0, 2.0):
            assert abs(inv.kappa_nu(d) - inv.kappa_nu_numeric(d, t)) < 1e-9


def test_helix_acceleration_orthogonal_to_velocity(edge_k1):
    for t in (0.0, 1.0, 2.0):
        pt = inv.psi_t_at_zero(edge_k1, t)
        ptt = inv.psi_tt_at_zero(edge_k1, t)
        assert abs(float(np.dot(pt, ptt))) < 1e-10


def test_kappa_nu_magnitude_bound(corpus):
    for d in corpus:
        u0 = d.u_value(0.0)
        assert abs(inv.kappa_nu(d)) * d.m**2 * u0**2 <= d.m * u0 + 1e-12


def test_kappa_t_example_value(edge_k1):
    assert inv.kappa_t(edge_k1) == pytest.approx(0.2, abs=1e-15)


def test_kappa_t_zero_for_revolution():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.6, 0.6))
    assert inv.kappa_t(data) == 0.0


def test_kappa_t_scaling_in_m(edge_k1):
    doubled = make_edge_data(edge_k1.U, h=0.2, m=2.0, eps0=1, eps1=1, eps2=-1,
                             k=1, J=(-0.4, 0.4))
    assert inv.kappa_t(doubled) == pytest.approx(inv.kappa_t(edge_k1) / 4.0, rel=1e-14)


def test_kappa_t_oracle_agreement(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        assert abs(inv.kappa_t(d) - inv.kappa_t_numeric(d)) < 1e-6


def test_kappa_t_second_term_ingredient_vanishes(edge_k1, edge_k2):
    # the tangent direction is orthogonal to the leading s-derivative
    from bour_edge.bour import psi_jet_at_zero

    for d in (edge_k1, edge_k2):
        jets = psi_jet_at_zero(d, 0.0, d.n)
        eta_n = np.array([j.derivative_value(d.n) for j in jets])
        xi = inv.psi_t_at_zero(d, 0.0)
        assert abs(float(xi @ eta_n)) < 1e-9


def test_kappa_t_eps1_flip_invariant(edge_k1):
    flipped = edge_k1.replace(eps1=-1)
    assert inv.kappa_t_numeric(flipped) == pytest.approx(inv.kappa_t_numeric(edge_k1), abs=1e-9)


def test_omega_example_value(edge_k1):
    expected = -2.0 / math.sqrt(0.96)
    assert inv.omega(edge_k1, 1) == pytest.approx(expected, rel=1e-12)
    assert abs(inv.omega(edge_k1, 1) - inv.omega_numeric(edge_k1, 1)) < 1e-6


def test_omega_example_value_k2(edge_k2):
    # U^(4)(0) = 6, n = 3
    expected = -6.0 / (2.0 ** (4.0 / 3.0) * math.sqrt(0.99))
    assert inv.omega(edge_k2, 1) == pytest.approx(expected, rel=1e-12)
    assert abs(inv.omega(edge_k2, 1) - inv.omega_numeric(edge_k2, 1)) < 1e-6


def test_omega_zero_for_non_front(ladder_data):
    # U^(n+1)(0) = 0 makes omega_{n,n+1} vanish
    d = ladder_data[0]  # k=1, U = 1 + c s^4/24: U'''(0) = 0
    assert inv.omega(d, 1) == pytest.approx(0.0, abs=1e-12)


def test_omega_index_domain(edge_k1, edge_k2):
    with pytest.raises(ValueError, match="beta"):
        inv.omega(edge_k1, 2)  # i = n for n = 2
    with pytest.raises(ValueError):
        inv.omega(edge_k2, 5)
    with pytest.raises(ValueError):
        inv.omega_numeric(edge_k1, 3)
    with pytest.raises(ValueError):
        inv.omega_numeric(edge_k1, 0)


def test_omega_ladder_violation(edge_k2):
    # U^(4)(0) = 6 != 0 so omega_{3,5} is not defined
    with pytest.raises(LadderViolated):
        inv.omega(edge_k2, 2)


def test_beta_requires_vanishing_ladder(edge_k1):
    with pytest.raises(LadderViolated):
        inv.beta(edge_k1)


def test_beta_h_zero_case(ladder_data):
    d = ladder_data[1]  # k=1, h=0, U = 1.2 + 0.3 s^4 - ...
    u0 = d.u_value(0.0)
    u4 = d.u_jet.truncated(4).derivative_value(4)
    expected = d.eps1 * d.eps2 * d.m**2 * u0 * u4 / rho(d, 0.0)
    assert inv.beta(d) == pytest.approx(expected, rel=1e-12)


def test_beta_pitch_only_case(ladder_data):
    d = ladder_data[2]  # k=1, U = 1 + s^6/720: U''''(0) = 0, h = 0.1
    expected = -3.0 * d.eps1 * d.eps2 * d.h**2 / (rho(d, 0.0) * d.m**2 * d.u_value(0.0) ** 2)
    assert inv.beta(d) == pytest.approx(expected, rel=1e-12)


def test_beta_oracle_agreement(ladder_data):
    for d in ladder_data:
        assert abs(inv.beta(d) - inv.beta_numeric(d)) < 1e-6


def test_corpus_oracle_agreement(corpus, edge_k1, edge_k2):
    for d in list(corpus) + [edge_k1, edge_k2]:
        report = inv.compute_invariant_report(d)
        assert report.max_discrepancy < 1e-6


def test_front_criterion(corpus, ladder_data):
    # omega_{n,n+1} != 0 iff U^(n+1)(0) != 0
    for d in list(corpus) + list(ladder_data):
        u_n1 = d.u_jet.truncated(d.n + 1).derivative_value(d.n + 1)
        value = inv.omega(d, 1)
        band = 1e-9 * max(1.0, abs(d.u_value(0.0)))
        if abs(u_n1) > band:
            assert value != 0.0
        else:
            assert abs(value) < 1e-8


def test_kappa_nu_positive_and_kappa_t_sign(corpus):
    for d in corpus:
        assert inv.kappa_nu(d) > 0.0
        kt = inv.kappa_t(d)
        if d.h > 0:
            assert kt > 0
        elif d.h == 0:
            assert kt == 0
        else:
            assert kt < 0
    # explicit negative pitch
    neg = make_edge_data("1 - s*cos(s) + sin(s)", h=-0.2, m=1.0, eps0=1, eps1=1,
                         eps2=-1, k=1, J=(-0.8, 0.8))
    assert inv.kappa_t(neg) < 0


def test_report_structure(edge_k1, ladder_data):
    doc = inv.report_to_dict(inv.compute_invariant_report(edge_k1))
    assert set(doc) == {"kappa_nu", "kappa_t", "omega", "beta", "max_discrepancy"}
    assert set(doc["kappa_nu"]) == {"closed", "oracle"}
    assert doc["omega"] == [[1, pytest.approx(-2.0412414523193152), pytest.approx(-2.0412414523193152)]]
    assert doc["beta"] is None

    full = inv.report_to_dict(inv.compute_invariant_report(ladder_data[3]))
    assert full["beta"] is not None
    assert [entry[0] for entry in full["omega"]] == [1, 2]


def test_invariants_t_independent(edge_k1, edge_k2):
    for d in (edge_k1, edge_k2):
        values_nu = {round(inv.kappa_nu_numeric(d, t), 12) for t in (0.0, 1.0, 2.0)}
        assert len(values_nu) == 1
        values_t = [inv.kappa_t_numeric(d, t) for t in (0.0, 1.0, 2.0)]
        assert max(values_t) - min(values_t) < 1e-9


@pytest.mark.parametrize("k", range(3, 8))
def test_invariant_report_for_higher_k(high_k_data, k):
    # omega_(n,n+i) and beta read s-derivatives up to 2n = 2k + 2 from the series at 0
    report = inv.compute_invariant_report(high_k_data[k])
    assert len(report.omegas) == k and report.beta is not None
    assert report.max_discrepancy < 1e-6


def test_omega_ladder_past_the_series_names_the_orders():
    d = make_edge_data("1 + 0.01*s^17", h=0.1, m=1.0, eps0=1, eps1=1, eps2=1, k=16, J=(-0.4, 0.4))
    with pytest.raises(ValueError, match=r"^the omega ladder at k = 16 needs U's series at s = 0 "
                                         r"to order 33, but they stop at order 32 \(jets\.MAX_ORDER = 32\)$"):
        inv.omega(d, 1)


# The oracles' values at 4850ab0, when they went through numpy (BLAS dot and
# LAPACK det), by float.hex.
ORACLE_REFERENCE = {
    "readme": {"kappa_nu": "0x1.f5a7cecdb684ap-1", "kappa_t": "0x1.999999999999ap-3",
               "omega_1": "-0x1.0547666079ba8p+1"},
    "edge_k2": {"kappa_nu": "0x1.fd6efe4c9b8a5p-1", "kappa_t": "0x1.9999999999998p-4",
                "omega_1": "-0x1.325101b60f36cp+1"},
    "six_powers": {"kappa_nu": "0x1.50f96aa2bed7bp-1", "kappa_t": "0x1.609df8f26afe4p-3",
                   "omega_1": "0x1.84f7a5695df9ep-2"},
    "high_k10": {"kappa_nu": "0x1.f3092ece5bc36p-1", "kappa_t": "0x1.99999999786cdp-4",
                 **{f"omega_{i}": "0x0.0p+0" for i in range(1, 11)},
                 "beta": "0x1.a9d80af898648p+19"},
}
# At k = 10 the LAPACK determinant of beta's oracle was 9 ulp from the exact
# determinant of the same three vectors; the triple product now reads it exactly,
# which moves the oracle by 14 ulp (towards the closed form).
ORACLE_ULPS = {("high_k10", "beta"): 16}


@pytest.mark.parametrize("name", ORACLE_REFERENCE)
def test_oracles_keep_their_reference_values(digest_data, name):
    report = inv.compute_invariant_report(digest_data[name])
    got = {"kappa_nu": report.kappa_nu.oracle, "kappa_t": report.kappa_t.oracle,
           **{f"omega_{i}": pair.oracle for i, pair in report.omegas}}
    if report.beta is not None:
        got["beta"] = report.beta.oracle
    assert got.keys() == ORACLE_REFERENCE[name].keys()
    for key, want in ORACLE_REFERENCE[name].items():
        want = float.fromhex(want)
        assert abs(got[key] - want) <= ORACLE_ULPS.get((name, key), 4) * math.ulp(want), key
