import json
import math

import numpy as np
import pytest

from bour_edge.errors import (
    BourEdgeError,
    NegativeRadicand,
    NonPositiveU,
    NonVanishingLowDerivative,
    StarViolation,
)
from bour_edge.jets import jet_eval
from bour_edge.expr import parse_expr
from bour_edge.profile import (
    DEFAULT_STAR_SAMPLES,
    check_star,
    datum_from_dict,
    datum_from_json,
    make_edge_data,
    radicand,
    rho,
    sibling,
)


def test_example_k1_datum_extracts_v(edge_k1):
    sin_jet = jet_eval(parse_expr("sin(s)"), 0.0, edge_k1.v_jet.order)
    assert edge_k1.v_jet.coeffs == pytest.approx(sin_jet.coeffs, abs=1e-12)
    for s in (-0.6, -0.01, 0.0005, 0.3):
        assert edge_k1.v_value(s) == pytest.approx(math.sin(s), abs=1e-12)


def test_example_k2_datum_extracts_v(edge_k2):
    sin_jet = jet_eval(parse_expr("sin(s)"), 0.0, edge_k2.v_jet.order)
    assert edge_k2.v_jet.coeffs == pytest.approx(sin_jet.coeffs, abs=1e-12)
    for s in (-0.5, 0.2, 0.0002):
        assert edge_k2.v_value(s) == pytest.approx(math.sin(s), abs=1e-11)


def test_nonvanishing_low_derivative():
    with pytest.raises(NonVanishingLowDerivative):
        make_edge_data("1 + s", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))


def test_nonpositive_u():
    with pytest.raises(NonPositiveU):
        make_edge_data("-1 + s^2", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))
    # positive at 0 but dips negative inside J
    with pytest.raises(NonPositiveU):
        make_edge_data("0.1 - s^2", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_edge_data("1 + s^2", h=0.0, m=-1.0, eps0=1, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))
    with pytest.raises(ValueError):
        make_edge_data("1 + s^2", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=0, J=(-0.5, 0.5))
    with pytest.raises(ValueError):
        make_edge_data("1 + s^2", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=1, J=(0.1, 0.5))
    with pytest.raises(ValueError):
        make_edge_data("1 + s^2", h=0.0, m=1.0, eps0=2, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))


def test_rho_at_zero(edge_k1):
    assert rho(edge_k1, 0.0) == pytest.approx(math.sqrt(0.96), abs=1e-15)


def test_rho_reduces_for_h_zero():
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.3, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.6, 0.6))
    assert rho(data, 0.0) == pytest.approx(1.3 * data.u_value(0.0), rel=1e-14)


def test_rho_negative_radicand(edge_k1):
    bad = edge_k1.replace(h=1.5)
    with pytest.raises(NegativeRadicand) as err:
        rho(bad, 0.0)
    assert err.value.value < 0


def test_check_star_ok(edge_k1):
    report = check_star(edge_k1, 256)
    assert report.star_ok
    assert report.rho_min > 0
    assert report.failures == ()


def test_check_star_fails_at_zero():
    # h = m U(0) with V(0) = 0: the radicand vanishes exactly at s = 0
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.8, 0.8))
    boundary = data.replace(h=1.0)
    report = check_star(boundary, 64)
    assert not report.star_ok
    assert any(name == "rho_at_zero" for name, _, _ in report.failures)


def test_check_star_locates_sign_change():
    # valid at 0, violated near the ends of J for large h
    data = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1,
                          eps2=-1, k=1, J=(-0.8, 0.8))
    squeezed = data.replace(h=0.9)
    report = check_star(squeezed, 256)
    assert not report.star_ok
    crossings = [s for name, s, _ in report.failures if name == "rho_sign_change"]
    assert crossings
    for s in crossings:
        assert abs(radicand(squeezed, s)) < 1e-6


def test_monotone_shrinking_in_h(edge_k1):
    # if (h1, m) passes, any 0 <= h2 <= h1 passes
    for h2 in (0.15, 0.1, 0.05, 0.0):
        report = check_star(edge_k1.replace(h=h2), 128)
        assert report.star_ok, h2


def test_rho_monotone_in_h(edge_k1):
    for s in np.linspace(-0.7, 0.7, 11):
        values = [rho(edge_k1.replace(h=h), float(s)) for h in (0.0, 0.1, 0.2)]
        assert values[0] >= values[1] >= values[2]


def test_x_radicand_dominates_rho(edge_k1, edge_k2):
    for data in (edge_k1, edge_k2):
        for s in np.linspace(data.J[0] * 0.95, data.J[1] * 0.95, 33):
            r_sq = rho(data, float(s)) ** 2
            x_sq = data.m**2 * data.u_value(float(s)) ** 2 - data.h**2
            assert x_sq >= r_sq > 0


def test_validation_is_sign_blind(edge_k1):
    base = check_star(edge_k1, 128)
    for eps0 in (1, -1):
        for eps1 in (1, -1):
            for eps2 in (1, -1):
                flipped = edge_k1.replace(eps0=eps0, eps1=eps1, eps2=eps2)
                report = check_star(flipped, 128)
                assert report.star_ok == base.star_ok
                assert report.rho_min == pytest.approx(base.rho_min, rel=1e-14)


def test_star_violation_on_construction():
    with pytest.raises(StarViolation):
        make_edge_data("1 - s*cos(s) + sin(s)", h=1.5, m=1.0, eps0=1, eps1=1,
                       eps2=-1, k=1, J=(-0.8, 0.8))


def test_json_round_trip(edge_k1):
    payload = edge_k1.to_dict()
    assert set(payload) == {"U", "h", "m", "eps0", "eps1", "eps2", "k", "J"}
    rebuilt = datum_from_dict(payload)
    assert rebuilt.h == edge_k1.h
    assert rebuilt.m == edge_k1.m
    assert rebuilt.k == edge_k1.k
    assert rebuilt.U.root == edge_k1.U.root
    again = datum_from_json(json.dumps(payload))
    assert again.v_jet.coeffs == edge_k1.v_jet.coeffs


def test_n_is_k_plus_one(edge_k1, edge_k2):
    assert edge_k1.n == 2
    assert edge_k2.n == 3


@pytest.mark.parametrize("field, value", [("h", math.nan), ("m", math.nan), ("m", math.inf)])
def test_non_finite_parameters_rejected(field, value):
    params = dict(h=0.2, m=1.0)
    params[field] = value
    with pytest.raises(ValueError):
        make_edge_data("1 - s*cos(s) + sin(s)", eps0=1, eps1=1, eps2=-1, k=1,
                       J=(-0.8, 0.8), **params)


def test_nan_valued_U_rejected():
    # U(0) = inf - inf + 1 = nan
    with pytest.raises(NonPositiveU):
        make_edge_data("1e308*(2 + s^2) - 1e308*(2 + s^2) + 1", h=0.0, m=1.0,
                       eps0=1, eps1=1, eps2=1, k=1, J=(-0.8, 0.8))


def test_nan_inside_J_rejected():
    # U(0) = 1, but 0 * inf = nan wherever s^2 * 1e600 overflows
    with pytest.raises(NonPositiveU):
        make_edge_data("1 + 0*(1e300*s^2*1e300)", h=0.0, m=1.0,
                       eps0=1, eps1=1, eps2=1, k=1, J=(-0.8, 0.8))


def test_nan_zero_tolerance_rejects():
    with pytest.raises(NonVanishingLowDerivative):
        make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1,
                       eps2=-1, k=1, J=(-0.8, 0.8), zero_tol=math.nan)


def test_check_star_counts_nan_radicand_as_failure(edge_k1):
    report = check_star(edge_k1.replace(h=math.nan), 64)
    assert not report.star_ok
    assert any(name == "rho_at_zero" for name, _, _ in report.failures)


def test_make_edge_data_evaluates_U_once_per_star_grid_point(monkeypatch):
    U = parse_expr("1 - s*cos(s) + sin(s)")
    calls = []
    call = type(U).__call__
    monkeypatch.setattr(type(U), "__call__", lambda f, x: calls.append(f is U) or call(f, x))
    make_edge_data(U, h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1, k=1, J=(-0.8, 0.8), samples=64)
    assert sum(calls) == 65  # 64 grid points and s = 0


def test_non_positive_U_is_reported_before_a_refused_V():
    # U(-1) = -1 on the grid, and U' divides by 2 sqrt(0) at the grid point s = 0.5.
    with pytest.raises(NonPositiveU, match=r"U\(-1\.0\) = -1\.0 is not positive on J"):
        make_edge_data("1 + 0*sqrt((s - 0.5)^2) - 2*s^2", h=0.0, m=1.0,
                       eps0=1, eps1=1, eps2=1, k=1, J=(-1.0, 1.0), samples=65)


def _outcome(build, *args):
    try:
        return build(*args), None
    except (ValueError, BourEdgeError) as exc:
        return None, (type(exc), str(exc))


def test_sibling_matches_a_rebuild(corpus):
    # A sibling re-checks only h, m and the star condition; the rest is the datum's.
    outcomes = set()
    for data in corpus:
        for dh in (-0.2, 0.0, 0.4):
            for dm in (-0.8, 0.0, 0.3):
                h, m = data.h + dh, data.m + dm
                rebuilt, rebuilt_error = _outcome(make_edge_data, data.U, h, m, data.eps0,
                                                  data.eps1, data.eps2, data.k, data.J)
                member, member_error = _outcome(sibling, data, h, m)
                assert member_error == rebuilt_error
                outcomes.add(rebuilt_error[0] if rebuilt_error else None)
                if rebuilt is None:
                    continue
                assert member == rebuilt
                assert member.u_jet.coeffs == rebuilt.u_jet.coeffs
                assert member.v_jet.coeffs == rebuilt.v_jet.coeffs
                assert member._rho_min == rebuilt._rho_min
    assert outcomes == {None, ValueError, StarViolation}


# U dips to -1 at a point of the default 1024-point grid of J = [-1, 1] that lies
# 3.4e-3 from the nearest point of the 64-point grid, where U is 1 to 1e-5.
_DIP = -1 + 2 * 700 / 1023
DIPPED_U = f"1 - 2*exp(-(s - {_DIP!r})^2*1e6)"


def test_siblings_of_a_base_with_U_non_positive_on_the_star_grid():
    base = make_edge_data(DIPPED_U, h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1, k=1, J=(-1.0, 1.0),
                          samples=64)
    for h, m in ((0.2, 1.0), (0.0, 1.2), (0.3, 0.9)):
        with pytest.raises(NonPositiveU) as rebuilt:
            make_edge_data(DIPPED_U, h=h, m=m, eps0=1, eps1=1, eps2=-1, k=1, J=(-1.0, 1.0))
        with pytest.raises(NonPositiveU) as member:
            sibling(base, h, m)
        assert str(member.value) == str(rebuilt.value)
        assert str(member.value).startswith(f"U({_DIP!r}) = -1.0 is not positive")
    assert base._star_grid == [None]  # nothing is kept for a later sibling


def test_siblings_share_the_star_grid(edge_k1):
    grid, us, vs = edge_k1.star_grid
    assert len(grid) == DEFAULT_STAR_SAMPLES + 1 and 0.0 in grid
    assert us == [edge_k1.u_value(s) for s in grid]
    assert vs == [edge_k1.v_value(s) for s in grid]
    member = sibling(edge_k1, 0.1, 1.05)
    assert member.star_grid is edge_k1.star_grid
    again = sibling(member, 0.15, 0.95)
    direct = sibling(edge_k1, 0.15, 0.95)
    assert again == direct
    assert again._rho_min == direct._rho_min
    assert again.star_grid is edge_k1.star_grid


def test_replaced_copies_carry_no_star_grid(edge_k1):
    edge_k1.star_grid  # filled
    for copy in (edge_k1.replace(U=parse_expr("1.5 - s*cos(s) + sin(s)")),
                 edge_k1.replace(J=(-0.5, 0.5)), edge_k1.replace(h=0.1)):
        assert copy._star_grid == [None]
    moved = edge_k1.replace(U=parse_expr("2 - s*cos(s) + sin(s)"), J=(-0.5, 0.5))
    assert moved.star_grid[0][0] == -0.5
    assert moved.star_grid[1][0] == moved.u_value(-0.5)


def test_a_replaced_U_or_k_gets_its_own_series(edge_k1, edge_k2):
    from bour_edge import bour

    text = "2 - s*cos(s) + sin(s)"
    copy = edge_k1.replace(U=text)
    rebuilt = make_edge_data(text, h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1, k=1, J=(-0.8, 0.8))
    assert copy == rebuilt
    assert copy.u_jet.coeffs == rebuilt.u_jet.coeffs
    assert copy.v_jet.coeffs == rebuilt.v_jet.coeffs
    assert bour.z_of_s(copy, 5e-5) == bour.z_of_s(rebuilt, 5e-5)
    # edge_k2's U' vanishes to order 2, so it makes a k = 1 datum as well
    as_k1 = make_edge_data(edge_k2.U, h=0.1, m=1.0, eps0=1, eps1=1, eps2=-1, k=1, J=(-0.7, 0.7))
    again = as_k1.replace(k=2)
    assert again.u_jet.coeffs == edge_k2.u_jet.coeffs
    assert again.v_jet.coeffs == edge_k2.v_jet.coeffs
    assert edge_k1.replace(h=0.1).u_jet is edge_k1.u_jet


def test_a_scan_on_another_grid_keeps_no_star_grid(edge_k1):
    copy = edge_k1.replace(h=0.1)
    check_star(copy, 64)
    assert copy._star_grid == [None]
    check_star(copy)
    assert copy._star_grid[0] is not None


# A spike of width about 1e-4 at s = 0.3001 lies between grid points; the
# radicand reaches about -2.3e8 inside it.
SPIKED_U = "1 - 0.95*exp(-(s-0.3001)^2*1e8)"


def test_the_spiked_datum_violates_the_star_condition():
    data = make_edge_data(SPIKED_U, 0, 1, 1, 1, 1, 1, (-0.8, 0.8))
    assert data._rho_min > 0.99
    assert radicand(data, 0.2999986) < -1e8


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the star scan samples J at 1025 points and misses the spike")
def test_a_star_violation_between_grid_points_is_refused():
    with pytest.raises(StarViolation):
        make_edge_data(SPIKED_U, 0, 1, 1, 1, 1, 1, (-0.8, 0.8))
