"""The star bound of a family (``profile.star_bound``) against the members' own scans.

A member (h, m) of a valid datum is decided by h*h against the bound of m where
it clears the bound's margin, and scanned (``sibling``) only inside the tie band.
Every decision must be the scan's, and a decided member must be sibling's datum.
"""

import dataclasses
import math

import pytest

from bour_edge import deform
from bour_edge.errors import BourEdgeError, StarViolation
from bour_edge.profile import check_star, decided_sibling, sibling, star_bound, star_radicand

U_ROUNDOFF = 2.0**-53


def _sibling_outcome(data, h, m):
    try:
        return sibling(data, h, m)
    except BourEdgeError as exc:
        return type(exc), str(exc)


def _same_datum(member, expected):
    """Field for field, with rho_min None (not scanned) or the scan's."""
    for f in dataclasses.fields(member):
        if f.name != "_rho_min":
            assert getattr(member, f.name) == getattr(expected, f.name), f.name
    assert member._rho_min in (None, expected._rho_min)


def _decide(data, h, m):
    """("decided" or "scanned", the sibling or an error) of decided_sibling."""
    try:
        member = decided_sibling(data, h, m, {})
    except BourEdgeError as exc:
        return "scanned", (type(exc), str(exc))
    if member is None:
        return "decided", None
    return ("scanned" if member._rho_min is not None else "decided"), member


def _agrees(data, h, m):
    """The way decided_sibling took at (h, m), after checking it against sibling."""
    way, got = _decide(data, h, m)
    expected = _sibling_outcome(data, h, m)
    if isinstance(expected, tuple):
        assert got is None or got == expected, (h, m)
        assert got is not None or expected[0] is StarViolation
    else:
        assert got is not None and not isinstance(got, tuple), (h, m)
        _same_datum(got, expected)
    return way, isinstance(expected, tuple)


def _around(target):
    """h at sqrt(target) and one ulp either side, for a target of h*h."""
    if not target >= 0.0:
        return []
    h = math.sqrt(target)
    return [math.nextafter(h, 0.0), h, math.nextafter(h, math.inf)]


def _targets(d, margin):
    """h*h targets: at D, at D -+ 2uM (half the margin), at D -+ margin, and at
    relative distances 1e-14, 1e-9 and 1e-3 from D."""
    half = 0.5 * margin
    return [d, d - half, d + half, d - margin, d + margin,
            *(d * (1.0 + sign * rel) for rel in (1e-14, 1e-9, 1e-3) for sign in (-1.0, 1.0))]


def test_the_bound_is_the_least_radicand_at_h_zero(corpus, digest_data):
    not_first = 0
    for data in [*corpus, *digest_data.values()]:
        for m in (0.8 * data.m, data.m, 1.2 * data.m):
            d, margin = star_bound(data, m)
            report = check_star(dataclasses.replace(data, h=0.0, m=m))  # the shared star grid
            assert d.hex() == report.rho_min.hex()
            _, us, vs = data.star_grid
            big = max(m * m * max(us) ** 2, m**4 * max(us) ** 2 * max(v * v for v in vs))
            assert margin == pytest.approx(4 * U_ROUNDOFF * big, rel=1e-15)
            not_first += d != star_radicand(us[0], vs[0], 0.0, m)
    assert not_first > 0  # some least radicand is not at the grid's first point


def test_members_near_the_bound_agree_with_their_scans(corpus, digest_data):
    ways = set()
    for data in [*corpus, *digest_data.values()]:
        for m in (0.8 * data.m, data.m, 1.2 * data.m):
            d, margin = star_bound(data, m)
            for target in _targets(d, margin):
                for h in _around(target):
                    ways.add(_agrees(data, h, m))
    # both verdicts were decided by the bound, and the tie band was scanned
    assert {("decided", False), ("decided", True), ("scanned", False)} <= ways


def _table_datum(edge_k1, us, vs):
    """edge_k1 with the star grid holding us and vs (U and V at made-up points)."""
    data = edge_k1.replace()
    grid = [i / (len(us) - 1) - 0.5 for i in range(len(us))]
    data._star_grid[0] = (grid, list(us), list(vs))
    return data


def test_a_cancelling_row_puts_the_boundary_off_the_least_radicand(edge_k1):
    # On the row with U = m = 1, A = 1 and B = fl(v*v) lies near 1, so D = 1 - B is
    # exact and small, but fl(1 - h*h) rounds at 1's spacing: a member with h*h
    # just under D fails its scan, and one 2uM under D passes it.
    v = 1.0 - 2.0**-21
    data = _table_datum(edge_k1, [1.0, 1.0, 1.0], [0.5, v, 0.25])
    d, margin = star_bound(data, 1.0)
    assert d == 1.0 - v * v and margin == 4 * U_ROUNDOFF
    ways = {_agrees(data, h, 1.0) for target in _targets(d, margin) for h in _around(target)}
    assert {("decided", False), ("decided", True), ("scanned", False), ("scanned", True)} <= ways


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_table_with_a_nan_or_inf_v_has_no_bound(edge_k1, bad):
    # min() passes over a NaN after the first row; the sum holds it
    data = _table_datum(edge_k1, [1.0, 1.0, 1.0, 1.0], [0.1, 0.2, bad, 0.1])
    assert star_bound(data, 1.0) is None
    for h in (0.0, 0.5):
        assert _decide(data, h, 1.0) == ("scanned", _sibling_outcome(data, h, 1.0))
        assert _sibling_outcome(data, h, 1.0)[0] is StarViolation


def test_the_margin_reads_v_where_u_squared_alone_is_too_small(edge_k1):
    # A = U^2 = 1e-300 gives no normal 4uA, B = U^2 V^2 = 1e-280 does: the bound
    # exists, and proves every member invalid (rho^2 < 0 wherever V is 1e10).
    data = _table_datum(edge_k1, [1e-150] * 3, [0.0, 1e10, 0.0])
    d, margin = star_bound(data, 1.0)
    assert d < 0.0 and margin == 4 * U_ROUNDOFF * (1e-300 * 1e20)
    for h in (0.0, 1e-200, 0.3):
        assert _agrees(data, h, 1.0) == ("decided", True)


def test_an_m_whose_pass_has_no_bound_scans_each_member(edge_k1):
    # U * U underflows to 0 on every row: A = B = 0, so M = 0 and no margin.
    data = _table_datum(edge_k1, [1e-200] * 3, [0.1] * 3)
    assert star_bound(data, 1.0) is None
    assert _agrees(data, 0.0, 1.0) == ("scanned", True)


def test_a_family_is_its_siblings(corpus):
    ways = set()
    for data in corpus:
        for spans in ((0.15, 0.1), (0.6, 0.5)):
            family = deform.deformation_family(data, *spans, 5, 5)
            for member in family.members:
                expected = _sibling_outcome(data, member.h, member.m)
                assert member.valid == (not isinstance(expected, tuple))
                if member.valid:
                    _same_datum(member.data, expected)
                    assert member.metric_deviation.hex() == \
                        deform.metric_deviation(data, expected).hex()
                    ways.add(member.data._rho_min is None)
                else:
                    assert (member.data, member.metric_deviation) == (None, None)
    assert ways == {True}  # no corpus member fell in a tie band


def test_each_m_of_a_family_makes_one_bound_pass(edge_k1, monkeypatch):
    from bour_edge import profile

    passes, scans = [], []
    bound, scan = profile.star_bound, profile.check_star
    monkeypatch.setattr(profile, "star_bound", lambda data, m: passes.append(m) or bound(data, m))
    monkeypatch.setattr(profile, "check_star", lambda *a: scans.append(1) or scan(*a))
    family = deform.deformation_family(edge_k1, h_span=1.0, m_span=0.4, nh=9, nm=5)
    assert sorted(passes) == sorted({mem.m for mem in family.members})
    assert 0 < len(family.valid_members()) < len(family.members) and scans == []


def test_a_revolution_path_from_an_invalid_copy_raises_the_scans_error(edge_k1):
    bad = edge_k1.replace(h=2.0)
    with pytest.raises(StarViolation) as raised:
        deform.revolution_path(bad, 3)
    assert str(raised.value) == _sibling_outcome(bad, 2.0, 1.0)[1]
    assert raised.value.failures
