"""The point kernel (``EdgeData.point_kernel``) against the composition it replaced.

``tree_walk.walked_rates`` evaluates U, V and ``sqrt_at`` one by one and
runs ``bour.profile_rates`` on the floats. The kernel must return the same
bits and raise the same errors, with the same message, location and value.
"""

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from tree_walk import walked_rates

from bour_edge import bour, natural
from bour_edge.profile import V_SWITCH_RADIUS, make_edge_data, sibling


def _outcome(call):
    try:
        return "value", tuple(v.hex() for v in call())
    except Exception as exc:  # the comparison covers every error type
        return ("error", type(exc), str(exc), repr(getattr(exc, "location", None)),
                repr(getattr(exc, "value", None)))


def _points(J):
    """A dense sweep of J, 0, the V switch and its neighbours, and points beyond J."""
    lo, hi = J
    points = np.linspace(lo, hi, 401).tolist() + [0.0, -0.0]
    for r in (V_SWITCH_RADIUS, -V_SWITCH_RADIUS):
        points += [r, math.nextafter(r, 0.0), math.nextafter(r, 2.0 * r)]
    points += np.linspace(hi, hi + 4.0, 41).tolist() + np.linspace(lo - 4.0, lo, 41).tolist()
    points += [30.0, -30.0, 1e3, -1e10, 1e20, 1e200, -1e200, math.inf, -math.inf, math.nan]
    return points


def test_the_kernel_is_the_composition_it_replaced(corpus, ladder_data, high_k_data, digest_data):
    data = [*corpus, *ladder_data, *high_k_data.values(), *digest_data.values()]
    assert len(data) >= 20 and {d.k for d in data} == {1, 2, 3, 4, 5, 6, 7, 10}
    kinds = {"value": 0, "error": 0}
    for d in data:
        kernel = d.point_kernel
        for w in _points(d.J):
            expected = _outcome(lambda: walked_rates(d, w))
            assert _outcome(lambda: kernel(w)) == expected, (d.U.source_text, d.k, w)
            kinds[expected[0]] += 1
    # The guards fire: beyond J the radicand turns negative, U overflows or w^k does.
    assert kinds["value"] > 10_000 and kinds["error"] > 1_000


def test_the_chart_loop_is_the_pointwise_chart_path(corpus, ladder_data, high_k_data, digest_data):
    # natural.chart_loop against (speed, phi', x) formed from the point kernel's
    # rates one point at a time, as the chart read them before the loop: the
    # same bits, and the same first refusal, with its type, message, location
    # and value, whether the loop is given one point or many.
    data = [*corpus, *ladder_data, *high_k_data.values(), *digest_data.values()]
    kinds = {"value": 0, "error": 0}
    for d in data:
        loop, profile = natural.chart_loop(d), natural.BourProfile(d)
        points = _points(d.J)
        for w in points:
            expected = _outcome(lambda: natural._chart_values(profile, w))
            assert _outcome(lambda: loop([w])[0]) == expected, (d.U.source_text, d.k, w)
            kinds[expected[0]] += 1
        inside = np.linspace(*d.J, 401).tolist()
        for batch in (inside, points, points[::-1], inside + [math.nan] + inside):
            expected = _outcome(lambda: [v for w in batch for v in natural._chart_values(profile, w)])
            assert _outcome(lambda: [v for row in loop(batch) for v in row]) == expected
    assert kinds["value"] > 10_000 and kinds["error"] > 1_000


def test_the_near_branch_never_evaluates_u_prime():
    # U' divides by 2 sqrt((s - 1e-4)^2), which is 0 at s = 1e-4; U does not.
    d = make_edge_data("1 + 1e-10*s^2*sqrt((s - 0.0001)^2)", h=0.1, m=1.0,
                       eps0=1, eps1=1, eps2=1, k=1, J=(-0.5, 0.5))
    with pytest.raises(Exception, match="division by ~0"):
        d.U.prime(1e-4)
    assert _outcome(lambda: d.point_kernel(1e-4)) == _outcome(lambda: walked_rates(d, 1e-4))
    assert _outcome(lambda: d.point_kernel(1e-4))[0] == "value"


@pytest.mark.parametrize("derive", [
    lambda d: sibling(d, 0.1, 1.3),
    lambda d: d.replace(h=0.05),
    lambda d: d.replace(U="1.1 - s*cos(s) + sin(s)"),
    lambda d: d.replace(k=3),
], ids=["sibling", "replace-h", "replace-U", "replace-k"])
def test_a_derived_datum_builds_its_own_kernel(derive):
    # U = 1 + s^4/48 + s^6/720 has U' = U'' = U''' = 0 at 0, so k may be 1, 2 or 3.
    base = make_edge_data("1 + s^4/48 + s^6/720", h=0.15, m=1.0, eps0=1, eps1=1, eps2=1,
                          k=1, J=(-0.5, 0.5))
    base.point_kernel(0.3)
    member = derive(base)
    assert member.point_kernel is not base.point_kernel
    for w in np.linspace(-0.5, 0.5, 41).tolist() + [5e-4, -5e-4]:
        assert _outcome(lambda: member.point_kernel(w)) == _outcome(lambda: walked_rates(member, w))
        if w != 0.0:  # where every rate but x vanishes whatever h, m, U and k are
            assert _outcome(lambda: member.point_kernel(w)) != _outcome(lambda: base.point_kernel(w))


def test_a_kernel_is_freed_with_its_datum():
    d = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1,
                       k=1, J=(-0.8, 0.8))
    ref = weakref.ref(d.point_kernel)
    d.point_kernel(0.3)
    del d
    gc.collect()
    assert ref() is None


def test_the_chart_reads_x_once_outside_the_jet_band(edge_k1, monkeypatch):
    # Every node, the 65 of the jet band included, keeps the x of the rates call
    # that read its speed, so the chart never calls bour.x_of_s; that x is the
    # same float.
    calls = []
    original = bour.x_of_s

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("bour_edge") and vars(module).get("x_of_s") is original:
            monkeypatch.setattr(module, "x_of_s", counted)
    bour.psi(edge_k1, 0.3, 0.0)
    assert len(calls) == 1  # the count sees calls from inside the package
    calls.clear()
    chart = natural.roundtrip(edge_k1, n_tab=384).chart
    again = natural.second_pass_chart(edge_k1, chart, n_tab=384)
    assert calls == []
    h = edge_k1.h
    x = np.array([original(edge_k1, u) for u in chart.u_table.tolist()])
    assert chart.U_table.tolist() == np.sqrt(x**2 + h**2).tolist()
    x = np.array([original(edge_k1, float(chart.canonical.u_of_s(sigma)))
                  for sigma in again.u_table.tolist()])
    assert again.U_table.tolist() == np.sqrt(x**2 + h**2).tolist()
