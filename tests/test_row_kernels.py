"""The generated row loops of an (h, m) family against the compositions they replaced.

``profile.star_scan_kernel`` must return ``star_radicand`` at each (u, v) of
a star table, and ``bour.metric_form_kernel`` ``fundamental_form_from`` at
each (s, s^k, U, V), bit for bit, and raise the same errors, with the same
message, location and value. The (h, m) grid includes members a family
refuses: values <= 0, -inf, and values whose powers overflow.
"""

import gc
import math
import weakref

import pytest

from bour_edge import bour, deform
from bour_edge.errors import NegativeRadicand, StarViolation
from bour_edge.expr import FORMS, compile_rows
from bour_edge.profile import (
    V_SWITCH_RADIUS,
    check_star,
    grid_values,
    make_edge_data,
    sibling,
    star_radicand,
    star_scan_kernel,
    x_squared,
)

HS = (0.0, 0.2, -0.35, 1.5, -0.0, -math.inf, 1e200)
MS = (1.0, 0.6, 3.0, 0.0, -1.0, -math.inf, 1e100)


def _outcome(call):
    try:
        return "value", [tuple(v.hex() for v in row) if isinstance(row, tuple) else row.hex()
                         for row in call()]
    except Exception as exc:  # the comparison covers every error type
        return ("error", type(exc), str(exc), repr(getattr(exc, "location", None)),
                repr(getattr(exc, "value", None)))


def _all_data(corpus, ladder_data, high_k_data, digest_data):
    data = [*corpus, *ladder_data, *high_k_data.values(), *digest_data.values()]
    assert len(data) >= 20 and {d.k for d in data} == {1, 2, 3, 4, 5, 6, 7, 10}
    return data


def _composed_forms(data, rows):
    """fundamental_form_from at each row, as (E, F, G) tuples."""
    return [tuple(vars(bour.fundamental_form_from(data, *row)).values()) for row in rows]


def _form_rows(d):
    """(s, s^k, U, V) at the metric sample points, 0, the V switch and both ends of J."""
    lo, hi = d.J
    extra = [0.0, V_SWITCH_RADIUS, -V_SWITCH_RADIUS, lo, hi]
    points = deform._metric_sample_points(d) + [(s, 0.0) for s in extra]
    return deform._metric_values(d, points)


def test_the_star_scan_kernel_is_star_radicand(corpus, ladder_data, high_k_data, digest_data):
    kernel = star_scan_kernel()
    kinds = {"value": 0, "error": 0}
    for d in _all_data(corpus, ladder_data, high_k_data, digest_data):
        _, us, vs = d.star_grid
        for h in (*HS, d.h):
            for m in (*MS, d.m):
                expected = _outcome(lambda: [star_radicand(u, v, h, m) for u, v in zip(us, vs)])
                assert _outcome(lambda: kernel(zip(us, vs), h, m)) == expected, (d.U.source_text, h, m)
                kinds[expected[0]] += 1
    # m = 1e100 overflows m ** 4, which the kernel computes before its loop
    assert kinds["value"] > 1000 and kinds["error"] > 10


def test_check_star_reads_the_radicands_of_the_composition(corpus, digest_data):
    for d in [*corpus[:4], *digest_data.values()]:
        for h, m in ((d.h, d.m), (0.0, 1.0), (1.5, 1.0), (d.h, 3.0), (math.nan, d.m), (-math.inf, 1.0)):
            member = d.replace(h=h, m=m)
            report = check_star(member, 64)
            grid, us, vs = grid_values(member, 64)
            values = [star_radicand(u, v, h, m) for u, v in zip(us, vs)]
            assert report.rho_min.hex() == min(values).hex()
            on_grid = [(kind, s, val.hex()) for kind, s, val in report.failures
                       if kind != "rho_sign_change"]
            assert on_grid == [("rho_at_zero" if s == 0.0 else "rho_positive", s, val.hex())
                               for s, val in zip(grid, values) if not val > 0.0]


def test_the_metric_form_kernel_is_fundamental_form_from(corpus, ladder_data, high_k_data,
                                                          digest_data):
    kinds = {"value": 0, "error": 0, "rho_refused": 0, "overflow": 0}
    for d in _all_data(corpus, ladder_data, high_k_data, digest_data):
        rows = _form_rows(d)
        for h in (*HS, d.h):
            for m in (*MS, d.m):
                for eps0, eps1, eps2 in ((d.eps0, d.eps1, d.eps2), (-d.eps0, -d.eps1, -d.eps2)):
                    member = d.replace(h=h, m=m, eps0=eps0, eps1=eps1, eps2=eps2)
                    expected = _outcome(lambda: _composed_forms(member, rows))
                    assert _outcome(lambda: bour.fundamental_forms(member, rows)) == expected, \
                        (d.U.source_text, h, m, eps0, eps1, eps2)
                    kinds[expected[0]] += 1
                    kinds["overflow"] += expected[1] is OverflowError
                    if expected[1] is NegativeRadicand:
                        s = float(expected[3])
                        u = next(row[2] for row in rows if row[0] == s)
                        kinds["rho_refused"] += x_squared(u, h, m) > 0.0
    # Refusals of both square roots, and overflow of m ** 4, are among them.
    assert kinds["value"] > 500 and kinds["error"] > 500
    assert kinds["rho_refused"] > 50 and kinds["overflow"] > 10


def test_a_negative_radicand_at_a_metric_point_raises_as_the_composition(edge_k1):
    # m = 3 keeps x^2 = m^2 U^2 - h^2 positive, and rho^2 = x^2 - m^4 U^2 V^2 is
    # negative once |V| > 1/3, well inside J
    member = edge_k1.replace(m=3.0)
    rows = _form_rows(edge_k1)
    with pytest.raises(NegativeRadicand) as expected:
        [bour.fundamental_form_from(member, *row) for row in rows]
    with pytest.raises(NegativeRadicand) as got:
        bour.fundamental_forms(member, rows)
    assert (str(got.value), got.value.location, got.value.value) == \
        (str(expected.value), expected.value.location, expected.value.value)
    assert x_squared(edge_k1.u_value(got.value.location), 0.2, 3.0) > 0.0


def test_the_form_kernel_takes_its_square_roots_first():
    # x' = m^2 U s^k V / x is about 2.5e154, so x'^2 overflows; but fundamental_form_from
    # has refused rho^2 = -inf already, in profile_rates, before it squares x'
    member = make_edge_data("1 - s*cos(s) + sin(s)", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1,
                            k=1, J=(-0.8, 0.8))
    rows = [(0.5, 0.5, 3.1e153, 5e154)]
    expected = _outcome(lambda: _composed_forms(member, rows))
    assert expected[1] is NegativeRadicand
    assert _outcome(lambda: bour.fundamental_forms(member, rows)) == expected


@pytest.mark.parametrize("kernel", [star_scan_kernel, bour.metric_form_kernel],
                         ids=["star_scan", "metric_form"])
def test_a_kernel_computes_the_family_work_before_its_loop(kernel):
    assert kernel() is kernel()  # built once per process
    head, loop = kernel().source.split("\n    for ", 1)
    assert " = m ** 4\n" in head
    assert "/" not in head and "_root" not in head and "_msqrt" not in head
    assert "m ** 4" not in loop


def test_members_read_no_datum_into_the_kernels():
    d = make_edge_data("1 - s*cos(s) + sin(s)", h=0.2, m=1.0, eps0=1, eps1=1, eps2=-1,
                       k=1, J=(-0.8, 0.8))
    member = sibling(d, 0.1, 1.1)
    assert deform.metric_deviation(d, member) < 1e-8
    refs = [weakref.ref(d), weakref.ref(member)]
    del d, member
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_nan_radicand_after_a_positive_first_value_is_refused():
    # At every grid point but s = 0, U^2 and m^4 U^2 V^2 overflow to inf and the
    # radicand is inf - inf = NaN. min() passes over a NaN that follows its first
    # value, so rho_min reads 1.0 at s = 0.
    nan_trap = dict(U="1 + 1e200*s^4", h=0.0, m=1.0, eps0=1, eps1=1, eps2=1, k=1, J=(0.0, 0.8))
    with pytest.raises(StarViolation):
        make_edge_data(**nan_trap)
    base = make_edge_data(**dict(nan_trap, U="1 + 0.1*s^4"))
    report = check_star(base.replace(U=nan_trap["U"]), 64)
    assert report.rho_min == 1.0
    assert not report.star_ok
    assert sum(1 for kind, _, value in report.failures if kind == "rho_positive" and math.isnan(value)) == 63


def test_compile_rows_hoists_only_what_cannot_fail():
    def formula(x, y, a, b):
        return (a * b + x, (a - b) / (a + b) * y, (b * b) ** 3 + x * y)

    kernel = compile_rows(formula, ("x", "y"), ("a", "b"), {**FORMS, "/": "{} / {}"})
    head = kernel.source.split("\n    for ", 1)[0]
    assert "a * b" in head and "a + b" in head and "/" not in head
    rows = [(0.5, 2.0), (-1.0, 3.0)]
    for a, b in ((1.0, 2.0), (1.0, -1.0), (1e200, 1.0), (1.0, 1e60)):
        expected = _outcome(lambda: [formula(x, y, a, b) for x, y in rows])
        assert _outcome(lambda: kernel(rows, a, b)) == expected
    assert _outcome(lambda: kernel(rows, 1.0, -1.0))[1] is ZeroDivisionError
    assert _outcome(lambda: kernel(rows, 1.0, 1e60))[1] is OverflowError

