"""The generated loops of the ``build`` path against the compositions they replaced.

``bour.sample_mesh`` assembles each s-row in one loop (``mesh_row_kernel``),
``profile.grid_values`` reads U and V through one loop per datum
(``table_loop``), ``bour._write_obj`` writes one face block per shape
(``_face_block``), and the point kernel calls the datum's ``v_jet`` near 0.
Each must give the old composition's values bit for bit, and raise its
errors, with the same type, message, location and value, in the same order.
"""

import math
import re
from types import SimpleNamespace

import pytest

from bour_edge import bour
from bour_edge._vec import linspace
from bour_edge.errors import DomainError, NonPositiveU
from bour_edge.profile import V_SWITCH_RADIUS, grid_values, radicand, star_radicand, table_loop, uv_table
from tree_walk import pointwise_v

BIG = 1.7976931348623157e308


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def _outcome(call):
    try:
        return "value", _hex(call())
    except Exception as exc:  # the comparison covers every error type
        return ("error", type(exc), str(exc), repr(getattr(exc, "location", None)),
                repr(getattr(exc, "value", None)))


def _all_data(corpus, ladder_data, high_k_data, digest_data):
    data = [*corpus, *ladder_data, *high_k_data.values(), *digest_data.values()]
    assert len(data) >= 20 and {d.k for d in data} == {1, 2, 3, 4, 5, 6, 7, 10}
    return data


def _composed_rows(data, rows, cols, t_range=None):
    """sample_mesh's point rows as the pointwise composition assembled them: per s,
    bour._row, then at each t theta = eps1 t / m + theta(s, 0) and its sin and cos."""
    lo, hi = data.J
    t_range = (0.0, 2.0 * math.pi * data.m) if t_range is None else t_range
    s_values = linspace(lo, hi, rows)
    if lo <= 0.0 <= hi:
        bour._snap_zero_row(s_values)
    t_values = linspace(*t_range, cols)
    points = []
    for s in s_values:
        x, z, theta0 = bour._row(data, s, 1e-12)
        row = []
        for t in t_values:
            th = data.eps1 * t / data.m + theta0
            sin_th, cos_th = bour._sin_cos(th)
            row.append((x * cos_th, x * sin_th, z + data.h * th))
        points.append(row)
    return points


def test_the_mesh_row_loop_is_the_composition(corpus, ladder_data, high_k_data, digest_data):
    kinds = {"value": 0, "error": 0}
    for d in _all_data(corpus, ladder_data, high_k_data, digest_data):
        # the last t overflows eps1 t / m to inf where m < 1; m = 0 is refused by the
        # first row before eps1 t / m could divide by it
        for variant, t_range in ((d, None), (d, (0.0, BIG)), (d, (-BIG, 1.0)),
                                 (d.replace(m=0.0), (0.0, 6.0))):
            for rows, cols in ((60, 60), (7, 5), (2, 2)):
                expected = _outcome(lambda: _composed_rows(variant, rows, cols, t_range))
                got = _outcome(lambda: bour.sample_mesh(variant, t_range=t_range, rows=rows,
                                                        cols=cols).point_rows)
                assert got == expected, (d.U.source_text, variant.m, t_range, rows, cols)
                kinds[expected[0]] += 1
    assert kinds["value"] > 100 and kinds["error"] > 20


def test_the_mesh_row_loop_refuses_a_non_finite_angle_as_the_float_path():
    kernel = bour.mesh_row_kernel()
    assert kernel is bour.mesh_row_kernel()  # built once per process
    for turn, theta0 in ((math.inf, 0.0), (1.0, -math.inf), (math.nan, 0.0), (math.inf, -math.inf)):
        expected = _outcome(lambda: [bour._assemble(SimpleNamespace(h=0.2), a, 0.9, 0.1, theta0,
                                                    bour._sin_cos) for a in (0.5, turn)])
        assert expected[1] is DomainError
        assert _outcome(lambda: kernel([0.5, turn], 0.9, 0.1, theta0, 0.2)) == expected


def _pointwise_grid_values(data, samples):
    """grid_values as it read U and V point by point, by U's and U''s own compiled
    trees: every U first, the refusal of a U that is not positive, then every V."""
    lo, hi = data.J
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    if not any(abs(g) < 1e-15 for g in grid):
        grid.append(0.0)
        grid.sort()
    us = [data.U(s) for s in grid]
    for s, u in zip(grid, us):
        if not u > 0.0:
            raise NonPositiveU(f"U({s!r}) = {u!r} is not positive on J")
    return grid, us, [pointwise_v(data, s) for s in grid]


def test_the_table_loop_is_the_pointwise_reading(corpus, ladder_data, high_k_data, digest_data):
    for d in _all_data(corpus, ladder_data, high_k_data, digest_data):
        for samples in (16, 64, 1024):
            expected = _outcome(lambda: _pointwise_grid_values(d, samples))
            assert expected[0] == "value"
            assert _outcome(lambda: grid_values(d, samples)) == expected, (d.U.source_text, samples)
        assert _outcome(lambda: d.star_grid) == _outcome(lambda: _pointwise_grid_values(d, 1024))


# (U, J, samples, the error the pointwise reading raises, whether the loop raises or
# finds a U that is not positive). On J = [-1, 1] with 65 samples, -0.5 and 0.90625
# are grid points.
REFUSALS = {
    # U(-1) = -1
    "U <= 0": ("1 - 2*s^2", (-1.0, 1.0), 65, NonPositiveU, True),
    # U' divides by 2 sqrt((s + 0.5)^2) = 0 at s = -0.5, before U = 1 - e^0.3125 < 0 at 0.90625
    "U' first, U <= 0 later": ("1 + 0*sqrt((s + 0.5)^2) - exp((s - 0.9)*50)", (-1.0, 1.0), 65,
                               NonPositiveU, True),
    # the same refused U', with U positive on J
    "U' refused": ("1 + 0*sqrt((s + 0.5)^2) + s^2", (-1.0, 1.0), 65, DomainError, True),
    # U' divides by 0 at the grid point s = 1e-4, where V is read from its series
    "U' refused near 0": ("1 + 1e-10*s^2*sqrt((s - 0.0001)^2)", (0.0, 0.0016), 17, None, True),
    # exp(1000 s) overflows in U's tree once s > 0.71
    "overflow": ("1 + exp(1000*s) - 1", (-1.0, 1.0), 65, DomainError, True),
    # U is inf away from 0, and V inf or NaN: values, not errors
    "inf without error": ("1 + 1e300*s^2*1e300", (-1.0, 1.0), 65, None, False),
}


@pytest.mark.parametrize("U, J, samples, error, falls_back", REFUSALS.values(), ids=REFUSALS.keys())
def test_the_table_loop_refuses_as_the_pointwise_reading(edge_k1, U, J, samples, error, falls_back):
    d = edge_k1.replace(U=U, J=J)
    expected = _outcome(lambda: _pointwise_grid_values(d, samples))
    assert (expected[:2] == ("error", error)) if error else (expected[0] == "value")
    assert _outcome(lambda: grid_values(d, samples)) == expected
    grid = _pointwise_grid_values(edge_k1.replace(J=J), samples)[0]
    loop = _outcome(lambda: table_loop(d)(grid))
    assert (loop[0] == "error" or loop[1] is None) == falls_back


@pytest.mark.parametrize("U, J, samples", [case[:3] for case in REFUSALS.values()], ids=REFUSALS.keys())
def test_the_radicand_reads_U_and_V_in_one_call(edge_k1, program_reads, U, J, samples):
    # One call of the U program's table, or, where it refuses, the values and errors
    # of the two readers it replaced, u_value and v_value.
    d = edge_k1.replace(U=U, J=J)
    kinds = set()
    for s in (*linspace(*J, samples), 0.0, 5e-4, -2e-4, math.nextafter(V_SWITCH_RADIUS, 0.0)):
        refused = uv_table(d, (s,)) is None
        program_reads.clear()
        got = _outcome(lambda: radicand(d, s))
        reads = [name for name, _ in program_reads]
        assert got == _outcome(lambda: star_radicand(d.u_value(s), d.v_value(s), d.h, d.m)), s
        assert reads[0] == "table" and (reads == ["table"]) == (not refused), (s, reads)
        kinds.add((got[0], refused))
    assert ("value", False) in kinds


def _faces(rows, cols):
    """The face lines as the writer generated them line by line."""
    return "".join(f"f {a} {a + 1} {a + cols + 1} {a + cols}\n"
                   for r in range(rows - 1) for a in range(r * cols + 1, (r + 1) * cols))


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 7), (7, 5), (60, 60)])
def test_the_face_block_is_the_old_face_lines(rows, cols):
    assert bour._face_block(rows, cols) == _faces(rows, cols)
    assert bour._face_block(rows, cols) is bour._face_block(rows, cols)


def test_the_face_cache_holds_four_shapes():
    bour._face_block.cache_clear()
    for shape in ((2, 2), (3, 7), (7, 5), (60, 60), (2, 2), (4, 4)):
        bour._face_block(*shape)
    info = bour._face_block.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 5, 4, 4)


def test_the_near_branch_calls_v_jet(corpus, digest_data):
    # The near branch (abs(w) < V_SWITCH_RADIUS) reads V by one call of the datum's
    # v_jet; no line of it evaluates V's series from w.
    for d in [*corpus[:4], *digest_data.values()]:
        source = d.point_kernel.source
        assert source.count("_vjet(w)") == 1
        near = source.split("if abs(w) < ", 1)[1].split("return (", 1)[0].splitlines()[1:]
        reads_w = [line.strip() for line in near if re.search(r"\bw\b", line)]
        assert reads_w[0].endswith(" = _vjet(w)")
        assert all("_root(" in line for line in reads_w[1:])
        assert len(near) < 40  # with V's series (order 14 or more) it took 55 lines or more
        for w in (0.0, 1e-4, -5e-4, math.nextafter(V_SWITCH_RADIUS, 0.0)):
            assert d.point_kernel(w) == bour.profile_rates(d, w**d.k, d.u_value(w), d.v_value(w),
                                                           bour.sqrt_at(w))
