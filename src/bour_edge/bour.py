"""Evaluation of the Bour representation of a helicoidal n-type edge.

For a datum {U, h, m, eps0, eps1, eps2, k} the surface is

    Psi(s, t) = (x(s) cos theta(s,t), x(s) sin theta(s,t), z(s) + h theta(s,t))

where x is closed form and z, theta are defined by their s-derivatives
(``profile_rates``, the one place these formulas are written):

    x(s)        = eps0 sqrt(m^2 U^2 - h^2)
    z'(s)       = eps2 m s^k U rho / (m^2 U^2 - h^2),          z(0) = 0
    theta_s(s)  = -eps2 h s^k rho / (m U (m^2 U^2 - h^2)),      theta(0, 0) = 0
    theta(s, t) = eps1 t / m + theta(s, 0)

The singular curve is s = 0 and the first fundamental form is
E = s^(2k), F = 0, G = U(s)^2. z(s) and theta(s, 0) are the integrals of z'
and theta_s from 0: by adaptive Gauss-Kronrod quadrature to the absolute
tolerance ``tol`` away from 0, and by term-wise integrated jets inside a small
band around 0, where tiny integration ranges would otherwise cancel. A
surface row (``psi``, ``sample_mesh``) integrates the pair (z', theta_s) in
one pass, each component to ``tol``. The quadrature reads the rates from the
datum's point kernel (``point_kernel``): profile_rates at a float point,
compiled once per datum with U into one function.

Every series at s = 0 is cut from the datum's U and V series:
``series_at_zero`` builds those of x, z and theta(., 0) once per datum
(``EdgeData.series``), and each reader truncates what it needs.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import quadrature
from ._fmt import fill17, fmt17
from ._vec import linspace
from ._version import __version__
from .expr import FLOAT, FORMS, Call, Emitter, Name, SmoothFn, check_angle, define
from .jets import jet_sin_cos, jet_sqrt, require_order, variable_jet
from .profile import V_SWITCH_RADIUS, EdgeData, root_at, sqrt_at, star_radicand, x_squared

if TYPE_CHECKING:
    import numpy as np

# Pointwise evaluation switches to the series at 0 inside this radius.
NEAR_ZERO_RADIUS = 1e-4

# A grid row is marked singular when |s| falls under this threshold.
SINGULAR_EPS = 1e-13


@dataclass(frozen=True)
class SurfacePoint:
    position: tuple
    s: float
    t: float
    singular: bool


@dataclass(frozen=True)
class FundamentalForm:
    E: float
    F: float
    G: float


class Mesh:
    """A sampled surface: the grid values of s and t, and the point at each (s, t).

    ``s_grid`` and ``t_grid`` are lists of floats and ``point_rows[r]`` lists the
    (x, y, z) of row r, one per t; the file writers read only these. The numpy
    arrays ``s_values``, ``t_values`` and ``positions`` (rows, cols, 3) hold the
    same values; each is made on first read and cached, so a caller that only
    writes files never imports numpy. The constructor takes either lists or arrays.
    """

    def __init__(self, s_values, t_values, positions, singular_row: int | None,
                 datum: EdgeData):
        self.s_grid = [float(s) for s in s_values]
        self.t_grid = [float(t) for t in t_values]
        self.point_rows = positions.tolist() if hasattr(positions, "tolist") else positions
        self.singular_row = singular_row
        self.datum = datum

    @property
    def rows(self):
        return len(self.s_grid)

    @property
    def cols(self):
        return len(self.t_grid)

    @functools.cached_property
    def s_values(self) -> np.ndarray:
        import numpy as np

        return np.array(self.s_grid)

    @functools.cached_property
    def t_values(self) -> np.ndarray:
        import numpy as np

        return np.array(self.t_grid)

    @functools.cached_property
    def positions(self) -> np.ndarray:
        import numpy as np

        return np.array(self.point_rows, dtype=float).reshape(self.rows, self.cols, 3)


def profile_rates(data: EdgeData, wk, u, v, sqrt):
    """(x, x', z', theta_s) at w from w^k, U(w), V(w); floats or jets.

    z' and theta_s are those of the module docstring, and x' = m^2 U U' / x
    with U' = w^k V. ``sqrt`` is the square root of the same backend.
    """
    m, h = data.m, data.h
    xsq = x_squared(u, h, m)
    x = data.eps0 * sqrt(xsq)
    rho = sqrt(star_radicand(u, v, h, m))
    return (x, m * m * u * (wk * v) / x, data.eps2 * m * (wk * u * rho / xsq),
            -data.eps2 * h * (wk * rho / (u * xsq)) / m)


# The leaves profile_rates is run on to build a point kernel: the point w,
# w^k, U(w), U'(w) and V(w), each a name the kernel binds.
_W, _WK, _U, _UP, _V = (SmoothFn(Name(name)) for name in ("w", "wk", "u", "up", "v"))

# How a point kernel spells the Bour quantities' own operations: a plain /, as
# profile_rates divides floats, and sqrt_at's guard at w, which is called only
# where it refuses. U's tree keeps FLOAT's.
_RATE_FORMS = {**FORMS, "/": "{} / {}", "sqrt": "(_msqrt({0}) if {0} > 0.0 else _root({0}, w))"}


def _tree_sqrt(f):
    return SmoothFn(Call("sqrt", f.root))


def point_kernel(data: EdgeData):
    """profile_rates at a float point w, as one generated function of w.

    It returns (x, x', z', theta_s) bit for bit as profile_rates does from w^k,
    U(w), V(w) and ``sqrt_at(w)``, and refuses where they refuse, with the same
    error. The code is ``expr.Emitter``'s: U's tree on ``FLOAT``, then
    profile_rates run on trees, in one pass that computes each shared subtree
    once. V has two branches after one test of abs(w) < V_SWITCH_RADIUS, as
    ``EdgeData.v_value``: inside, V's series at 0, and U' is never evaluated;
    outside, U'(w) / w^k, where U' shares U's subtrees. w^k is computed first
    and U's tree reads float(w), as U(w) does.
    """
    rates = [f.root for f in profile_rates(data, _WK, _U, _V, _tree_sqrt)]
    code = Emitter(FLOAT)
    code.env.update(_msqrt=math.sqrt, _root=root_at)
    code.bound.update(w="w", wk="wk", u=code.emit(data.U.root))
    near, far = code.fork(), code.fork()
    near.bound["v"] = near.emit(data.v_jet(_W).root, _RATE_FORMS)
    far.bound["up"] = far.emit(data.U.prime.root)
    far.bound["v"] = far.emit((_UP / _WK).root, _RATE_FORMS)
    near_result, far_result = (", ".join(branch.emit(root, _RATE_FORMS) for root in rates)
                               for branch in (near, far))
    body = [*code.lines, f"if abs(w) < {code.literal(V_SWITCH_RADIUS)}:",
            *(f"    {line}" for line in near.lines), f"    return ({near_result})",
            *far.lines, f"return ({far_result})"]
    return define(code.env, "w", [f"wk = w ** {code.literal(data.k)}", "x = float(w)"], body)


def x_of_s(data: EdgeData, s):
    """x(s) = eps0 sqrt(m^2 U^2 - h^2); never zero on a valid datum."""
    return data.eps0 * sqrt_at(s)(x_squared(data.u_value(s), data.h, data.m))


def series_at_zero(data: EdgeData):
    """Jets at s = 0 of x, z and theta(., 0), from the datum's U and V series.

    x keeps U's order; z and theta keep V's order plus one.
    """
    wk = variable_jet(0.0, data.u_jet.order) ** data.k
    x_j, _, dz_j, dtheta_j = profile_rates(data, wk, data.u_jet, data.v_jet, jet_sqrt)
    return x_j, dz_j.antiderivative(), dtheta_j.antiderivative()


def _integral(data: EdgeData, i, s, tol):
    """The integral from 0 to s of profile_rates' component i: z(s) for i = 2, theta(s, 0)
    for i = 3, which vanishes for h = 0. The series inside NEAR_ZERO_RADIUS, else
    quadrature to the absolute tolerance ``tol``."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if s == 0.0 or (i == 3 and data.h == 0.0):
        return 0.0
    if abs(s) < NEAR_ZERO_RADIUS:
        return data.series[i - 1](s)
    rates = data.point_kernel
    return quadrature.integrate(lambda w: rates(w)[i:i + 1], 0.0, s, tol)[0][0]


def z_of_s(data: EdgeData, s, tol=quadrature.DEFAULT_TOL):
    """z(s), the integral of z' from 0."""
    return _integral(data, 2, s, tol)


def theta(data: EdgeData, s, t, tol=quadrature.DEFAULT_TOL):
    """theta(s, t) = eps1 t / m + theta(s, 0)."""
    return data.eps1 * t / data.m + _integral(data, 3, s, tol)


def _row(data: EdgeData, s, tol):
    """(x, z, theta(s, 0)) at s: what Psi reads of s. Away from 0 and for h != 0, z and
    theta(s, 0) come from one quadrature of the pair (z', theta_s), each component to
    ``tol``."""
    x = x_of_s(data, s)
    if data.h == 0.0 or abs(s) < NEAR_ZERO_RADIUS:
        return x, z_of_s(data, s, tol), _integral(data, 3, s, tol)
    rates = data.point_kernel
    (z, theta0), _ = quadrature.integrate(lambda w: rates(w)[2:], 0.0, s, tol)
    return x, z, theta0


def _sin_cos(angle):
    """(sin, cos) of a float angle, refused unless finite, as jet_sin_cos refuses."""
    check_angle(angle)
    return math.sin(angle), math.cos(angle)


def _assemble(data: EdgeData, t, x, z, theta0, sin_cos):
    """Psi at t from x, z and theta(., 0) at one s; floats (``_sin_cos``) or jets
    in s (``jet_sin_cos``)."""
    th = data.eps1 * t / data.m + theta0
    sin_th, cos_th = sin_cos(th)
    return x * cos_th, x * sin_th, z + data.h * th


def psi(data: EdgeData, s, t, tol=quadrature.DEFAULT_TOL):
    """The surface point Psi(s, t)."""
    return SurfacePoint(position=_assemble(data, t, *_row(data, s, tol), _sin_cos),
                        s=s, t=t, singular=abs(s) < SINGULAR_EPS)


def psi_jet_at_zero(data: EdgeData, t, order):
    """Jets in s at s = 0 of the three components of Psi(., t).

    Computed by term-wise integration of the rate jets; no quadrature.
    """
    require_order(order, min(j.order for j in data.series),
                  f"the s-derivatives of Psi at k = {data.k} need the x, z and theta series")
    return _assemble(data, t, *(j.truncated(order) for j in data.series), jet_sin_cos)


def first_fundamental_form(data: EdgeData, s, t):
    """E, F, G from closed-form first derivatives of the representation.

    The contract E = s^(2k), F = 0, G = U(s)^2 is what tests verify; here the
    coefficients are assembled from x', z', theta_s, theta_t without assuming
    that identity. None of them depends on t.
    """
    return fundamental_form_from(data, s, s**data.k, data.u_value(s), data.v_value(s))


def fundamental_form_from(data: EdgeData, s, sk, u, v):
    """first_fundamental_form at s from s^k, U(s) and V(s), as profile_rates takes them.

    U and V do not depend on h, m or the signs, so (h, m) siblings and isomers
    can share them.
    """
    x, xprime, zprime, theta_s = profile_rates(data, sk, u, v, sqrt_at(s))
    h = data.h
    xr = x * x
    theta_t = data.eps1 / data.m
    zh = zprime + h * theta_s
    E = xprime**2 + xr * theta_s**2 + zh**2
    F = theta_t * (xr * theta_s + h * zh)
    G = theta_t**2 * (xr + h**2)
    return FundamentalForm(E=E, F=F, G=G)


def _snap_zero_row(values):
    """Set the grid value closest to 0 to exactly 0 and return its index; None, with
    nothing set, when that value is an end of the grid other than 0."""
    idx = min(range(len(values)), key=lambda i: abs(values[i]))
    if idx in (0, len(values) - 1) and values[idx] != 0.0:
        return None
    values[idx] = 0.0
    return idx


def check_grid_shape(rows, cols):
    """Refuse a grid with fewer than 2 rows or 2 columns (ValueError)."""
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be at least 2")


def sample_mesh(data: EdgeData, s_range=None, t_range=None, rows=60, cols=60,
                tol=quadrature.DEFAULT_TOL):
    """Sampled surface grid on evenly spaced s and t values.

    Each range is (lo, hi) with finite lo < hi, and its ends are the first and
    last grid values exactly; s_range lies in J. When 0 is in s_range, the s
    value nearest 0 is set to exactly 0 and its index is ``singular_row``,
    unless that value is an end other than 0: the ends stay as requested, and
    ``singular_row`` is None.
    """
    check_grid_shape(rows, cols)
    s_range = data.J if s_range is None else s_range
    t_range = (0.0, 2.0 * math.pi * data.m) if t_range is None else t_range
    for name, (lo, hi) in (("s_range", s_range), ("t_range", t_range)):
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"{name} must be finite with lo < hi, got {(lo, hi)!r}")
    lo, hi = s_range
    if lo < data.J[0] - 1e-12 or hi > data.J[1] + 1e-12:
        raise ValueError(f"s_range {s_range!r} exceeds the datum domain {data.J!r}")
    s_values = linspace(lo, hi, rows)
    singular_row = None
    if lo <= 0.0 <= hi:
        singular_row = _snap_zero_row(s_values)
    t_values = linspace(t_range[0], t_range[1], cols)
    positions = []
    for s in s_values:
        row = _row(data, s, tol)
        positions.append([_assemble(data, t, *row, _sin_cos) for t in t_values])
    return Mesh(s_values=s_values, t_values=t_values, positions=positions,
                singular_row=singular_row, datum=data)


def write_obj(mesh: Mesh, target):
    """OBJ export: vertices in row-major order, quad faces, datum header."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            _write_obj(mesh, fh)
    else:
        _write_obj(mesh, target)


def _write_obj(mesh: Mesh, out: io.TextIOBase):
    out.write(f"# bour-edge {__version__} datum={mesh.datum.to_json()}\n")
    rows, cols = mesh.rows, mesh.cols
    template = "v %.17g %.17g %.17g\n" * cols
    for row in mesh.point_rows:
        out.write(fill17(template, itertools.chain.from_iterable(row)))
    out.writelines(f"f {a} {a + 1} {a + cols + 1} {a + cols}\n"
                   for r in range(rows - 1) for a in range(r * cols + 1, (r + 1) * cols))


def write_form_csv(data: EdgeData, s_values, t_values, target):
    """CSV dump of the first fundamental form with columns s,t,E,F,G.

    E, F and G do not depend on t, so they are computed once per s.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            _write_form_csv(data, s_values, t_values, fh)
    else:
        _write_form_csv(data, s_values, t_values, target)


def _write_form_csv(data: EdgeData, s_values, t_values, out: io.TextIOBase):
    out.write("s,t,E,F,G\n")
    ts = [float(t) for t in t_values]
    if not ts:
        return
    t_texts = [fmt17(t) for t in ts]
    for s in s_values:
        s = float(s)
        form = first_fundamental_form(data, s, ts[0])
        s_text = fmt17(s)
        tail = fill17(",%.17g,%.17g,%.17g\n", (form.E, form.F, form.G))
        out.write("".join([f"{s_text},{t_text}{tail}" for t_text in t_texts]))
