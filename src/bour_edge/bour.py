"""Evaluation of the Bour representation of a helicoidal n-type edge.

For a datum {U, h, m, eps0, eps1, eps2, k} the surface is

    Psi(s, t) = (x(s) cos theta(s,t), x(s) sin theta(s,t), z(s) + h theta(s,t))

    x(s)       = eps0 sqrt(m^2 U^2 - h^2)
    z(s)       = eps2 m   int_0^s  w^k U(w) rho(w) / (m^2 U(w)^2 - h^2) dw
    theta(s,t) = (eps1 t - eps2 h int_0^s w^k rho(w) / (U(w) (m^2 U(w)^2 - h^2)) dw) / m

The singular curve is s = 0 and the first fundamental form is
E = s^(2k), F = 0, G = U(s)^2. The integrals are evaluated by adaptive
Gauss-Kronrod quadrature away from 0 and by term-wise integrated jets inside
a small band around 0, where tiny integration ranges would otherwise cancel.

Every series at s = 0 is cut from the datum's U and V series:
``series_at_zero`` builds those of x, z and the theta integral once per datum
(``EdgeData.series``), and each reader truncates what it needs.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import quadrature
from ._fmt import fmt17
from ._version import __version__
from .jets import jet_sin_cos, jet_sqrt, variable_jet
from .profile import EdgeData, sqrt_at, star_radicand, x_squared

# Pointwise evaluation switches to the series at 0 inside this radius.
NEAR_ZERO_RADIUS = 1e-4

# A grid row is marked singular when |s| falls under this threshold.
SINGULAR_EPS = 1e-13

DEFAULT_TOL = 1e-12


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


@dataclass
class Mesh:
    s_values: np.ndarray
    t_values: np.ndarray
    positions: np.ndarray  # (rows, cols, 3)
    singular_row: int | None
    datum: EdgeData

    @property
    def rows(self):
        return len(self.s_values)

    @property
    def cols(self):
        return len(self.t_values)

    def point(self, r, c):
        s = float(self.s_values[r])
        return SurfacePoint(
            position=tuple(float(v) for v in self.positions[r, c]),
            s=s,
            t=float(self.t_values[c]),
            singular=abs(s) < SINGULAR_EPS,
        )


def profile_rates(data: EdgeData, wk, u, v, sqrt):
    """(x, x', z integrand, theta integrand) at w from w^k, U(w), V(w); floats or jets.

    The integrands are those of the module docstring, and x' = m^2 U U' / x
    with U' = w^k V. ``sqrt`` is the square root of the same backend.
    """
    m, h = data.m, data.h
    xsq = x_squared(u, h, m)
    x = data.eps0 * sqrt(xsq)
    rho = sqrt(star_radicand(u, v, h, m))
    return x, m * m * u * (wk * v) / x, wk * u * rho / xsq, wk * rho / (u * xsq)


def _rates(data: EdgeData, w):
    """profile_rates at the float point w."""
    return profile_rates(data, w**data.k, data.u_value(w), data.v_value(w), sqrt_at(w))


def x_of_s(data: EdgeData, s):
    """x(s) = eps0 sqrt(m^2 U^2 - h^2); never zero on a valid datum."""
    return data.eps0 * sqrt_at(s)(x_squared(data.u_value(s), data.h, data.m))


def _z_integrand(data):
    return lambda w: _rates(data, w)[2]


def _theta_integrand(data):
    return lambda w: _rates(data, w)[3]


def series_at_zero(data: EdgeData):
    """Jets at s = 0 of x, z and the theta integral, from the datum's U and V series.

    x keeps U's order; the integrals keep V's order plus one.
    """
    wk = variable_jet(0.0, data.u_jet.order) ** data.k
    x_j, _, zi_j, ti_j = profile_rates(data, wk, data.u_jet, data.v_jet, jet_sqrt)
    return x_j, (data.eps2 * data.m * zi_j).antiderivative(), ti_j.antiderivative()


def z_of_s(data: EdgeData, s, tol=DEFAULT_TOL):
    """z(s) by adaptive quadrature from 0; exact 0 at s = 0."""
    if s == 0.0:
        return 0.0
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if abs(s) < NEAR_ZERO_RADIUS:
        return data.series[1](s)
    val, _ = quadrature.integrate(_z_integrand(data), 0.0, s, tol / data.m)
    return data.eps2 * data.m * val


def _theta_integral(data: EdgeData, s, tol):
    """int_0^s w^k rho / (U (m^2 U^2 - h^2)), the t-independent part of theta.

    For h = 0 the caller scales this by h, so 0 is returned without
    integrating.
    """
    if s == 0.0 or data.h == 0.0:
        return 0.0
    if abs(s) < NEAR_ZERO_RADIUS:
        return data.series[2](s)
    tol_int = tol * data.m / max(abs(data.h), 1.0)
    val, _ = quadrature.integrate(_theta_integrand(data), 0.0, s, tol_int)
    return val


def theta(data: EdgeData, s, t, tol=DEFAULT_TOL):
    """theta(s, t); reduces to eps1 t / m at s = 0 and for h = 0."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    return _theta_from(data, t, _theta_integral(data, s, tol))


def _theta_from(data, t, integral):
    """theta from t and the t-independent integral; floats or jets."""
    return (data.eps1 * t - data.eps2 * data.h * integral) / data.m


def _assemble(data, s, t, x, z, theta_int):
    th = _theta_from(data, t, theta_int)
    return (
        x * math.cos(th),
        x * math.sin(th),
        z + data.h * th,
    )


def psi(data: EdgeData, s, t, tol=DEFAULT_TOL):
    """The surface point Psi(s, t)."""
    x = x_of_s(data, s)
    z = z_of_s(data, s, tol)
    integral = _theta_integral(data, s, tol)
    return SurfacePoint(
        position=_assemble(data, s, t, x, z, integral),
        s=s,
        t=t,
        singular=abs(s) < SINGULAR_EPS,
    )


def psi_jet_at_zero(data: EdgeData, t, order):
    """Jets in s at s = 0 of the three components of Psi(., t).

    Computed by term-wise integration of the integrand jets; no quadrature.
    """
    x_j, z_j, i_j = (j.truncated(order) for j in data.series)
    theta_j = _theta_from(data, t, i_j)
    sin_j, cos_j = jet_sin_cos(theta_j)
    return x_j * cos_j, x_j * sin_j, z_j + data.h * theta_j


def first_fundamental_form(data: EdgeData, s, t):
    """E, F, G from closed-form first derivatives of the representation.

    The contract E = s^(2k), F = 0, G = U(s)^2 is what tests verify; here the
    coefficients are assembled from x', z', theta_s, theta_t without assuming
    that identity.
    """
    x, xprime, zi, ti = _rates(data, s)
    m, h = data.m, data.h
    xr = x * x
    zprime = data.eps2 * m * zi
    theta_s = -data.eps2 * h * ti / m
    theta_t = data.eps1 / m
    zh = zprime + h * theta_s
    E = xprime**2 + xr * theta_s**2 + zh**2
    F = theta_t * (xr * theta_s + h * zh)
    G = theta_t**2 * (xr + h**2)
    return FundamentalForm(E=E, F=F, G=G)


def _snap_zero_row(values):
    """Force the grid value closest to 0 to be exactly 0; returns its index."""
    idx = int(np.argmin(np.abs(values)))
    values[idx] = 0.0
    return idx


def sample_mesh(data: EdgeData, s_range=None, t_range=None, rows=60, cols=60, tol=DEFAULT_TOL):
    """Sampled surface grid; contains the exact s = 0 row when 0 is in range."""
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be at least 2")
    lo, hi = s_range if s_range is not None else data.J
    if lo < data.J[0] - 1e-12 or hi > data.J[1] + 1e-12:
        raise ValueError(f"s_range {s_range!r} exceeds the datum domain {data.J!r}")
    if t_range is None:
        t_range = (0.0, 2.0 * math.pi * data.m)
    s_values = np.linspace(lo, hi, rows)
    singular_row = None
    if lo <= 0.0 <= hi:
        singular_row = _snap_zero_row(s_values)
    t_values = np.linspace(t_range[0], t_range[1], cols)

    positions = np.empty((rows, cols, 3))
    for r, s in enumerate(s_values):
        s = float(s)
        x = x_of_s(data, s)
        z = z_of_s(data, s, tol)
        integral = _theta_integral(data, s, tol)
        for c, t in enumerate(t_values):
            positions[r, c] = _assemble(data, s, float(t), x, z, integral)
    return Mesh(s_values=s_values, t_values=t_values, positions=positions,
                singular_row=singular_row, datum=data)


def write_obj(mesh: Mesh, target):
    """OBJ export: vertices in row-major order, quad faces, datum header."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            write_obj(mesh, fh)
        return
    out: io.TextIOBase = target
    out.write(f"# bour-edge {__version__} datum={mesh.datum.to_json()}\n")
    rows, cols = mesh.rows, mesh.cols
    for r in range(rows):
        for c in range(cols):
            x, y, z = mesh.positions[r, c]
            out.write(f"v {fmt17(float(x))} {fmt17(float(y))} {fmt17(float(z))}\n")
    for r in range(rows - 1):
        for c in range(cols - 1):
            a = r * cols + c + 1
            b = a + 1
            d = a + cols
            e = d + 1
            out.write(f"f {a} {b} {e} {d}\n")


def write_form_csv(data: EdgeData, s_values, t_values, target):
    """CSV dump of the first fundamental form with columns s,t,E,F,G."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            write_form_csv(data, s_values, t_values, fh)
        return
    out: io.TextIOBase = target
    out.write("s,t,E,F,G\n")
    for s in s_values:
        for t in t_values:
            form = first_fundamental_form(data, float(s), float(t))
            out.write(
                f"{fmt17(float(s))},{fmt17(float(t))},"
                f"{fmt17(form.E)},{fmt17(form.F)},{fmt17(form.G)}\n"
            )
