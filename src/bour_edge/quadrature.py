"""Adaptive Gauss-Kronrod 7-15 quadrature of tuple-valued integrands.

The rule is QUADPACK's (Piessens et al., 1983). An integrand reads a whole
panel at once: ``f(xs)`` returns a list with one tuple of floats per point
of ``xs``, as vector-valued adaptive cubature allows (Berntsen, Espelid &
Genz, DCUHRE, ACM TOMS 17, 1991). All components share the 15 points of
each panel and one subdivision, and ``pointwise`` lifts a function of one
point to this shape. Panels are split largest-error-first until every
component's summed error estimate is below the requested absolute tolerance
(``DEFAULT_TOL`` unless given); a first panel that already meets it is the
result. Each component's panel sums run in the order of the one-function
rule, so a one-component tuple gives a scalar Gauss-Kronrod pass's bits. All
integrands in this package are smooth, so the scheme converges in a handful
of panels; the budget of ``MAX_SUBDIVISIONS`` panels exists to fail loudly
instead of spinning. The package reads several integrals of one point's
rates this way: the canonical speed with the shear phi' (one generated loop
over a panel's points for a Bour datum, ``natural.chart_loop``), and z with
theta(s, 0).
"""

from __future__ import annotations

import functools
import heapq
import math

from .errors import QuadratureFailure

DEFAULT_TOL = 1e-12
MAX_SUBDIVISIONS = 2000

# 15-point Kronrod abscissae on [-1, 1] (positive half) and weights; the
# embedded 7-point Gauss rule uses the odd-indexed abscissae.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# The weights by name, for _panel's sums written out term by term.
_WGK0, _WGK1, _WGK2, _WGK3, _WGK4, _WGK5, _WGK6, _WGK7 = _WGK
_WG0, _WG1, _WG2, _WG3 = _WG


def pointwise(f):
    """The integrand that reads each point of a panel by one call of ``f(x) -> tuple``."""
    @functools.wraps(f)
    def batched(xs):
        return [f(x) for x in xs]
    return batched


def _panel(f, a, b):
    """K15 estimates and error estimates on [a, b], one of each per component of f.

    f reads the 15 points in one call: the midpoint, then mid - dx and
    mid + dx for each abscissa, outermost first. Every component's sums run
    in the order of the scalar rule's loop, so each one gets that rule's bits.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = [mid]
    for x in _XGK[:7]:
        dx = half * x
        xs.append(mid - dx)
        xs.append(mid + dx)
    values, errors = [], []
    for c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 in zip(*f(xs)):
        s1, s3, s5 = c3 + c4, c7 + c8, c11 + c12
        result_g = (_WG3 * c0 + _WG0 * s1 + _WG1 * s3 + _WG2 * s5) * half
        result_k = (_WGK7 * c0 + _WGK0 * (c1 + c2) + _WGK1 * s1 + _WGK2 * (c5 + c6) + _WGK3 * s3
                    + _WGK4 * (c9 + c10) + _WGK5 * s5 + _WGK6 * (c13 + c14)) * half
        diff = abs(result_k - result_g)
        values.append(result_k)
        errors.append(diff if diff >= 1.25e-7 else (200.0 * diff) ** 1.5)
    return values, errors


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def integrate(f, a, b, tol=DEFAULT_TOL):
    """Integral over [a, b] of the tuple-valued f to absolute tolerance ``tol``.

    f reads each panel's points in one call (see the module docstring).
    Returns (values, error_estimates), two tuples with one entry per
    component, all from one subdivision: each component must reach ``tol``
    on its own, and the panel split next is the one holding the largest
    component error; a first panel whose components all reach ``tol`` is
    returned as it is. The orientation of [a, b] is honored (a > b yields
    the negated integral). ``tol`` must be positive and finite.
    """
    _check_tol(tol)
    if a == b:
        zero = (0.0,) * len(f([a])[0])  # f is read only for its shape
        return zero, zero
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    values, errors = _panel(f, a, b)
    if not any(e > tol for e in errors):
        return tuple(sign * v for v in values), tuple(errors)
    heap = [(-max(errors), a, b, values, errors)]
    total_val = values
    total_err = errors
    panels = 1
    while any(e > tol for e in total_err):
        if panels >= MAX_SUBDIVISIONS:
            raise QuadratureFailure(
                f"tolerance {tol!r} not reached after {panels} panels (error {max(total_err)!r})"
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = _panel(f, pa, pm)
        rv, re = _panel(f, pm, pb)
        total_val = [t + (l + r - p) for t, l, r, p in zip(total_val, lv, rv, pval)]
        total_err = [t + (l + r - p) for t, l, r, p in zip(total_err, le, re, perr)]
        heapq.heappush(heap, (-max(le), pa, pm, lv, le))
        heapq.heappush(heap, (-max(re), pm, pb, rv, re))
        panels += 1
    return tuple(sign * v for v in total_val), tuple(total_err)


def integrate_cumulative(f, nodes, tol=DEFAULT_TOL):
    """Integrals of the tuple-valued f from nodes[0] to each node, as a list of tuples.

    Each segment is one ``integrate`` pass, to a share of ``tol``
    proportional to its length, and the segments are prefix-summed.
    """
    if len(nodes) < 2:
        return [(0.0,) * len(f([a])[0]) for a in nodes]  # f is read only for its shape
    total_len = abs(nodes[-1] - nodes[0])
    out = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        seg_tol = tol * max(abs(b - a) / total_len, 1e-3) if total_len > 0 else tol
        val, _ = integrate(f, a, b, seg_tol)
        if not out:
            out.append((0.0,) * len(val))
        out.append(tuple(s + v for s, v in zip(out[-1], val)))
    return out
