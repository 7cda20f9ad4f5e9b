"""Adaptive Gauss-Kronrod 7-15 quadrature, for scalar and tuple-valued integrands.

Panels are split largest-error-first until the summed error estimate drops
below the requested absolute tolerance. All integrands in this package are
smooth, so the scheme converges in a handful of panels; the subdivision
budget (default 2000) exists to fail loudly instead of spinning.

An integrand may return a tuple of floats, as vector-valued adaptive
cubature allows (Berntsen, Espelid & Genz, DCUHRE, ACM TOMS 17, 1991): all
components share the 15 evaluations of each panel and one subdivision. Each
component must reach the tolerance on its own, and the panel split next is
the one holding the largest component error. A one-component tuple follows
the scalar path bit for bit, so there is one adaptive loop for both. The
package reads several integrals of one point's rates this way: the canonical
speed with the shear phi', and z with theta(s, 0).
"""

from __future__ import annotations

import heapq
import math

from .errors import QuadratureFailure

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


def _panel(f, a, b):
    """K15 estimates and error estimates on [a, b], one of each per component.

    f returns a float or a tuple of floats; the third item says which. Every
    component is computed from the same 15 evaluations, each in the order of
    the scalar rule, so one component gives the scalar rule's bits.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = [f(mid)]
    for x in _XGK[:7]:
        dx = half * x
        ys.append(f(mid - dx))
        ys.append(f(mid + dx))
    scalar = not isinstance(ys[0], tuple)
    values, errors = [], []
    for col in ((ys,) if scalar else zip(*ys)):
        result_g = _WG[3] * col[0]
        result_k = _WGK[7] * col[0]
        for i in range(7):
            s = col[2 * i + 1] + col[2 * i + 2]
            result_k += _WGK[i] * s
            if i % 2 == 1:
                result_g += _WG[i // 2] * s
        result_g *= half
        result_k *= half
        diff = abs(result_k - result_g)
        values.append(result_k)
        errors.append(diff if diff >= 1.25e-7 else (200.0 * diff) ** 1.5)
    return values, errors, scalar


def _kronrod_panel(f, a, b):
    """(K15 estimate, error estimate) of a scalar f on [a, b]."""
    (value,), (err,), _ = _panel(f, a, b)
    return value, err


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def integrate(f, a, b, tol=1e-12, max_subdivisions=2000):
    """Integral of f over [a, b] to absolute tolerance ``tol``.

    Returns (value, error_estimate). f may return a tuple of floats instead
    of a float; the result is then a tuple of values and a tuple of error
    estimates, all from one subdivision: each component must reach ``tol``
    on its own, and the panel split next is the one holding the largest
    component error. One component follows the scalar path exactly. The
    orientation of [a, b] is honored (a > b yields the negated integral).
    ``tol`` must be positive and finite.
    """
    _check_tol(tol)
    if a == b:
        y = f(a)  # read only for its shape
        zero = 0.0 if not isinstance(y, tuple) else (0.0,) * len(y)
        return zero, zero
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    values, errors, scalar = _panel(f, a, b)
    heap = [(-max(errors), a, b, values, errors)]
    total_val = values
    total_err = errors
    panels = 1
    while any(e > tol for e in total_err):
        if panels >= max_subdivisions:
            raise QuadratureFailure(
                f"tolerance {tol!r} not reached after {panels} panels (error {max(total_err)!r})"
            )
        _, pa, pb, pval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le, _ = _panel(f, pa, pm)
        rv, re, _ = _panel(f, pm, pb)
        total_val = [t + (l + r - p) for t, l, r, p in zip(total_val, lv, rv, pval)]
        total_err = [t + (l + r - p) for t, l, r, p in zip(total_err, le, re, perr)]
        heapq.heappush(heap, (-max(le), pa, pm, lv, le))
        heapq.heappush(heap, (-max(re), pm, pb, rv, re))
        panels += 1
    if scalar:
        return sign * total_val[0], total_err[0]
    return tuple(sign * v for v in total_val), tuple(total_err)


def integrate_cumulative(f, nodes, tol=1e-12, max_subdivisions=2000):
    """Cumulative integrals of f from nodes[0] to each node.

    Segment integrals are computed adaptively with a per-segment tolerance
    share proportional to segment length, then prefix-summed. A
    tuple-valued f gives a list of tuples, each segment in one ``integrate``
    pass.
    """
    if len(nodes) < 2:
        return [0.0] * len(nodes)
    total_len = abs(nodes[-1] - nodes[0])
    out = []
    acc = None
    for a, b in zip(nodes[:-1], nodes[1:]):
        seg_tol = tol * max(abs(b - a) / total_len, 1e-3) if total_len > 0 else tol
        val, _ = integrate(f, a, b, seg_tol, max_subdivisions)
        if acc is None:
            acc = 0.0 if not isinstance(val, tuple) else (0.0,) * len(val)
            out.append(acc)
        acc = acc + val if not isinstance(val, tuple) else tuple(s + v for s, v in zip(acc, val))
        out.append(acc)
    return out
