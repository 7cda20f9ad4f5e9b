"""Monotone piecewise cubic Hermite interpolation (PCHIP) at scalar points.

The node slopes are the Fritsch-Butland weighted harmonic mean of the two
adjacent secants, 0 where the secants change sign or either vanishes, and a
one-sided three-point rule at the two ends (Fritsch & Carlson, SIAM J.
Numer. Anal. 17, 1980; Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5,
1984; Moler, Numerical Computing with MATLAB, ch. 3).

The arithmetic follows ``scipy.interpolate.PchipInterpolator`` operation by
operation: the slopes, the power-basis coefficients of each piece, the
piece lookup (outside the table the first and last pieces extrapolate) and
the summation order of the evaluation. Values and derivatives therefore
agree with scipy bit for bit, which keeps every output of the package
independent of which of the two built a table.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


def _end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, clamped to keep the end monotone
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Piecewise:
    """Polynomial pieces on the nodes ``x``; row i holds piece i's power-basis
    coefficients in s = x - x_i, highest degree first."""

    def __init__(self, x, rows):
        self._x = x
        self._rows = rows

    def _piece(self, x):
        xs = self._x
        i = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
        return x - xs[i], self._rows[i]


class Pchip(_Piecewise):
    """PCHIP through the points (x[i], y[i]); ``x`` strictly increasing."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or y.shape != x.shape:
            raise ValueError("`x` and `y` must be 1-dimensional of the same length.")
        if x.shape[0] < 2:
            raise ValueError("`x` must contain at least 2 elements.")
        if not np.all(np.isfinite(x)):
            raise ValueError("`x` must contain only finite values.")
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        hk = np.diff(x)
        if np.any(hk <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        mk = (y[1:] - y[:-1]) / hk
        if len(x) == 2:
            dk = np.array([mk[0], mk[0]])
        else:
            smk = np.sign(mk)
            flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
            w1 = 2 * hk[1:] + hk[:-1]
            w2 = hk[1:] + 2 * hk[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
                inner = np.where(flat, 0.0, 1.0 / whmean)
            dk = np.concatenate([[_end_slope(hk[0], hk[1], mk[0], mk[1])], inner,
                                 [_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])]])
        t = (dk[:-1] + dk[1:] - 2 * mk) / hk
        c0 = t / hk
        c1 = (mk - dk[:-1]) / hk - t
        rows = zip(c0.tolist(), c1.tolist(), dk[:-1].tolist(), y[:-1].tolist())
        super().__init__(x.tolist(), list(rows))

    def __call__(self, x):
        s, (c0, c1, c2, c3) = self._piece(float(x))
        return 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)

    def derivative(self):
        """The first derivative, a piecewise quadratic on the same nodes."""
        return _Quadratic(self._x, [(3.0 * c0, 2.0 * c1, c2) for c0, c1, c2, _ in self._rows])


class _Quadratic(_Piecewise):
    def __call__(self, x):
        s, (c0, c1, c2) = self._piece(float(x))
        return 0.0 + c2 + c1 * s + c0 * (s * s)
