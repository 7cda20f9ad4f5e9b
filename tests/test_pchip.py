"""The in-repo PCHIP against scipy's PchipInterpolator, bit for bit, and its own properties."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bour_edge
from bour_edge.pchip import Pchip


@pytest.fixture(scope="module")
def scipy_pchip():
    return pytest.importorskip("scipy.interpolate").PchipInterpolator


def _bits(value):
    value = float(value)
    return "nan" if math.isnan(value) else value.hex()


def _probes(x, rng):
    lo, hi = float(x[0]), float(x[-1])
    width = hi - lo
    inside = rng.uniform(lo, hi, 40)
    outside = [lo - 0.3 * width, lo - 1e-9 * width, hi + 1e-9 * width, hi + 0.3 * width]
    special = [-math.inf, math.inf, math.nan]
    return [float(p) for p in x] + [float(p) for p in inside] + outside + special


def _assert_same(ours, ref, points):
    for p in points:
        assert _bits(ours(p)) == _bits(ref(p)), p


def _assert_matches_scipy(scipy_pchip, x, y, rng):
    ours, ref = Pchip(x, y), scipy_pchip(x, y)
    points = _probes(x, rng)
    _assert_same(ours, ref, points)
    _assert_same(ours.derivative(), ref.derivative(), points)


def _table(kind, rng):
    n = int(rng.integers(2, 300))
    x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 5.0
    if kind == "noisy":
        y = rng.normal(size=n)
    elif kind == "monotone":
        y = np.cumsum(rng.exponential(size=n))
    elif kind == "sin":
        y = np.sin(x)
    elif kind == "flat":  # runs of equal values: zero secants
        y = np.round(rng.normal(size=n))
    else:  # "zigzag": a sign change at every node
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 2.0, n)
    return x, y


@pytest.mark.parametrize("kind", ["noisy", "monotone", "sin", "flat", "zigzag"])
@pytest.mark.parametrize("seed", range(8))
def test_random_tables_match_scipy(scipy_pchip, kind, seed):
    rng = np.random.default_rng(1000 * seed + len(kind))
    x, y = _table(kind, rng)
    _assert_matches_scipy(scipy_pchip, x, y, rng)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [2.0, -3.0]),                # two nodes: the secant at both ends
    ([-1.0, 0.5], [4.0, 4.0]),                # two nodes, flat
    ([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0]),   # flat runs
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -1.0, 0.5]),  # sign changes
    ([0.0, 1.0, 2.0], [0.0, 1.0, 6.0]),       # end clamp: d against m0 -> 0
    ([0.0, 1.0, 2.0], [0.0, 1.0, -4.0]),      # end clamp: m0, m1 differ in sign -> 3 m0
    ([0.0, 1e-12, 1.0, 1.0 + 1e-12], [0.0, 1e-12, -3.0, 7.0]),  # spacings 12 decades apart
])
def test_special_tables_match_scipy(scipy_pchip, x, y):
    _assert_matches_scipy(scipy_pchip, np.array(x), np.array(y), np.random.default_rng(7))


def test_end_clamps_are_exercised():
    assert Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 6.0]).derivative()(0.0) == 0.0
    assert Pchip([0.0, 1.0, 2.0], [0.0, 1.0, -4.0]).derivative()(0.0) == 3.0


def test_non_finite_tables_are_refused_like_scipy(scipy_pchip):
    for x, y in [([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]),
                 ([0.0, 1.0, 2.0], [0.0, math.inf, 2.0])]:
        with pytest.raises(ValueError):
            scipy_pchip(x, y)
        with pytest.raises(ValueError):
            Pchip(x, y)


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 0.0], [0.0]])
def test_non_increasing_nodes_are_refused(x):
    with pytest.raises(ValueError):
        Pchip(x, [0.0] * len(x))


def test_a_monotone_cubic_stays_monotone():
    # uneven nodes on s^3 (flat at 0): the interpolant and its slope never turn back
    x = np.array([-1.0, -0.7, -0.2, -0.05, 0.0, 0.1, 0.15, 0.6, 1.0])
    p = Pchip(x, x ** 3)
    dp = p.derivative()
    grid = np.linspace(-1.0, 1.0, 2001)
    values = [p(s) for s in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert min(dp(s) for s in grid) >= 0.0
    for s, v in zip(x, x ** 3):
        assert p(s) == v


def test_importing_the_package_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bour_edge.__file__)))
    code = ("import bour_edge, bour_edge.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
