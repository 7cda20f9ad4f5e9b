import numpy as np
import pytest

from bour_edge.errors import BourEdgeError
from bour_edge.profile import make_edge_data


@pytest.fixture(scope="session")
def edge_k1():
    """k=1 datum with U = 1 - s cos s + sin s (V = sin s), h=0.2, m=1."""
    return make_edge_data(
        "1 - s*cos(s) + sin(s)", h=0.2, m=1.0,
        eps0=1, eps1=1, eps2=-1, k=1, J=(-0.8, 0.8),
    )


@pytest.fixture(scope="session")
def edge_k2():
    """k=2 datum with U = (2 - s^2) cos s + 2 s sin s - 1 (V = sin s), h=0.1, m=1."""
    return make_edge_data(
        "(-s^2+2)*cos(s) + 2*s*sin(s) - 1", h=0.1, m=1.0,
        eps0=1, eps1=1, eps2=-1, k=2, J=(-0.7, 0.7),
    )


def _draw_datum(rng, k):
    a0 = rng.uniform(0.8, 1.6)
    trig_c = rng.uniform(-0.3, 0.3)
    if k == 1:
        expr = f"{a0} + {trig_c}*(1 - cos(s))"
        js = range(2, 7)
    else:
        expr = f"{a0} + {trig_c}*(s*sin(s) + 2*cos(s) - 2)"
        js = range(3, 7)
    for j in js:
        expr += f" + {rng.uniform(-0.25, 0.25)}*s^{j}"
    m = rng.uniform(0.7, 1.4)
    h = rng.uniform(0.0, 0.5) * m * a0
    eps = [int(rng.choice([-1, 1])) for _ in range(3)]
    return make_edge_data(expr, h=h, m=m, eps0=eps[0], eps1=eps[1], eps2=eps[2],
                          k=k, J=(-0.45, 0.45), samples=256)


def build_corpus(count=20, seed=12345):
    """Deterministic corpus of valid random data, alternating k = 1, 2."""
    rng = np.random.default_rng(seed)
    corpus = []
    while len(corpus) < count:
        k = 1 + len(corpus) % 2
        try:
            corpus.append(_draw_datum(rng, k))
        except BourEdgeError:
            continue
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def ladder_data():
    """Data whose omega ladder vanishes, so beta is defined."""
    return [
        # k=1: U'''(0) = 0, U''''(0) = c
        make_edge_data("1 + 0.5*s^4/24", h=0.15, m=1.0, eps0=1, eps1=1, eps2=1,
                       k=1, J=(-0.5, 0.5)),
        make_edge_data("1.2 + 0.3*s^4 - 0.05*s^6", h=0.0, m=0.9, eps0=1, eps1=-1,
                       eps2=1, k=1, J=(-0.5, 0.5)),
        # k=1 with U''''(0) = 0 as well (beta carries only the pitch term)
        make_edge_data("1 + s^6/720", h=0.1, m=1.0, eps0=1, eps1=1, eps2=1,
                       k=1, J=(-0.5, 0.5)),
        # k=2: U^(4)(0) = 0 so omega_{3,5} is defined; U^(5)(0) = 0 so beta is too
        make_edge_data("1 + s^6/720", h=0.1, m=1.0, eps0=1, eps1=1, eps2=1,
                       k=2, J=(-0.5, 0.5)),
        make_edge_data("1.1 + 0.2*s^6", h=0.2, m=1.1, eps0=-1, eps1=1, eps2=-1,
                       k=2, J=(-0.5, 0.5)),
    ]


@pytest.fixture(scope="session")
def high_k_data():
    """Generic data for k = 3..7: U = 1 + (0.2/(k+1)) s^(k+1) + 0.01 s^(2k+2), so V(0) = 0.2."""
    return {
        k: make_edge_data(f"1 + {0.2 / (k + 1)!r}*s^{k + 1} + 0.01*s^{2 * k + 2}", h=0.1, m=1.0,
                          eps0=1, eps1=1, eps2=1, k=k, J=(-0.4, 0.4))
        for k in range(3, 8)
    }
