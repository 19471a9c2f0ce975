from fractions import Fraction

import pytest

from imapk.families import FamilySpec, build
from imapk.interval_map import validate_map
from imapk.scalar import NumberField


@pytest.fixture
def tent():
    return validate_map([0, Fraction(1, 2), 1], [(2, 0), (-2, 2)])


@pytest.fixture
def golden_field():
    return NumberField([-1, -1, 1], (1, 2))


@pytest.fixture
def sqrt2_field():
    return NumberField([-2, 0, 1], (1, 2))


@pytest.fixture
def phi(golden_field):
    return golden_field.alpha()


@pytest.fixture
def golden_beta(phi):
    return build(FamilySpec("beta", {"beta": phi}))


@pytest.fixture
def beta_three_halves():
    return build(FamilySpec("beta", {"beta": Fraction(3, 2)}))


@pytest.fixture
def golden_exchange(phi):
    lam = (phi - 1) * (phi - 1)
    return build(
        FamilySpec("interval_exchange", {"lengths": [lam, phi - 1], "permutation": [2, 1]})
    )


A_OFFDIAG3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.fixture
def offdiag_realization():
    return build(FamilySpec("markov_realization", {"matrix": A_OFFDIAG3}))


def make_rational_map(rng, max_branches=5):
    """Random piecewise affine map with rational data, for oracle suites."""
    n = rng.randint(1, max_branches)
    cuts = sorted(
        {Fraction(rng.randint(1, 39), 40) for _ in range(n - 1)}
    )
    while len(cuts) != n - 1:
        cuts = sorted({Fraction(rng.randint(1, 39), 40) for _ in range(n - 1)})
    pts = [Fraction(0)] + list(cuts) + [Fraction(1)]
    branches = []
    for i in range(n):
        while True:
            u = Fraction(rng.randint(0, 24), 24)
            v = Fraction(rng.randint(0, 24), 24)
            if u != v:
                break
        slope = (v - u) / (pts[i + 1] - pts[i])
        intercept = u - slope * pts[i]
        branches.append((slope, intercept))
    return validate_map(pts, branches)
