import itertools
import random
from math import gcd

import pytest

from imapk import snf
from imapk.errors import NotSquare
from imapk.snf import (
    _pivot,
    char_poly,
    determinant,
    identity_matrix,
    kgroups_from_incidence,
    mat_mul,
    mat_sub,
    smith_normal_form,
    stationary_dimension_triple,
)
from imapk.polynomials import IntPoly

from conftest import A_OFFDIAG3


def test_smith_example_matrix():
    decomp = smith_normal_form(mat_sub(identity_matrix(3), A_OFFDIAG3))
    assert decomp.diagonal() == [1, 2, 2]


def test_smith_identity():
    decomp = smith_normal_form(identity_matrix(3))
    assert decomp.diagonal() == [1, 1, 1]


def test_smith_two_by_two():
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    decomp = smith_normal_form([[2, 4], [6, 8]])
    assert decomp.diagonal() == [2, 4]


def test_smith_deterministic():
    M = [[3, 1, -4], [2, -3, 1], [-4, 4, 0]]
    first = smith_normal_form(M)
    second = smith_normal_form(M)
    assert first.U == second.U and first.D == second.D and first.V == second.V


def _minor_gcd_diagonal(M):
    rows = len(M)
    cols = len(M[0]) if rows else 0

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        return sum(
            (-1) ** j * sub[0][j] * det([r[:j] + r[j + 1 :] for r in sub[1:]])
            for j in range(n)
        )

    out = []
    prev = 1
    dead = False
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = gcd(g, det([[M[i][j] for j in cs] for i in rs]))
        if dead or g == 0:
            out.append(0)
            dead = True
            continue
        out.append(g // prev)
        prev = g
    return out


# the empty matrix, zero matrices, and single rows and columns
EDGE_SHAPES = [
    [],
    [[0]],
    [[0, 0, 0], [0, 0, 0]],
    [[0], [0], [0], [0]],
    [[4, -6, 10, 0]],
    [[0, 9, -6, 15, 3]],
    [[6], [0], [-4], [10]],
    [[0], [-1], [7]],
]


def _random_edge_shapes(rng, count, bound):
    """Random 1 x n and n x 1 matrices."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        row = [rng.randint(-bound, bound) for _ in range(n)]
        out += [[row], [[x] for x in row]]
    return out


def test_smith_against_minor_gcd_oracle():
    rng = random.Random(19)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(M).diagonal() == _minor_gcd_diagonal(M)
    for M in EDGE_SHAPES + _random_edge_shapes(rng, 10, 5):
        assert smith_normal_form(M).diagonal() == _minor_gcd_diagonal(M)


def test_smith_certificates_random():
    # the constructor verifies U*M*V = D, unimodularity, and the chain
    rng = random.Random(7)
    randoms = []
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        randoms.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    for M in randoms + EDGE_SHAPES + _random_edge_shapes(rng, 20, 9):
        decomp = smith_normal_form(M)
        assert mat_mul(mat_mul(decomp.U, M), decomp.V) == decomp.D
        assert abs(determinant(decomp.U)) == 1
        assert abs(determinant(decomp.V)) == 1
        diag = decomp.diagonal()
        for a, b in zip(diag, diag[1:]):
            assert (a == 0) <= (b == 0)
            if a and b:
                assert b % a == 0


def _full_scan_pivot(M, s):
    """The pivot by its definition: least (|value|, row, column) over the
    nonzero entries of the trailing block."""
    entries = [(abs(x), i, j) for i, row in enumerate(M) for j, x in enumerate(row)
               if i >= s and j >= s and x]
    return min(entries)[1:] if entries else None


def test_the_pivot_is_the_first_unit_after_larger_entries():
    M = [[4, 6, 3], [5, -1, 2], [1, 7, 9]]
    assert _pivot(M, 0) == _full_scan_pivot(M, 0) == (1, 1)
    assert _pivot(M, 1) == _full_scan_pivot(M, 1) == (1, 1)
    assert _pivot(M, 2) == _full_scan_pivot(M, 2) == (2, 2)
    decomp = smith_normal_form(M)
    assert decomp.diagonal() == _minor_gcd_diagonal(M) == [1, 1, 242]


def test_the_pivot_matches_the_full_scan():
    rng = random.Random(29)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        values = rng.choice([(-1, 0, 1), (-3, -2, 0, 2, 3, 5), tuple(range(-4, 5))])
        M = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        for s in range(min(rows, cols)):
            assert _pivot(M, s) == _full_scan_pivot(M, s)


# U, D and V as the full-scan pivot search gave them.  The first matrix's
# pivots are 4, 2, 2, 1, 30, 30, with a step that adds the offending row 2 to
# row 0; the second's first unit comes after larger entries and one offender
# step follows.
PINNED = [
    (
        [[6, 4, 0], [0, 10, 0], [0, 0, 15]],
        [[1, 0, 1], [5, 1, 0], [15, 0, 14]],
        [[1, 0, 0], [0, 30, 0], [0, 0, 30]],
        [[-7, -2, 15], [7, 3, -15], [1, 0, -2]],
    ),
    (
        [[4, 6, 3], [5, -1, 2], [1, 7, 9]],
        [[0, -1, 0], [-2, -19, -1], [-247, -2343, -123]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 242]],
        [[0, 27, -53], [1, 29, -57], [0, -53, 104]],
    ),
]


@pytest.mark.parametrize("M, U, D, V", PINNED)
def test_the_decomposition_of_a_fixed_matrix_is_pinned(M, U, D, V):
    decomp = smith_normal_form(M)
    assert (decomp.U, decomp.D, decomp.V) == (U, D, V)


def test_the_smith_form_computes_no_determinant(monkeypatch):
    def refuse(A):
        raise AssertionError("determinant called on the Smith path")

    monkeypatch.setattr(snf, "determinant", refuse)
    assert smith_normal_form([[6, 4, 0], [0, 10, 0], [0, 0, 15]]).diagonal() == [1, 30, 30]
    assert kgroups_from_incidence(A_OFFDIAG3).torsion == [2, 2]


def test_kgroups_tent():
    kg = kgroups_from_incidence([[1, 1], [1, 1]])
    assert kg.torsion == [] and kg.free_rank == 0 and kg.k1_rank == 0


def test_kgroups_example():
    kg = kgroups_from_incidence(A_OFFDIAG3)
    assert kg.torsion == [2, 2] and kg.free_rank == 0 and kg.k1_rank == 0
    assert kg.as_dict()["k0"] == {"torsion": [2, 2], "free_rank": 0}


def test_kgroups_golden():
    kg = kgroups_from_incidence([[1, 1], [1, 0]])
    assert kg.torsion == [] and kg.free_rank == 0


def test_kgroups_requires_square():
    with pytest.raises(NotSquare):
        kgroups_from_incidence([[1, 0]])


def test_kgroups_torsion_product_matches_det():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 5)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        kg = kgroups_from_incidence(A)
        det = determinant(mat_sub(identity_matrix(n), A))
        if kg.free_rank == 0:
            product = 1
            for d in kg.torsion:
                product *= d
            assert product == abs(det)
        else:
            assert det == 0


def test_stationary_triple_tent():
    tri = stationary_dimension_triple([[1, 1], [1, 1]])
    assert tri.char_poly == IntPoly([0, -2, 1])
    assert tri.limit_note == "Z[1/2]"
    assert tri.automorphism_note == "multiplication by 2"
    assert tri.order_unit == [1, 1]


def test_stationary_triple_swap():
    tri = stationary_dimension_triple([[0, 1], [1, 0]])
    assert tri.limit_rank == 2
    assert tri.limit_note == "Z^2"


def test_stationary_triple_golden():
    tri = stationary_dimension_triple([[1, 1], [1, 0]])
    assert tri.char_poly == IntPoly([-1, -1, 1])
    assert abs(tri.det) == 1
    assert tri.limit_rank == 2


def test_char_poly():
    assert char_poly([[2]]) == IntPoly([-2, 1])
    assert char_poly(A_OFFDIAG3) == IntPoly([-2, -3, 0, 1])
