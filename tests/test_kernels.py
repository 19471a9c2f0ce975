"""Reference tests for the integer kernels on the Markov path.

The characteristic polynomial, the Perron bisection, the stationary
presentation, the echelon reduction of the minimal-polynomial iteration and
the transfer step work in Python integers.  Each is compared here with an
independent computation: Bareiss determinants of tI - A, the rank of A^n by
Fraction elimination, and the Faddeev-LeVerrier characteristic polynomial,
the bisection with a Fraction Sturm count at every step, the Fraction
Gauss-Jordan solve, the merge-walk sums and the per-branch transfer the
library used before, and the iteration it used before (sorted steps, and the
samples of every iterate solved again at each step), kept below as the
reference.  On a Markov realization the iteration is also compared with a
Fraction Krylov iteration of the transposed matrix.  The unimodal and beta
closed forms, one polynomial of the critical orbit's weights, are compared
with the case-by-case formulas they replaced.  The squarefree part proved
modulo a prime is compared with one rational gcd, and the integer roots found
by Sturm bisection with the divisor scan they replaced.
"""

import bisect
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imapk import ktheory, polynomials, snf
from imapk.entropy import _identify_exact, _largest_real_root, perron_enclosure
from imapk.errors import CertificateFailure, InconsistentCaseData, NonIntegerDependence
from imapk.families import FamilySpec, build
from imapk.ktheory import (
    MinPolyReport, _reduce, beta_minpoly, minimal_polynomial_iter, unimodal_minpoly,
)
from imapk.interval_map import is_surjective, validate_map
from imapk.polynomials import (
    IntPoly, count_real_roots, integral, proper_factor, sturm_sequence, poly_derivative, poly_divmod,
    poly_eval, poly_gcd, poly_mul, poly_neg, poly_trim, monic_from_dependence,
)
from imapk.scalar import ONE, ZERO, as_scalar
from imapk.specfile import parse_spec
from imapk.snf import (
    _verify,
    char_poly,
    determinant,
    identity_matrix,
    mat_mul,
    mat_sub,
    smith_normal_form,
    stationary_dimension_triple,
)
from imapk.stepfun import ZERO_FN, StepFn, linear_comb, transfer
from test_families import _dyadic_exchange, _dyadic_multimodal

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

KERNEL_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

KINDS = ("zero_one", "small", "nilpotent", "singular", "reducible", "permutation")

# the largest size, always run: the 12-cycle, the all-ones matrix, a Jordan block at 0
CYCLE_12 = [[1 if j == (i + 1) % 12 else 0 for j in range(12)] for i in range(12)]
ONES_12 = [[1] * 12 for _ in range(12)]
SHIFT_12 = [[1 if j == i + 1 else 0 for j in range(12)] for i in range(12)]


@st.composite
def int_matrices(draw):
    """Square integer matrices, n = 1..12, of one of several structured kinds."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(KINDS))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    entry = st.integers(-3, 3) if kind == "small" else st.integers(0, 1)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "nilpotent":
        A = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(A)]
    elif kind == "singular" and n >= 2:
        A[-1] = A[0][:]
    elif kind == "reducible" and n >= 2:
        k = draw(st.integers(1, n - 1))
        for i in range(k, n):
            for j in range(k):
                A[i][j] = 0
    return A


def reference_rank(A):
    """Rank over Q by Fraction Gauss elimination."""
    M = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        pivot = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        for r in range(len(M)):
            if r != rank and M[r][col] != 0:
                f = M[r][col] / M[rank][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def matrix_power(A, k):
    n = len(A)
    P = identity_matrix(n)
    for _ in range(k):
        P = [[sum(P[i][m] * A[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return P


@KERNEL_SETTINGS
@given(int_matrices())
@example(CYCLE_12)
@example(ONES_12)
@example(SHIFT_12)
def test_char_poly_matches_determinant(A):
    n = len(A)
    p = char_poly(A)
    assert p.degree == n and p.coeffs[-1] == 1
    for t in range(n + 1):
        tI_minus_A = mat_sub([[t * x for x in row] for row in identity_matrix(n)], A)
        assert p(t) == determinant(tI_minus_A)


@KERNEL_SETTINGS
@given(int_matrices())
@example(CYCLE_12)
@example(ONES_12)
@example(SHIFT_12)
def test_det_and_limit_rank_read_off_char_poly(A):
    tri = stationary_dimension_triple(A)
    assert tri.det == determinant(A)
    assert tri.limit_rank == reference_rank(matrix_power(A, len(A)))


def test_char_poly_rejects_non_integer_matrix():
    with pytest.raises(CertificateFailure):
        char_poly([[Fraction(1, 2)]])


def reference_char_poly(A):
    """Faddeev-LeVerrier: M_0 = I, c_k = -tr(A*M_{k-1})/k, M_k = A*M_{k-1} + c_k*I."""
    n = len(A)
    coeffs = [0] * n + [1]
    M = identity_matrix(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        c, r = divmod(-sum(AM[i][i] for i in range(n)), k)
        assert r == 0
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return IntPoly(coeffs)


def moduli_used(monkeypatch):
    """The primes that char_poly reduces modulo, in the order it uses them."""
    used = []
    real = snf._char_poly_mod

    def spy(A, p):
        used.append(p)
        return real(A, p)

    monkeypatch.setattr(snf, "_char_poly_mod", spy)
    return used


# 0 sits below the diagonal of the first column, so the reduction skips it
ZERO_SUBDIAGONAL = [[1, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
# at the second step the sub-diagonal entry of column 1 is 0 and the pivot
# comes from row 4, so two rows and two columns swap
LATE_PIVOT = [[0, 1, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [0, 1, 1, 0, 0]]
BLOCK_TRIANGULAR = [
    [0, 1, 1, 1, 0, 0, 1],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 1, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 1],
]
# Hadamard bound about 2^222: four primes
LARGE_SQUARE = [[(-1) ** (i * j) * (10**13 + 7 * i + j) for j in range(5)] for i in range(5)]
# Hadamard bound about 2^83, above 2^62: two primes and one CRT step
NEAR_MILLION = [[10**6 - 1, -(10**6), 999_983, 2], [10**6, 10**6 - 7, -3, 10**6],
                [-999_999, 1, 10**6, 10**6 - 1], [5, 10**6, -(10**6) + 3, 999_979]]


@KERNEL_SETTINGS
@given(int_matrices())
@example([])
@example([[0]])
@example([[-7]])
@example(ZERO_SUBDIAGONAL)
@example(LATE_PIVOT)
@example(BLOCK_TRIANGULAR)
@example(NEAR_MILLION)
@example(CYCLE_12)
@example(ONES_12)
@example(SHIFT_12)
def test_char_poly_matches_faddeev_leverrier(A):
    assert char_poly(A) == reference_char_poly(A)


@st.composite
def large_matrices(draw):
    """Square matrices, n = 1..6, with entries up to 10^12, which need
    several moduli and CRT steps."""
    n = draw(st.integers(1, 6))
    size = 10 ** draw(st.integers(3, 12))
    return [[draw(st.integers(-size, size)) for _ in range(n)] for _ in range(n)]


@KERNEL_SETTINGS
@given(large_matrices())
def test_char_poly_with_large_entries_matches_faddeev_leverrier(A):
    assert char_poly(A) == reference_char_poly(A)


def test_char_poly_of_the_explicit_examples():
    assert char_poly([]) == IntPoly([1])
    assert char_poly([[-7]]) == IntPoly([7, 1])
    # the third diagonal block of BLOCK_TRIANGULAR is (1): a factor t - 1
    assert char_poly(BLOCK_TRIANGULAR) == char_poly([r[:3] for r in BLOCK_TRIANGULAR[:3]]) * \
        char_poly([r[3:6] for r in BLOCK_TRIANGULAR[3:6]]) * IntPoly([-1, 1])
    assert char_poly(ZERO_SUBDIAGONAL) == IntPoly([-1, 1]) * char_poly(
        [r[1:] for r in ZERO_SUBDIAGONAL[1:]])


@pytest.mark.parametrize("A, count", [
    (ONES_12, 1),  # every row has norm sqrt(12), isqrt 3: the bound is 5^12
    (NEAR_MILLION, 2),
    # the largest prime below 2^62 is 2^62 - 57, and 2 * (2 + x) just exceeds it
    ([[2**61 - 30]], 2),
    ([[2**61 - 31]], 1),
    (LARGE_SQUARE, 4),
], ids=["ones_12", "near_million", "two_primes_at_the_edge", "one_prime_at_the_edge", "large"])
def test_the_moduli_are_the_fewest_whose_product_exceeds_twice_the_bound(A, count, monkeypatch):
    bound = 1
    for row in A:
        bound *= 2 + isqrt(sum(x * x for x in row))
    used = moduli_used(monkeypatch)
    assert char_poly(A) == reference_char_poly(A)
    assert len(used) == count
    product = 1
    for p in used:
        assert product <= 2 * bound
        product *= p
    assert product > 2 * bound
    assert len(set(used)) == len(used) and all(2**61 < p < 2**62 for p in used)
    assert all(pow(a, p - 1, p) == 1 for p in used for a in (2, 3, 5, 7))


def _wrong_coefficient(real):
    def tampered(A, p):
        residues = real(A, p)
        residues[0] = (residues[0] + 1) % p
        return residues

    return tampered


A_TENT_LIKE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def test_a_wrong_coefficient_fails_the_point_check(monkeypatch):
    monkeypatch.setattr(snf, "_char_poly_mod", _wrong_coefficient(snf._char_poly_mod))
    for A in ([[2]], A_TENT_LIKE, ONES_12, NEAR_MILLION):
        with pytest.raises(CertificateFailure):
            char_poly(A)


def test_a_wrong_coefficient_fails_the_point_check_under_optimize():
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_kernels import _wrong_coefficient, A_TENT_LIKE\n"
        "from imapk import snf\n"
        "from imapk.errors import CertificateFailure\n"
        "assert False, 'asserts are on'\n"
        "snf._char_poly_mod = _wrong_coefficient(snf._char_poly_mod)\n"
        "try:\n"
        "    snf.char_poly(A_TENT_LIKE)\n"
        "except CertificateFailure:\n"
        "    print('CertificateFailure')\n" % str(Path(__file__).parent)
    )
    assert _run_optimized(code) == "CertificateFailure"


# -- Perron bisection ------------------------------------------------------------


def reference_sturm_sequence(p):
    seq = [poly_trim(p), poly_derivative(p)]
    while seq[-1]:
        _, r = poly_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append(poly_neg(r))
    return [s for s in seq if s]


def reference_count(seq, lo, hi):
    """Distinct roots in (lo, hi] from the sign variations of a Fraction Sturm sequence."""
    def variations(x):
        signs = [v > 0 for v in (poly_eval(s, x) for s in seq) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


POINTS = st.fractions(min_value=-12, max_value=12, max_denominator=64)


@KERNEL_SETTINGS
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9), st.integers(1, 6), POINTS, POINTS)
def test_integer_sturm_counts_match_the_fraction_sequence(coeffs, den, a, b):
    # the library scales each member to a primitive integer polynomial;
    # rational input (as from a monic gcd) is scaled the same way
    p = IntPoly(coeffs).squarefree_part().coeffs
    rational = tuple(Fraction(c, den) for c in p)
    lo, hi = min(a, b), max(a, b)
    for poly in (p, rational):
        seq = sturm_sequence(poly)
        assert all(type(c) is int for member in seq for c in member)
        assert count_real_roots(poly, lo, hi, seq) == \
            reference_count(reference_sturm_sequence(poly), lo, hi)


def rational_sturm_sequence(p):
    """The library's construction before integer pseudo-remainders: each
    remainder taken by Fraction division, then scaled to a primitive
    integer polynomial."""
    seq = [integral(poly_trim(p)), integral(poly_derivative(p))]
    while seq[-1]:
        _, r = poly_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append(integral(poly_neg(r)))
    return [s for s in seq if s]


@KERNEL_SETTINGS
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9), st.integers(1, 6))
def test_the_pseudo_remainder_sturm_sequence_is_the_rational_one(coeffs, den):
    p = IntPoly(coeffs).squarefree_part().coeffs
    for poly in (p, tuple(Fraction(c, den) for c in p)):
        assert sturm_sequence(poly) == rational_sturm_sequence(poly)


@KERNEL_SETTINGS
@given(int_matrices())
@example(ONES_12)
@example(CYCLE_12)
@example(BLOCK_TRIANGULAR)
def test_the_sturm_sequence_of_a_characteristic_polynomial_is_the_rational_one(A):
    # the Perron setting: the squarefree part of the characteristic polynomial
    q = char_poly(A).squarefree_part().coeffs
    assert sturm_sequence(q) == rational_sturm_sequence(q)


def reference_largest_real_root(p, hi_bound, tol):
    """The bisection with a Fraction Sturm count at every step.  It stops at
    a root on a midpoint only when no root lies above it; the library's old
    bisection stopped at any such root (see test_a_smaller_root_on_a_midpoint)."""
    q = p.squarefree_part()
    if q(hi_bound) == 0:
        return hi_bound, hi_bound, as_scalar(hi_bound)
    seq = reference_sturm_sequence(q.coeffs)
    lo, hi = Fraction(0), Fraction(hi_bound)
    if reference_count(seq, lo, hi) < 1:
        raise CertificateFailure("no real root")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if reference_count(seq, mid, hi) >= 1:
            lo = mid
        elif q(mid) == 0:
            return mid, mid, as_scalar(mid)
        else:
            hi = mid
    return lo, hi, _identify_exact(q, lo, hi)


def _same_enclosure(got, want):
    assert got[:2] == want[:2]
    assert (got[2] is None) == (want[2] is None)
    if got[2] is not None:
        assert got[2].text() == want[2].text() and got[2] == want[2]


def _poly(*roots):
    """The monic integer polynomial with these integer roots, with multiplicity."""
    p = IntPoly([1])
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


TOLERANCES = st.integers(100, 10**12).map(lambda d: Fraction(1, d))


@KERNEL_SETTINGS
@given(int_matrices(), TOLERANCES)
@example(ONES_12, Fraction(1, 100))
@example(CYCLE_12, Fraction(1, 10**12))
@example(BLOCK_TRIANGULAR, Fraction(1, 10**12))
def test_largest_real_root_matches_sturm_bisection(A, tol):
    # the Perron setting: the characteristic polynomial of a nonnegative
    # matrix and its largest row sum, when that is positive
    A = [[abs(x) for x in row] for row in A]
    bound = max(sum(row) for row in A)
    if bound == 0:
        return
    p = char_poly(A)
    try:
        want = reference_largest_real_root(p, Fraction(bound), tol)
    except CertificateFailure:
        with pytest.raises(CertificateFailure):
            _largest_real_root(p, Fraction(bound), tol)
        return
    _same_enclosure(_largest_real_root(p, Fraction(bound), tol), want)


@pytest.mark.parametrize("p, bound", [
    (_poly(1, -1), 2),          # the first midpoint is the root
    (_poly(3, -3), 4),          # a midpoint after one sign step is the root
    (_poly(1, 3, -2), 4),       # two roots: Sturm steps, then a root at a midpoint
    (_poly(1, -1) * IntPoly([-2, 0, 1]), 2),  # a smaller root at the first midpoint
    (_poly(2, 0), 2),           # the root is the row-sum bound
    (_poly(2, 2, 1, -1, -1, -1), 3),  # repeated roots
    (_poly(0, 0, 0) * IntPoly([-1, -1, 1]), 2),  # a triple root at 0 and phi
    (IntPoly([-1, -1, 1]) * IntPoly([-2, 0, 1]), 2),  # phi and sqrt 2, 0.2 apart
    (IntPoly([-1, 0, -1, 1]), 2),  # the real root of t^3 - t^2 - 1, cubic
])
@pytest.mark.parametrize("tol", [Fraction(1, 100), Fraction(1, 10**6), Fraction(3, 10**12)])
def test_largest_real_root_examples(p, bound, tol):
    want = reference_largest_real_root(p, Fraction(bound), tol)
    _same_enclosure(_largest_real_root(p, Fraction(bound), tol), want)


def test_largest_real_root_keeps_the_exact_values():
    assert _largest_real_root(_poly(1, -1), Fraction(2), Fraction(1, 10**6))[:2] == (1, 1)
    assert _largest_real_root(_poly(2, 0), Fraction(2), Fraction(1, 10**6))[:2] == (2, 2)
    lo, hi, exact = _largest_real_root(_poly(1, 3, -2), Fraction(4), Fraction(1, 10**6))
    assert lo == hi == 3 and exact.text() == "3"
    lo, hi, exact = _largest_real_root(IntPoly([-2, 0, 1]) * _poly(1), Fraction(2), Fraction(1, 100))
    assert lo < hi and hi - lo <= Fraction(1, 100) and exact.field.poly == (-2, 0, 1)


def test_a_smaller_root_on_a_midpoint_does_not_end_the_search():
    # (t - 1)(t^3 - t^2 - t - 1): the first midpoint 1 is a root, but the
    # spectral radius is the tribonacci constant, about 1.839; the bisection
    # once stopped at 1 and reported the entropy ln 1
    A = [[0, 0, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]]
    assert char_poly(A) == _poly(1) * IntPoly([-1, -1, -1, 1])
    lo, hi, exact = perron_enclosure(A)
    assert Fraction(1839, 1000) < lo < hi < Fraction(1840, 1000)
    assert exact is None


def test_perron_enclosure_raises_without_a_root_below_the_bound():
    with pytest.raises(CertificateFailure):
        _largest_real_root(_poly(5), Fraction(2), Fraction(1, 100))
    assert perron_enclosure([[0, 1], [0, 0]]) == (0, 0, as_scalar(0))


# -- integer polynomials ---------------------------------------------------------


def reference_squarefree_part(p):
    """p / gcd(p, p') by one rational gcd, normalized as the library does."""
    g = poly_gcd(p.coeffs, poly_derivative(p.coeffs))
    if len(g) <= 1:
        q = p
    else:
        quotient, remainder = poly_divmod(p.coeffs, g)
        assert not remainder
        den = lcm(*[c.denominator for c in quotient])
        ints = [int(c * den) for c in quotient]
        q = IntPoly(c // gcd(*ints) for c in ints)
    return -q if q.coeffs and q.coeffs[-1] < 0 else q


@KERNEL_SETTINGS
@given(int_matrices(), st.integers(-3, 3))
@example([[0]], 1)
@example(SHIFT_12, -2)
def test_squarefree_part_matches_one_rational_gcd(A, scale):
    # scale 0 gives the zero polynomial, negative ones a negative lead
    p = char_poly(A) * IntPoly([scale])
    assert p.squarefree_part() == reference_squarefree_part(p)


@pytest.mark.parametrize("coeffs, want", [
    ((), ()), ((5,), (5,)), ((-5,), (5,)),
    ((0, 0, 3), (0, 1)),            # 3t^2: made primitive, as it is not squarefree
    ((0, 4, 2), (0, 4, 2)),         # t(2t + 4) is squarefree and kept as it is
    ((0, 0, 0, 4, 2), (0, 2, 1)),   # t^3 (2t + 4)
    ((0, 0, 1, -2, 1), (0, -1, 1)),  # t^2 (t - 1)^2
])
def test_squarefree_part_keeps_the_root_zero_once(coeffs, want):
    assert IntPoly(coeffs).squarefree_part().coeffs == want == \
        reference_squarefree_part(IntPoly(coeffs)).coeffs


@pytest.mark.parametrize("make", [list, tuple, iter, lambda c: (x for x in c)],
                         ids=["list", "tuple", "iterator", "generator"])
def test_int_poly_reads_every_form_of_its_coefficients_once(make):
    assert IntPoly(make([Fraction(4, 2), 0, 1, 0])).coeffs == (2, 0, 1)
    with pytest.raises(ValueError):
        IntPoly(make([Fraction(1, 2), 1]))


@st.composite
def squared_products(draw):
    """c t^k f_1^m_1 ... f_j^m_j: a content c of either sign, a power of t,
    and up to three factors of degree 1 to 3, each to a power 1 to 3."""
    p = IntPoly([0] * draw(st.integers(0, 4)) + [draw(st.sampled_from([-6, -2, -1, 1, 3, 4]))])
    factors = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)
    for coeffs in draw(st.lists(factors, max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            p = p * IntPoly(coeffs)
    return p


@KERNEL_SETTINGS
@given(squared_products())
@example(IntPoly([0, 0, -6, -9]))            # -3 t^2 (2 + 3t): t r with content 3
@example(IntPoly([0, 0, 0, -2, -4, -2]))     # -2 t^3 (1 + t)^2
def test_squarefree_part_of_squared_products_matches_one_rational_gcd(p):
    # the part mod q when r = p / t^k is proved squarefree, else the Fraction route
    assert p.squarefree_part() == reference_squarefree_part(p)
    # proper_factor returns the repeated factor exactly when there is one
    factor = proper_factor(p.coeffs)
    repeated = poly_gcd(p.coeffs, poly_derivative(p.coeffs))
    if len(repeated) > 1:
        assert factor == integral(repeated)
    else:
        assert factor is None or (
            0 < len(factor) - 1 < p.degree
            and not poly_divmod(p.coeffs, factor)[1]
            and poly_divmod(p.coeffs, poly_mul(factor, factor))[1]
        )


def test_a_lead_the_prime_divides_falls_back_to_the_rational_gcd(monkeypatch):
    # (q t + 1)^2 is 1 mod q, whose gcd with its derivative proves nothing
    q = polynomials._GCD_PRIME
    calls = []
    exact = polynomials.poly_gcd
    monkeypatch.setattr(polynomials, "poly_gcd", lambda a, b: calls.append(1) or exact(a, b))
    p = IntPoly([1, q]) * IntPoly([1, q])
    assert p.squarefree_part() == IntPoly([1, q])
    assert proper_factor(p.coeffs) == (1, q)
    assert len(calls) == 2


def test_squarefree_parts_are_the_same_under_optimize():
    # random products as above, and one whose lead the prime divides
    rng = random.Random(0)
    products = [IntPoly([1, polynomials._GCD_PRIME]) * IntPoly([1, polynomials._GCD_PRIME])]
    for _ in range(40):
        p = IntPoly([0] * rng.randint(0, 4) + [rng.choice([-6, -2, 1, 3])])
        for _ in range(rng.randint(0, 3)):
            factor = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.choice([-3, -1, 1, 2])])
            for _ in range(rng.randint(1, 3)):
                p = p * factor
        products.append(p)
    code = ("from imapk.polynomials import IntPoly\n"
            "print([IntPoly(c).squarefree_part().coeffs for c in %r])" % [p.coeffs for p in products])
    want = [reference_squarefree_part(p).coeffs for p in products]
    assert _run_optimized(code) == str(want) == str([p.squarefree_part().coeffs for p in products])


def reference_integer_roots(p):
    """The divisor scan integer_roots used before: every divisor d of the
    constant term of p with t^k stripped, tested at d and -d."""
    c = list(p.coeffs)
    roots = set()
    while c and c[0] == 0:
        roots.add(0)
        c = c[1:]
    if len(c) > 1:
        const = abs(c[0])
        for d in range(1, isqrt(const) + 1):
            if const % d == 0:
                roots.update(r for r in (d, -d, const // d, -const // d) if poly_eval(c, r) == 0)
    return sorted(roots)


@st.composite
def polys_with_integer_roots(draw):
    """c t^k (t - r_1) ... (t - r_j) f: integer roots of either sign, some
    repeated, and a factor f of degree 0 to 3 that may add a root at 0."""
    p = IntPoly([0] * draw(st.integers(0, 2)) + [draw(st.sampled_from([-3, -1, 1, 2]))])
    for r in draw(st.lists(st.integers(-300, 300), max_size=3)):
        p = p * IntPoly([-r, 1])
    f = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
    return p * IntPoly(f)


@KERNEL_SETTINGS
@given(polys_with_integer_roots())
@example(IntPoly([-(10**6 + 3), 0, 1]))     # no integer root, a wide range
@example(IntPoly([0, 123 * 457, 123 - 457, 1]) * IntPoly([-123, 1]))  # t (t - 123)^2 (t + 457)
def test_integer_roots_match_the_divisor_scan(p):
    assert p.integer_roots() == reference_integer_roots(p)


# -- dependence solve ----------------------------------------------------------


def reference_solve(basis, target):
    """The Fraction Gauss-Jordan solve of sum x_i * basis_i = target."""
    known = set(b for f in basis for b in f.breaks)
    if any(b not in known for b in target.breaks):
        return None
    sampled = reference_sample_rows(basis + [target], sorted(known))
    aug = [[Fraction(v) for v in row] for row in sampled]
    n = len(basis)
    pivots = []
    rank_row = 0
    for col in range(n):
        piv = next((r for r in range(rank_row, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank_row], aug[piv] = aug[piv], aug[rank_row]
        pv = aug[rank_row][col]
        aug[rank_row] = [x / pv for x in aug[rank_row]]
        for r in range(len(aug)):
            if r != rank_row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank_row])]
        pivots.append(col)
        rank_row += 1
    if any(aug[r][n] != 0 for r in range(rank_row, len(aug))):
        return None
    solution = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        solution[col] = aug[row_idx][n]
    return solution


CUTS = [as_scalar(Fraction(k, 17)) for k in range(1, 17)]


@st.composite
def step_functions(draw, cuts=CUTS):
    breaks = sorted(draw(st.sets(st.sampled_from(cuts), max_size=8)))
    values = draw(st.lists(st.integers(-4, 4), min_size=len(breaks) + 1,
                           max_size=len(breaks) + 1))
    return StepFn(breaks, values)


@st.composite
def dependence_problems(draw):
    """(basis, target): random, planted in the span, or over a dependent basis."""
    basis = draw(st.lists(step_functions(), min_size=1, max_size=7))
    kind = draw(st.sampled_from(("random", "planted", "dependent_basis")))
    if kind == "dependent_basis":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        basis = basis + [linear_comb(coeffs, basis)]
    if kind == "random":
        target = draw(step_functions())
    else:
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
        target = linear_comb(coeffs, basis)
    return basis, target


def echelon_solve(basis, target):
    """sum x_i * basis_i = target through the library's echelon reduction.

    A basis member that depends on the earlier ones joins no row, so the
    solution uses the first independent members in order, as the pivots of
    the Gauss-Jordan references do."""
    rows = []
    for index, f in enumerate(basis):
        _reduce(rows, f, index)
    combo = _reduce(rows, target, len(basis))
    if combo is None:
        return None
    return [Fraction(-combo.get(j, 0), combo[len(basis)]) for j in range(len(basis))]


def _sample_rows(fns, breaks):
    """Values of each function on every piece of the common refinement.

    ``breaks`` is sorted and holds the breakpoints of every function; each
    function's column is filled by the rank of its breakpoints in it."""
    rank = {b: r for r, b in enumerate(breaks, 1)}
    columns = []
    for f in fns:
        column = []
        for b, v in zip(f.breaks, f.values):
            column += [v] * (rank[b] - len(column))
        column += [f.values[-1]] * (len(breaks) + 1 - len(column))
        columns.append(column)
    return list(zip(*columns))


def gauss_jordan_solve(basis, target, known=None):
    """The solve the iteration used before: fraction-free Gauss-Jordan on
    the samples of the basis and the target on every piece.

    ``known`` is the set of the breakpoints of the basis, when the caller
    holds it and has checked that the target has no other breakpoint."""
    if known is None:
        known = set(b for f in basis for b in f.breaks)
        if any(b not in known for b in target.breaks):
            return None
    # repeated samples carry no information: the solution set stays the same
    sampled = dict.fromkeys(_sample_rows(basis + [target], sorted(known)))
    aug = [list(row) for row in sampled]
    n = len(basis)
    pivots = []
    rank_row = 0
    for col in range(n):
        piv = next((r for r in range(rank_row, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank_row], aug[piv] = aug[piv], aug[rank_row]
        pivot_row = aug[rank_row]
        pv = pivot_row[col]
        for r in range(len(aug)):
            f = aug[r][col]
            if r != rank_row and f != 0:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(aug[r], pivot_row)]
                content = gcd(*row)
                aug[r] = [x // content for x in row] if content > 1 else row
        pivots.append(col)
        rank_row += 1
    if any(aug[r][n] != 0 for r in range(rank_row, len(aug))):
        return None
    solution = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        solution[col] = Fraction(aug[row_idx][n], aug[row_idx][col])
    return solution


@KERNEL_SETTINGS
@given(dependence_problems())
def test_solve_dependence_matches_fraction_reference(problem):
    basis, target = problem
    want = reference_solve(basis, target)
    assert echelon_solve(basis, target) == want == gauss_jordan_solve(basis, target)


def test_solve_dependence_planted_coefficients_recovered():
    c = CUTS
    basis = [StepFn((), (1,)), StepFn((c[3],), (0, 2)), StepFn((c[3], c[9]), (1, -1, 3))]
    target = linear_comb((2, -3, 5), basis)
    assert echelon_solve(basis, target) == [2, -3, 5]
    assert echelon_solve(basis, StepFn((c[5],), (0, 1))) is None
    # the reduction returns the relation, with the target's own coefficient
    rows = []
    assert [_reduce(rows, f, i) for i, f in enumerate(basis)] == [None] * 3
    combo = _reduce(rows, target, 3)
    assert [Fraction(combo.get(j, 0), combo[3]) for j in range(4)] == [-2, 3, -5, 1]


# -- transfer step, combinations and samples -------------------------------------


def reference_sample_rows(fns, breaks):
    """Values of each function on every piece, walking the sorted breakpoints."""
    positions = [0] * len(fns)
    rows = [[f.values[0] for f in fns]]
    for b in breaks:
        row = []
        for j, f in enumerate(fns):
            if positions[j] < len(f.breaks) and f.breaks[positions[j]] == b:
                positions[j] += 1
            row.append(f.values[positions[j]])
        rows.append(row)
    return rows


def reference_linear_comb(coeffs, fns):
    """Pointwise combination over the sorted union of the breakpoints."""
    if not fns:
        return ZERO_FN
    merged = sorted(set(b for f in fns for b in f.breaks))
    rows = reference_sample_rows(fns, merged)
    return StepFn(merged, [sum(c * v for c, v in zip(coeffs, row)) for row in rows])


def reference_contribution(branch, f):
    """Pushforward through one branch of the restriction of f to its domain."""
    lo, hi = branch.lo, branch.hi
    i0 = bisect.bisect_right(f.breaks, lo)
    i1 = bisect.bisect_left(f.breaks, hi)
    inner = list(f.breaks[i0:i1])
    vals = list(f.values[i0 : i1 + 1])
    if all(v == 0 for v in vals):
        return ZERO_FN
    img_breaks = [branch(b) for b in inner]
    u, v = branch(lo), branch(hi)
    if not branch.increasing:
        img_breaks.reverse()
        vals.reverse()
        u, v = v, u
    # zero outside [u^+, v^-]
    breaks, values = [], []
    if u == ZERO:
        values.append(vals[0])
    else:
        values += [0, vals[0]]
        breaks.append(u)
    breaks += img_breaks
    values += vals[1:]
    if v != ONE:
        breaks.append(v)
        values.append(0)
    return StepFn(breaks, values)


def reference_transfer(m, f):
    parts = [reference_contribution(b, f) for b in m.branches]
    return reference_linear_comb([1] * len(parts), parts)


DYADIC_CUTS = [as_scalar(Fraction(k, 64)) for k in range(1, 64)]


def _dyadic_step_function(rng):
    """Breakpoints in units of 1/64, so some sit on partition points in 1/16ths."""
    breaks = sorted(rng.sample(DYADIC_CUTS, rng.randint(0, 12)))
    return StepFn(breaks, [rng.randint(-3, 3) for _ in range(len(breaks) + 1)])


def test_transfer_matches_per_branch_reference():
    rng = random.Random(15)
    maps = [_dyadic_multimodal(rng) for _ in range(20)] + [_dyadic_exchange(rng) for _ in range(20)]
    for m in maps:
        for _ in range(6):
            f = _dyadic_step_function(rng)
            assert transfer(m, f) == reference_transfer(m, f)
        # the iterates of 1, whose breakpoints are the images of earlier ones,
        # with one dict of places for all steps, as the iteration passes it
        f = StepFn((), (1,))
        places = {}
        for _ in range(4):
            g = transfer(m, f, places)
            assert g == reference_transfer(m, f) == transfer(m, f)
            f = g


@KERNEL_SETTINGS
@given(st.lists(st.tuples(st.integers(-5, 5), step_functions()), max_size=7))
def test_linear_comb_matches_merge_walk(terms):
    coeffs = [c for c, _ in terms]
    fns = [f for _, f in terms]
    assert linear_comb(coeffs, fns) == reference_linear_comb(coeffs, fns)


@KERNEL_SETTINGS
@given(st.lists(step_functions(), min_size=1, max_size=7))
def test_sample_rows_match_merge_walk(fns):
    breaks = sorted(set(b for f in fns for b in f.breaks))
    got = _sample_rows(fns, breaks)
    assert [list(row) for row in got] == reference_sample_rows(fns, breaks)


# -- the minimal-polynomial iteration ------------------------------------------


def reference_minimal_polynomial_iter(m, cap=64, breakpoint_cap=10000):
    """The iteration the library used before, as (kind, iterations, cap, poly).

    Each step is the per-branch transfer of the sorted breakpoints and
    values, and each step that brings no new breakpoint samples every
    iterate on every piece and solves the whole system again."""
    vs = [StepFn((), (1,))]
    accumulated = set()
    for step in range(1, cap + 1):
        v = reference_transfer(m, vs[-1])
        grown = accumulated.union(v.breaks)
        if len(grown) > breakpoint_cap:
            return "not_found_within_cap", step, breakpoint_cap, None
        coeffs = gauss_jordan_solve(vs, v, accumulated) if len(grown) == len(accumulated) else None
        if coeffs is not None:
            if any(c.denominator != 1 for c in coeffs):
                return "non_integer", None, None, tuple(coeffs)
            poly = monic_from_dependence([int(c) for c in coeffs], step)
            return "iteration", step, None, poly.coeffs
        vs.append(v)
        accumulated = grown
    return "not_found_within_cap", cap, cap, None


def _iteration_summary(m, **caps):
    try:
        result = minimal_polynomial_iter(m, **caps)
    except NonIntegerDependence as exc:
        return "non_integer", None, None, tuple(exc.args[0])
    if isinstance(result, MinPolyReport):
        return result.method, result.iterations, None, result.poly.coeffs
    return result.kind, result.iterations, result.cap, None


def _grid_markov_map(rng):
    """A surjective map on a grid of 1/q whose branches have integer slopes
    in grid units, so the iterates of 1 break only at grid points and a
    dependence comes within q + 1 steps."""
    while True:
        q = rng.randint(3, 9)
        cuts = [0] + sorted(rng.sample(range(1, q), rng.randint(0, min(3, q - 1)))) + [q]
        branches = []
        for a, b in zip(cuts, cuts[1:]):
            s = rng.randint(1, q // (b - a))
            low = rng.randint(0, q - s * (b - a))  # the image is [low, low + s (b - a)] / q
            slope = rng.choice((s, -s))
            start = low if slope > 0 else low + s * (b - a)
            branches.append((Fraction(slope), Fraction(start - slope * a, q)))
        m = validate_map([Fraction(c, q) for c in cuts], branches)
        if is_surjective(m):
            return m


def test_the_iteration_matches_the_sorted_reference(golden_beta, sqrt2_field, monkeypatch):
    rng = random.Random(22)
    cases = [(_grid_markov_map(rng), {}) for _ in range(60)]
    cases += [(_dyadic_multimodal(rng), {"cap": 20}) for _ in range(3)]
    cases += [(_dyadic_exchange(rng), {"cap": 20}) for _ in range(3)]
    cases += [(parse_spec(path.read_text()).map, {}) for path in sorted((ROOT / "specs").glob("*.imapk"))]
    restricted = build(FamilySpec("restricted_tent", {"s": sqrt2_field.alpha()}))
    multimodal = parse_spec((ROOT / "specs" / "multimodal.imapk").read_text()).map
    cases += [(golden_beta, {}), (restricted, {}), (multimodal, {"breakpoint_cap": 30})]
    # the steps of each iteration, and the iterates it reduces against its basis
    events = []
    step, reduce = ktheory.transfer, ktheory._reduce
    monkeypatch.setattr(ktheory, "transfer", lambda *a, **k: events.append("step") or step(*a, **k))
    monkeypatch.setattr(ktheory, "_reduce", lambda *a: events.append("reduce") or reduce(*a))
    outcomes = []
    for m, caps in cases:
        events.clear()
        got = _iteration_summary(m, **caps)
        assert got == reference_minimal_polynomial_iter(m, **caps)
        kind, iterations, cap, _ = got
        # the basis was built before the last step if a step follows the first reduction
        early = "step" in events[events.index("reduce"):] if "reduce" in events else None
        outcomes.append((kind, cap, early))
        if kind == "iteration":
            assert events.count("reduce") == iterations + 1
    assert {("iteration", None, True), ("iteration", None, False), ("not_found_within_cap", 64, None),
            ("not_found_within_cap", 20, None), ("not_found_within_cap", 30, None)} <= set(outcomes)


def _krylov_minimal_polynomial(A):
    """Minimal polynomial of the all-ones vector under the transpose of A,
    by Fraction elimination on the Krylov vectors w_k = (A^T)^k 1."""
    n = len(A)
    w = [Fraction(1)] * n
    rows = []  # (pivot, reduced vector, its combination of w_0 .. w_n)
    for k in range(n + 1):
        vec, combo = w, [Fraction(int(j == k)) for j in range(n + 1)]
        for pivot, row, row_combo in rows:
            f = vec[pivot] / row[pivot]
            vec = [x - f * y for x, y in zip(vec, row)]
            combo = [x - f * y for x, y in zip(combo, row_combo)]
        if not any(vec):
            return IntPoly(combo)
        rows.append((next(i for i, x in enumerate(vec) if x), vec, combo))
        w = [sum(A[j][i] * w[j] for j in range(n)) for i in range(n)]
    raise AssertionError("n + 1 vectors in dimension n are dependent")


def _irreducible(A):
    n = len(A)
    for start in range(n):
        seen, todo = {start}, [start]
        while todo:
            j = todo.pop()
            for i in range(n):
                if A[j][i] and i not in seen:
                    seen.add(i)
                    todo.append(i)
        if len(seen) != n:
            return False
    return True


def test_the_iteration_on_a_realization_is_the_krylov_minimal_polynomial():
    # L 1_{I_j} = sum_i A[j][i] 1_{I_i} on the Markov intervals I_j, so L acts
    # on the coefficients of the indicators as the transpose of A
    rng = random.Random(7)
    matrices = []
    while len(matrices) < 12:
        n = rng.randint(2, 6)
        A = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        if _irreducible(A):
            matrices.append(A)
    matrices.append([[1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 1, 0]])  # block triangular
    degrees = set()
    for A in matrices:
        report = minimal_polynomial_iter(build(FamilySpec("markov_realization", {"matrix": A})))
        want = _krylov_minimal_polynomial(A)
        assert report.poly == want
        assert report.iterations == want.degree
        degrees.add(want.degree)
    assert len(degrees) > 2


# -- certificates that survive python -O ---------------------------------------


def _tampered(part="D"):
    """A Smith decomposition with one part changed: D or V, so that
    U*M*V != D; U, so that U*M*V = D still holds with a U of determinant 2;
    or a stored inverse, U_inv or V_inv."""
    if part == "U":
        good = smith_normal_form([[2]])
        return [[2]], replace(good, U=[[2]], D=[[4]])
    M = mat_sub(identity_matrix(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    good = smith_normal_form(M)
    changed = [row[:] for row in getattr(good, part)]
    changed[0][0] += 1
    return M, replace(good, **{part: changed})


def test_tampered_smith_certificate_raises():
    M, bad = _tampered()
    with pytest.raises(CertificateFailure):
        _verify(M, bad)


@pytest.mark.parametrize("part", ["U", "V", "U_inv", "V_inv"])
def test_a_tampered_transform_or_inverse_raises(part):
    M, bad = _tampered(part)
    # only a changed V breaks the identity itself
    assert (mat_mul(mat_mul(bad.U, M), bad.V) == bad.D) == (part != "V")
    with pytest.raises(CertificateFailure):
        _verify(M, bad)


@pytest.mark.parametrize("grow", ["row", "column"])
@pytest.mark.parametrize("part", ["U", "U_inv", "V", "V_inv", "D"])
def test_a_part_of_the_wrong_shape_raises(part, grow):
    # a product reads as many columns of its left factor as its right one has rows
    M = mat_sub(identity_matrix(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    good = smith_normal_form(M)
    X = getattr(good, part)
    grown = [row + [0] for row in X] if grow == "column" else X + [[0] * len(X[0])]
    with pytest.raises(CertificateFailure):
        _verify(M, replace(good, **{part: grown}))


@pytest.mark.parametrize("part", ["U", "U_inv", "V_inv"])
def test_a_tampered_certificate_that_keeps_the_identity_raises_under_optimize(part):
    assert _verify_optimized(part) == "CertificateFailure"


def test_tampered_smith_certificate_raises_under_optimize():
    assert _verify_optimized("D") == "CertificateFailure"


def _verify_optimized(part):
    """What _verify does under python -O with the decomposition _tampered(part)."""
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_kernels import _tampered\n"
        "from imapk.errors import CertificateFailure\n"
        "from imapk.snf import _verify\n"
        "assert False, 'asserts are on'\n"
        "M, bad = _tampered(%r)\n"
        "try:\n"
        "    _verify(M, bad)\n"
        "except CertificateFailure:\n"
        "    print('CertificateFailure')\n" % (str(Path(__file__).parent), part)
    )
    return _run_optimized(code)


def _run_optimized(code):
    """Standard output of code run under python -O, with the library importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_minimal_polynomial_reverification_raises(tent, monkeypatch):
    # a reduction that returns a wrong relation, v_1 = 3 v_0, is caught by the re-verification
    monkeypatch.setattr(ktheory, "_reduce", lambda rows, f, index: {0: -3, 1: 1} if index else None)
    with pytest.raises(CertificateFailure):
        minimal_polynomial_iter(tent)


def reference_unimodal_minpoly(signs, k, p):
    """The case-by-case closed form the library used before, the case read off
    (k, p): fixed, period 2, period p >= 3, and eventually periodic."""
    a = []
    for s in signs:
        a.append(s * (a[-1] if a else 1))
    a_at = lambda j: 1 if j == -1 else a[j]
    if k == 0 and p == 1:
        return IntPoly([-2, 1])
    if k == 0 and p == 2:
        return IntPoly([-1, 1])
    if k == 0:
        coeffs = [0] * p
        coeffs[p - 1] = 1
        coeffs[p - 2] -= 1
        for j in range(0, p - 2):
            coeffs[p - 3 - j] -= a_at(j)
        return IntPoly(coeffs)
    big = [0] * (p + 1)
    big[p] = 1
    big[p - 1] -= 1
    for j in range(0, p - 1):
        big[p - 2 - j] -= a_at(j)
    small = [0] * (p + 1)
    small[k] = 1
    small[k - 1] -= 1
    for j in range(0, k - 1):
        small[k - 2 - j] -= a_at(j)
    factor = a_at(k - 1) * a_at(p - 1)
    return IntPoly([b - factor * s for b, s in zip(big, small)])


def reference_beta_minpoly(digits, k, p):
    """The case-by-case closed form the library used before: 1 fixed, the
    orbit ending at 0 (whose digit it dropped), and the generic case."""
    if k == 0 and p == 1:
        return IntPoly([-digits[0], 1])
    if k == p - 1 and digits[p - 1] == 0:
        coeffs = [0] * p
        coeffs[p - 1] = 1
        for j in range(p - 1):
            coeffs[p - 2 - j] -= digits[j]
        return IntPoly(coeffs)
    coeffs = [0] * (p + 1)
    coeffs[p] = 1
    for j in range(p):
        coeffs[p - 1 - j] -= digits[j]
    coeffs[k] -= 1
    for j in range(k):
        coeffs[k - 1 - j] += digits[j]
    return IntPoly(coeffs)


def _orbit_data(alphabet, max_p):
    for p in range(1, max_p + 1):
        for k in range(p):
            for word in product(alphabet, repeat=p):
                yield list(word), k, p


def test_the_unimodal_closed_form_is_the_case_by_case_formula():
    # every sign word up to p = 8: 0 lies left of the critical point, and a
    # periodic orbit of 0 returns to it through 1; other words are rejected
    compared = 0
    for signs, k, p in _orbit_data((1, -1), 8):
        if signs[0] == 1 and (k > 0 or p == 1 or signs[-1] == -1):
            assert unimodal_minpoly(signs, k, p) == reference_unimodal_minpoly(signs, k, p), (signs, k, p)
            compared += 1
        else:
            with pytest.raises(InconsistentCaseData):
                unimodal_minpoly(signs, k, p)
    assert compared == 1666


def test_the_beta_closed_form_is_the_case_by_case_formula():
    # every digit word over 0..3 up to p = 5; only 1 maps to 1, so k = 0
    # needs p = 1
    compared = 0
    for digits, k, p in _orbit_data(range(4), 5):
        if k > 0 or p == 1:
            assert beta_minpoly(digits, k, p) == reference_beta_minpoly(digits, k, p), (digits, k, p)
            compared += 1
        else:
            with pytest.raises(InconsistentCaseData):
                beta_minpoly(digits, k, p)
    assert compared == 5012
