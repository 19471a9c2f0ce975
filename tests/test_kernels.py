"""Reference tests for the integer kernels on the Markov path.

The characteristic polynomial, the stationary presentation and the
dependence solve work in Python integers.  Each is compared here with an
independent computation: Bareiss determinants of tI - A, the rank of A^n by
Fraction elimination, and the Fraction Gauss-Jordan solve the library used
before, kept below as the reference.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imapk import ktheory
from imapk.errors import CertificateFailure
from imapk.ktheory import _sample_rows, _solve_dependence, minimal_polynomial_iter
from imapk.scalar import as_scalar
from imapk.snf import (
    SmithDecomposition,
    _verify,
    char_poly,
    determinant,
    identity_matrix,
    mat_sub,
    smith_normal_form,
    stationary_dimension_triple,
)
from imapk.stepfun import StepFn, linear_comb

SRC = Path(__file__).resolve().parents[1] / "src"

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


# -- dependence solve ----------------------------------------------------------


def reference_solve(basis, target):
    """The Fraction Gauss-Jordan solve of sum x_i * basis_i = target."""
    known = set(b for f in basis for b in f.breaks)
    if any(b not in known for b in target.breaks):
        return None
    sampled = _sample_rows(basis + [target], sorted(known))
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


@KERNEL_SETTINGS
@given(dependence_problems())
def test_solve_dependence_matches_fraction_reference(problem):
    basis, target = problem
    assert _solve_dependence(basis, target) == reference_solve(basis, target)


def test_solve_dependence_planted_coefficients_recovered():
    c = CUTS
    basis = [StepFn((), (1,)), StepFn((c[3],), (0, 2)), StepFn((c[3], c[9]), (1, -1, 3))]
    target = linear_comb((2, -3, 5), basis)
    assert _solve_dependence(basis, target) == [2, -3, 5]
    assert _solve_dependence(basis, StepFn((c[5],), (0, 1))) is None


# -- certificates that survive python -O ---------------------------------------


def _tampered():
    M = mat_sub(identity_matrix(3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    good = smith_normal_form(M)
    D = [row[:] for row in good.D]
    D[0][0] += 1
    return M, SmithDecomposition(good.U, D, good.V)


def test_tampered_smith_certificate_raises():
    M, bad = _tampered()
    with pytest.raises(CertificateFailure):
        _verify(M, bad)


def test_tampered_smith_certificate_raises_under_optimize():
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_kernels import _tampered\n"
        "from imapk.errors import CertificateFailure\n"
        "from imapk.snf import _verify\n"
        "assert False, 'asserts are on'\n"
        "M, bad = _tampered()\n"
        "try:\n"
        "    _verify(M, bad)\n"
        "except CertificateFailure:\n"
        "    print('CertificateFailure')\n" % str(Path(__file__).parent)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "CertificateFailure"


def test_minimal_polynomial_reverification_raises(tent, monkeypatch):
    # a solver that returns a wrong dependence is caught by the re-verification
    monkeypatch.setattr(ktheory, "_solve_dependence", lambda basis, target: [Fraction(3)])
    with pytest.raises(CertificateFailure):
        minimal_polynomial_iter(tent)
