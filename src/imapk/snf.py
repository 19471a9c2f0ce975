"""Exact integer matrix normal forms and the group invariants they carry.

The Smith decomposition U*M*V = D is computed with deterministic pivoting
(nonzero entry of minimal absolute value, ties broken row-major, so the
first unit when there is one) and verified before being returned.  The
reduction keeps the integer inverses of U and V as it goes; integer
matrices with integer inverses have determinant +-1, so three integer
products, U*M = D*V^-1, U*U^-1 = I and V^-1*V = I, prove U*M*V = D with
unimodular transforms, and the diagonal is checked for the divisibility
chain.  Cokernels and kernels of id - A are read off the diagonal, which is
all the K-group computations need.

The characteristic polynomial is computed by a Hessenberg reduction modulo
primes whose product exceeds twice a Hadamard bound on its coefficients,
combined by CRT, and checked at one point against a Bareiss determinant; the
stationary presentation reads its determinant and the rank of its limit
group off that polynomial.  That point check and the Gram determinant of
Keane's condition in the orbit layer are the only users of the Bareiss
determinant.  A failed check raises :class:`CertificateFailure`, which
``python -O`` cannot remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .errors import CertificateFailure, NotSquare
from .polynomials import IntPoly


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            row = out[i]
            for j in range(cols):
                row[j] += a * Bk[j]
    return out


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def determinant(A):
    """Bareiss fraction-free elimination; exact for integer matrices."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def _is_prime(n):
    """Miller-Rabin with the twelve primes up to 37 as bases, which decides
    primality for every odd n > 37 below 318665857834031151167461 (Y. Jiang
    and Y. Deng, Math. Comp. 83, 2014)."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(n):
    """The largest prime below n, for 41 < n <= 2^62."""
    c = (n - 2) | 1
    while not _is_prime(c):
        c -= 2
    return c


def _moduli(bound):
    """The largest primes below 2^62, in decreasing order, as many as make
    their product exceed bound."""
    p, product = 1 << 62, 1
    while product <= bound:
        p = _prime_below(p)
        product *= p
        yield p


def _char_poly_mod(A, p):
    """Coefficients, ascending, of det(tI - A) mod the prime p.

    A is reduced to upper Hessenberg form H by similarity over GF(p); the
    characteristic polynomials p_m of the leading m x m blocks of H then obey
    p_m = (t - h_mm) p_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} p_{i-1}
    (H. Cohen, GTM 138, Alg. 2.2.9).
    """
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for m in range(1, n - 1):
        col = m - 1
        pivot = next((i for i in range(m, n) if H[i][col]), None)
        if pivot is None:
            continue
        if pivot != m:
            H[pivot], H[m] = H[m], H[pivot]
            for row in H:
                row[pivot], row[m] = row[m], row[pivot]
        Hm = H[m]
        inv = pow(Hm[col], -1, p)
        for i in range(m + 1, n):
            if H[i][col]:
                u = H[i][col] * inv % p
                H[i] = [(a - u * b) % p for a, b in zip(H[i], Hm)]
                for row in H:
                    if row[i]:
                        row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(n):
        prev = polys[-1]
        h = H[m][m]
        new = [-h * prev[0]] + [a - h * b for a, b in zip(prev, prev[1:])] + [1]
        product = 1
        for i in range(m - 1, -1, -1):
            product = product * H[i + 1][i] % p
            if not product:
                break
            c = H[i][m] * product % p
            if c:
                for k, x in enumerate(polys[i]):
                    new[k] -= c * x
        polys.append([c % p for c in new])
    return polys[-1]


def char_poly(A):
    """Characteristic polynomial det(tI - A) of an integer matrix.

    The coefficient of t^(n-k) is (-1)^k times the sum of the k x k principal
    minors.  By Hadamard's inequality a minor is at most the product of the
    norms of its rows, so summed over all index sets every coefficient is at
    most B = prod(1 + |row|) <= prod(2 + isqrt(|row|^2)) in absolute value.
    The polynomial is computed modulo primes whose product M exceeds 2B,
    combined by CRT and read off as residues in (-M/2, M/2], so it is exact
    by that bound.  Its value at t = 2 is then checked against a Bareiss
    determinant of 2I - A: unlike at t = 1, two wrong coefficients that
    trade places do not cancel there.
    """
    n = _require_square(A)
    M = [[int(x) for x in row] for row in A]
    if M != [list(row) for row in A]:
        raise CertificateFailure("characteristic polynomial: not an integer matrix")
    bound = 1
    for row in M:
        bound *= 2 + isqrt(sum(x * x for x in row))
    coeffs, modulus = [0] * (n + 1), 1
    for p in _moduli(2 * bound):
        step = pow(modulus, -1, p)
        residues = _char_poly_mod(M, p)
        coeffs = [c + modulus * ((r - c) * step % p) for c, r in zip(coeffs, residues)]
        modulus *= p
    poly = IntPoly(c - modulus if 2 * c > modulus else c for c in coeffs)
    shifted = [[2 * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(M)]
    if poly(2) != determinant(shifted):
        raise CertificateFailure("characteristic polynomial: p(2) != det(2I - A)")
    return poly


@dataclass
class SmithDecomposition:
    """U*M*V = D with U and V unimodular, and their integer inverses
    U_inv and V_inv, which prove that they are."""

    U: list
    D: list
    V: list
    U_inv: list
    V_inv: list

    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]


def _pivot(M, s):
    """Position of the nonzero entry of minimal |value| in the trailing block,
    ties broken row-major.  No nonzero entry is smaller than a unit, so the
    first entry equal to 1 or -1 is the one a full scan would pick."""
    for i in range(s, len(M)):
        tail = M[i][s:]
        if 1 in tail or -1 in tail:
            return i, s + min(tail.index(u) for u in (1, -1) if u in tail)
    best = None
    for i in range(s, len(M)):
        for j in range(s, len(M[0])):
            v = abs(M[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M):
    """Smith decomposition with verified certificate U*M*V = D.

    Each elementary operation on U or V is matched by its inverse on U_inv
    or V_inv.  U_inv is kept transposed while the form is computed, so that
    a column operation on it is one row operation, as on U."""
    original = [[int(x) for x in row] for row in M]
    A = [row[:] for row in original]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = identity_matrix(rows)
    U_inv_t = identity_matrix(rows)
    V = identity_matrix(cols)
    V_inv = identity_matrix(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        U_inv_t[i], U_inv_t[j] = U_inv_t[j], U_inv_t[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(dst, src, f):
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]
        U_inv_t[src] = [a - f * b for a, b in zip(U_inv_t[src], U_inv_t[dst])]

    def add_col(dst, src, f):
        for row in A:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]
        V_inv[src] = [a - f * b for a, b in zip(V_inv[src], V_inv[dst])]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        U_inv_t[i] = [-a for a in U_inv_t[i]]

    for s in range(min(rows, cols)):
        while True:
            pos = _pivot(A, s)
            if pos is None:
                break
            i, j = pos
            if i != s:
                swap_rows(s, i)
            if j != s:
                swap_cols(s, j)
            dirty = False
            for r in range(s + 1, rows):
                if A[r][s] != 0:
                    add_row(r, s, -(A[r][s] // A[s][s]))
                    if A[r][s] != 0:
                        dirty = True
            for c in range(s + 1, cols):
                if A[s][c] != 0:
                    add_col(c, s, -(A[s][c] // A[s][s]))
                    if A[s][c] != 0:
                        dirty = True
            if dirty:
                continue
            pivot = A[s][s]
            if pivot in (1, -1):
                # a unit divides every entry
                break
            # pivot must divide the rest of the block for the chain to hold
            offender = None
            for r in range(s + 1, rows):
                for c in range(s + 1, cols):
                    if A[r][c] % pivot != 0:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(s, offender, 1)
        if A[s][s] < 0:
            negate_row(s)

    decomp = SmithDecomposition(U, A, V, [list(col) for col in zip(*U_inv_t)], V_inv)
    _verify(original, decomp)
    return decomp


def _require(condition, message):
    if not condition:
        raise CertificateFailure("Smith certificate: " + message)


def _shape(A, rows, cols):
    return len(A) == rows and all(len(row) == cols for row in A)


def _verify(M, decomp):
    """Check U*M = D*V_inv, U*U_inv = I and V_inv*V = I in integers.

    An integer matrix with an integer inverse has determinant +-1, so U and
    V are unimodular, and U*M*V = D*V_inv*V = D."""
    U, D, V, U_inv, V_inv = decomp.U, decomp.D, decomp.V, decomp.U_inv, decomp.V_inv
    rows = len(M)
    cols = len(M[0]) if rows else 0
    _require(_shape(D, rows, cols), "D is not the shape of M")
    _require(_shape(U, rows, rows) and _shape(U_inv, rows, rows), "U or U_inv has the wrong shape")
    _require(_shape(V, cols, cols) and _shape(V_inv, cols, cols), "V or V_inv has the wrong shape")
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j:
                _require(x == 0, "off-diagonal entry left")
            else:
                _require(x >= 0, "diagonal entries must be nonnegative")
    diag = decomp.diagonal()
    D_V_inv = [[d * x for x in row] for d, row in zip(diag, V_inv)]
    D_V_inv += [[0] * cols for _ in range(rows - len(diag))]
    _require(mat_mul(U, M) == D_V_inv, "U*M != D*V_inv")
    _require(mat_mul(U, U_inv) == identity_matrix(rows), "U*U_inv != I")
    _require(mat_mul(V_inv, V) == identity_matrix(cols), "V_inv*V != I")
    nonzero = [d for d in diag if d]
    zeros = [d for d in diag if not d]
    _require(diag == nonzero + zeros, "zero diagonal entries must come last")
    for a, b in zip(nonzero, nonzero[1:]):
        _require(b % a == 0, "divisibility chain broken")


@dataclass
class KGroups:
    torsion: list
    free_rank: int
    k1_rank: int
    generator_note: str = ""

    def as_dict(self):
        return {
            "k0": {"torsion": list(self.torsion), "free_rank": self.free_rank},
            "k1": {"free_rank": self.k1_rank},
            "generator_note": self.generator_note,
        }

    def text(self):
        parts = ["Z/%d" % d for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        k0 = " + ".join(parts) if parts else "0"
        k1 = "Z^%d" % self.k1_rank if self.k1_rank > 1 else ("Z" if self.k1_rank else "0")
        return "K0 = %s, K1 = %s" % (k0, k1)


class Route(NamedTuple):
    """K-groups that rest on an orbit hypothesis, and the label naming what
    they rest on.  Only the label "unconditional" is a theorem: a cap, a size
    limit or an assertion leaves the result conditional."""

    kgroups: KGroups
    label: str

    @property
    def conditional(self):
        return self.label != "unconditional"


def _require_square(A):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise NotSquare("matrix is not square")
    return n


def kgroups_from_incidence(A):
    """K-groups of the crossed product algebra from a surjective Markov matrix.

    Cokernel and kernel of id - A via the Smith form; callers restrict to the
    eventual range first when the map is not surjective.
    """
    n = _require_square(A)
    M = mat_sub(identity_matrix(n), A)
    decomp = smith_normal_form(M)
    diag = decomp.diagonal()
    torsion = [d for d in diag if d >= 2]
    free_rank = sum(1 for d in diag if d == 0)
    return KGroups(
        torsion=torsion,
        free_rank=free_rank,
        k1_rank=free_rank,
        generator_note="[1]_0 generates" if not torsion and free_rank <= 1 else "",
    )


@dataclass
class DimensionTriplePresentation:
    """Stationary inductive limit presentation of the core algebra's K0:
    copies of Z^size connected by the Markov matrix (``markov.data.matrix``)."""

    size: int
    det: int
    char_poly: IntPoly
    limit_rank: int
    order_unit: list
    limit_note: str
    automorphism_note: str

    def as_dict(self):
        return {
            "group": "Z^%d" % self.size,
            "order_unit": list(self.order_unit),
            "det": self.det,
            "char_poly": self.char_poly.text(),
            "limit_rank": self.limit_rank,
            "limit_note": self.limit_note,
            "automorphism_note": self.automorphism_note,
        }


def stationary_dimension_triple(A, poly=None):
    """The stationary presentation of A; ``poly`` is char_poly(A) when the
    caller has it."""
    n = _require_square(A)
    p = char_poly(A) if poly is None else poly
    coeffs = p.coeffs
    det = (-1) ** n * coeffs[0]
    # rank of the limit group is the rank of A^n; the kernel of A^n is the
    # generalized 0-eigenspace, whose dimension is the multiplicity of the root 0
    limit_rank = n - next(i for i, c in enumerate(coeffs) if c)
    limit_note = ""
    auto_note = ""
    # single nonzero eigenvalue k: char poly t^(n-1) (t - k)
    if n >= 1 and all(c == 0 for c in coeffs[: n - 1]) and coeffs[n] == 1:
        k = -coeffs[n - 1]
        if k > 1:
            limit_note = "Z[1/%d]" % k
            auto_note = "multiplication by %d" % k
        elif k == 1:
            limit_note = "Z"
            auto_note = "identity"
    if not auto_note and abs(det) == 1:
        limit_note = "Z^%d" % n
        auto_note = "the matrix acts as an automorphism of Z^%d" % n
    return DimensionTriplePresentation(
        size=n,
        det=det,
        char_poly=p,
        limit_rank=limit_rank,
        order_unit=[1] * n,
        limit_note=limit_note,
        automorphism_note=auto_note,
    )
