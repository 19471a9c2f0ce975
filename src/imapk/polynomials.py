"""Polynomial arithmetic over the rationals and integer polynomials.

Polynomials are coefficient tuples in ascending degree order.  The rational
helpers back the Sturm-sequence machinery used for real root isolation; the
``IntPoly`` class is the carrier for characteristic and minimal polynomials,
where coefficients stay arbitrary-precision integers throughout.
``proper_factor`` decides irreducibility over Q; a ``NumberField`` runs it
once, when it is built, and refuses a reducible polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import comb, gcd, isqrt, lcm
from random import Random

from .errors import CertificateFailure


def poly_trim(coeffs):
    """Drop trailing zero coefficients; the zero polynomial is ()."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p):
    return len(p) - 1


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def homogeneous_eval(poly, num, scale):
    """p(num/scale) * scale^deg p for an integer polynomial, in integers;
    for scale > 0 its sign is the sign of p(num/scale)."""
    acc = poly[-1]
    power = 1
    for c in reversed(poly[:-1]):
        power *= scale
        acc = acc * num + c * power
    return acc


def poly_neg(p):
    return tuple(-c for c in p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_derivative(p):
    return poly_trim(i * c for i, c in enumerate(p) if i >= 1)


def poly_divmod(p, q):
    """Euclidean division over the rationals; q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = Fraction(q[-1])
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        f = rem[-1] / lead
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_gcd(p, q):
    """Monic gcd over the rationals."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    lead = Fraction(a[-1])
    return tuple(Fraction(c) / lead for c in a)


def _primitive(ints):
    """A nonzero integer polynomial divided by the gcd of its coefficients."""
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def integral(p):
    """The primitive integer polynomial that is a positive multiple of the
    rational polynomial p; it has the sign of p at every point."""
    if not p:
        return p
    den = lcm(*[Fraction(c).denominator for c in p])
    return _primitive([int(c * den) for c in p])


def _pseudo_remainder(a, b):
    """A positive multiple of the remainder of a by b, for integer
    polynomials: each step scales the partial remainder by |lc(b)| before
    it cancels the leading term, so it stays integral and keeps its sign."""
    lead = b[-1]
    scale = abs(lead)
    rem = list(a)
    shift = len(rem) - len(b)
    while rem and shift >= 0:
        top = rem[-1] if lead > 0 else -rem[-1]
        rem = [c * scale for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= top * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        shift = len(rem) - len(b)
    return tuple(rem)


def sturm_sequence(p):
    """The Sturm sequence of p, each member scaled by a positive factor to a
    primitive integer polynomial: the signs, and so the counts, are those of
    the rational sequence.  After the first two members it is built by
    integer pseudo-remainders, each made primitive."""
    seq = [integral(poly_trim(p)), integral(poly_derivative(p))]
    while seq[-1]:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive(poly_neg(r)))
    return [s for s in seq if s]


def _sign_variations(seq, x):
    signs = []
    num, den = x.numerator, x.denominator
    for s in seq:
        v = homogeneous_eval(s, num, den)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo, hi, seq=None):
    """Number of distinct real roots of squarefree p in the half-open (lo, hi]."""
    if seq is None:
        seq = sturm_sequence(p)
    return _sign_variations(seq, lo) - _sign_variations(seq, hi)


class IntPoly:
    """Integer polynomial, coefficients ascending, leading coefficient nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)  # read a generator once, for the check and the value
        for x in coeffs:
            if int(x) != x:
                raise ValueError("IntPoly requires integer coefficients")
        self.coeffs = poly_trim(int(x) for x in coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __add__(self, other):
        return IntPoly(poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return IntPoly(poly_sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        return IntPoly(poly_mul(self.coeffs, other.coeffs))

    def __neg__(self):
        return IntPoly(poly_neg(self.coeffs))

    def squarefree_part(self):
        """p / gcd(p, p'), normalized to primitive with positive lead.

        Write p = t^k r with r(0) != 0.  When the lemma of
        `_coprime_mod_prime` proves r and r' coprime, r is squarefree and
        gcd(p, p') = t^(k-1) up to a unit, so the part is p for k <= 1 and
        t r made primitive for k >= 2.  Otherwise the gcd is taken over Q and
        its division of p is checked.
        """
        k = next((i for i, c in enumerate(self.coeffs) if c), 0)
        r = self.coeffs[k:]
        if _coprime_mod_prime(r, poly_derivative(r)):
            p = self if k <= 1 else IntPoly(_primitive((0,) + r))
        else:
            g = poly_gcd(self.coeffs, poly_derivative(self.coeffs))
            p = self
            if poly_degree(g) > 0:
                q, rem = poly_divmod(self.coeffs, g)
                if rem:
                    raise CertificateFailure("squarefree part: the gcd does not divide the polynomial")
                p = IntPoly(integral(q))
        if p.coeffs and p.coeffs[-1] < 0:
            p = -p
        return p

    def integer_roots(self):
        """Distinct integer roots, sorted (for monic inputs these are all
        rational roots).

        With p = t^k r and r(0) != 0, a nonzero integer root divides r(0), so
        it lies in (-|r(0)| - 1, |r(0)|].  That range is bisected over
        integers, and the Sturm sequence of the squarefree part of r drops
        each half-open (lo, hi] that holds no real root.  A Sturm count takes
        about n^2 products for n coefficients, and so does testing every
        integer of an interval of width n^2, so such intervals are tested
        directly.  The work grows with the bit length of r(0), not its size.
        """
        p = self.coeffs
        if not p:
            return []
        k = next(i for i, c in enumerate(p) if c)
        r = p[k:]
        roots = [0] if k else []
        spans = [(-abs(r[0]) - 1, abs(r[0]))] if len(r) > 1 else []
        seq = None
        while spans:
            lo, hi = spans.pop()
            if hi - lo <= len(r) ** 2:
                roots += [x for x in range(lo + 1, hi + 1) if poly_eval(r, x) == 0]
                continue
            if seq is None:
                q = IntPoly(r).squarefree_part().coeffs
                seq = sturm_sequence(q)
            if count_real_roots(q, lo, hi, seq):
                mid = (lo + hi) // 2
                spans += [(lo, mid), (mid, hi)]
        return sorted(roots)

    def deflate_root(self, r):
        """Divide by (t - r); r must be a root."""
        q, rem = poly_divmod(self.coeffs, (-r, 1))
        if rem:
            raise ValueError("%s is not a root" % r)
        return IntPoly(q)

    def text(self, var="t"):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            elif i == 1:
                term = var if abs(c) == 1 else "%d%s" % (abs(c), var)
            else:
                term = "%s^%d" % (var, i) if abs(c) == 1 else "%d%s^%d" % (abs(c), var, i)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self):
        return "IntPoly(%s)" % self.text()


# the prime of `_coprime_mod_prime`
_GCD_PRIME = 2**61 - 1


def _mod_divmod(a, b, p):
    """Quotient and remainder of a by b over GF(p); b is trimmed mod p."""
    rem = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * inv % p
        quo[k] = c
        if c:
            for i, x in enumerate(b):
                rem[k + i] = (rem[k + i] - c * x) % p
    return poly_trim(quo), poly_trim(rem[:db])


def _mod_gcd(a, b, p):
    """The monic gcd over GF(p) of a nonzero a and b, both trimmed mod p."""
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p)


def _coprime_mod_prime(a, b):
    """Whether integer polynomials a and b are proved coprime over Q; False
    means not proved.

    Lemma (W. S. Brown, "On Euclid's algorithm and the computation of
    polynomial greatest common divisors", J. ACM 18, 1971).  Let q be a prime
    that does not divide lead(a), and g the primitive gcd of a and b over Z.
    By Gauss's lemma g divides a in Z[x], so lead(g) divides lead(a), and g
    mod q keeps its degree and divides both a mod q and b mod q.  So a gcd of
    degree 0 of the reductions over GF(q) proves g constant.
    """
    q = _GCD_PRIME
    if not a or a[-1] % q == 0:
        return False
    return len(_mod_gcd(_mod(a, q), _mod(b, q), q)) == 1


def _mod(a, m):
    """a with its coefficients reduced into [0, m), trimmed."""
    return poly_trim(c % m for c in a)


def _mod_monic(a, m):
    """The monic multiple of a polynomial modulo m, for a lead prime to m."""
    return _mod([c * pow(a[-1], -1, m) for c in a], m)


def _mod_powmod(a, e, f, p):
    """a^e modulo f over GF(p)."""
    out = (1,)
    while e:
        if e & 1:
            out = _mod_divmod(poly_mul(out, a), f, p)[1]
        a = _mod_divmod(poly_mul(a, a), f, p)[1]
        e >>= 1
    return out


def _distinct_degree(f, p):
    """(d, the product of the factors of degree d) over GF(p) for a monic f
    squarefree mod p, by distinct-degree factorization."""
    parts = []
    h, d = (0, 1), 0  # x^(p^d) mod f
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _mod_powmod(h, p, f, p)
        shared = _mod_gcd(f, _mod(poly_sub(h, (0, 1)), p), p)
        if len(shared) > 1:
            parts.append((d, shared))
            f = _mod_divmod(f, shared, p)[0]
            h = _mod_divmod(h, f, p)[1]
    if len(f) > 1:
        parts.append((len(f) - 1, f))
    return parts


def _equal_degree(f, d, p, rng):
    """The factors over GF(p), p odd, of a monic squarefree f whose factors all
    have degree d: gcd(f, a^((p^d - 1)/2) - 1) splits it for about half of all
    a (Cantor-Zassenhaus)."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = poly_trim(rng.randrange(p) for _ in range(len(f) - 1))
        g = _mod_gcd(f, _mod(poly_sub(_mod_powmod(a, (p**d - 1) // 2, f, p), (1,)), p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_mod_divmod(f, g, p)[0], d, p, rng)


def _hensel_lift(f, factors, p, bound):
    """(lifts, q): monic U_i = factors[i] mod p (the irreducible factors of f
    mod p) with f = lead(f) * prod U_i mod q = p^k > bound.  Linear lifting:
    if F = g h mod m, e = (F - g h)/m and a = e h^-1 mod g, then
    F = (g + m a)(h + m (e - a h)/g) mod m p, all mod p in the brackets."""
    q = p
    while q <= bound:
        q *= p
    rest = _mod_monic(f, q)
    lifts = []
    for i, u in enumerate(factors[:-1]):
        v = reduce(lambda x, w: _mod(poly_mul(x, w), p), factors[i + 1:], (1,))
        t = _mod_powmod(v, p ** (len(u) - 1) - 2, u, p)  # v^-1 in the field GF(p)[x]/(u)
        g, h, m = u, v, p
        while m < q:
            e = [c // m % p for c in poly_sub(rest, poly_mul(g, h))]
            a = _mod_divmod(poly_mul(e, t), u, p)[1]
            b = _mod_divmod(_mod(poly_sub(e, poly_mul(a, v)), p), u, p)[0]
            g, h = poly_add(g, [m * c for c in a]), poly_add(h, [m * c for c in b])
            m *= p
        lifts.append(g)
        rest = h
    return lifts + [rest], q


def proper_factor(poly):
    """A factor over Q of degree 1 to n - 1 of a nonzero integer polynomial f
    of degree n, primitive with positive lead; None when f is irreducible
    over Q.  Zassenhaus's algorithm (H. Cohen, GTM 138, 3.5).

    A repeated factor is the gcd with the derivative.  A factor over Q
    reduces to a product of factors mod p, so its degree is a sum of theirs:
    no degree left by the first eight odd primes that reduce f squarefree
    proves irreducibility.  Else the factors mod the prime with the fewest are
    lifted mod q > 2 C(n, n/2) ||f||_2, past twice each coefficient of
    lead(f)/lead(g) * g for a factor g over Z (its Mahler measure is at most
    M(f) <= ||f||_2; Mignotte), and |lead(f)| times each product of at most
    half of them, reduced into (-q/2, q/2), is tested by exact division.
    """
    f = _primitive(poly_trim(poly))
    n = len(f) - 1
    if n < 2:
        return None
    if not _coprime_mod_prime(f, poly_derivative(f)):
        repeated = poly_gcd(f, poly_derivative(f))
        if len(repeated) > 1:
            return integral(repeated)
    possible, options = set(range(1, n)), []
    primes = (p for p in count(3, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2)))
    while len(options) < 8:
        p = next(primes)
        fp = _mod(f, p)
        if len(fp) <= n or len(_mod_gcd(fp, _mod(poly_derivative(fp), p), p)) > 1:
            continue
        parts = _distinct_degree(_mod_monic(fp, p), p)
        degrees = [d for d, g in parts for _ in range((len(g) - 1) // d)]
        possible &= reduce(lambda sums, d: sums | {s + d for s in sums}, degrees, {0})
        if not possible:
            return None
        options.append((len(degrees), p, parts))
    _, p, parts = min(options)
    factors = [u for d, g in parts for u in _equal_degree(g, d, p, Random(p))]
    lifts, q = _hensel_lift(f, factors, p, 2 * comb(n, n // 2) * (isqrt(sum(c * c for c in f)) + 1))
    for size in range(1, len(lifts) // 2 + 1):
        for subset in combinations(lifts, size):
            g = reduce(lambda x, u: _mod(poly_mul(x, u), q), subset, (abs(f[-1]),))
            g = _primitive([c - q if 2 * c > q else c for c in g])
            if not poly_divmod(f, g)[1]:
                return g
    return None


def monic_from_dependence(coefficients, degree):
    """t^degree - sum c_i t^i for integer dependence coefficients c_0..c_{degree-1}."""
    coeffs = [-int(c) for c in coefficients] + [0] * (degree - len(coefficients)) + [1]
    return IntPoly(coeffs[: degree + 1])
