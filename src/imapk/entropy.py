"""Rigorous topological entropy enclosures via Perron roots.

For Markov maps the entropy is the log of the spectral radius of the
incidence matrix, enclosed by exact bisection on the characteristic
polynomial.  The bisection runs in integers over dyadic points; Sturm counts
steer it until one real root is left in the bracket, so other real roots
cannot mislead it, and a sign test per step finishes it.  Degree-one and
degree-two factors are solved exactly, so the examples at this scale come
out as exact scalars.  Maps with uniform absolute slope and certified
transitivity get the exact value from the slope; everything else is
reported unknown rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailure
from .polynomials import IntPoly, count_real_roots, homogeneous_eval, sturm_sequence
from .scalar import NumberField, Scalar, as_scalar
from .snf import char_poly
from .markov import _strongly_connected_components, check_zero_one


def _largest_real_root(p: IntPoly, hi_bound: Fraction, tol: Fraction):
    """Enclosure (lo, hi) of the largest real root of p in (0, hi_bound].

    Returns (lo, hi, exact) where exact is a Scalar when the root was
    identified exactly, else None.  Assumes p is monic with a real root >= 1.

    The bracket is kept as integers lo/scale < hi/scale, halved by doubling
    the scale, and the squarefree part q is evaluated at its points by the
    homogeneous Horner scheme.  Sturm counts track how many roots (lo, hi]
    holds; once it holds one, q changes sign there exactly once, so the sign
    of q at the midpoint against its sign at hi locates the root.  A root at
    a midpoint ends the search only when no root lies above it.
    """
    q = p.squarefree_part()
    top = q(hi_bound)
    if top == 0:
        s = as_scalar(hi_bound)
        return hi_bound, hi_bound, s
    seq = sturm_sequence(q.coeffs)
    roots = count_real_roots(q.coeffs, Fraction(0), hi_bound, seq)
    if roots < 1:
        raise CertificateFailure("no real root of %s in (0, %s]" % (q.text(), hi_bound))
    lo, hi, scale = 0, hi_bound.numerator, hi_bound.denominator
    # hi moves down only past no root, so q keeps this sign at hi
    hi_positive = top > 0
    while (hi - lo) * tol.denominator > tol.numerator * scale:
        mid, lo, hi, scale = lo + hi, 2 * lo, 2 * hi, 2 * scale
        value = homogeneous_eval(q.coeffs, mid, scale)
        if roots == 1:
            above = value != 0 and (value > 0) != hi_positive
        else:
            above = count_real_roots(q.coeffs, Fraction(mid, scale), Fraction(hi, scale), seq)
            roots = above or roots
        if value == 0 and not above:
            # the largest root: any other root in (mid, hi] was counted
            x = Fraction(mid, scale)
            return x, x, as_scalar(x)
        if above:
            lo = mid
        else:
            hi = mid
    lo, hi = Fraction(lo, scale), Fraction(hi, scale)
    exact = _identify_exact(q, lo, hi)
    return lo, hi, exact


def _identify_exact(q: IntPoly, lo: Fraction, hi: Fraction):
    g = q
    for r in q.integer_roots():
        if lo <= r <= hi:
            return as_scalar(r)
        g = g.deflate_root(r)
    if g.degree == 2 and g(lo) != 0 and g(hi) != 0 and (g(lo) > 0) != (g(hi) > 0):
        return NumberField(g.coeffs, (lo, hi)).alpha()
    return None


def perron_enclosure(A, tol=Fraction(1, 10**6), poly=None):
    """Enclosure of the spectral radius of a zero-one matrix.

    Reducible matrices are handled per strongly connected component: the
    largest component root lies between the largest lower and upper ends.  An
    exact root is kept only where it provably is that root: it reaches every
    other component's upper end, or equals that component's exact root.
    ``poly``, when given, is the characteristic polynomial of an irreducible
    A, which is then its own one component.
    Returns (s_lo, s_hi, exact_scalar_or_None).
    """
    n = check_zero_one(A)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    comps = [range(n)] if poly is not None else _strongly_connected_components(A)
    found = [(Fraction(0), Fraction(0), as_scalar(0))]  # an acyclic part has radius 0
    for comp in comps:
        sub = [[A[i][j] for j in comp] for i in comp]
        if all(x == 0 for row in sub for x in row):
            continue
        p = char_poly(sub) if poly is None else poly
        bound = max(sum(row) for row in sub)
        found.append(_largest_real_root(p, Fraction(bound), tol))
    exact = next((x for _, _, x in found
                  if x is not None and all(x >= hi or x == y for _, hi, y in found)), None)
    return max(lo for lo, _, _ in found), max(hi for _, hi, _ in found), exact


@dataclass
class EntropyReport:
    method: str  # perron_markov | uniform_slope | unknown
    s_lo: Fraction | None
    s_hi: Fraction | None
    exact_s: Scalar | None
    notes: list

    def as_dict(self):
        return {
            "method": self.method,
            "s_enclosure": None
            if self.s_lo is None
            else [str(self.s_lo), str(self.s_hi)],
            "exact_s": None if self.exact_s is None else self.exact_s.text(),
            "entropy_note": self.entropy_note(),
            "notes": list(self.notes),
        }

    def entropy_note(self):
        if self.method == "unknown":
            return "unknown"
        if self.exact_s is not None:
            return "ln %s" % self.exact_s.text()
        return "ln s for s in [%s, %s]" % (self.s_lo, self.s_hi)


def uniform_abs_slope(m):
    """The common |slope| of all branches, or None."""
    slopes = []
    for b in m.branches:
        s = b.slope if b.slope.sign() > 0 else -b.slope
        slopes.append(s)
    first = slopes[0]
    if all(s == first for s in slopes[1:]):
        return first
    return None


def entropy_report(m, flags, markov_data=None, tol=Fraction(1, 10**6), poly=None):
    """Entropy enclosure with trace/KMS annotations when the hypotheses hold;
    ``poly`` is the characteristic polynomial of an irreducible Markov
    matrix, for `perron_enclosure`."""
    notes = []
    report = None
    if markov_data is not None:
        lo, hi, exact = perron_enclosure(markov_data.matrix, tol, poly)
        report = EntropyReport("perron_markov", lo, hi, exact, notes)
    else:
        s = uniform_abs_slope(m)
        if s is not None and flags.transitive:
            lo, hi = s.enclosure(tol)
            report = EntropyReport("uniform_slope", lo, hi, s, notes)
        else:
            report = EntropyReport("unknown", None, None, None, notes)
    if flags.transitive and not flags.essentially_injective:
        h = report.entropy_note()
        if h != "unknown":
            notes.append(
                "unique trace on the core algebra, scaled by exp(-h) with h = %s" % h
            )
            notes.append("unique KMS state at inverse temperature h = %s" % h)
    return report
