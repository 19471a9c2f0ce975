"""Forward orbits, the critical closure, and orbit-disjointness checks.

One breadth-first search, ``_search``, serves three wrappers:

* ``forward_orbit`` follows the multivalued map from one point.  Orbits
  branch at partition points: both one-sided limit values are followed, each
  as its own thread, and the result is the union.  The Markov check of a
  user partition (``markov.markov_for_partition``) tests a point with it;
* ``tau_orbit`` follows the single-valued right-continuous map from one
  point;
* ``critical_closure`` follows the multivalued map from every partition
  point at once.

Every step of ``_search`` reads an orbit point's image from the map's
table (``interval_map.eval_multivalued``; the module docstring of
``interval_map`` says where each image comes from), so a point that one
walk of a report mapped is looked up, not mapped again, by the next.  The
single-valued step takes the one value from that table and evaluates its
branch only at a partition point whose two limits differ.  The interior
walks of a rational map run on (numerator, denominator) int pairs instead
(``_pair_walk``) and read no table; an algebraic map's are ``_search``
walks.
``reverify_closed`` and the valuation witness re-check a result through the
branches themselves, never through the table.  ``reverify_closed`` checks
the whole walk of a closed single-valued orbit, each point against the
next; ``ktheory`` runs it on the critical orbit that the unimodal and beta
closed forms read.

A search stops for one of four reasons: it completes (every value was
already seen), it passes the cap (``CapReached``), a coordinate passes
``MAX_COEFF_BITS`` (``SizeLimitReached``), or the valuation certificate
below proves the orbit infinite.  Eventual periodicity is detected by exact
revisit lookup (scalars are canonical and hashable), never by floating
shadows.

The ``ProvablyInfinite`` status carries a machine-checkable certificate, the
non-archimedean triangle inequality as used for p-adic escape of orbits
(J. Silverman, *The Arithmetic of Dynamical Systems*, GTM 241, 2007).  Take
a rational map and a prime p such that every branch x -> s*x + c has
v_p(s) <= 0.  Let T be the least of v_p(c) - v_p(s) over the branches with
c != 0 and of v_p(t) over the partition points t != 0.  If v_p(x) < T, then
v_p(s*x + c) = v_p(s) + v_p(x) <= v_p(x): the region v_p(x) < T is forward
invariant and holds no partition point, so an orbit in it is single-valued.
The valuation is constant on a cycle, so only unit branches (v_p(s) = 0)
lie on one.  With at most one unit branch j, with s_j != -1, with c_j != 0
when s_j = 1, and with its fixed point c_j / (1 - s_j) outside the region
otherwise, the region holds no cycle: every rational point in it has an
infinite orbit that never revisits a point and never lands on a partition
point, and the cap result is upgraded to a theorem.  The primes tried are
those that trial division finds in the slope denominators; the data is
built once per map (``PMMap.certificate``), and the witness re-checks a
certified point for a few steps through the branches.

``interior_orbits_disjoint`` is the one walk that checks that the interior
partition points have infinite, pairwise disjoint orbits (the IDOC);
``idoc_check`` and the multimodal K-theory route both use it.  In that walk
the certificate also proves disjointness, but only for an interval exchange.
It returns the status that stopped its walks, and ``route_label`` is the one
rule that turns such a status, or a user assertion, into the label of the
K-groups that rest on the hypothesis.  The words for each limit are written
once, as ``CapReached.limit`` and ``SizeLimitReached.limit``.

``chains_prove_independence`` walks every partition point of a continuous
map the same way, to at most k images, and reads off the walks whether the
transfer iteration can find no dependence within k steps.

``keane_idoc`` decides the IDOC of a standard interval exchange (all slopes
1) by Keane's theorem instead: an irreducible permutation with lengths
linearly independent over Q.  That is one exact rank computation, with no
orbit walked.  It reads the lengths only through their coefficient vectors,
which is sound because a ``NumberField`` proves its polynomial irreducible
when it is built.  When it decides nothing (rational lengths, more intervals than the field degree, a
reducible permutation, or a generalized exchange), the capped
``idoc_check`` stays the gate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from math import gcd

from .errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    NotAnExchangeMap,
    OutOfDomain,
)
from .interval_map import PLUS
from .scalar import ONE, ZERO, Scalar, as_scalar, rational, sort_scalars
from .snf import determinant
from . import interval_map as imap


@dataclass(frozen=True)
class Closed:
    preperiod: int | None
    period: int | None
    branched: bool = False

    kind = "closed"


@dataclass(frozen=True)
class CapReached:
    cap: int

    kind = "cap_reached"

    @property
    def limit(self):
        return "cap %d" % self.cap


@dataclass(frozen=True)
class SizeLimitReached:
    max_coeff_bits: int

    kind = "size_limit_reached"

    @property
    def limit(self):
        return "the %d-bit size limit" % self.max_coeff_bits


@dataclass(frozen=True)
class ProvablyInfinite:
    reason: str
    witness: str

    kind = "provably_infinite"


@dataclass
class OrbitResult:
    seed: Scalar
    points: list
    status: object
    edges: list = field(default_factory=list)

    def as_dict(self):
        return {
            "seed": self.seed.text(),
            "points": [p.text() for p in self.points],
            "edges": [list(e) for e in self.edges],
            "status": {"kind": self.status.kind, **asdict(self.status)},
        }


# Point coordinates whose denominators pass this size stop the search early:
# a revisit would need matching denominators, so nothing is learned by pushing
# arbitrarily large exact numbers further, and the honest answer is the limit.
MAX_COEFF_BITS = 4096


def _oversized(x):
    """Whether a coefficient of x, in lowest terms, has a numerator or a
    denominator past MAX_COEFF_BITS."""
    num, den = x.num, x.den
    if max(den, max(num), -min(num)).bit_length() <= MAX_COEFF_BITS:
        return False
    if x.field is None:
        return True  # num[0]/den is in lowest terms
    # den is the lcm of the coefficient denominators and may pass the limit
    # when none of them does
    for n in num:
        g = gcd(n, den)
        if (n // g).bit_length() > MAX_COEFF_BITS or (den // g).bit_length() > MAX_COEFF_BITS:
            return True
    return False


# Slope denominators are factored by trial division below this bound.  A
# cofactor left unfactored is skipped: the certificate is only sufficient, so
# a prime left out is sound, and no denominator can make set-up slow.
_TRIAL_DIVISION_BOUND = 1 << 12


def _slope_primes(n):
    """The prime factors of n >= 1 that trial division finds below the bound."""
    primes = []
    d = 2
    while d * d <= n and d < _TRIAL_DIVISION_BOUND:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1 and d * d > n:
        primes.append(n)  # no factor up to its square root
    return primes


def _valuation(num, den, p):
    """v_p of num/den for nonzero integers num and den."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class _ValuationCertificate:
    """Map-level data of the p-adic valuation certificate (see the module
    docstring): one region v_p(x) < T for each prime p that passes, empty
    when the map is not rational or no prime passes."""

    def __init__(self, m):
        self.regions = []  # (p, T, p^(1 - T)): x is inside when p^(1 - T) divides its denominator
        scalars = (*m.partition, *(b.slope for b in m.branches), *(b.intercept for b in m.branches))
        if not all(x.is_rational for x in scalars):
            return
        # (numerator, denominator) of each slope and intercept, and of each
        # partition point t != 0
        branches = [((b.slope.num[0], b.slope.den), (b.intercept.num[0], b.intercept.den))
                    for b in m.branches]
        points = [(t.num[0], t.den) for t in m.partition if not t.is_zero]
        primes = sorted({p for (_, sd), _ in branches for p in _slope_primes(sd)})
        for p in primes:
            vs = [_valuation(*s, p) for s, _ in branches]
            units = [(s, c) for (s, c), v in zip(branches, vs) if v == 0]
            if max(vs) > 0 or len(units) > 1:
                continue
            bound = min(
                [_valuation(*c, p) - v for (_, c), v in zip(branches, vs) if c[0]]
                + [_valuation(*t, p) for t in points]
            )
            if units:
                (sn, sd), (cn, cd) = units[0]
                if (sn, sd) == (-1, 1) or ((sn, sd) == (1, 1) and cn == 0):
                    continue
                # the fixed point c / (1 - s) = (cn * sd) / (cd * (sd - sn))
                if sn != sd and cn and _valuation(cn * sd, cd * (sd - sn), p) < bound:
                    continue
            self.regions.append((p, bound, p ** (1 - bound)))

    def region_of(self, x):
        """The (p, T) of a region that holds x, or None."""
        if not self.regions or not x.is_rational:
            return None
        # T <= 0 (the partition point 1 has v_p = 0), and a point in lowest
        # terms has v_p(x) < T exactly when p^(1 - T) divides its denominator
        den = x.den
        for p, bound, modulus in self.regions:
            if den % modulus == 0:
                return p, bound
        return None


def _certificate(m):
    """The map's valuation certificate, built on its first search."""
    if m.certificate is None:
        m.certificate = _ValuationCertificate(m)
    return m.certificate


def _valuation_witness(m, x, p, bound, steps=10):
    """Re-check a certified point through the branches: for a few steps
    each point has one value, and v_p(next) = v_p(s) + v_p(x) < T for the
    slope s of its branch, with no point repeated."""
    valuations = [bound if x.is_zero else _valuation(x.num[0], x.den, p)]
    if valuations[0] >= bound:
        raise CertificateFailure("valuation witness: %s is outside v_%d < %d" % (x.text(), p, bound))
    seen = {x}
    for _ in range(steps):
        values = imap.limits(m, x)
        if len(values) != 1:
            raise CertificateFailure("valuation witness: a certified point sits on a partition point")
        slope = m.branches[m.branch_index_at(x)].slope
        expected = _valuation(slope.num[0], slope.den, p) + valuations[-1]
        x = values[0]
        if x.is_zero or x in seen:
            raise CertificateFailure("valuation witness: the iterates reach %s again or 0" % x.text())
        v = _valuation(x.num[0], x.den, p)
        if v != expected or v >= bound:
            raise CertificateFailure(
                "valuation witness: v_%d of %s is %d, not v_%d(s) + v_%d(x) = %d below %d"
                % (p, x.text(), v, p, p, expected, bound)
            )
        valuations.append(v)
        seen.add(x)
    return "v_%d of the iterates %s... stays below %d" % (p, valuations[:6], bound)


def _certified(m, x, region):
    """The ProvablyInfinite status of a point x in the certificate's region."""
    return ProvablyInfinite(
        "p-adic valuation certificate: the region v_%d(x) < %d is forward "
        "invariant and holds no partition point and no cycle" % region,
        _valuation_witness(m, x, *region),
    )


def _search(m, seeds, cap, step, edges=None, certify=True):
    """Breadth-first search from the seeds under ``step(m, x) -> values``.

    Returns (points, stop, last): the distinct points in discovery order;
    None when the search completed, else the CapReached, SizeLimitReached
    or ProvablyInfinite status that ended it; and the index of the last
    value visited.  When ``edges`` is a list it receives one (i, j) pair per
    value, from the index of a point to the index of its value.  With
    ``certify`` false the valuation certificate ends no search.
    """
    cert = _certificate(m) if certify else None
    # points[done:] is the queue of points not yet mapped; seen maps each
    # point to its index in points
    points = list(seeds)
    seen = {p: i for i, p in enumerate(points)}
    done = 0
    last = None
    while done < len(points):
        if len(points) > cap:
            return points, CapReached(cap), last
        i = done
        p = points[done]
        done += 1
        if _oversized(p):
            return points, SizeLimitReached(MAX_COEFF_BITS), last
        region = cert and cert.region_of(p)
        if region:
            return points, _certified(m, p, region), last
        for v in step(m, p):
            last = seen.setdefault(v, len(points))
            if last == len(points):
                points.append(v)
            if edges is not None:
                edges.append((i, last))
    return points, None, last


def _checked_seed(x):
    x = as_scalar(x)
    if x < ZERO or x > ONE:
        raise OutOfDomain("%s is outside [0,1]" % x.text())
    return x


def forward_orbit(m, x, cap=10000):
    """Forward orbit under the multivalued map, following every limit-value thread."""
    x = _checked_seed(x)
    edges = []
    points, stop, last = _search(m, [x], cap, imap.eval_multivalued, edges)
    if stop is None:
        # one value per point: the points are the orbit in order, and the
        # last value closes it
        branched = len(edges) > len(points)
        stop = Closed(None, None, branched=True) if branched else Closed(last, len(points) - last)
    return OrbitResult(x, points, stop, edges)


def step_right_continuous(m, x):
    """Single-valued step: right-continuous at interior points, left limit at 1."""
    return m.branches[m.branch_index_at(x, PLUS)](x)


def _tau_step(m, x):
    values = imap.eval_multivalued(m, x)
    # two values only at a partition point whose one-sided limits differ
    return values if len(values) == 1 else (step_right_continuous(m, x),)


def tau_orbit(m, x, cap=10000):
    """Single-valued orbit under the right-continuous convention.

    Returns (points, status) where points are the distinct iterates in order.
    """
    x = _checked_seed(x)
    points, stop, last = _search(m, [x], cap, _tau_step)
    return points, Closed(last, len(points) - last) if stop is None else stop


def reverify_closed(m, points, status):
    """Check a closed single-valued orbit through the branch maps: each point
    maps to the next, and the last to the point where the period starts."""
    if not isinstance(status, Closed) or status.preperiod is None:
        return False
    if len(points) != status.preperiod + status.period:
        return False
    targets = points[1:] + [points[status.preperiod]]
    return all(step_right_continuous(m, x) == y for x, y in zip(points, targets))


@dataclass
class CriticalClosure:
    """Points of the closure: sorted when complete, else in discovery order.

    ``as_dict`` prints the points in increasing order either way.  Both sorts
    go through ``sort_scalars``, which orders the points by integer keys from
    64-bit balls and compares exactly only where two balls overlap; the
    order is the one ``sorted`` gives.
    """

    points: list
    stop: object = None  # None when complete, else the status that ended the search

    @property
    def complete(self):
        return self.stop is None

    def as_dict(self):
        points = self.points if self.complete else sort_scalars(self.points)
        return {
            "points": [p.text() for p in points],
            "complete": self.complete,
            "infinite_certificate": {"reason": self.stop.reason, "witness": self.stop.witness}
            if isinstance(self.stop, ProvablyInfinite)
            else None,
        }


def critical_closure(m, cap=10000):
    """Close the partition points under all one-sided limit values.

    ``complete`` is the Markov criterion used downstream: the forward closure
    of the critical set is finite and was reached within the cap.
    """
    points, stop, _ = _search(m, m.partition, cap, imap.eval_multivalued)
    if stop is None:
        return CriticalClosure(sort_scalars(points))
    return CriticalClosure(points, stop)


def is_exchange_map(m):
    """All slopes positive and the branch images tile [0,1]: no image is a
    single point, so covering [0,1] with disjoint interiors is tiling."""
    return (
        all(b.increasing for b in m.branches)
        and imap.is_surjective(m)
        and imap.is_essentially_injective(m)
    )


@dataclass
class IdocHolds:
    stop: object  # what `interior_orbits_disjoint` returned

    @property
    def provably_infinite(self):
        return isinstance(self.stop, ProvablyInfinite)

    @property
    def kind(self):
        if self.provably_infinite:
            return "provably_infinite_and_disjoint"
        if isinstance(self.stop, SizeLimitReached):
            return "holds_up_to_size_limit"
        return "holds_up_to_cap"


@dataclass
class IdocFails:
    witness: str

    kind = "fails"


def _pair_walk(m, a, cap, certify):
    """``_search(m, [a], cap, _tau_step, certify=certify)`` for a rational
    map, walked on (numerator, denominator) int pairs in lowest terms: the
    same points in the same order, as pairs, the same stop and the same
    index of the last value.  It neither reads nor fills the table of
    images, and builds no Scalar except for a certified point's witness.
    ``_tau_walk`` calls it for a rational map, for the two walkers
    ``interior_orbits_disjoint`` and ``chains_prove_independence``; the
    latter walks the chains of all partition points, 0 and 1 included.

    Branch x -> (u/b)*x + e/f is kept as the row (u*f, e*b, b*f), and maps
    n/d to N/D with N = u*f*n + e*b*d and D = b*f*d.  As gcd(n, d) = 1,
    gcd(N, d) = gcd(u*f*n, d) = gcd(u*f, d), so gcd(N, D), which divides
    gcd(N, b*f) * gcd(N, d), divides the small number
    g = gcd(N, b*f) * gcd(u*f, d), and equals gcd(gcd(N, g), D).
    Every gcd has an operand no larger than the map's data, so a step takes
    time linear in the size of x.

    The branch is the one ``_tau_step`` takes: the one to the left of the
    first interior cut t > x, found by integer cross products, else the
    last.  So at a cut t = x the branch to its right acts, which is
    ``_tau_step``'s value also where the two limits agree.
    """
    rows = []
    for br in m.branches:
        u, b = br.slope.num[0], br.slope.den
        e, f = br.intercept.num[0], br.intercept.den
        rows.append((u * f, e * b, b * f))
    cuts = [(t.num[0], t.den, row) for t, row in zip(m.partition[1:-1], rows)]
    regions = _certificate(m).regions if certify else ()
    n, d = a.num[0], a.den
    points = [(n, d)]
    seen = {(n, d): 0}
    last = None
    while True:
        if len(points) > cap:
            return points, CapReached(cap), last
        if d.bit_length() > MAX_COEFF_BITS:  # and 0 <= n <= d
            return points, SizeLimitReached(MAX_COEFF_BITS), last
        for p, bound, modulus in regions:
            if d % modulus == 0:
                return points, _certified(m, rational(n, d), (p, bound)), last
        row = rows[-1]
        for tn, td, left in cuts:
            if tn * d > n * td:  # t > x
                row = left
                break
        uf, eb, bf = row
        num, den = uf * n + eb * d, bf * d
        g = gcd(num, bf) * gcd(uf, d)
        if g != 1:
            g = gcd(gcd(num, g), den)
            num //= g
            den //= g
        n, d = num, den
        last = seen.setdefault((n, d), len(points))
        if last < len(points):
            return points, None, last
        points.append((n, d))


def _tau_walk(m, t, cap, certify):
    """The orbit of t under the right-continuous map, to at most cap images,
    as (points, stop, last) of ``_search(m, [t], cap, _tau_step,
    certify=certify)``: walked by ``_pair_walk`` for a rational map, whose
    points are then (numerator, denominator) pairs, else by that search.
    points[0] is t itself in the walk's own form."""
    if m.field is None:
        return _pair_walk(m, t, cap, certify)
    return _search(m, [t], cap, _tau_step, certify=certify)


def interior_orbits_disjoint(m, cap):
    """Check the orbits of the interior partition points to the cap.

    Uses true single-valued orbits under the right-continuous convention,
    walked by ``_tau_walk`` (on integer pairs for a rational map).  Raises
    HypothesisViolatedWithinCap when an orbit is eventually periodic or two
    orbits meet.  Otherwise returns the status that stopped the walks:
    ProvablyInfinite when every walk was certified, else the CapReached or
    SizeLimitReached of the first interior point whose walk was not.  With
    no interior point nothing was walked: None.

    A valuation certificate proves an orbit infinite, not two orbits apart.
    An exchange is injective on [0,1), so meeting orbits of a and b put one
    of them in the other's orbit, which the walk rules out before the
    certified point and the certificate (no later partition point) after
    it.  For any other map each orbit is followed past its certificate,
    proving nothing.
    """
    interior = list(m.partition[1:-1])
    certify = is_exchange_map(m)
    owner = {}
    stops = []
    for idx, a in enumerate(interior):
        points, stop, last = _tau_walk(m, a, cap, certify)
        if stop is None:
            raise HypothesisViolatedWithinCap(
                "orbit of %s is eventually periodic (preperiod %d, period %d)"
                % (a.text(), last, len(points) - last)
            )
        stops.append(stop)
        for p in points:
            # the points of one orbit are distinct, so another owner is a collision
            first = owner.setdefault(p, idx)
            if first != idx:
                point = rational(*p) if m.field is None else p
                raise HypothesisViolatedWithinCap(
                    "orbits of %s and %s collide at %s"
                    % (interior[first].text(), a.text(), point.text())
                )
    # the first walk left open, else the first certified one (min is stable)
    return min(stops, key=lambda stop: isinstance(stop, ProvablyInfinite), default=None)


def chains_prove_independence(m, k):
    """Whether the partition points' chains prove that the iterates
    v_j = L^j 1, 0 <= j <= k, of the transfer operator are linearly
    independent, so that ``ktheory.minimal_polynomial_iter(m, cap=k)``
    finds no dependence.  False decides nothing.

    The *chain* of a partition point t is tau(t), tau^2(t), ..., cut before
    its first point in the partition P.  The lemma: let m be continuous, and
    let t be 0, 1 or a turning point (the branches on either side of it have
    opposite monotonicity).  Suppose t's chain has k points, pairwise
    distinct and on no other partition point's chain.  Then for
    1 <= j <= k, v_j has a nonzero jump at x_j = tau^j(t), and no earlier
    iterate has a jump there, so v_0, ..., v_k are independent.

    Why: every jump of an iterate v_j outside P lies on some point's chain,
    at place at most j, since a transfer step moves a jump inside a domain
    to its image and the lap-end terms put jumps at the images of partition
    points.  The lap ends make the jump of v_1 at x_1 = tau(t) +-2 at a
    turning point and +-1 at 0 or 1; at an interior point where the map
    does not turn their terms cancel.  For j >= 2 the point x_j is neither
    the image of a partition point nor of a jump point other than x_{j-1},
    so its jump is the branch sign times the jump of v_{j-1} at x_{j-1}.

    Each partition point's orbit is walked once, to at most k images, by
    ``_tau_walk`` with no certificate, and the walks' first points are the
    partition in the walks' own form.  A walk that passes the size limit
    before its chain ends decides nothing.
    """
    if not m.is_continuous():
        return False
    walks = [_tau_walk(m, t, k, False) for t in m.partition]
    partition = {points[0] for points, _, _ in walks}
    chains = []
    for points, stop, _ in walks:
        chain = []
        for x in points[1:]:
            if x in partition:
                break
            chain.append(x)
        else:
            if isinstance(stop, SizeLimitReached):
                return False
        chains.append(chain)
    # the points of one chain are distinct, so a point counted twice lies
    # on two chains
    owners = Counter(x for chain in chains for x in chain)
    increasing = [b.increasing for b in m.branches]
    # 0, every turning point, and 1
    starts = [0] + [i for i in range(1, len(increasing)) if increasing[i - 1] != increasing[i]]
    starts.append(len(increasing))
    return any(len(chains[i]) == k and all(owners[x] == 1 for x in chains[i]) for i in starts)


def idoc_check(m, cap=1000):
    """Disjointness and non-periodicity of the interior partition point orbits."""
    if not is_exchange_map(m):
        raise NotAnExchangeMap(
            "map is not a generalized interval exchange (increasing bijective)"
        )
    try:
        return IdocHolds(interior_orbits_disjoint(m, cap))
    except HypothesisViolatedWithinCap as exc:
        return IdocFails(str(exc))


def route_label(stop, hypothesis, asserted=False):
    """The label of K-groups resting on an orbit hypothesis that a search
    stopped by ``stop`` checked: "unconditional" when nothing was left open
    (None, no orbit to follow, or ProvablyInfinite), else "asserted" when the
    user asserts it, else conditional on ``hypothesis``, whose one %s takes
    the words of the limit that stopped the search."""
    if stop is None or isinstance(stop, ProvablyInfinite):
        return "unconditional"
    if asserted:
        return "asserted"
    return "conditional on " + hypothesis % stop.limit


def keane_idoc(m):
    """The IDOC of a standard interval exchange by Keane's theorem (M. Keane,
    "Interval exchange transformations", Math. Z. 141, 1975): a
    ProvablyInfinite status when it holds, else None, which decides nothing.

    The map must have at least two branches, all of slope 1, whose images
    tile [0,1].  Its permutation is read from the order of the branch
    images, and is irreducible when no proper prefix of the intervals maps
    onto itself.  The lengths are independent over Q when their coefficient
    vectors (power basis, denominators cleared per vector) have rank n, that
    is, a nonzero Gram determinant; so rational lengths, and more intervals
    than the field degree, are never decided.  The field's polynomial is
    irreducible, so that rank is the rank of the real lengths.
    """
    n = len(m.branches)
    field = m.field
    if n < 2 or field is None or n > field.degree or any(b.slope != ONE for b in m.branches):
        return None
    # with slope 1 a branch is x -> x + intercept, and its image is as long
    # as its interval; the images tile [0,1] when each starts where the one
    # before it ends
    starts = [b.lo + b.intercept for b in m.branches]
    order = sorted(range(n), key=starts.__getitem__)  # the branch at each image place
    end = ZERO
    for i in order:
        if starts[i] != end:
            return None
        end = m.branches[i].hi + m.branches[i].intercept
    permutation = [0] * n
    for place, i in enumerate(order, 1):
        permutation[i] = place
    if any(max(permutation[:k]) == k for k in range(1, n)):
        return None
    vectors = []
    for b in m.branches:
        num = (b.hi - b.lo).num
        vectors.append(list(num) + [0] * (field.degree - len(num)))
    gram = determinant([[sum(map(int.__mul__, u, v)) for v in vectors] for u in vectors])
    if gram == 0:
        return None
    return ProvablyInfinite(
        "Keane: an interval exchange with an irreducible permutation and lengths "
        "linearly independent over Q has infinite, pairwise disjoint interior orbits",
        "permutation %s; the lengths' coefficient vectors have Gram determinant %d"
        % (permutation, gram),
    )
