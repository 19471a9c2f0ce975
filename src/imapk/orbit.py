"""Forward orbits, the critical closure, and orbit-disjointness checks.

One breadth-first search, ``_search``, serves three wrappers:

* ``forward_orbit`` follows the multivalued map from one point.  Orbits
  branch at partition points: both one-sided limit values are followed, each
  as its own thread, and the result is the union;
* ``tau_orbit`` follows the single-valued right-continuous map from one
  point;
* ``critical_closure`` follows the multivalued map from every partition
  point at once.

Every step reads ``interval_map.eval_multivalued``, so a point that one walk
of a report mapped is looked up, not mapped again, by the next: the
closure, the partition orbits and the interior walks share the map's table
of images.  The single-valued step takes the one value from that table and
evaluates its branch only at a partition point whose two limits differ.
``reverify_closed`` and the growth witness re-check a result through the
branches themselves, never through the table.  ``reverify_closed`` checks
the whole walk of a closed single-valued orbit, each point against the
next; ``ktheory`` runs it on the critical orbit that the unimodal and beta
closed forms read.

A search stops for one of four reasons: it completes (every value was
already seen), it passes the cap (``CapReached``), a coordinate passes
``MAX_COEFF_BITS`` (``SizeLimitReached``), or the growth certificate below
proves the orbit infinite.  Eventual periodicity is detected by exact
revisit lookup (scalars are canonical and hashable), never by floating
shadows.

The ``ProvablyInfinite`` status carries a machine-checkable certificate: when
every branch slope has the same reduced denominator q > 1 and every intercept
denominator is a power of q, any rational iterate whose reduced denominator
is a power of q large enough (at least q^{e} for the largest intercept
exponent e, and larger than every partition denominator) has all later
iterates with strictly growing pure q-power denominators.  Such an orbit
never revisits a point and never lands on a partition point, so it is
infinite; the cap result is upgraded to a theorem.

``interior_orbits_disjoint`` is the one walk that checks that the interior
partition points have infinite, pairwise disjoint orbits (the IDOC);
``idoc_check`` and the multimodal K-theory route both use it.  In that walk
the certificate also proves disjointness, but only for an interval exchange.
It returns the status that stopped its walks, and ``route_label`` is the one
rule that turns such a status, or a user assertion, into the label of the
K-groups that rest on the hypothesis.  The words for each limit are written
once, as ``CapReached.limit`` and ``SizeLimitReached.limit``.

``keane_idoc`` decides the IDOC of a standard interval exchange (all slopes
1) by Keane's theorem instead: an irreducible permutation with lengths
linearly independent over Q.  That is one exact rank computation, with no
orbit walked; it reads the lengths' real values only through their
coefficient vectors, so it needs the field's polynomial proved irreducible
(``polynomials.provably_irreducible``).  When it decides nothing (rational
lengths, more intervals than the field degree, a reducible permutation, a
generalized exchange, or a polynomial not proved irreducible), the capped
``idoc_check`` stays the gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import lcm

from .errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    NotAnExchangeMap,
    OutOfDomain,
)
from .interval_map import PLUS
from .polynomials import provably_irreducible
from .scalar import ONE, ZERO, Scalar, as_scalar, sort_scalars
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
    for c in x.coeffs:
        if c.denominator.bit_length() > MAX_COEFF_BITS or c.numerator.bit_length() > MAX_COEFF_BITS:
            return True
    return False


class _GrowthCertificate:
    """Map-level data for the denominator-growth certificate, or inapplicable."""

    def __init__(self, m):
        self.ok = False
        q = None
        e_max = 0
        for b in m.branches:
            if not (b.slope.is_rational and b.intercept.is_rational):
                return
            sq = abs(b.slope.as_fraction()).denominator
            if sq <= 1:
                return
            if q is None:
                q = sq
            elif q != sq:
                return
            d = b.intercept.as_fraction().denominator
            e = 0
            while d % q == 0:
                d //= q
                e += 1
            if d != 1:
                return
            e_max = max(e_max, e)
        if q is None:
            return
        part_denoms = [p.as_fraction().denominator for p in m.partition if p.is_rational]
        if len(part_denoms) != len(m.partition):
            return
        self.ok = True
        self.q = q
        self.e_max = e_max
        self.min_power = max(q**e_max, max(part_denoms) + 1)

    def certifies(self, x):
        """True when all later iterates of x provably have growing denominators."""
        if not self.ok or not x.is_rational:
            return False
        d = x.as_fraction().denominator
        if d < self.min_power:
            return False
        while d % self.q == 0:
            d //= self.q
        return d == 1


def _certificate_witness(m, x, steps=10):
    """Recheck: the next few iterates in lowest terms have strictly growing denominators."""
    denoms = [x.as_fraction().denominator]
    cur = x
    for _ in range(steps):
        vals = imap.limits(m, cur)
        if len(vals) != 1:
            raise CertificateFailure(
                "growth witness: a certified point sits on a partition point"
            )
        cur = vals[0]
        denoms.append(cur.as_fraction().denominator)
    if not all(a < b for a, b in zip(denoms, denoms[1:])):
        raise CertificateFailure("growth witness: denominators %s do not grow" % (denoms,))
    return "denominators %s..." % (denoms[: min(6, len(denoms))],)


def _search(m, seeds, cap, step, edges=None, certify=True):
    """Breadth-first search from the seeds under ``step(m, x) -> values``.

    Returns (points, stop, last): the distinct points in discovery order;
    None when the search completed, else the CapReached, SizeLimitReached
    or ProvablyInfinite status that ended it; and the index of the last
    value visited.  When ``edges`` is a list it receives one (i, j) pair per
    value, from the index of a point to the index of its value.  With
    ``certify`` false the growth certificate ends no search.
    """
    cert = _GrowthCertificate(m)
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
        if certify and cert.certifies(p):
            return points, ProvablyInfinite(
                "denominator-growth: slopes with reduced denominator %d "
                "force strictly increasing q-power denominators" % cert.q,
                _certificate_witness(m, p),
            ), last
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
    if x == ONE:
        return m.branches[-1](x)
    i = m.branch_index_at(x, PLUS)
    return m.branches[i](x)


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
    if isinstance(stop, ProvablyInfinite):
        stop = ProvablyInfinite("denominator-growth certificate", stop.witness)
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


def interior_orbits_disjoint(m, cap):
    """Check the orbits of the interior partition points to the cap.

    Uses true single-valued orbits under the right-continuous convention.
    Raises HypothesisViolatedWithinCap when an orbit is eventually periodic
    or two orbits meet.  Otherwise returns the status that stopped the
    walks: ProvablyInfinite when every walk was certified, else the
    CapReached or SizeLimitReached of the first interior point whose walk
    was not.  With no interior point nothing was walked: None.

    A growth certificate proves an orbit infinite, not two orbits apart.  An
    exchange is injective on [0,1), so meeting orbits of a and b put one of
    them in the other's orbit, which the walk rules out before the certified
    point and the certificate (no later partition point) after it.  For any
    other map each orbit is followed past its certificate, proving nothing.
    """
    interior = list(m.partition[1:-1])
    certify = is_exchange_map(m)
    owner = {}
    stops = []
    for idx, a in enumerate(interior):
        points, stop, last = _search(m, [a], cap, _tau_step, certify=certify)
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
                raise HypothesisViolatedWithinCap(
                    "orbits of %s and %s collide at %s"
                    % (interior[first].text(), a.text(), p.text())
                )
    # the first walk left open, else the first certified one (min is stable)
    return min(stops, key=lambda stop: isinstance(stop, ProvablyInfinite), default=None)


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
    than the field degree, are never decided.  That rank is the rank of the
    real lengths only when the field's polynomial is irreducible: over
    (x^2 - 2)(x^2 - 3) with the root sqrt(2), x^2/4 and 1 - x^2/4 have
    independent vectors and are both 1/2.  So a polynomial not proved
    irreducible decides nothing.
    """
    n = len(m.branches)
    field = m.field
    if n < 2 or field is None or n > field.degree or any(b.slope != ONE for b in m.branches):
        return None
    if not provably_irreducible(field.poly):
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
        coeffs = (b.hi - b.lo).coeffs
        den = lcm(*(c.denominator for c in coeffs))
        vectors.append([int(c * den) for c in coeffs] + [0] * (field.degree - len(coeffs)))
    gram = determinant([[sum(map(int.__mul__, u, v)) for v in vectors] for u in vectors])
    if gram == 0:
        return None
    return ProvablyInfinite(
        "Keane: an interval exchange with an irreducible permutation and lengths "
        "linearly independent over Q has infinite, pairwise disjoint interior orbits",
        "permutation %s; the lengths' coefficient vectors have Gram determinant %d"
        % (permutation, gram),
    )
