"""Forward orbits, the critical closure, and orbit-disjointness checks.

One breadth-first search, ``_search``, serves three wrappers:

* ``forward_orbit`` follows the multivalued map from one point.  Orbits
  branch at partition points: both one-sided limit values are followed, each
  as its own thread, and the result is the union;
* ``tau_orbit`` follows the single-valued right-continuous map from one
  point;
* ``critical_closure`` follows the multivalued map from every partition
  point at once.

A search stops for one of four reasons: it completes (every value was
already seen), it passes the cap, a coordinate passes ``MAX_COEFF_BITS``
(reported as ``CapReached`` with the point count), or the growth
certificate below proves the orbit infinite.  Eventual periodicity is
detected by exact revisit lookup (scalars are canonical and hashable), never
by floating shadows.

The ``ProvablyInfinite`` status carries a machine-checkable certificate: when
every branch slope has the same reduced denominator q > 1 and every intercept
denominator is a power of q, any rational iterate whose reduced denominator
is a power of q large enough (at least q^{e} for the largest intercept
exponent e, and larger than every partition denominator) has all later
iterates with strictly growing pure q-power denominators.  Such an orbit
never revisits a point and never lands on a partition point, so it is
infinite; the cap result is upgraded to a theorem.

``interior_orbits_disjoint`` is the one check that the interior partition
points have infinite, pairwise disjoint orbits; ``idoc_check`` and the
multimodal K-theory route both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    NotAnExchangeMap,
    OutOfDomain,
)
from .interval_map import PLUS
from .scalar import ONE, ZERO, Scalar, as_scalar
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
        d = {
            "seed": self.seed.text(),
            "points": [p.text() for p in self.points],
            "edges": [list(e) for e in self.edges],
            "status": {"kind": self.status.kind},
        }
        if isinstance(self.status, Closed):
            d["status"]["preperiod"] = self.status.preperiod
            d["status"]["period"] = self.status.period
            d["status"]["branched"] = self.status.branched
        elif isinstance(self.status, CapReached):
            d["status"]["cap"] = self.status.cap
        elif isinstance(self.status, ProvablyInfinite):
            d["status"]["reason"] = self.status.reason
            d["status"]["witness"] = self.status.witness
        return d


# Point coordinates whose denominators pass this size stop the search early:
# a revisit would need matching denominators, so nothing is learned by pushing
# arbitrarily large exact numbers further, and the honest answer is the cap.
MAX_COEFF_BITS = 4096


def _oversized(x, max_bits=MAX_COEFF_BITS):
    for c in x.coeffs:
        if c.denominator.bit_length() > max_bits or c.numerator.bit_length() > max_bits:
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
        vals = imap.eval_multivalued(m, cur)
        if len(vals) != 1:
            raise CertificateFailure(
                "growth witness: a certified point sits on a partition point"
            )
        cur = vals[0]
        denoms.append(cur.as_fraction().denominator)
    if not all(a < b for a, b in zip(denoms, denoms[1:])):
        raise CertificateFailure("growth witness: denominators %s do not grow" % (denoms,))
    return "denominators %s..." % (denoms[: min(6, len(denoms))],)


def _search(m, seeds, cap, step, edges=None):
    """Breadth-first search from the seeds under ``step(m, x) -> values``.

    Returns (points, stop): the distinct points in discovery order, and None
    when the search completed, else the CapReached or ProvablyInfinite status
    that ended it.  When ``edges`` is a list it receives one (i, j) pair per
    value, from the index of a point to the index of its value.
    """
    cert = _GrowthCertificate(m)
    # points[done:] is the queue of points not yet mapped; seen maps each
    # point to its index in points
    points = list(seeds)
    seen = {p: i for i, p in enumerate(points)}
    done = 0
    while done < len(points):
        if len(points) > cap:
            return points, CapReached(cap)
        i = done
        p = points[done]
        done += 1
        if _oversized(p):
            return points, CapReached(len(points))
        if cert.certifies(p):
            return points, ProvablyInfinite(
                "denominator-growth: slopes with reduced denominator %d "
                "force strictly increasing q-power denominators" % cert.q,
                _certificate_witness(m, p),
            )
        for v in step(m, p):
            j = seen.setdefault(v, len(points))
            if j == len(points):
                points.append(v)
            if edges is not None:
                edges.append((i, j))
    return points, None


def _checked_seed(x):
    x = as_scalar(x)
    if x < ZERO or x > ONE:
        raise OutOfDomain("%s is outside [0,1]" % x.text())
    return x


def _closed(points, edges):
    """Status of a search from one seed that completed."""
    if len(edges) > len(points):
        return Closed(None, None, branched=True)
    # one value per point: the points are the orbit in order, and the last
    # edge closes it
    k = edges[-1][1]
    return Closed(k, len(points) - k)


def forward_orbit(m, x, cap=10000):
    """Forward orbit under the multivalued map, following every limit-value thread."""
    x = _checked_seed(x)
    edges = []
    points, stop = _search(m, [x], cap, imap.eval_multivalued, edges)
    return OrbitResult(x, points, _closed(points, edges) if stop is None else stop, edges)


def step_right_continuous(m, x):
    """Single-valued step: right-continuous at interior points, left limit at 1."""
    if x == ONE:
        return m.branches[-1](x)
    i = m.branch_index_at(x, PLUS)
    return m.branches[i](x)


def tau_orbit(m, x, cap=10000):
    """Single-valued orbit under the right-continuous convention.

    Returns (points, status) where points are the distinct iterates in order.
    """
    x = _checked_seed(x)
    edges = []
    points, stop = _search(m, [x], cap, lambda m, y: (step_right_continuous(m, y),), edges)
    return points, _closed(points, edges) if stop is None else stop


def reverify_closed(m, points, status):
    """Check a Closed result by direct iteration through the branch maps."""
    if not isinstance(status, Closed) or status.preperiod is None:
        return False
    k, p = status.preperiod, status.period
    cur = points[k]
    for _ in range(p):
        cur = step_right_continuous(m, cur)
    return cur == points[k]


@dataclass
class CriticalClosure:
    """Points of the closure: sorted when complete, else in discovery order."""

    points: list
    complete: bool
    certificate: ProvablyInfinite | None = None

    def as_dict(self):
        points = self.points if self.complete else sorted(self.points)
        return {
            "points": [p.text() for p in points],
            "complete": self.complete,
            "infinite_certificate": None
            if self.certificate is None
            else {"reason": self.certificate.reason, "witness": self.certificate.witness},
        }


def critical_closure(m, cap=10000):
    """Close the partition points under all one-sided limit values.

    ``complete`` is the Markov criterion used downstream: the forward closure
    of the critical set is finite and was reached within the cap.
    """
    points, stop = _search(m, m.partition, cap, imap.eval_multivalued)
    if stop is None:
        return CriticalClosure(sorted(points), True)
    if isinstance(stop, ProvablyInfinite):
        return CriticalClosure(
            points, False, ProvablyInfinite("denominator-growth certificate", stop.witness)
        )
    return CriticalClosure(points, False)


def is_exchange_map(m):
    """All slopes positive and the branch images tile [0,1]."""
    if any(not b.increasing for b in m.branches):
        return False
    images = sorted((b.image() for b in m.branches), key=lambda iv: iv[0])
    cursor = ZERO
    for lo, hi in images:
        if lo != cursor:
            return False
        cursor = hi
    return cursor == ONE


@dataclass
class IdocHolds:
    cap: int
    provably_infinite: bool = False

    @property
    def kind(self):
        if self.provably_infinite:
            return "provably_infinite_and_disjoint_up_to_cap"
        return "holds_up_to_cap"


@dataclass
class IdocFails:
    witness: str

    kind = "fails"


def interior_orbits_disjoint(m, cap):
    """Check the orbits of the interior partition points to the cap.

    Uses true single-valued orbits under the right-continuous convention.
    Raises HypothesisViolatedWithinCap when an orbit is eventually periodic
    or two orbits meet; otherwise returns whether every orbit is provably
    infinite.
    """
    interior = list(m.partition[1:-1])
    owner = {}
    provable = True
    for idx, a in enumerate(interior):
        points, status = tau_orbit(m, a, cap)
        if isinstance(status, Closed):
            raise HypothesisViolatedWithinCap(
                "orbit of %s is eventually periodic (preperiod %d, period %d)"
                % (a.text(), status.preperiod, status.period)
            )
        if not isinstance(status, ProvablyInfinite):
            provable = False
        for p in points:
            # the points of one orbit are distinct, so another owner is a collision
            first = owner.setdefault(p, idx)
            if first != idx:
                raise HypothesisViolatedWithinCap(
                    "orbits of %s and %s collide at %s"
                    % (interior[first].text(), a.text(), p.text())
                )
    return provable


def idoc_check(m, cap=1000):
    """Disjointness and non-periodicity of the interior partition point orbits."""
    if not is_exchange_map(m):
        raise NotAnExchangeMap(
            "map is not a generalized interval exchange (increasing bijective)"
        )
    try:
        provable = interior_orbits_disjoint(m, cap)
    except HypothesisViolatedWithinCap as exc:
        return IdocFails(str(exc))
    return IdocHolds(cap, provably_infinite=provable)
