"""Markov structure: detection, incidence matrices, graph flags, separation.

The canonical Markov partition is the sorted critical closure (the finest
choice).  Coarser user-supplied partitions are accepted after validation and
must produce the same K-groups, which the tests exercise.  The incidence
convention is A[i][j] = 1 iff the image of the i-th open interval contains
the j-th open interval.  One builder fills the rows for both kinds of
partition: it checks that the map is monotonic on each interval and that the
image ends at partition points, and then certifies every row against that
image (the row-image law).

``_markov_data`` also records ``MarkovData.piecewise_linear``: the slope is
constant on every Markov interval.  That is the hypothesis under which the
matrix criteria decide exactness and transitivity and the algebras are the
Cuntz-Krieger pair of the matrix.  Canonical data always sets it: the
critical closure holds every partition point of the map, so each Markov
interval lies inside one affine branch.  Only a coarser partition, whose
interval may span branches of different slopes, can clear it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import CertificateFailure, InvalidMarkovPartition, NotSquare, NotZeroOne
from .interval_map import (
    MINUS,
    PLUS,
    Certificate,
    eval_multivalued,
    merge_closed_intervals,
)
from .orbit import (
    CapReached,
    ProvablyInfinite,
    SizeLimitReached,
    critical_closure,
    forward_orbit,
)
from .scalar import ONE, ZERO, as_scalar, sort_scalars


@dataclass
class MarkovData:
    partition: tuple
    matrix: list
    piecewise_linear: bool  # one slope on every Markov interval
    canonical: bool = True

    @property
    def size(self):
        return len(self.matrix)

    def as_dict(self):
        return {
            "partition": [p.text() for p in self.partition],
            "matrix": [list(row) for row in self.matrix],
            "canonical": self.canonical,
        }


# the report status of a critical closure whose search stopped, by the kind
# of the stop status that ended it
NOT_MARKOV = {
    "cap_reached": "not_markov_within_cap",
    "size_limit_reached": "not_markov_within_size_limit",
    "provably_infinite": "provably_not_markov",
}


def detect_markov(m, cap=10000, closure=None):
    """Markov data through the critical closure (computed unless given), or
    the stop status of the closure search when the closure is incomplete."""
    cc = critical_closure(m, cap) if closure is None else closure
    if not cc.complete:
        return cc.stop
    return _markov_data(m, cc.points, canonical=True)


def _not_monotonic(lo, hi):
    return InvalidMarkovPartition("map is not monotonic on (%s, %s)" % (lo.text(), hi.text()))


def _locate(index, x, lo, hi):
    """Index of x among the partition points, from their ``index``; x ends
    the image of (lo, hi)."""
    i = index.get(x)
    if i is None:
        raise InvalidMarkovPartition(
            "image of (%s, %s) is not aligned with the partition" % (lo.text(), hi.text())
        )
    return i


def _markov_data(m, points, canonical):
    """Incidence matrix of the sorted partition ``points``.

    On each interval (lo, hi) the branches over it, found by ``locate``, must
    share one slope sign and have their image pieces in monotone order.  The
    merged image must end at partition points, and the row selects the
    intervals it covers.  Slopes are compared only over an interval that
    spans several branches, so canonical data costs no compare.
    """
    size = len(points) - 1
    index = {p: k for k, p in enumerate(points)}
    matrix = [[0] * size for _ in range(size)]
    images = []
    piecewise_linear = True
    for j in range(size):
        lo, hi = points[j], points[j + 1]
        first, last = m.branch_index_at(lo, PLUS), m.branch_index_at(hi, MINUS)
        sub = m.branches[first : last + 1]
        increasing = sub[0].increasing
        if any(b.increasing != increasing for b in sub[1:]):
            raise _not_monotonic(lo, hi)
        # the slopes share one sign, so one |slope| is one slope
        piecewise_linear = piecewise_linear and all(b.slope == sub[0].slope for b in sub[1:])
        pieces = []
        for i, b in enumerate(sub):
            u, v = b(lo if i == 0 else b.lo), b(hi if i == len(sub) - 1 else b.hi)
            pieces.append((u, v) if increasing else (v, u))
        ordered = pieces if increasing else pieces[::-1]
        if any(not v1 <= u2 for (_, v1), (u2, _) in zip(ordered, ordered[1:])):
            raise _not_monotonic(lo, hi)
        image = merge_closed_intervals(pieces)
        for u, v in image:
            a, c = _locate(index, u, lo, hi), _locate(index, v, lo, hi)
            for k in range(a, c):
                matrix[j][k] = 1
        images.append(image)
    data = MarkovData(tuple(points), matrix, piecewise_linear, canonical)
    _verify_row_images(data, images)
    return data


def _verify_row_images(data, images):
    """The intervals each row selects must cover exactly that interval's image."""
    for j, image in enumerate(images):
        selected = [
            (data.partition[k], data.partition[k + 1])
            for k in range(data.size)
            if data.matrix[j][k]
        ]
        if merge_closed_intervals(selected) != image:
            raise CertificateFailure("row-image law violated for interval %d" % (j + 1))


def markov_for_partition(m, points, cap=10000, closure=None):
    """Validate a user-supplied (possibly coarser) Markov partition.

    Checks: endpoints 0 and 1; points inside the forward closure of the
    critical set (or mapping into it); monotonicity across each interval;
    images aligned with partition points; the critical set eventually
    trapped in the partition point set.  ``closure`` is the critical closure
    at ``cap`` when the caller already has it.

    A point outside the closure maps into it when a point of its
    ``forward_orbit`` lies in the closure.  That walk stops when the orbit
    closes, when it passes ``cap`` points, at the coordinate size limit
    (``orbit.MAX_COEFF_BITS``), or at the valuation certificate; a certified
    orbit never meets the closure, which is complete and so holds no
    infinite orbit.  A closed or certified orbit that misses the closure
    puts the point outside the generalized orbit of the critical set; a walk
    stopped at the cap or the size limit says only that the point does not
    reach the closure within that limit.  The trapped-set loop reads the
    map's table, as the orbit searches do (see ``interval_map``).
    """
    points = sort_scalars(as_scalar(p) for p in points)
    if not points or points[0] != ZERO or points[-1] != ONE:
        raise InvalidMarkovPartition("partition must run from 0 to 1")
    if len(set(points)) != len(points):
        raise InvalidMarkovPartition("partition points must be distinct")
    cc = critical_closure(m, cap) if closure is None else closure
    if isinstance(cc.stop, ProvablyInfinite):
        raise InvalidMarkovPartition("critical closure is provably infinite (%s)" % cc.stop.reason)
    if not cc.complete:
        raise InvalidMarkovPartition("critical closure is not finite within %s" % cc.stop.limit)
    closure = set(cc.points)
    for p in points:
        if p in closure:
            continue
        orbit = forward_orbit(m, p, cap)
        if closure.isdisjoint(orbit.points):
            if isinstance(orbit.status, (CapReached, SizeLimitReached)):
                # an unfinished walk establishes nothing about the rest of the orbit
                raise InvalidMarkovPartition(
                    "%s does not reach the critical closure within %s"
                    % (p.text(), orbit.status.limit)
                )
            raise InvalidMarkovPartition(
                "%s is not in the generalized orbit of the critical set" % p.text()
            )
    data = _markov_data(m, points, canonical=False)
    # the critical set must be eventually trapped in the partition point set.
    # _markov_data located every image end in that set, so the set is forward
    # invariant: a chain of images outside it stays in the closure, and one
    # of len(closure) steps repeats a point, a cycle that never enters the
    # set.  So the critical set is trapped within len(closure) steps or never.
    pset = set(points)
    current = set(m.partition)
    trapped = False
    for _ in range(len(closure) + 1):
        if current <= pset:
            trapped = True
            break
        current = {v for x in current for v in eval_multivalued(m, x)}
    if not trapped:
        raise InvalidMarkovPartition(
            "forward images of the critical set never enter the partition set"
        )
    return data


# -- graph flags ------------------------------------------------------------


@dataclass
class GraphFlags:
    irreducible: bool
    primitive: bool
    permutation: bool
    condition_L: bool
    period: int
    component_periods: list
    eventual_range: list

    def as_dict(self):
        return {
            "irreducible": self.irreducible,
            "primitive": self.primitive,
            "permutation": self.permutation,
            "condition_L": self.condition_L,
            "period": self.period,
            "component_periods": list(self.component_periods),
            "eventual_range": [j + 1 for j in self.eventual_range],
        }


def check_zero_one(A):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise NotSquare("matrix is not square")
        for x in row:
            if x not in (0, 1):
                raise NotZeroOne("matrix entries must be 0 or 1")
    return n


def _strongly_connected_components(A):
    """Tarjan, iterative; returns components as lists of vertices."""
    n = len(A)
    adj = [[j for j in range(n) if A[i][j]] for i in range(n)]
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = [0]
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def _component_period(A, comp):
    """gcd of cycle lengths within one strongly connected component (0 if acyclic)."""
    cset = set(comp)
    has_edge = any(A[i][j] for i in comp for j in comp)
    if not has_edge:
        return 0
    root = comp[0]
    dist = {root: 0}
    queue = [root]
    g = 0
    while queue:
        v = queue.pop(0)
        for w in range(len(A)):
            if A[v][w] and w in cset:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                else:
                    g = gcd(g, dist[v] + 1 - dist[w])
    return abs(g)


def _condition_L(A):
    """No cycle all of whose vertices have out-degree exactly one."""
    n = len(A)
    out_deg = [sum(row) for row in A]
    nxt = {}
    for v in range(n):
        if out_deg[v] == 1:
            nxt[v] = A[v].index(1)
    for start in nxt:
        seen = set()
        v = start
        while v in nxt and v not in seen:
            seen.add(v)
            v = nxt[v]
            if v == start:
                return False
    return True


def _eventual_range(A):
    n = len(A)
    current = set(range(n))
    while True:
        nxt = {j for i in current for j in range(n) if A[i][j]}
        if nxt == current:
            return sorted(current)
        current = nxt


def graph_flags(A):
    n = check_zero_one(A)
    comps = _strongly_connected_components(A)
    periods = [_component_period(A, c) for c in comps]
    irreducible = len(comps) == 1 and (n > 1 or A[0][0] == 1)
    period = periods[0] if irreducible else 0
    primitive = irreducible and period == 1
    permutation = all(sum(row) == 1 for row in A) and all(
        sum(A[i][j] for i in range(n)) == 1 for j in range(n)
    )
    return GraphFlags(
        irreducible=irreducible,
        primitive=primitive,
        permutation=permutation,
        condition_L=_condition_L(A),
        period=period,
        component_periods=periods,
        eventual_range=_eventual_range(A),
    )


def restrict_to_eventual_range(A, flags):
    """Submatrix on the eventual range indices, with the index list (0-based)."""
    idx = flags.eventual_range
    return [[A[i][j] for j in idx] for i in idx], idx


def dynamics_certificates(data, flags, surjective):
    """Transitivity/exactness certificates from the incidence matrix.

    Valid when the slope is constant on every Markov interval
    (``data.piecewise_linear``, always set on the canonical partition): then
    the matrix criteria decide exactness and transitivity.
    """
    certs = []
    if not surjective or not data.piecewise_linear:
        return certs
    A_text = "incidence matrix"
    # a primitive permutation matrix is the 1x1 identity, whose map is an
    # injection and so never exact; size >= 2 primitivity excludes permutations
    exact = flags.primitive and not flags.permutation
    certs.append(
        Certificate(
            "exact",
            exact,
            "%s primitive" % A_text
            if exact
            else "%s not primitive (or a permutation)" % A_text,
        )
    )
    transitive = flags.irreducible and not flags.permutation
    certs.append(
        Certificate(
            "transitive",
            transitive,
            "%s irreducible and not a permutation" % A_text
            if transitive
            else "%s reducible or a permutation" % A_text,
        )
    )
    return certs


# -- separation ---------------------------------------------------------------


@dataclass
class SeparationReport:
    status: str  # separates | fails | unknown
    reason: str
    cuntz_krieger: bool

    def as_dict(self):
        return {
            "status": self.status,
            "reason": self.reason,
            "identifies_cuntz_krieger_algebras": self.cuntz_krieger,
        }


def separation_check(data, flags):
    """Do itineraries separate points of the disconnected interval?

    For piecewise linear Markov maps (``data.piecewise_linear``: constant
    slope within each Markov interval) this is equivalent to Condition L on
    the incidence matrix; when it holds, the two algebras are the
    Cuntz-Krieger pair of the matrix.
    """
    if not data.piecewise_linear:
        return SeparationReport(
            "unknown", "slope is not constant within every Markov interval", False
        )
    if flags.condition_L:
        return SeparationReport(
            "separates",
            "condition L holds, so itineraries are injective",
            True,
        )
    return SeparationReport("fails", "condition L fails", False)
