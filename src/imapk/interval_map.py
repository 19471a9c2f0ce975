"""Piecewise monotonic self-maps of [0,1] with affine branches.

A map is a strictly increasing partition 0 = a_0 < ... < a_n = 1 together
with one affine branch per interval [a_{i-1}, a_i].  Values at partition
points are never stored: the map is treated as multivalued there, taking the
one-sided limits of the adjacent branches.  The disconnected version of the
interval (each orbit point split into a left and a right copy) is represented
implicitly through :class:`CutPoint` and never materialized.

``limits`` evaluates the branches at a point.  ``eval_multivalued`` gives the
same values through the map's table ``images``, which it alone fills, so the
walks and the transfer operator of one report map each point once;
``report.run`` empties the table when its report is built.  The re-checks of
a result (a closed orbit, a growth witness, a minimal polynomial) never read
the table: they evaluate the branches directly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (
    BranchImageOutsideUnitInterval,
    EndpointsNotZeroOne,
    OutOfDomain,
    PartitionNotIncreasing,
    ZeroSlope,
)
from .scalar import ONE, ZERO, Scalar, as_scalar, common_field

MINUS = "-"
PLUS = "+"


@dataclass(frozen=True)
class CutPoint:
    """One of the two copies x^- < x^+ of a disconnected point."""

    value: Scalar
    side: str

    def __post_init__(self):
        if self.side not in (MINUS, PLUS):
            raise ValueError("side must be '-' or '+'")

    def __lt__(self, other):
        c = self.value.compare(other.value)
        if c != 0:
            return c < 0
        return self.side == MINUS and other.side == PLUS

    def __le__(self, other):
        return self == other or self < other

    def text(self):
        return "%s%s" % (self.value.text(), self.side)


def cut(value, side):
    return CutPoint(as_scalar(value), side)


class AffineBranch:
    """Strictly monotonic affine piece x -> slope*x + intercept on [lo, hi].

    The images of the domain ends are mapped once, when the branch is built,
    and kept in ``ends`` as (branch(lo), branch(hi))."""

    __slots__ = ("slope", "intercept", "lo", "hi", "increasing", "ends")

    def __init__(self, slope, intercept, lo, hi):
        self.slope = as_scalar(slope)
        self.intercept = as_scalar(intercept)
        self.lo = as_scalar(lo)
        self.hi = as_scalar(hi)
        if self.slope.is_zero:
            raise ZeroSlope("branch slope must be nonzero")
        self.increasing = self.slope.sign() > 0
        self.ends = (self(self.lo), self(self.hi))

    def __call__(self, x):
        return self.slope * x + self.intercept

    def image(self):
        """Closed image interval, endpoints sorted."""
        u, v = self.ends
        return (u, v) if self.increasing else (v, u)

    def inverse(self, y):
        return (y - self.intercept) / self.slope

    def __eq__(self, other):
        return (
            isinstance(other, AffineBranch)
            and self.slope == other.slope
            and self.intercept == other.intercept
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __repr__(self):
        return "AffineBranch(slope=%s, intercept=%s, on [%s, %s])" % (
            self.slope.text(),
            self.intercept.text(),
            self.lo.text(),
            self.hi.text(),
        )


class PMMap:
    """Validated piecewise monotonic map; use :func:`validate_map` to build one."""

    __slots__ = ("partition", "branches", "field", "notes", "images")

    def __init__(self, partition, branches, notes=()):
        self.partition = tuple(partition)
        self.branches = tuple(branches)
        self.notes = tuple(notes)
        self.images = {}  # point -> its one-sided values; see eval_multivalued
        self.field = common_field(
            *self.partition,
            *(b.slope for b in self.branches),
            *(b.intercept for b in self.branches),
        )

    def branch_index_at(self, x, side=PLUS):
        """Index of the branch acting on the cut point (x, side), 0-based.

        side '+' selects the branch to the right of x, '-' the branch to the
        left; interior points of a branch domain give the same answer both ways.
        """
        pts = self.partition
        if x < pts[0] or x > pts[-1]:
            raise OutOfDomain("%s is outside [0,1]" % x.text())
        i = bisect.bisect_left(pts, x)
        if i < len(pts) and pts[i] == x:
            if side == PLUS:
                return i if i < len(self.branches) else i - 1
            return i - 1 if i > 0 else 0
        return i - 1

    def is_continuous(self):
        return all(
            left.ends[1] == right.ends[0]
            for left, right in zip(self.branches, self.branches[1:])
        )

    def __eq__(self, other):
        return (
            isinstance(other, PMMap)
            and self.partition == other.partition
            and self.branches == other.branches
        )

    def __repr__(self):
        return "PMMap(partition=[%s], %d branches)" % (
            ", ".join(p.text() for p in self.partition),
            len(self.branches),
        )


def validate_map(partition, branches):
    """Validate raw partition/branch data and return a canonical PMMap.

    Adjacent branches that are the same affine map are merged (with a note).
    Adjacent distinct branches that still join continuously with slopes of one
    sign are kept, with a note that the partition refines the coarsest one.
    """
    pts = [as_scalar(p) for p in partition]
    if len(pts) < 2:
        raise PartitionNotIncreasing("partition needs at least two points")
    if pts[0] != ZERO or pts[-1] != ONE:
        raise EndpointsNotZeroOne("partition must run from 0 to 1")
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise PartitionNotIncreasing(
                "partition not strictly increasing at %s" % b.text()
            )
    raw = list(branches)
    if len(raw) != len(pts) - 1:
        raise PartitionNotIncreasing(
            "expected %d branches for %d partition points, got %d"
            % (len(pts) - 1, len(pts), len(raw))
        )
    fixed = []
    for i, b in enumerate(raw):
        if isinstance(b, AffineBranch):
            if not (b.lo == pts[i] and b.hi == pts[i + 1]):
                b = AffineBranch(b.slope, b.intercept, pts[i], pts[i + 1])
        else:
            slope, intercept = b
            b = AffineBranch(slope, intercept, pts[i], pts[i + 1])
        lo_img, hi_img = b.image()
        if lo_img < ZERO or hi_img > ONE:
            raise BranchImageOutsideUnitInterval(
                "branch %d image [%s, %s] leaves [0,1]"
                % (i + 1, lo_img.text(), hi_img.text())
            )
        fixed.append(b)

    notes = []
    merged_pts = [pts[0]]
    merged = []
    for p, b in zip(pts[1:], fixed):
        if merged:
            prev = merged[-1]
            junction = merged_pts[-1]
            if (
                prev.slope == b.slope
                and prev.intercept == b.intercept
            ):
                merged[-1] = AffineBranch(prev.slope, prev.intercept, prev.lo, p)
                merged_pts[-1] = p
                notes.append(
                    "merged duplicate affine branches at %s" % junction.text()
                )
                continue
            if (
                prev(junction) == b(junction)
                and prev.slope.sign() == b.slope.sign()
            ):
                notes.append(
                    "branches join continuously at %s with distinct slopes; "
                    "partition kept finer than the coarsest monotonicity partition"
                    % junction.text()
                )
        merged.append(b)
        merged_pts.append(p)
    return PMMap(merged_pts, merged, notes)


def eval_multivalued(m, x):
    """Set of one-sided limit values of the map at x, as a sorted tuple,
    read from the map's table ``images`` and computed by ``limits`` on a miss."""
    x = as_scalar(x)
    values = m.images.get(x)
    if values is None:
        values = m.images[x] = limits(m, x)
    return values


def limits(m, x):
    """Set of one-sided limit values of the map at x, as a sorted tuple,
    evaluated through the branches."""
    x = as_scalar(x)
    pts = m.partition
    i = bisect.bisect_left(pts, x)
    if i == len(pts) or x != pts[i]:
        if i == 0 or i == len(pts):
            raise OutOfDomain("%s is outside [0,1]" % x.text())
        return (m.branches[i - 1](x),)
    if i == 0:
        return (m.branches[0](x),)
    if i == len(m.branches):
        return (m.branches[-1](x),)
    u, v = m.branches[i - 1](x), m.branches[i](x)
    c = u.compare(v)
    return (u,) if c == 0 else ((u, v) if c < 0 else (v, u))


def preimages(m, y):
    """All x in [0,1] whose multivalued image contains y, branch by branch."""
    y = as_scalar(y)
    if y < ZERO or y > ONE:
        raise OutOfDomain("%s is outside [0,1]" % y.text())
    out = []
    for b in m.branches:
        x = b.inverse(y)
        if b.lo <= x <= b.hi and x not in out:
            out.append(x)
    return tuple(sorted(out))


def merge_closed_intervals(intervals):
    """Union of closed intervals as a sorted list of disjoint closed intervals."""
    ivs = sorted(intervals, key=lambda iv: iv[0])
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def map_interval_union(m, intervals):
    """Image of a union of closed intervals under the multivalued map."""
    pieces = []
    for lo, hi in intervals:
        for b in m.branches:
            clo = lo if lo > b.lo else b.lo
            chi = hi if hi < b.hi else b.hi
            if clo <= chi:
                u, v = b(clo), b(chi)
                pieces.append((u, v) if u <= v else (v, u))
    return merge_closed_intervals(pieces)


def is_surjective(m):
    covered = merge_closed_intervals([b.image() for b in m.branches])
    return len(covered) == 1 and covered[0][0] == ZERO and covered[0][1] == ONE


def eventual_range(m, depth=64):
    """Iterate the range until it stabilizes; (intervals, depth) or (None, depth)."""
    current = [(ZERO, ONE)]
    for k in range(depth + 1):
        nxt = map_interval_union(m, current)
        if nxt == current:
            return current, k
        current = nxt
    return None, depth


def is_essentially_injective(m):
    """True iff the open branch images pairwise meet in at most single points."""
    images = sorted((b.image() for b in m.branches), key=lambda iv: iv[0])
    highest = None
    for lo, hi in images:
        if highest is not None and lo < highest:
            return False
        if highest is None or hi > highest:
            highest = hi
    return True


@dataclass
class FlagReport:
    """Dynamics flags; None means undecided at this level of evidence."""

    surjective: bool
    eventually_surjective: bool | None
    stabilization_depth: int | None
    eventual_range_intervals: list | None
    essentially_injective: bool
    transitive: bool | None = None
    exact: bool | None = None
    core_algebra_simple: bool | None = None
    crossed_product_simple: bool | None = None
    provenance: dict = None

    def as_dict(self):
        tri = lambda v: "unknown" if v is None else ("yes" if v else "no")
        d = {
            "surjective": tri(self.surjective),
            "eventually_surjective": tri(self.eventually_surjective),
            "stabilization_depth": self.stabilization_depth,
            "essentially_injective": tri(self.essentially_injective),
            "transitive": tri(self.transitive),
            "exact": tri(self.exact),
            "core_algebra_simple": tri(self.core_algebra_simple),
            "crossed_product_simple": tri(self.crossed_product_simple),
        }
        if self.eventual_range_intervals is not None:
            d["eventual_range"] = [
                [lo.text(), hi.text()] for lo, hi in self.eventual_range_intervals
            ]
        d["provenance"] = dict(self.provenance or {})
        return d


def dynamics_flags(m, depth=64, certificates=()):
    """Geometric flags plus whatever transitivity/exactness certificates supply.

    ``certificates`` is an iterable of objects with attributes ``prop`` in
    {"transitive", "exact"}, ``value`` (bool) and ``source`` (str); the
    markov and families modules produce them.
    Flags degrade to unknown when no certificate decides them.
    """
    surj = is_surjective(m)
    if surj:
        ev, depth_used, rng = True, 0, [(ZERO, ONE)]
    else:
        rng, depth_used = eventual_range(m, depth)
        ev = None if rng is None else True
    essinj = is_essentially_injective(m)
    flags = FlagReport(
        surjective=surj,
        eventually_surjective=ev,
        stabilization_depth=depth_used if ev else None,
        eventual_range_intervals=rng,
        essentially_injective=essinj,
        provenance={},
    )
    exact = None
    transitive = None
    prov = flags.provenance
    if essinj:
        # an injection on the disconnected interval cannot expand any proper
        # clopen set onto the whole space
        exact = False
        prov["exact"] = "essentially injective maps are never topologically exact"
    for cert in certificates:
        if cert.value is None:
            continue
        if cert.prop == "exact" and exact is None:
            exact = cert.value
            prov["exact"] = cert.source
        if cert.prop == "transitive" and transitive is None:
            transitive = cert.value
            prov["transitive"] = cert.source
    if transitive is None and exact:
        transitive = True
        prov["transitive"] = "topological exactness implies transitivity"
    if exact is None and transitive is False:
        exact = False
        prov["exact"] = "non-transitive maps are not topologically exact"
    flags.exact = exact
    flags.transitive = transitive
    if surj:
        if exact is not None:
            flags.core_algebra_simple = exact
            prov["core_algebra_simple"] = (
                "simple iff topologically exact (surjective case)"
            )
        if transitive is not None:
            flags.crossed_product_simple = transitive
            prov["crossed_product_simple"] = "simple iff transitive (surjective case)"
    return flags


@dataclass(frozen=True)
class Certificate:
    """A certified dynamical property with its provenance."""

    prop: str
    value: bool
    source: str
