"""Integer step functions on the disconnected interval, and the transfer operator.

A :class:`StepFn` is an integer-valued function on the interval disconnected
at finitely many points c, where it may take different values on the left
copy c^- and the right copy c^+.  It is stored as its value ``start`` at 0^+
and a dict ``jumps`` from each such c, strictly inside (0, 1), to the
nonzero integer f(c^+) - f(c^-).  These are linear coordinates: a
combination of functions combines their starts and jumps, and a point whose
jumps cancel is dropped, so the form is canonical, equality is structural,
and nothing sorts the points.  ``breaks`` (the sorted breakpoints) and
``values`` (the value on each order interval between them) are views
computed on demand, and ``StepFn(breaks, values)`` refuses breakpoints that
do not increase strictly inside (0, 1).  ``StepFn.value_at`` reads one copy
of a point; no stage calls it, and the counting-law tests compare
``transfer`` against it and ``interval_map.preimages``.

The transfer operator sums a function over the preimages of each point.  For
an affine branch it pushes the restriction of the function through the branch:
breakpoints map through the branch, and under a decreasing branch the order
reverses and the cut sides flip (the image of x^+ is tau(x)^-), which is the
only convention compatible with the order topology.

A transfer step adds the jump at each point strictly inside a domain, signed
by the branch, at the image of the point.  The jumps summed domain by domain,
and at each partition point, give the values at the domain ends, and each
branch adds the value at its lower end at the image of that end and the drop
at its upper end at the image of that one.  A jump at 0 is the value at 0^+.

A step runs on numbered breakpoints.  A `Numbering` of a map gives 0 and 1
the numbers 0 and 1 and numbers the branch-end images (``AffineBranch.ends``)
when it is built; any other point is numbered on first sight, and its place
(slot, image number, sign) is computed once, by its own branch, when a step
first meets it.  A `NumberedFn` keys its jumps by these numbers, so a step
hashes, compares and builds no Scalar once every breakpoint has its place.
``transfer(m, f)`` numbers a StepFn in a table of its own; the iteration of
``ktheory`` passes one table to all its steps, and the Horner re-check in
``apply_int_poly`` builds its own, so it reads nothing the iteration computed.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import OutOfDomain
from .interval_map import PLUS
from .scalar import ONE, ZERO, as_scalar, sort_scalars


class StepFn:
    __slots__ = ("start", "jumps")

    def __init__(self, breaks, values):
        breaks = tuple(as_scalar(b) for b in breaks)
        values = tuple(int(v) for v in values)
        if len(values) != len(breaks) + 1:
            raise ValueError("need one more value than breakpoints")
        if not all(a < b for a, b in zip((ZERO,) + breaks, breaks + (ONE,))):
            raise ValueError("breakpoints must increase strictly inside (0, 1)")
        self.start = values[0]
        self.jumps = {b: r - v for b, v, r in zip(breaks, values, values[1:]) if r != v}

    @classmethod
    def _of(cls, start, jumps):
        """The function of value ``start`` at 0^+ and the given nonzero jumps."""
        f = object.__new__(cls)
        f.start = start
        f.jumps = jumps
        return f

    @property
    def breaks(self):
        return tuple(sort_scalars(self.jumps))

    @property
    def values(self):
        return tuple(accumulate((self.jumps[x] for x in self.breaks), initial=self.start))

    @property
    def is_zero(self):
        return not self.start and not self.jumps

    def value_at(self, x, side=PLUS):
        """Value at the cut point (x, side); plain points may use either side.

        The reference that the counting-law tests read ``transfer`` with."""
        x = as_scalar(x)
        if x < ZERO or x > ONE:
            raise OutOfDomain("%s is outside [0,1]" % x.text())
        return self.start + sum(
            d for c, d in self.jumps.items() if (c <= x if side == PLUS else c < x)
        )

    def __eq__(self, other):
        return (
            isinstance(other, StepFn)
            and self.start == other.start
            and self.jumps == other.jumps
        )

    def __hash__(self):
        return hash(("StepFn", self.start, frozenset(self.jumps.items())))

    def __add__(self, other):
        return linear_comb((1, 1), (self, other))

    def __sub__(self, other):
        return linear_comb((1, -1), (self, other))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return linear_comb((k,), (self,))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __repr__(self):
        return "StepFn(breaks=[%s], values=%s)" % (
            ", ".join(b.text() for b in self.breaks),
            list(self.values),
        )


ZERO_FN = StepFn((), (0,))


def indicator(c, d):
    """Characteristic function of the order interval [c^+, d^-]; zero if c == d."""
    c, d = as_scalar(c), as_scalar(d)
    for x in (c, d):
        if x < ZERO or x > ONE:
            raise OutOfDomain("%s is outside [0,1]" % x.text())
    cmp = c.compare(d)
    if cmp == 0:
        return ZERO_FN
    if cmp > 0:
        c, d = d, c
    jumps = {}
    if c != ZERO:
        jumps[c] = 1
    if d != ONE:
        jumps[d] = -1
    return StepFn._of(1 if c == ZERO else 0, jumps)


def _add_jump(jumps, x, d):
    if d:
        jumps[x] = jumps.get(x, 0) + d


def linear_comb(coeffs, fns):
    """Pointwise integer combination: the combination of the starts and of
    the jumps."""
    coeffs = [int(c) for c in coeffs]
    fns = list(fns)
    if len(coeffs) != len(fns):
        raise ValueError("one coefficient per function")
    start = 0
    jumps = {}
    for c, f in zip(coeffs, fns):
        start += c * f.start
        for x, d in f.jumps.items():
            _add_jump(jumps, x, c * d)
    return StepFn._of(start, {x: d for x, d in jumps.items() if d})


class NumberedFn:
    """A step function whose jumps are keyed by the numbers of a `Numbering`."""

    __slots__ = ("start", "jumps")

    def __init__(self, start, jumps):
        self.start = start
        self.jumps = jumps

    @property
    def breaks(self):
        """The numbers of the breakpoints, sorted as numbers."""
        return tuple(sorted(self.jumps))


class Numbering:
    """The points of the step functions on the map m, numbered.

    ``points[k]`` is the point of number k, ``places[k]`` its place or None
    until a step meets it, and ``ends[i]`` is (sign, number of branch(lo),
    number of branch(hi)) for branch i."""

    __slots__ = ("m", "ids", "points", "places", "ends")

    def __init__(self, m):
        self.m = m
        self.ids = {ZERO: 0, ONE: 1}
        self.points = [ZERO, ONE]
        self.places = [None, None]
        self.ends = [(1 if b.increasing else -1, self.number(b.ends[0]), self.number(b.ends[1]))
                     for b in m.branches]

    def number(self, x):
        k = self.ids.setdefault(x, len(self.points))
        if k == len(self.points):
            self.points.append(x)
            self.places.append(None)
        return k

    def place(self, k):
        """(slot, image number, sign) of the point numbered k, strictly inside
        (0, 1), computed once.

        Slot 2i is the partition point a_i, which lies inside no domain: it
        has no image and sign 0.  Slot 2i + 1 is the inside of the domain of
        branch i, whose image of the point and monotonicity sign are given."""
        x = self.points[k]
        i, hit = self.m.locate(x)
        if hit:
            place = (2 * i, None, 0)
        else:
            branch = self.m.branches[i - 1]
            place = (2 * i - 1, self.number(branch(x)), 1 if branch.increasing else -1)
        self.places[k] = place
        return place

    def numbered(self, f):
        return NumberedFn(f.start, {self.number(x): d for x, d in f.jumps.items()})

    def unnumbered(self, f):
        return StepFn._of(f.start, {self.points[k]: d for k, d in f.jumps.items()})

    def step(self, f):
        """L f for a NumberedFn f of this table."""
        places = self.places
        slot_sums = [0] * (2 * len(self.ends) + 1)
        jumps = {}
        for k, d in f.jumps.items():
            slot, y, sign = places[k] or self.place(k)
            slot_sums[slot] += d
            _add_jump(jumps, y, sign * d)
        value = f.start
        for i, (sign, lo, hi) in enumerate(self.ends):
            value += slot_sums[2 * i]
            _add_jump(jumps, lo, sign * value)
            value += slot_sums[2 * i + 1]
            _add_jump(jumps, hi, -sign * value)
        jumps.pop(1, None)
        return NumberedFn(jumps.pop(0, 0), {k: d for k, d in jumps.items() if d})


def transfer(m, f, table=None):
    """Transfer operator: (Lf)(x) = sum of f over the preimages of x.

    f is a StepFn, or a NumberedFn of the `Numbering` ``table`` of m, and the
    result is of the same kind."""
    if table is not None:
        return table.step(f)
    table = Numbering(m)
    return table.unnumbered(table.step(table.numbered(f)))


def apply_int_poly(m, poly, f):
    """Evaluate p(L) applied to the StepFn f by Horner; the steps share one
    `Numbering` of their own, which maps each inner breakpoint once."""
    table = Numbering(m)
    f = table.numbered(f)
    acc = NumberedFn(0, {})
    for c in reversed(poly.coeffs):
        acc = transfer(m, acc, table)
        for k, d in f.jumps.items():
            _add_jump(acc.jumps, k, c * d)
        acc = NumberedFn(acc.start + c * f.start, {k: d for k, d in acc.jumps.items() if d})
    return table.unnumbered(acc)
