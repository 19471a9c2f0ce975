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

The image of a domain end is read from ``AffineBranch.ends``, and an inner
breakpoint is mapped by its own branch into ``places`` (``interval_map``
states where each image of a point comes from).  The iteration passes one
dict of places to all its steps, so each point is located and mapped once
per iteration; the Horner re-check in ``apply_int_poly`` starts fresh places
at every step, so it maps every inner breakpoint by its branch at every step.
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


def _place(m, x):
    """(slot, image, sign) of a point strictly inside (0, 1).

    Slot 2i is the partition point a_i, which lies inside no domain: it has
    no image and sign 0.  Slot 2i + 1 is the inside of the domain of branch i,
    whose image of x and monotonicity sign are returned."""
    i, hit = m.locate(x)
    if hit:
        return 2 * i, None, 0
    branch = m.branches[i - 1]
    return 2 * i - 1, branch(x), 1 if branch.increasing else -1


def transfer(m, f, places=None):
    """Transfer operator: (Lf)(x) = sum of f over the preimages of x.

    ``places`` holds the ``_place`` of each point already located on m; an
    iteration passes one dict to all its steps."""
    if places is None:
        places = {}
    slot_sums = [0] * (2 * len(m.branches) + 1)
    jumps = {}
    for x, d in f.jumps.items():
        place = places.get(x)
        if place is None:
            place = places[x] = _place(m, x)
        slot, y, sign = place
        slot_sums[slot] += d
        _add_jump(jumps, y, sign * d)
    value = f.start
    for i, branch in enumerate(m.branches):
        sign = 1 if branch.increasing else -1
        lo_image, hi_image = branch.ends
        value += slot_sums[2 * i]
        _add_jump(jumps, lo_image, sign * value)
        value += slot_sums[2 * i + 1]
        _add_jump(jumps, hi_image, -sign * value)
    jumps.pop(ONE, None)
    return StepFn._of(jumps.pop(ZERO, 0), {x: d for x, d in jumps.items() if d})


def apply_int_poly(m, poly, f):
    """Evaluate p(L) applied to f by Horner, each step a fresh transfer
    with its own places."""
    acc = ZERO_FN
    for c in reversed(poly.coeffs):
        acc = transfer(m, acc) + c * f
    return acc
