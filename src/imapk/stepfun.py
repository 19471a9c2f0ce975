"""Integer step functions on the disconnected interval, and the transfer operator.

A :class:`StepFn` is an integer-valued function on the interval disconnected
at finitely many points.  It is stored as strictly increasing interior
breakpoints c_1 < ... < c_k together with k+1 values: value j holds on the
order interval [c_j^+, c_{j+1}^-] (with 0^+ and 1^- at the ends).  At a
breakpoint the function may take different values on the left copy c^- and
the right copy c^+; that is exactly the disconnection.  Canonical form merges
adjacent pieces with equal values, so equality of functions is structural
equality.  ``StepFn.value_at`` reads the value at one copy of a point; no
stage calls it, and the counting-law tests compare ``transfer`` against it
and ``interval_map.preimages``.

The transfer operator sums a function over the preimages of each point.  For
an affine branch it pushes the restriction of the function through the branch:
breakpoints map through the branch, and under a decreasing branch the order
reverses and the cut sides flip (the image of x^+ is tau(x)^-), which is the
only convention compatible with the order topology.

Sums are taken as jumps.  ``linear_comb`` and one ``transfer`` step add
integer jumps into one dict keyed by point, then sort once only the points
whose net jump is nonzero and take prefix sums; no per-branch function is
built.  A transfer step adds, for each branch, the value of f at the lower
end of the domain at its image, the jump of f at each breakpoint strictly
inside the domain at the image of that breakpoint, and the drop at the upper
end, with the signs reversed under a decreasing branch.  The breakpoints
inside each domain are found by one merge of the breakpoints against the
partition.

The images of the domain ends are mapped once, when the branch is built
(``AffineBranch.ends``).  A breakpoint strictly inside a domain has one
image, which ``transfer`` reads from the map's table of images
(``interval_map.eval_multivalued``): the breakpoints of the iterates of 1
are points of the critical orbits, which the closure of the same report has
mostly mapped already.  The Horner re-check in ``apply_int_poly`` maps every
inner breakpoint by its own branch, so it never reads the table; it reads
only the domain-end images kept on the branch.
"""

from __future__ import annotations

import bisect

from .errors import OutOfDomain
from .interval_map import PLUS, eval_multivalued
from .scalar import ONE, ZERO, as_scalar, sort_scalars


class StepFn:
    __slots__ = ("breaks", "values")

    def __init__(self, breaks, values):
        breaks = tuple(breaks)
        values = tuple(int(v) for v in values)
        if len(values) != len(breaks) + 1:
            raise ValueError("need one more value than breakpoints")
        # canonical form: merge equal neighbours
        cb, cv = [], [values[0]]
        for b, v in zip(breaks, values[1:]):
            if v == cv[-1]:
                continue
            cb.append(b)
            cv.append(v)
        self.breaks = tuple(cb)
        self.values = tuple(cv)

    @property
    def is_zero(self):
        return self.values == (0,)

    def value_at(self, x, side=PLUS):
        """Value at the cut point (x, side); plain points may use either side.

        The reference that the counting-law tests read ``transfer`` with."""
        x = as_scalar(x)
        if x < ZERO or x > ONE:
            raise OutOfDomain("%s is outside [0,1]" % x.text())
        if side == PLUS:
            i = bisect.bisect_right(self.breaks, x)
        else:
            i = bisect.bisect_left(self.breaks, x)
        return self.values[i]

    def __eq__(self, other):
        return (
            isinstance(other, StepFn)
            and self.breaks == other.breaks
            and self.values == other.values
        )

    def __hash__(self):
        return hash(("StepFn", self.breaks, self.values))

    def __add__(self, other):
        return linear_comb((1, 1), (self, other))

    def __sub__(self, other):
        return linear_comb((1, -1), (self, other))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return StepFn(self.breaks, tuple(k * v for v in self.values))

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
    breaks, values = [], []
    if c == ZERO:
        values.append(1)
    else:
        values.append(0)
        breaks.append(c)
        values.append(1)
    if d != ONE:
        breaks.append(d)
        values.append(0)
    return StepFn(breaks, values)


def _add_jump(jumps, x, d):
    if d:
        jumps[x] = jumps.get(x, 0) + d


def _from_jumps(start, jumps):
    """The step function of value ``start`` at 0^+ that jumps by jumps[x] at
    each x: only the points of nonzero net jump are sorted, once."""
    breaks = sort_scalars([x for x, d in jumps.items() if d])
    values = [start]
    for x in breaks:
        values.append(values[-1] + jumps[x])
    return StepFn(breaks, values)


def linear_comb(coeffs, fns):
    """Pointwise integer combination, summed as jumps at the breakpoints."""
    coeffs = [int(c) for c in coeffs]
    fns = list(fns)
    if len(coeffs) != len(fns):
        raise ValueError("one coefficient per function")
    start = 0
    jumps = {}
    for c, f in zip(coeffs, fns):
        start += c * f.values[0]
        for x, left, right in zip(f.breaks, f.values, f.values[1:]):
            _add_jump(jumps, x, c * (right - left))
    return _from_jumps(start, jumps)


def _first_not_below(breaks, x, k):
    """Least j >= k with breaks[j] >= x, given breaks[k - 1] < x: steps of
    doubling length from k, then bisection within the last step, so a domain
    holding d breakpoints costs O(log d) compares."""
    step = 1
    while k + step <= len(breaks) and breaks[k + step - 1] < x:
        k += step
        step *= 2
    return bisect.bisect_left(breaks, x, k, min(k + step - 1, len(breaks)))


def transfer(m, f, direct=False):
    """Transfer operator: (Lf)(x) = sum of f over the preimages of x.

    Each branch adds the jumps of f on its domain at their images (see the
    module docstring); a jump at 0 is the value at 0^+, and a drop at 1 has
    no effect.  With ``direct`` every inner breakpoint is mapped by its
    branch, not read from the map's table of images."""
    breaks, values = f.breaks, f.values
    jumps = {}
    # one merge of the breakpoints against the partition: breaks[a:b] lie
    # strictly inside the domain of the branch
    a = 0
    for branch in m.branches:
        b = _first_not_below(breaks, branch.hi, a)
        sign = 1 if branch.increasing else -1
        lo_image, hi_image = branch.ends
        _add_jump(jumps, lo_image, sign * values[a])
        for k in range(a, b):
            x = breaks[k]
            y = branch(x) if direct else eval_multivalued(m, x)[0]
            _add_jump(jumps, y, sign * (values[k + 1] - values[k]))
        _add_jump(jumps, hi_image, -sign * values[b])
        # a breakpoint at the partition point lies inside neither domain
        a = b + 1 if b < len(breaks) and breaks[b] == branch.hi else b
    jumps.pop(ONE, None)
    return _from_jumps(jumps.pop(ZERO, 0), jumps)


def apply_int_poly(m, poly, f):
    """Evaluate p(L) applied to f by Horner, computing fresh transfers
    through the branches themselves."""
    acc = ZERO_FN
    for c in reversed(poly.coeffs):
        acc = transfer(m, acc, direct=True) + c * f
    return acc
