"""Integer step functions on the disconnected interval, and the transfer operator.

A :class:`StepFn` is an integer-valued function on the interval disconnected
at finitely many points.  It is stored as strictly increasing interior
breakpoints c_1 < ... < c_k together with k+1 values: value j holds on the
order interval [c_j^+, c_{j+1}^-] (with 0^+ and 1^- at the ends).  At a
breakpoint the function may take different values on the left copy c^- and
the right copy c^+; that is exactly the disconnection.  Canonical form merges
adjacent pieces with equal values, so equality of functions is structural
equality.

The transfer operator sums a function over the preimages of each point.  For
an affine branch it pushes the restriction of the function through the branch:
breakpoints map through the branch, and under a decreasing branch the order
reverses and the cut sides flip (the image of x^+ is tau(x)^-), which is the
only convention compatible with the order topology.

A breakpoint strictly inside a branch's domain has one image, which
``transfer`` reads from the map's table of images
(``interval_map.eval_multivalued``): the breakpoints of the iterates of 1
are points of the critical orbits, which the closure of the same report has
mostly mapped already.  The domain ends are mapped by their branch.  The
Horner re-check in ``apply_int_poly`` maps every breakpoint by its branch,
so it never reads the table.
"""

from __future__ import annotations

import bisect

from .errors import OutOfDomain
from .interval_map import MINUS, PLUS, CutPoint, eval_multivalued
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

    def is_nonnegative(self):
        return all(v >= 0 for v in self.values)

    def value_at(self, x, side=PLUS):
        """Value at the cut point (x, side); plain points may use either side."""
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

    def pieces(self):
        """List of (from_cut, to_cut, value) spanning the whole interval."""
        out = []
        lo = CutPoint(ZERO, PLUS)
        for b, v in zip(self.breaks, self.values):
            out.append((lo, CutPoint(b, MINUS), v))
            lo = CutPoint(b, PLUS)
        out.append((lo, CutPoint(ONE, MINUS), self.values[-1]))
        return out

    def as_json(self):
        return [
            {
                "from": {"value": a.value.text(), "side": a.side},
                "to": {"value": b.value.text(), "side": b.side},
                "value": v,
            }
            for a, b, v in self.pieces()
        ]

    def __repr__(self):
        return "StepFn(%s)" % "; ".join(
            "%s on [%s, %s]" % (v, a.text(), b.text()) for a, b, v in self.pieces()
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


def linear_comb(coeffs, fns):
    """Pointwise integer combination over the common breakpoint refinement."""
    coeffs = [int(c) for c in coeffs]
    fns = list(fns)
    if len(coeffs) != len(fns):
        raise ValueError("one coefficient per function")
    if not fns:
        return ZERO_FN
    merged = sort_scalars(set(b for f in fns for b in f.breaks))
    values = []
    # value on the piece left of each boundary list entry; iterate pieces
    positions = [0] * len(fns)  # current piece index per function
    values.append(sum(c * f.values[0] for c, f in zip(coeffs, fns)))
    for b in merged:
        for j, f in enumerate(fns):
            if positions[j] < len(f.breaks) and f.breaks[positions[j]] == b:
                positions[j] += 1
        values.append(sum(c * f.values[positions[j]] for j, (c, f) in enumerate(zip(coeffs, fns))))
    return StepFn(merged, values)


def _branch_contribution(m, branch, f, direct):
    """Pushforward through one branch of the restriction of f to its domain.

    Each breakpoint strictly inside the domain has the one value branch(b),
    read from the map's table of images unless ``direct``."""
    lo, hi = branch.lo, branch.hi
    i0 = bisect.bisect_right(f.breaks, lo)
    i1 = bisect.bisect_left(f.breaks, hi)
    inner = list(f.breaks[i0:i1])
    vals = list(f.values[i0 : i1 + 1])
    if all(v == 0 for v in vals):
        return ZERO_FN
    if direct:
        img_breaks = [branch(b) for b in inner]
    else:
        img_breaks = [eval_multivalued(m, b)[0] for b in inner]
    u, v = branch(lo), branch(hi)
    if not branch.increasing:
        img_breaks.reverse()
        vals.reverse()
        u, v = v, u
    # assemble: zero outside [u^+, v^-]
    breaks, values = [], []
    if u == ZERO:
        values.append(vals[0])
    else:
        values.append(0)
        breaks.append(u)
        values.append(vals[0])
    for b, val in zip(img_breaks, vals[1:]):
        breaks.append(b)
        values.append(val)
    if v != ONE:
        breaks.append(v)
        values.append(0)
    return StepFn(breaks, values)


def transfer(m, f, direct=False):
    """Transfer operator: (Lf)(x) = sum of f over the preimages of x.

    With ``direct`` every breakpoint is mapped by its branch, not read from
    the map's table of images."""
    parts = [_branch_contribution(m, b, f, direct) for b in m.branches]
    return linear_comb([1] * len(parts), parts)


def apply_int_poly(m, poly, f):
    """Evaluate p(L) applied to f by Horner, computing fresh transfers
    through the branches themselves."""
    acc = ZERO_FN
    for c in reversed(poly.coeffs):
        acc = transfer(m, acc, direct=True) + c * f
    return acc
