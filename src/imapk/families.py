"""Constructors for the named map families, and the family facts of a map.

`FAMILIES` declares each family once: its builder and the kinds of its
parameters.  Each constructor only builds: it returns the validated map.  Facts that hold
family-wide (beta-transformations are topologically exact; restricted tent
maps with slope above sqrt(2) are topologically exact, and transitive at
sqrt(2) itself) are recognized from the map, however it is spelled.
`family_certificates` is the one place that decides them, with the validated
map as its only input.  That an interval exchange with the IDOC is minimal
(`KEANE_MINIMAL` when Keane's theorem decides it, such as a rotation by an
irrational length) rests on the exchange route, so the report pipeline
issues it once it has decided that route.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    ParameterOutOfRange,
    SpecSemanticError,
    UnrealizableMatrix,
    WrongFamily,
)
from .interval_map import Certificate, is_surjective, validate_map
from .markov import check_zero_one
from .orbit import (
    IdocFails,
    IdocHolds,
    interior_orbits_disjoint,
    route_label,
)
from .scalar import ONE, ZERO, as_scalar, rational
from .snf import KGroups, Route


@dataclass
class FamilySpec:
    kind: str
    params: dict = dc_field(default_factory=dict)


def _build_tent():
    return validate_map([0, Fraction(1, 2), 1], [(2, 0), (-2, 2)])


def _build_restricted_tent(s):
    if not (rational(1) < s and s < rational(2)):
        raise ParameterOutOfRange("restricted tent needs 1 < s < 2")
    c = 1 - 1 / s
    return validate_map([ZERO, c, ONE], [(s, 2 - s), (-s, s)])


def _build_uniform_pl(partition, signs, s):
    """Continuous map with slope sign_i * s per branch, anchored so min = 0."""
    if s.sign() <= 0:
        raise ParameterOutOfRange("slope magnitude must be positive")
    if len(signs) != len(partition) - 1:
        raise ParameterOutOfRange("one sign per partition interval")
    if any(sg not in (1, -1) for sg in signs):
        raise ParameterOutOfRange("signs must be +1 or -1")
    vertices = [ZERO]
    for sg, lo, hi in zip(signs, partition, partition[1:]):
        step = s * (hi - lo)
        vertices.append(vertices[-1] + (step if sg == 1 else -step))
    lowest = vertices[0]
    highest = vertices[0]
    for v in vertices[1:]:
        if v < lowest:
            lowest = v
        if v > highest:
            highest = v
    vertices = [v - lowest for v in vertices]
    if (highest - lowest) > ONE:
        raise ParameterOutOfRange("slopes too steep: the continuous map leaves [0,1]")
    branches = []
    for i, sg in enumerate(signs):
        slope = s if sg == 1 else -s
        intercept = vertices[i] - slope * partition[i]
        branches.append((slope, intercept))
    return validate_map(partition, branches)


def _build_beta(beta):
    if not rational(1) < beta:
        raise ParameterOutOfRange("beta must exceed 1")
    n = beta.floor()
    is_int = beta == rational(n)
    pts = [ZERO]
    top = n - 1 if is_int else n
    for j in range(1, top + 1):
        pts.append(rational(j) / beta)
    pts.append(ONE)
    branches = [(beta, rational(-j)) for j in range(len(pts) - 1)]
    return validate_map(pts, branches)


def _build_exchange(lengths, permutation):
    k = len(lengths)
    if sorted(permutation) != list(range(1, k + 1)):
        raise ParameterOutOfRange("permutation must rearrange 1..%d" % k)
    if any(l.sign() <= 0 for l in lengths):
        raise ParameterOutOfRange("interval lengths must be positive")
    total = ZERO
    for l in lengths:
        total = total + l
    if total != ONE:
        raise ParameterOutOfRange("interval lengths must sum to 1")
    starts = [ZERO]
    for l in lengths[:-1]:
        starts.append(starts[-1] + l)
    # target offset of interval i: total length of intervals placed before it
    offsets = []
    for i in range(k):
        off = ZERO
        for j in range(k):
            if permutation[j] < permutation[i]:
                off = off + lengths[j]
        offsets.append(off)
    pts = starts + [ONE]
    branches = [(1, offsets[i] - starts[i]) for i in range(k)]
    return validate_map(pts, branches)


def _runs(row):
    runs = []
    start = None
    for j, x in enumerate(row):
        if x and start is None:
            start = j
        elif not x and start is not None:
            runs.append((start, j - 1))
            start = None
    if start is not None:
        runs.append((start, len(row) - 1))
    return runs


def _build_markov_realization(A):
    """Piecewise linear map whose canonical Markov partition realizes A.

    Markov points at j/m; each row is realized by one increasing branch per
    contiguous run of ones, runs taken left to right so the map is monotonic
    (with upward jumps) on each Markov interval.  Branch slope is the row sum.
    """
    mdim = check_zero_one(A)
    for i, row in enumerate(A):
        if not any(row):
            raise UnrealizableMatrix("row %d has no ones" % (i + 1))
    pts = []
    branches = []
    for i, row in enumerate(A):
        runs = _runs(row)
        rowsum = sum(row)
        lo = Fraction(i, mdim)
        cursor = lo
        for start, end in runs:
            length = Fraction(end - start + 1, mdim) / rowsum
            img_lo = Fraction(start, mdim)
            slope = rational(rowsum)
            intercept = as_scalar(img_lo) - slope * as_scalar(cursor)
            pts.append(as_scalar(cursor))
            branches.append((slope, intercept))
            cursor += length
        if cursor != Fraction(i + 1, mdim):
            raise CertificateFailure("realization: row %d does not fill its interval" % (i + 1))
    pts.append(ONE)
    return validate_map(pts, branches)


# Each family once: its builder and the kind of each parameter, in the order
# the builder takes them.  A kind is "scalar", "int", "branch" (a slope and an
# intercept) or a one-element list [kind] for a list of that kind.  The spec
# reader reads each key by its kind; `build` coerces library values by it.
# A map without a family is read like the family whose builder is
# `validate_map`; a `branch` key collects one branch per entry.
EXPLICIT_MAP = (validate_map, {"partition": ["scalar"], "branch": ["branch"]})
FAMILIES = {
    "tent": (_build_tent, {}),
    "restricted_tent": (_build_restricted_tent, {"s": "scalar"}),
    "uniform_pl": (_build_uniform_pl, {"partition": ["scalar"], "signs": ["int"], "s": "scalar"}),
    "beta": (_build_beta, {"beta": "scalar"}),
    "interval_exchange": (_build_exchange, {"lengths": ["scalar"], "permutation": ["int"]}),
    "markov_realization": (_build_markov_realization, {"matrix": [["int"]]}),
    "multimodal": EXPLICIT_MAP,
}


def _coerce(value, kind):
    """A library value of the given kind as its builder takes it."""
    if isinstance(kind, list):
        return [_coerce(v, kind[0]) for v in value]
    if kind == "scalar":
        return as_scalar(value)
    if kind == "int" and value != int(value):
        raise ParameterOutOfRange("expected an integer, got %s" % value)
    return int(value) if kind == "int" else value


def build(spec):
    """The validated map of a family spec; a missing or foreign key is a
    SpecSemanticError in the spec reader's words, bad data ParameterOutOfRange."""
    if spec.kind not in FAMILIES:
        raise WrongFamily("unknown family %r" % spec.kind)
    builder, kinds = FAMILIES[spec.kind]
    extra = [key for key in spec.params if key not in kinds]
    if extra:
        raise SpecSemanticError("family %s takes no key %r" % (spec.kind, extra[0]))
    missing = [key for key in kinds if key not in spec.params]
    if missing:
        raise SpecSemanticError("family %s needs %s" % (spec.kind, ", ".join(missing)))
    return builder(*(_coerce(spec.params[key], kind) for key, kind in kinds.items()))


# -- family facts, recognized from the map ----------------------------------


def recognize_beta(m):
    """The beta parameter if the map is exactly x -> beta*x mod 1, else None."""
    slopes = {b.slope for b in m.branches}
    if len(slopes) != 1:
        return None
    beta = slopes.pop()
    if beta.sign() <= 0 or not rational(1) < beta:
        return None
    for j, b in enumerate(m.branches):
        if b.intercept != as_scalar(-j):
            return None
    for j in range(1, len(m.branches)):
        if m.partition[j] != as_scalar(j) / beta:
            return None
    return beta


def recognize_restricted_tent(m):
    """The slope parameter of the restricted tent normal form, else None."""
    if len(m.branches) != 2:
        return None
    b1, b2 = m.branches
    s = b1.slope
    if s.sign() <= 0 or not (rational(1) < s and s < rational(2)):
        return None
    if b2.slope != -s or b1.intercept != 2 - s or b2.intercept != s:
        return None
    if m.partition[1] != 1 - 1 / s:
        return None
    return s


BETA_EXACT = Certificate("exact", True, "beta transformations are always topologically exact")
TENT_EXACT = Certificate(
    "exact", True, "restricted tent maps with slope above sqrt(2) are topologically exact"
)
TENT_TRANSITIVE = Certificate(
    "transitive", True, "the restricted tent map with slope sqrt(2) is transitive"
)
KEANE_MINIMAL = Certificate(
    "transitive", True,
    "Keane: an interval exchange with an irreducible permutation and lengths "
    "linearly independent over Q is minimal",
)


def family_certificates(m):
    """The beta and restricted-tent certificates that m satisfies."""
    certs = []
    if recognize_beta(m) is not None:
        certs.append(BETA_EXACT)
    s = recognize_restricted_tent(m)
    if s is not None:
        s2 = (s * s).compare(2)
        if s2 > 0:
            certs.append(TENT_EXACT)
        elif s2 == 0:
            certs.append(TENT_TRANSITIVE)
    return certs


# -- family-specific K-groups --------------------------------------------------


def exchange_kgroups(m, idoc_result, asserted=False):
    """K-groups of an interval exchange under orbit disjointness.

    `idoc_result` is Keane's proof of the IDOC (`orbit.keane_idoc`) or the
    result of `orbit.idoc_check`; `orbit.route_label` labels the route by
    what stopped the check.  Raises HypothesisViolatedWithinCap when the
    check found a periodic orbit or a collision.
    """
    if isinstance(idoc_result, IdocFails):
        raise HypothesisViolatedWithinCap(idoc_result.witness)
    stop = idoc_result.stop if isinstance(idoc_result, IdocHolds) else idoc_result
    label = route_label(stop, "disjointness beyond %s", asserted)
    n = len(m.branches)
    return Route(KGroups(torsion=[], free_rank=n, k1_rank=1, generator_note=""), label)


def multimodal_kgroups(m, cap=10000, asserted=False):
    """K-groups for continuous surjective multimodal maps via orbit disjointness.

    The hypothesis (interior critical orbits disjoint and infinite, endpoints
    not mapping to endpoints) is checked to the cap.  Nothing proves the
    orbits of a map that is not an exchange disjoint beyond the search, so
    the route is conditional on the limit that stopped it, or asserted.
    """
    if not m.is_continuous() or not is_surjective(m):
        raise WrongFamily("multimodal route needs a continuous surjective map")
    for e, img in ((ZERO, m.branches[0].ends[0]), (ONE, m.branches[-1].ends[1])):
        if img == ZERO or img == ONE:
            raise HypothesisViolatedWithinCap(
                "an endpoint maps to an endpoint (%s -> %s)" % (e.text(), img.text())
            )
    stop = interior_orbits_disjoint(m, cap)
    kg = KGroups(torsion=[], free_rank=len(m.branches) - 1, k1_rank=0, generator_note="")
    return Route(kg, route_label(stop, "disjointness beyond %s", asserted))
