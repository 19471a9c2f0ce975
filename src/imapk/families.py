"""Constructors for the named map families, with their dynamical certificates.

Each constructor returns a validated map plus certificates for facts that
hold family-wide (beta-transformations are topologically exact; restricted
tent maps with slope above sqrt(2) are topologically exact, and transitive at
sqrt(2) itself).  Certificates are attached, not re-proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    NotAnExchangeMap,
    ParameterOutOfRange,
    UnrealizableMatrix,
    WrongFamily,
)
from .interval_map import Certificate, PMMap, validate_map
from .markov import check_zero_one
from .orbit import IdocFails, IdocHolds, interior_orbits_disjoint
from .scalar import ONE, ZERO, as_scalar, rational
from .snf import KGroups


@dataclass
class FamilySpec:
    kind: str
    params: dict = dc_field(default_factory=dict)


@dataclass
class BuildResult:
    map: PMMap
    certificates: list
    family: str
    params: dict

    def as_dict(self):
        return {
            "family": self.family,
            "certificates": [
                {"property": c.prop, "value": c.value, "source": c.source}
                for c in self.certificates
            ],
        }


def build(spec):
    """Build the map of a family spec; raises ParameterOutOfRange on bad data."""
    kind = spec.kind
    params = spec.params
    if kind == "tent":
        return _build_tent()
    if kind == "restricted_tent":
        return _build_restricted_tent(as_scalar(params["s"]))
    if kind == "uniform_pl":
        return _build_uniform_pl(
            [as_scalar(p) for p in params["partition"]],
            [int(s) for s in params["signs"]],
            as_scalar(params["s"]),
        )
    if kind == "beta":
        return _build_beta(as_scalar(params["beta"]))
    if kind == "interval_exchange":
        return _build_exchange(
            [as_scalar(x) for x in params["lengths"]],
            [int(x) for x in params["permutation"]],
        )
    if kind == "markov_realization":
        return _build_markov_realization(params["matrix"])
    if kind == "multimodal":
        m = validate_map(params["partition"], params["branches"])
        return BuildResult(m, [], "multimodal", params)
    raise WrongFamily("unknown family %r" % kind)


def _build_tent():
    m = validate_map([0, Fraction(1, 2), 1], [(2, 0), (-2, 2)])
    return BuildResult(m, [], "tent", {})


def restricted_tent_certificates(s):
    """The family-wide certificates of the restricted tent map with slope s."""
    s2 = (s * s).compare(2)
    if s2 > 0:
        return [
            Certificate(
                "exact",
                True,
                "restricted tent maps with slope above sqrt(2) are topologically exact",
            )
        ]
    if s2 == 0:
        return [
            Certificate(
                "transitive",
                True,
                "the restricted tent map with slope sqrt(2) is transitive",
            )
        ]
    return []


def _build_restricted_tent(s):
    if not (rational(1) < s and s < rational(2)):
        raise ParameterOutOfRange("restricted tent needs 1 < s < 2")
    c = 1 - 1 / s
    m = validate_map(
        [ZERO, c, ONE],
        [(s, 2 - s), (-s, s)],
    )
    return BuildResult(m, restricted_tent_certificates(s), "restricted_tent", {"s": s})


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
    m = validate_map(partition, branches)
    return BuildResult(m, [], "uniform_pl", {"s": s})


BETA_EXACT = Certificate("exact", True, "beta transformations are always topologically exact")


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
    m = validate_map(pts, branches)
    return BuildResult(m, [BETA_EXACT], "beta", {"beta": beta, "digit_base": n})


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
    m = validate_map(pts, branches)
    certs = []
    if k == 2 and not lengths[0].is_rational:
        certs.append(
            Certificate(
                "transitive",
                True,
                "two-interval exchange by a provably irrational length is minimal",
            )
        )
    return BuildResult(m, certs, "interval_exchange", {"lengths": lengths})


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
    m = validate_map(pts, branches)
    notes = list(m.notes)
    result = BuildResult(m, [], "markov_realization", {"matrix": A})
    if any("merged" in n for n in notes):
        result.params["warning"] = (
            "adjacent realization branches merged; the canonical partition "
            "may be coarser than the matrix dimension"
        )
    return result


# -- family-specific K-groups --------------------------------------------------


@dataclass
class NotApplicable:
    reason: str

    kind = "not_applicable"


def exchange_kgroups(m, idoc_result, lengths=None):
    """K-groups of an interval exchange under orbit disjointness.

    Unconditional for a two-interval exchange whose length is irrational (a
    nonrational coefficient vector in its field); otherwise labeled
    conditional on the cap-checked disjointness.
    """
    if isinstance(idoc_result, IdocFails):
        return NotApplicable(idoc_result.witness)
    if not isinstance(idoc_result, IdocHolds):
        raise NotAnExchangeMap("idoc result required")
    n = len(m.branches)
    unconditional = idoc_result.provably_infinite
    if n == 2:
        lam = m.partition[1]
        if not lam.is_rational:
            unconditional = True
    label = (
        "unconditional"
        if unconditional
        else "conditional on disjointness beyond cap %d" % idoc_result.cap
    )
    kg = KGroups(torsion=[], free_rank=n, k1_rank=1, generator_note="")
    return kg, label


def multimodal_kgroups(m, cap=10000, asserted=False):
    """K-groups for continuous surjective multimodal maps via orbit disjointness.

    The hypothesis (interior critical orbits disjoint and infinite, endpoints
    not mapping to endpoints) is checked to the cap; concluding requires the
    user assertion because infinitude beyond the cap is not decidable here.
    """
    from .interval_map import is_surjective

    if not m.is_continuous() or not is_surjective(m):
        raise WrongFamily("multimodal route needs a continuous surjective map")
    q = len(m.branches)
    for e in (ZERO, ONE):
        img = m.branches[0](e) if e == ZERO else m.branches[-1](e)
        if img == ZERO or img == ONE:
            raise HypothesisViolatedWithinCap(
                "an endpoint maps to an endpoint (%s -> %s)" % (e.text(), img.text())
            )
    provable = interior_orbits_disjoint(m, cap)
    if not asserted and not provable:
        return None  # refused without assertion
    kg = KGroups(torsion=[], free_rank=q - 1, k1_rank=0, generator_note="")
    label = "unconditional" if provable else "asserted"
    return kg, label
