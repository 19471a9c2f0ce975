"""K-group computation routes and the final classification verdict.

Three independent routes are implemented and cross-checked wherever more
than one applies:

* the incidence route (Smith form of id - A, module ``snf``);
* the minimal polynomial route: iterate the transfer operator on the constant
  function 1 and read K0/K1 off |m(1)| at the first exact rational
  dependence, valid when the constant function generates the whole module,
  which is certified automatically for surjective unimodal maps sending 1 to
  0 and for beta-transformations, and otherwise requires a user assertion.
  The iterates live in the jump coordinates of ``stepfun``; from the first
  step that brings no new breakpoint on, each iterate is reduced once against
  one fraction-free echelon basis of the earlier ones.  A report skips the
  iteration on a continuous map when ``orbit.chains_prove_independence``
  shows from the partition points' orbits that 1, L1, ..., L^k 1 are
  independent for k = min(cap, 64): then no dependence exists within the
  steps the iteration may take, and the report says ``not_found_within_cap``
  without a transfer step;
* closed forms for the unimodal and beta families: one polynomial of the
  weights that the orbit of the critical value gives.

The classification verdict identifies the crossed product algebra with a
Cuntz or Cuntz-Krieger algebra only when the certified hypothesis list
contains both a transitivity certificate and failure of essential
injectivity; anything weaker degrades to an invariants-only report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul

from .errors import (
    CertificateFailure,
    CyclicityNotEstablished,
    HypothesisViolatedWithinCap,
    InconsistentCaseData,
    NonIntegerDependence,
    NotSurjective,
    WrongFamily,
)
from .interval_map import ONE, ZERO, is_surjective
from .polynomials import IntPoly, monic_from_dependence
from .scalar import sort_scalars
from .snf import KGroups, Route
from .stepfun import apply_int_poly, indicator, transfer
from . import orbit as orbit_mod


@dataclass
class MinPolyReport:
    poly: IntPoly
    method: str  # iteration | unimodal_closed_form | beta_closed_form
    cyclicity: str  # certified:<family> | asserted | unknown
    iterations: int = 0

    @property
    def n_value(self):
        return abs(self.poly(1))

    def as_dict(self):
        return {
            "poly": self.poly.text(),
            "coefficients": list(self.poly.coeffs),
            "method": self.method,
            "n": self.n_value,
            "cyclicity": self.cyclicity,
        }


@dataclass
class NotFoundWithinCap:
    cap: int
    iterations: int

    kind = "not_found_within_cap"


def _reduce(rows, f, index):
    """Reduce the iterate v_index = f once against the echelon rows.

    The coordinates of f are its jumps, with its value at 0^+ as the jump at
    0.  A row is (pivot, coords, combo) with coords = sum_j combo[j] * v_j in
    integers, coords[pivot] != 0 and every later row zero at pivot.  A row
    whose pivot entry a meets an entry b of f turns f into (a/g)*f - (b/g)*row,
    g = gcd(a, b), and the result is divided by its content, so no fraction
    appears.  If nothing is left, the relation combo is returned:
    sum_j combo[j] * v_j = 0 with combo[index] != 0.  Otherwise the rest joins
    the rows and None is returned.
    """
    coords = dict(f.jumps)
    if f.start:
        coords[ZERO] = f.start
    combo = {index: 1}
    for pivot, row, row_combo in rows:
        b = coords.get(pivot)
        if b:
            a = row[pivot]
            g = gcd(a, b)
            coords = _combine(a // g, coords, -(b // g), row)
            combo = _combine(a // g, combo, -(b // g), row_combo)
    content = gcd(*coords.values(), *combo.values())
    coords = {k: v // content for k, v in coords.items()}
    combo = {k: v // content for k, v in combo.items()}
    if not coords:
        return combo
    rows.append((next(iter(coords)), coords, combo))
    return None


def _combine(a, x, b, y):
    """a*x + b*y for sparse integer vectors x and y, a != 0, without zeros."""
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        w = out.get(k, 0) + b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def minimal_polynomial_iter(m, cap=64, breakpoint_cap=10000):
    """Minimal polynomial of the transfer operator on the module over 1.

    Iterates v_{k+1} = L v_k from v_0 = 1 and returns the monic polynomial of
    the first exact dependence, re-verified by applying it through fresh
    transfer evaluations.  Surjectivity is required; non-integral dependence
    coefficients are surfaced as an error, never rounded.

    An iterate with a breakpoint that the earlier ones lack is independent of
    them, so no elimination runs until the first step that brings no new
    breakpoint.  There the earlier iterates form one echelon basis, and every
    iterate from then on is reduced against it once (``_reduce``); the basis
    is independent, so the dependence found is the unique one.
    """
    if not is_surjective(m):
        raise NotSurjective("minimal polynomial route requires a surjective map")
    v0 = indicator(ZERO, ONE)
    vs = [v0]
    # the breakpoints of v_0 .. v_{k-1}, carried across steps so that each
    # breakpoint is hashed once rather than once per step
    accumulated = set(v0.jumps)
    places = {}  # every point located once per iteration; see stepfun.transfer
    rows = None
    for step in range(1, cap + 1):
        v = transfer(m, vs[-1], places=places)
        grown = accumulated.union(v.jumps)
        if len(grown) > breakpoint_cap:
            return NotFoundWithinCap(breakpoint_cap, step)
        if rows is None and len(grown) == len(accumulated):
            rows = []
            for index, u in enumerate(vs):
                _reduce(rows, u, index)
        combo = None if rows is None else _reduce(rows, v, step)
        if combo is not None:
            coeffs = [Fraction(-combo.get(j, 0), combo[step]) for j in range(step)]
            if any(c.denominator != 1 for c in coeffs):
                raise NonIntegerDependence(coeffs)
            poly = monic_from_dependence([int(c) for c in coeffs], step)
            if not apply_int_poly(m, poly, v0).is_zero:
                raise CertificateFailure(
                    "minimal polynomial %s does not annihilate 1" % poly.text()
                )
            return MinPolyReport(poly, "iteration", "unknown", iterations=step)
        vs.append(v)
        accumulated = grown
    return NotFoundWithinCap(cap, cap)


# -- closed forms ---------------------------------------------------------


def _orbit_poly(weights, m):
    """Q_m(w) = t^m - sum_{j<m} w_j t^(m-1-j), the polynomial of the first m
    weights of a critical orbit."""
    return IntPoly([-w for w in reversed(weights[:m])] + [1])


def _check_orbit_data(data, k, p):
    """Reject a preperiod k and length p that no closed orbit gives."""
    if not 0 <= k < p:
        raise InconsistentCaseData("need 0 <= k < p, got k=%d, p=%d" % (k, p))
    if len(data) < p:
        raise InconsistentCaseData("orbit data too short: %d entries for p=%d" % (len(data), p))


def unimodal_minpoly(signs, k, p):
    """Closed-form minimal polynomial for surjective unimodal maps with 1 -> 0.

    The orbit x_0 = 0, x_1, ... of 0 has p distinct points and x_p = x_k.
    s_j is +1 when x_j lies on the increasing side (critical point included,
    so s_0 = +1) and -1 on the decreasing side.  With a_j = s_0...s_j,
    a_{-1} = 1 and the weights w = (1, a_0, a_1, ...), so that w_j = a_{j-1}:

    * 0 fixed (k = 0, p = 1), and the eventually periodic cases k = 1 and
      k > 1: Q_p(w) - a_{k-1} a_{p-1} Q_k(w);
    * 0 periodic with period p >= 2, for p = 2 and p >= 3 alike: the orbit
      returns to 0 through 1, where the sign is -1, and the polynomial is
      Q_{p-1}(w).
    """
    _check_orbit_data(signs, k, p)
    if any(s not in (1, -1) for s in signs):
        raise InconsistentCaseData("itinerary signs must be +1 or -1")
    if signs[0] != 1:
        raise InconsistentCaseData("0 lies on the increasing side, so the first sign is +1")
    w = list(accumulate(signs[:p], mul, initial=1))
    if k == 0 and p >= 2:
        if signs[p - 1] != -1:
            raise InconsistentCaseData("a periodic orbit of 0 returns through 1, so its last sign is -1")
        return _orbit_poly(w, p - 1)
    return _orbit_poly(w, p) - IntPoly([w[k] * w[p]]) * _orbit_poly(w, k)


def beta_minpoly(digits, k, p):
    """Closed-form minimal polynomial for beta-transformations.

    ``digits`` n_0, n_1, ... label the orbit x_0 = 1, x_1, ... of 1 in the
    interval labeling of the beta partition (last interval closed); the orbit
    has p distinct points and x_p = x_k.  With the digits as weights:

    * 1 fixed (k = 0, p = 1): Q_1 = t - n_0;
    * the orbit ends at the fixed point 0 (k = p - 1 and n_{p-1} = 0): Q_k;
    * the generic case, every other closed orbit: Q_p - Q_k.
    """
    _check_orbit_data(digits, k, p)
    n = [int(d) for d in digits]
    if k == 0:
        if p != 1:
            raise InconsistentCaseData("only 1 maps to 1, so an orbit of 1 with k=0 has p=1")
        return _orbit_poly(n, 1)
    if k == p - 1 and n[k] == 0:
        return _orbit_poly(n, k)
    return _orbit_poly(n, p) - _orbit_poly(n, k)


# -- family recognition and orbit data --------------------------------------


def recognize_unimodal(m):
    """Surjective unimodal with the right endpoint mapping to 0, or None."""
    if len(m.branches) != 2:
        return None
    b1, b2 = m.branches
    if not (b1.increasing and not b2.increasing):
        return None
    if b1.ends[1] != b2.ends[0]:
        return None
    if b2.ends[1] != ZERO or b1.ends[1] != ONE:
        return None
    if not is_surjective(m):
        return None
    return m.partition[1]


def _closed_orbit(m, x, cap, label):
    """((labels, k, p), status) for the ``tau_orbit`` of x, closed with
    preperiod k after p distinct points and re-checked through the branches,
    with ``label`` applied to those p points; (None, status) when the orbit
    does not close."""
    points, status = orbit_mod.tau_orbit(m, x, cap)
    if not isinstance(status, orbit_mod.Closed):
        return None, status
    if not orbit_mod.reverify_closed(m, points, status):
        raise CertificateFailure("the closed orbit of %s fails its re-check" % x.text())
    p = status.preperiod + status.period
    return ([label(y) for y in points[:p]], status.preperiod, p), status


def unimodal_orbit_data(m, cap=10000, c=None):
    """(signs, k, p) for the orbit of 0, or the running status on failure.

    ``c`` is the turning point that ``recognize_unimodal`` returned for m;
    without it the map is recognized here."""
    if c is None:
        c = recognize_unimodal(m)
    if c is None:
        raise WrongFamily("map is not surjective unimodal with 1 -> 0")
    return _closed_orbit(m, ZERO, cap, lambda x: 1 if x <= c else -1)


def beta_digit(beta, x):
    """Digit of x in the beta interval labeling (last interval closed)."""
    return (beta * x).floor()


def beta_orbit_data(m, beta, cap=10000):
    """(digits, k, p) for the orbit of 1, or the running status on failure."""
    return _closed_orbit(m, ONE, cap, lambda x: beta_digit(beta, x))


# -- K-groups from the minimal polynomial ------------------------------------


def kgroups_from_minpoly(report):
    """K-groups of the crossed product from |m(1)|; cyclicity must be on record."""
    if report.cyclicity == "unknown":
        raise CyclicityNotEstablished(
            "pass --assert-cyclic or use a family whose cyclicity is certified"
        )
    n = report.n_value
    if n != 0:
        k0 = KGroups(torsion=[n] if n >= 2 else [], free_rank=0, k1_rank=0,
                     generator_note="[1]_0 generates")
    else:
        k0 = KGroups(torsion=[], free_rank=1, k1_rank=1,
                     generator_note="[1]_0 generates")
    return k0, n


def nonperiodic_kgroups(status):
    """K0 = Z, K1 = 0 for unimodal/beta maps whose critical orbit never
    closes, labelled by the status that stopped the search of that orbit."""
    if isinstance(status, orbit_mod.Closed):
        raise HypothesisViolatedWithinCap("the critical orbit closes")
    kg = KGroups(torsion=[], free_rank=1, k1_rank=0, generator_note="[1]_0 generates")
    return Route(kg, orbit_mod.route_label(status, "non-eventual-periodicity (%s)"))


# -- module generators --------------------------------------------------------


def module_generators(m):
    """Finite generating set of the dimension module, as interval pairs.

    For continuous surjective maps the partition intervals generate; otherwise
    the adjacent intervals of the partition enlarged by one branch endpoint
    image (the first branch's value at 0), together with the jump intervals
    at interior partition points.
    """
    if not is_surjective(m):
        raise NotSurjective("module generators are stated for surjective maps")
    pts = list(m.partition)
    if m.is_continuous():
        return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    marks = sort_scalars(set(pts + [m.branches[0].ends[0]]))
    j1 = [(marks[i], marks[i + 1]) for i in range(len(marks) - 1)]
    j2 = []
    for i in range(1, len(pts) - 1):
        left, right = m.branches[i - 1].ends[1], m.branches[i].ends[0]
        if left != right:
            j2.append(tuple(sorted((left, right))))
    return j1 + j2


# -- classification -----------------------------------------------------------


@dataclass
class Classification:
    verdict: str  # cuntz_algebra | cuntz_infinity | cuntz_krieger | invariants_only
    index: int | None
    k0: dict
    k1: dict
    hypotheses: list
    annotations: list
    conditional: bool

    def as_dict(self):
        d = {
            "verdict": self.verdict,
            "k0": self.k0,
            "k1": self.k1,
            "hypotheses": list(self.hypotheses),
            "annotations": list(self.annotations),
            "conditional": self.conditional,
        }
        if self.index is not None:
            d["index"] = self.index
        return d


def _kg_dicts(kg):
    d = kg.as_dict()
    return d["k0"], d["k1"]


def classify(flags, *, minpoly_report=None, minpoly_kgroups=None,
             nonperiodic=None, separation=None, incidence_kgroups=None,
             exchange=None, multimodal=None, extra_hypotheses=()):
    """Decision tree for the crossed product algebra.

    Preference order: a Cuntz algebra identification (finite index via the
    minimal polynomial, or infinite via a non-periodicity certificate), then
    a Cuntz-Krieger identification through separation, then invariants only.
    ``separation`` and ``incidence_kgroups`` come from Markov data, whose
    matrix A names the Cuntz-Krieger algebra O_A.
    Every identification records the hypotheses it used; missing transitivity
    or essential-injectivity evidence blocks identification.  ``nonperiodic``,
    ``exchange`` and ``multimodal`` are `snf.Route`s, and a verdict that
    rests on one is conditional exactly when the route is.
    """
    hyps = list(extra_hypotheses)
    annotations = []
    transitive = flags.transitive
    not_ess_inj = not flags.essentially_injective
    if transitive:
        hyps.append("transitive: %s" % flags.provenance.get("transitive", "certified"))
    if flags.exact:
        hyps.append("topologically exact: %s" % flags.provenance.get("exact", "certified"))
    if not_ess_inj:
        hyps.append("not essentially injective (open branch images overlap)")
    if transitive and not_ess_inj:
        annotations.append(
            "crossed product is separable, simple, purely infinite, nuclear; "
            "its K-groups determine it"
        )
    if flags.core_algebra_simple:
        annotations.append("core algebra is simple with a unique trace")
    identification_ok = bool(transitive) and not_ess_inj

    if identification_ok and minpoly_kgroups is not None:
        kg, n = minpoly_kgroups
        if n != 0:
            h = hyps + [
                "minimal polynomial %s with |m(1)| = %d (cyclicity %s)"
                % (minpoly_report.poly.text(), n, minpoly_report.cyclicity)
            ]
            k0, k1 = _kg_dicts(kg)
            return Classification(
                "cuntz_algebra", n + 1, k0, k1, h, annotations,
                conditional=minpoly_report.cyclicity == "asserted",
            )
    if identification_ok and nonperiodic is not None:
        h = hyps + ["critical orbit never closes: %s" % nonperiodic.label]
        k0, k1 = _kg_dicts(nonperiodic.kgroups)
        return Classification(
            "cuntz_infinity", None, k0, k1, h, annotations,
            conditional=nonperiodic.conditional,
        )
    if (
        separation is not None
        and separation.status == "separates"
        and incidence_kgroups is not None
    ):
        h = hyps + ["markov with separating itineraries (condition L)"]
        k0, k1 = _kg_dicts(incidence_kgroups)
        return Classification("cuntz_krieger", None, k0, k1, h, annotations, conditional=False)
    # invariants only; a route's own label says whether its K-groups are conditional
    k0 = k1 = {}
    route = None
    if exchange is not None:
        route = exchange
        hyps.append("interval exchange with disjoint infinite orbits: %s" % exchange.label)
    elif multimodal is not None:
        route = multimodal
        hyps.append("multimodal with disjoint infinite critical orbits: %s" % multimodal.label)
    elif incidence_kgroups is not None:
        k0, k1 = _kg_dicts(incidence_kgroups)
    elif minpoly_kgroups is not None:
        k0, k1 = _kg_dicts(minpoly_kgroups[0])
    elif nonperiodic is not None:
        route = nonperiodic
    if route is not None:
        k0, k1 = _kg_dicts(route.kgroups)
    if flags.essentially_injective:
        annotations.append(
            "essentially injective: the purely-infinite identification "
            "theorem does not apply"
        )
    return Classification(
        "invariants_only", None, k0, k1, hyps, annotations,
        conditional=route is not None and route.conditional,
    )
