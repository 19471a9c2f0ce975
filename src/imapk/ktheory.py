"""K-group computation routes and the final classification verdict.

Three independent routes are implemented and cross-checked wherever more
than one applies:

* the incidence route (Smith form of id - A, module ``snf``);
* the minimal polynomial route: iterate the transfer operator on the constant
  function 1, detect the first exact rational dependence, and read K0/K1 off
  |m(1)|, valid when the constant function generates the whole module, which
  is certified automatically for surjective unimodal maps sending 1 to 0 and
  for beta-transformations, and otherwise requires a user assertion;
* closed forms for the unimodal and beta families, derived from the orbit and
  itinerary of the critical value.

The classification verdict identifies the crossed product algebra with a
Cuntz or Cuntz-Krieger algebra only when the certified hypothesis list
contains both a transitivity certificate and failure of essential
injectivity; anything weaker degrades to an invariants-only report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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
from .scalar import as_scalar, sort_scalars
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


def _sample_rows(fns, breaks):
    """Values of each function on every piece of the common refinement.

    ``breaks`` is sorted and holds the breakpoints of every function; each
    function's column is filled by the rank of its breakpoints in it."""
    rank = {b: r for r, b in enumerate(breaks, 1)}
    columns = []
    for f in fns:
        column = []
        for b, v in zip(f.breaks, f.values):
            column += [v] * (rank[b] - len(column))
        column += [f.values[-1]] * (len(breaks) + 1 - len(column))
        columns.append(column)
    return list(zip(*columns))


def _solve_dependence(basis, target, known=None):
    """Exact rational solution of sum x_i * basis_i = target, or None.

    ``known`` is the set of the breakpoints of the basis, when the caller
    holds it and has checked that the target has no other breakpoint.

    Fraction-free Gauss-Jordan on the integer samples: a row is eliminated as
    (pv/g)*row - (f/g)*pivot_row with g = gcd(pv, f) and then divided by its
    content, so no rational number appears until the final quotients.
    """
    if known is None:
        # a dependence forces every breakpoint of the target to appear on the left
        known = set(b for f in basis for b in f.breaks)
        if any(b not in known for b in target.breaks):
            return None
    # repeated samples carry no information: the solution set stays the same
    sampled = dict.fromkeys(_sample_rows(basis + [target], sort_scalars(known)))
    aug = [list(row) for row in sampled]
    n = len(basis)
    pivots = []
    rank_row = 0
    for col in range(n):
        piv = None
        for r in range(rank_row, len(aug)):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[rank_row], aug[piv] = aug[piv], aug[rank_row]
        pivot_row = aug[rank_row]
        pv = pivot_row[col]
        for r in range(len(aug)):
            f = aug[r][col]
            if r != rank_row and f != 0:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(aug[r], pivot_row)]
                content = gcd(*row)
                aug[r] = [x // content for x in row] if content > 1 else row
        pivots.append(col)
        rank_row += 1
    for r in range(rank_row, len(aug)):
        if aug[r][n] != 0:
            return None  # inconsistent: target independent of basis
    solution = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        solution[col] = Fraction(aug[row_idx][n], aug[row_idx][col])
    return solution


def minimal_polynomial_iter(m, cap=64, breakpoint_cap=10000):
    """Minimal polynomial of the transfer operator on the module over 1.

    Iterates v_{k+1} = L v_k from v_0 = 1 and returns the monic polynomial of
    the first exact dependence, re-verified by applying it through fresh
    transfer evaluations.  Surjectivity is required; non-integral dependence
    coefficients are surfaced as an error, never rounded.
    """
    if not is_surjective(m):
        raise NotSurjective("minimal polynomial route requires a surjective map")
    v0 = indicator(ZERO, ONE)
    vs = [v0]
    # the breakpoints of v_0 .. v_{k-1}, carried across steps so that each
    # breakpoint is hashed once rather than once per step
    accumulated = set(v0.breaks)
    for step in range(1, cap + 1):
        v = transfer(m, vs[-1])
        grown = accumulated.union(v.breaks)
        if len(grown) > breakpoint_cap:
            return NotFoundWithinCap(breakpoint_cap, step)
        # a dependence needs every breakpoint of v among the earlier ones
        coeffs = _solve_dependence(vs, v, accumulated) if len(grown) == len(accumulated) else None
        if coeffs is not None:
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


def _sign_products(signs):
    out = []
    acc = 1
    for s in signs:
        if s not in (1, -1):
            raise InconsistentCaseData("itinerary signs must be +1 or -1")
        acc *= s
        out.append(acc)
    return out


def unimodal_minpoly(itinerary_signs, k, p, case):
    """Closed-form minimal polynomial for surjective unimodal maps with 1 -> 0.

    The orbit of 0 has p distinct points with step p returning to step k; the
    itinerary signs are +1 on the increasing side (critical point included)
    and -1 on the decreasing side.
    """
    signs = list(itinerary_signs)
    a = _sign_products(signs)  # a[j] = a_j, and a_{-1} = 1

    def a_at(j):
        if j == -1:
            return 1
        if j >= len(a):
            raise InconsistentCaseData("itinerary too short for the stated orbit data")
        return a[j]

    if case == "fixed":
        if not (k == 0 and p == 1):
            raise InconsistentCaseData("fixed case needs k=0, p=1")
        return IntPoly([-2, 1])
    if case == "periodic_2":
        if not (k == 0 and p == 2):
            raise InconsistentCaseData("period-2 case needs k=0, p=2")
        return IntPoly([-1, 1])
    if case == "periodic_p>=3":
        if not (k == 0 and p >= 3):
            raise InconsistentCaseData("periodic case needs k=0, p>=3")
        coeffs = [0] * p
        coeffs[p - 1] = 1  # t^{p-1}
        coeffs[p - 2] -= 1
        for j in range(0, p - 2):
            coeffs[p - 3 - j] -= a_at(j)
        return IntPoly(coeffs)
    if case in ("eventually_periodic_k=1", "eventually_periodic_k>1"):
        if case == "eventually_periodic_k=1" and k != 1:
            raise InconsistentCaseData("case needs k=1")
        if case == "eventually_periodic_k>1" and k <= 1:
            raise InconsistentCaseData("case needs k>1")
        if not (0 < k < p):
            raise InconsistentCaseData("need 0 < k < p")
        big = [0] * (p + 1)
        big[p] = 1
        big[p - 1] -= 1
        for j in range(0, p - 1):
            big[p - 2 - j] -= a_at(j)
        small = [0] * (p + 1)
        small[k] = 1
        small[k - 1] -= 1
        for j in range(0, k - 1):
            small[k - 2 - j] -= a_at(j)
        # the quotient a_{k-1}/a_{p-1} of two signs is their product
        factor = a_at(k - 1) * a_at(p - 1)
        return IntPoly([b - factor * s for b, s in zip(big, small)])
    raise InconsistentCaseData("unknown case %r" % case)


def beta_minpoly(digits, k, p, case):
    """Closed-form minimal polynomial for beta-transformations.

    ``digits`` is the digit string of the orbit of 1 in the interval labeling
    of the beta partition (last interval closed); the orbit of 1 has p
    distinct points with step p returning to step k.
    """
    digits = [int(d) for d in digits]

    def n_at(j):
        if j >= len(digits):
            raise InconsistentCaseData("digit string too short for the orbit data")
        return digits[j]

    if case == "tau1_fixed":
        if not (k == 0 and p == 1):
            raise InconsistentCaseData("fixed case needs k=0, p=1")
        return IntPoly([-n_at(0), 1])
    if case == "generic":
        if not (1 <= k < p):
            raise InconsistentCaseData("generic case needs 1 <= k < p")
        coeffs = [0] * (p + 1)
        coeffs[p] = 1
        for j in range(p):
            coeffs[p - 1 - j] -= n_at(j)
        coeffs[k] -= 1
        for j in range(k):
            coeffs[k - 1 - j] += n_at(j)
        return IntPoly(coeffs)
    if case == "hits_zero":
        if not (p >= 2 and k == p - 1):
            raise InconsistentCaseData("hits-zero case needs k = p-1, p >= 2")
        coeffs = [0] * p
        coeffs[p - 1] = 1
        for j in range(p - 1):
            coeffs[p - 2 - j] -= n_at(j)
        return IntPoly(coeffs)
    raise InconsistentCaseData("unknown case %r" % case)


# -- family recognition and orbit data --------------------------------------


def recognize_unimodal(m):
    """Surjective unimodal with the right endpoint mapping to 0, or None."""
    if len(m.branches) != 2:
        return None
    b1, b2 = m.branches
    if not (b1.increasing and not b2.increasing):
        return None
    c = m.partition[1]
    if b1(c) != b2(c):
        return None
    if b2(ONE) != ZERO or b1(c) != as_scalar(1):
        return None
    if not is_surjective(m):
        return None
    return c


def unimodal_orbit_data(m, cap=10000):
    """(signs, k, p, case) for the orbit of 0, or the running status on failure."""
    c = recognize_unimodal(m)
    if c is None:
        raise WrongFamily("map is not surjective unimodal with 1 -> 0")
    points, status = orbit_mod.tau_orbit(m, ZERO, cap)
    if not isinstance(status, orbit_mod.Closed):
        return None, status
    k = status.preperiod
    p = status.preperiod + status.period
    signs = [1 if x <= c else -1 for x in points[:p]]
    if k == 0 and p == 1:
        case = "fixed"
    elif k == 0 and p == 2:
        case = "periodic_2"
    elif k == 0:
        case = "periodic_p>=3"
    elif k == 1:
        case = "eventually_periodic_k=1"
    else:
        case = "eventually_periodic_k>1"
    return (signs, k, p, case), status


def beta_digit(beta, x):
    """Digit of x in the beta interval labeling (last interval closed)."""
    return (beta * x).floor()


def beta_orbit_data(m, beta, cap=10000):
    """(digits, k, p, case) for the orbit of 1, or the running status on failure."""
    points, status = orbit_mod.tau_orbit(m, ONE, cap)
    if not isinstance(status, orbit_mod.Closed):
        return None, status
    k = status.preperiod
    p = status.preperiod + status.period
    digits = [beta_digit(beta, x) for x in points[:p]]
    if k == 0 and p == 1:
        case = "tau1_fixed"
    elif points[p - 1] == ZERO:
        case = "hits_zero"
        digits = digits[: p - 1]
    else:
        case = "generic"
    return (digits, k, p, case), status


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


def module_generators(m, endpoint_index=0):
    """Finite generating set of the dimension module, as interval pairs.

    For continuous surjective maps the partition intervals generate; otherwise
    the adjacent intervals of the partition enlarged by one branch endpoint
    image, together with the jump intervals at interior partition points.
    ``endpoint_index`` picks among the 2n branch endpoint images.
    """
    if not is_surjective(m):
        raise NotSurjective("module generators are stated for surjective maps")
    pts = list(m.partition)
    if m.is_continuous():
        return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    endpoints = [y for b in m.branches for y in b.ends]
    M = endpoints[endpoint_index % len(endpoints)]
    marks = sort_scalars(set(pts + [M]))
    j1 = [(marks[i], marks[i + 1]) for i in range(len(marks) - 1)]
    j2 = []
    for i in range(1, len(pts) - 1):
        left = m.branches[i - 1](pts[i])
        right = m.branches[i](pts[i])
        if left != right:
            j2.append(tuple(sorted((left, right))))
    return j1 + j2


# -- classification -----------------------------------------------------------


@dataclass
class Classification:
    verdict: str  # cuntz_algebra | cuntz_infinity | cuntz_krieger | invariants_only
    index: int | None
    matrix: list | None
    k0: dict
    k1: dict
    hypotheses: list
    annotations: list
    conditional: bool
    refusals: list = field(default_factory=list)

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
        if self.matrix is not None:
            d["matrix"] = [list(r) for r in self.matrix]
        if self.refusals:
            d["refusals"] = list(self.refusals)
        return d


def _kg_dicts(kg):
    d = kg.as_dict()
    return d["k0"], d["k1"]


def classify(flags, *, minpoly_report=None, minpoly_kgroups=None,
             nonperiodic=None, markov_data=None, separation=None,
             incidence_kgroups=None, exchange=None, multimodal=None,
             refusals=(), extra_hypotheses=()):
    """Decision tree for the crossed product algebra.

    Preference order: a Cuntz algebra identification (finite index via the
    minimal polynomial, or infinite via a non-periodicity certificate), then
    a Cuntz-Krieger identification through separation, then invariants only.
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
                "cuntz_algebra", n + 1, None, k0, k1, h, annotations,
                conditional=minpoly_report.cyclicity == "asserted",
                refusals=list(refusals),
            )
    if identification_ok and nonperiodic is not None:
        h = hyps + ["critical orbit never closes: %s" % nonperiodic.label]
        k0, k1 = _kg_dicts(nonperiodic.kgroups)
        return Classification(
            "cuntz_infinity", None, None, k0, k1, h, annotations,
            conditional=nonperiodic.conditional, refusals=list(refusals),
        )
    if (
        markov_data is not None
        and separation is not None
        and separation.status == "separates"
        and incidence_kgroups is not None
    ):
        h = hyps + ["markov with separating itineraries (condition L)"]
        k0, k1 = _kg_dicts(incidence_kgroups)
        return Classification(
            "cuntz_krieger", None, markov_data.matrix, k0, k1, h, annotations,
            conditional=False, refusals=list(refusals),
        )
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
        "invariants_only", None, None, k0, k1, hyps, annotations,
        conditional=route is not None and route.conditional, refusals=list(refusals),
    )
