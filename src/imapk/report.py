"""Pipeline orchestration: compute what a command emits and assemble its report.

One `Pipeline` object holds the analysis of one report.  Its stages (the
critical closure, the Markov data, the K-group routes, the minimal
polynomial, the entropy, the classification and the consistency checks) are
computed on first use and kept, so each runs at most once per report.
`_SECTIONS` says which sections a command emits; building those sections,
and the exit-code rule, pulls only the stages they read.  The JSON report is
deterministic: keys are inserted in a fixed order and scalars are rendered
through their canonical text form.  Every claim that is not computed
outright carries a provenance string (certificate, assertion, or route name).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ktheory
from .entropy import entropy_report, uniform_abs_slope
from .errors import ImapkError, NotSurjective
from .families import (
    BETA_EXACT,
    exchange_kgroups,
    multimodal_kgroups,
    restricted_tent_certificates,
)
from .interval_map import Certificate, dynamics_flags, is_surjective, validate_map
from .markov import (
    MarkovData,
    detect_markov,
    dynamics_certificates,
    graph_flags,
    markov_for_partition,
    restrict_to_eventual_range,
    separation_check,
)
from .orbit import (
    Closed,
    IdocHolds,
    critical_closure,
    forward_orbit,
    idoc_check,
    is_exchange_map,
)
from .scalar import NumberField, Scalar, as_scalar, rational, scalar_from_text
from .snf import kgroups_from_incidence, stationary_dimension_triple

DEFAULT_CAP = 10000
DEFAULT_TOL = Fraction(1, 10**6)
DEFAULT_DEPTH = 64

_SECTIONS = {
    "orbit": ["map", "options", "dynamics", "certificates", "orbits"],
    "markov": ["map", "options", "dynamics", "certificates", "markov"],
    "ktheory": [
        "map", "options", "dynamics", "certificates", "markov", "kgroups",
        "minimal_polynomial", "dimension_module", "consistency", "refusals",
    ],
    "entropy": ["map", "options", "dynamics", "certificates", "markov", "entropy"],
    "classify": [
        "map", "options", "dynamics", "certificates", "markov", "kgroups",
        "minimal_polynomial", "entropy", "classification", "consistency", "refusals",
    ],
    "all": [
        "map", "options", "dynamics", "certificates", "orbits", "markov",
        "kgroups", "minimal_polynomial", "dimension_module", "entropy",
        "classification", "consistency", "refusals", "notes",
    ],
}


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


@dataclass
class PipelineOptions:
    cap: int = DEFAULT_CAP
    tol: Fraction = DEFAULT_TOL
    depth: int = DEFAULT_DEPTH
    assert_cyclic: bool = False
    assert_idoc: bool = False
    assert_orbit_infinite: bool = False
    partition: list | None = None

    @staticmethod
    def from_spec(spec, overrides=None):
        merged = dict(spec.options)
        merged.update(overrides or {})
        opts = PipelineOptions()
        for key, value in merged.items():
            if not hasattr(opts, key):
                raise ImapkError("unknown option %r" % key)
            setattr(opts, key, value)
        opts.tol = Fraction(opts.tol)
        if opts.partition is not None:
            opts.partition = [as_scalar(x, spec.field) for x in opts.partition]
        return opts

    def as_dict(self):
        return {
            "cap": self.cap,
            "tol": str(self.tol),
            "depth": self.depth,
            "assert_cyclic": self.assert_cyclic,
            "assert_idoc": self.assert_idoc,
            "assert_orbit_infinite": self.assert_orbit_infinite,
            "partition": None
            if self.partition is None
            else [p.text() for p in self.partition],
        }


def _map_echo(spec):
    m = spec.map
    field = None
    for p in list(m.partition) + [b.slope for b in m.branches] + [
        b.intercept for b in m.branches
    ]:
        if isinstance(p, Scalar) and p.field is not None:
            field = p.field
            break
    echo = {
        "family": spec.family or "explicit",
        "field": None
        if field is None
        else {"poly": list(field.poly), "iso": [str(x) for x in field.iso]},
        "partition": [p.text() for p in m.partition],
        "branches": [
            {"slope": b.slope.text(), "intercept": b.intercept.text()}
            for b in m.branches
        ],
        "notes": list(m.notes),
    }
    return echo


def map_from_echo(echo):
    """Rebuild and revalidate the map from its report echo (round-trip check)."""
    field = None
    if echo.get("field"):
        field = NumberField(echo["field"]["poly"], tuple(Fraction(x) for x in echo["field"]["iso"]))
    parse = lambda t: scalar_from_text(t, field)
    partition = [parse(t) for t in echo["partition"]]
    branches = [(parse(b["slope"]), parse(b["intercept"])) for b in echo["branches"]]
    return validate_map(partition, branches)


def _check(name, agree, detail):
    return {"check": name, "status": "pass" if agree else "FAIL", "detail": detail}


@dataclass
class MinPolyRoute:
    """What the minimal-polynomial stage found; None where it found nothing."""

    report: ktheory.MinPolyReport | None = None
    status: object = None  # why the iteration stopped without a polynomial
    kgroups: tuple | None = None  # (K-groups, |m(1)|)
    nonperiodic: tuple | None = None  # (K-groups, label): the critical orbit never closes
    check: dict | None = None  # closed form against iteration
    refusal: dict | None = None  # the route needs --assert-cyclic


class Pipeline:
    """The analysis of one report: each stage is computed on first use, once.

    Stages call the library through the names this module imports, so a
    tracer that rebinds those names sees every call.
    """

    def __init__(self, spec, options):
        self.spec = spec
        self.options = options
        self.m = spec.map

    @cached_property
    def surjective(self):
        return is_surjective(self.m)

    @cached_property
    def closure(self):
        return critical_closure(self.m, self.options.cap)

    @cached_property
    def markov_result(self):
        return detect_markov(self.m, self.options.cap, closure=self.closure)

    @cached_property
    def markov_data(self):
        result = self.markov_result
        return result if isinstance(result, MarkovData) else None

    @cached_property
    def graph_flags(self):
        return None if self.markov_data is None else graph_flags(self.markov_data.matrix)

    @cached_property
    def beta(self):
        """The beta parameter when the map is a beta transformation, else None."""
        if self.spec.family is None:
            return recognize_beta(self.m)
        return self.spec.family_params.get("beta") if self.spec.family == "beta" else None

    @cached_property
    def exchange_route(self):
        """(K-groups, label) of an interval exchange with disjoint infinite interior orbits."""
        if not is_exchange_map(self.m):
            return None
        idoc = idoc_check(self.m, self.options.cap)
        if not isinstance(idoc, IdocHolds):
            return None
        ek = exchange_kgroups(self.m, idoc)
        if not isinstance(ek, tuple):
            return None
        kg, label = ek
        if label != "unconditional" and self.options.assert_idoc:
            label = "asserted"
        return kg, label

    @cached_property
    def certs(self):
        spec, m = self.spec, self.m
        certs = list(spec.certificates)
        if spec.family is None:
            if self.beta is not None:
                certs.append(BETA_EXACT)
            s = recognize_restricted_tent(m)
            if s is not None:
                certs.extend(restricted_tent_certificates(s))
        if self.markov_data is not None:
            certs.extend(
                dynamics_certificates(m, self.markov_data, self.graph_flags, self.surjective)
            )
        if self.exchange_route is not None and self.exchange_route[1] == "unconditional":
            certs.append(
                Certificate(
                    "transitive", True,
                    "interval exchange with provably infinite disjoint "
                    "interior orbits is minimal",
                )
            )
        return certs

    @cached_property
    def flags(self):
        return dynamics_flags(self.m, self.options.depth, self.certs)

    @cached_property
    def separation(self):
        if self.markov_data is None:
            return None
        return separation_check(self.m, self.markov_data, self.graph_flags)

    @cached_property
    def incidence_route(self):
        """K-groups from the incidence matrix, restricted to the eventual
        range when the map is not surjective."""
        if self.markov_data is None:
            return None
        matrix = self.markov_data.matrix
        if not self.surjective:
            matrix, _ = restrict_to_eventual_range(matrix, self.graph_flags)
        return kgroups_from_incidence(matrix)

    @cached_property
    def user_partition(self):
        """(Markov data, K-groups) of the user's coarser partition, or None."""
        if self.markov_data is None or not self.options.partition:
            return None
        coarse = markov_for_partition(
            self.m, self.options.partition, self.options.cap, closure=self.closure
        )
        return coarse, kgroups_from_incidence(coarse.matrix)

    @cached_property
    def minpoly(self):
        """Closed form for the unimodal and beta families, checked against the
        iterated minimal polynomial; the iteration alone for other maps."""
        m, options = self.m, self.options
        out = MinPolyRoute()
        if not self.surjective:
            return out
        family = None
        orbit_status = None
        if ktheory.recognize_unimodal(m) is not None:
            family = "unimodal"
            data, orbit_status = ktheory.unimodal_orbit_data(m, options.cap)
            if data is not None:
                closed = ktheory.unimodal_minpoly(*data)
                out.report = ktheory.MinPolyReport(
                    closed, "unimodal_closed_form", "certified:unimodal"
                )
        elif self.beta is not None:
            family = "beta"
            data, orbit_status = ktheory.beta_orbit_data(m, self.beta, options.cap)
            if data is not None:
                closed = ktheory.beta_minpoly(*data)
                out.report = ktheory.MinPolyReport(closed, "beta_closed_form", "certified:beta")
        if out.report is not None or family is None:
            iterated = ktheory.minimal_polynomial_iter(
                m, cap=min(options.cap, 64), breakpoint_cap=options.cap
            )
            if not isinstance(iterated, ktheory.MinPolyReport):
                out.status = iterated
            elif out.report is None:
                iterated.cyclicity = "asserted" if options.assert_cyclic else "unknown"
                out.report = iterated
            else:
                out.check = _check(
                    "closed-form vs iterated minimal polynomial",
                    iterated.poly == out.report.poly,
                    "%s vs %s" % (out.report.poly.text(), iterated.poly.text()),
                )
                out.report.iterations = iterated.iterations
        if out.report is not None:
            try:
                out.kgroups = ktheory.kgroups_from_minpoly(out.report)
            except ImapkError:
                out.refusal = {
                    "flag": "--assert-cyclic",
                    "reason": "the minimal polynomial route needs the constant "
                    "function to generate the module; pass --assert-cyclic "
                    "to assert it",
                }
        if family and orbit_status is not None and not isinstance(orbit_status, Closed):
            out.nonperiodic = ktheory.nonperiodic_kgroups(family, orbit_status)
        return out

    @cached_property
    def multimodal(self):
        """(route, refusal, note) of the multimodal route, which runs only
        when nothing else concluded the K-groups; at most one is not None."""
        if not (
            self.surjective
            and self.m.is_continuous()
            and self.markov_data is None
            and self.minpoly.kgroups is None
            and self.minpoly.nonperiodic is None
            and self.exchange_route is None
        ):
            return None, None, None
        try:
            route = multimodal_kgroups(
                self.m, self.options.cap, asserted=self.options.assert_orbit_infinite
            )
        except ImapkError as exc:
            return None, None, "multimodal route inapplicable: %s" % exc
        if route is None:
            return None, {
                "flag": "--assert-orbit-infinite",
                "reason": "critical orbits are disjoint up to the cap; "
                "pass --assert-orbit-infinite to conclude",
            }, None
        return route, None, None

    @cached_property
    def refusals(self):
        route, refusal, _ = self.multimodal
        out = [] if refusal is None else [refusal]
        # a cyclicity refusal only matters when no other route concluded
        if self.minpoly.refusal is not None and all(
            r is None
            for r in (self.incidence_route, self.exchange_route, route, self.minpoly.nonperiodic)
        ):
            out.append(self.minpoly.refusal)
        return out

    @cached_property
    def notes(self):
        note = self.multimodal[2]
        return [] if note is None else [note]

    @cached_property
    def classification(self):
        extra_hyps = []
        if self.markov_data is not None:
            extra_hyps.append(
                "markov with canonical partition of %d intervals" % self.markov_data.size
            )
        return ktheory.classify(
            self.flags,
            minpoly_report=self.minpoly.report,
            minpoly_kgroups=self.minpoly.kgroups,
            nonperiodic=self.minpoly.nonperiodic,
            markov_data=self.markov_data,
            separation=self.separation,
            incidence_kgroups=self.incidence_route,
            exchange=self.exchange_route,
            multimodal=self.multimodal[0],
            refusals=self.refusals,
            extra_hypotheses=extra_hyps,
        )

    @cached_property
    def entropy(self):
        return entropy_report(self.m, self.flags, self.markov_data, self.options.tol)

    @cached_property
    def consistency(self):
        out = []
        if self.user_partition is not None:
            coarse_kg = self.user_partition[1]
            out.append(_check(
                "kgroups invariant under Markov partition refinement",
                coarse_kg.as_dict() == self.incidence_route.as_dict(),
                "%s vs %s" % (self.incidence_route.text(), coarse_kg.text()),
            ))
        if self.minpoly.check is not None:
            out.append(self.minpoly.check)
        mp, inc = self.minpoly.report, self.incidence_route
        if mp is not None and inc is not None:
            # equality needs the constant function to generate the module;
            # without that, m divides the characteristic polynomial of A, so
            # |m(1)| divides |det(id - A)|, the order of the cokernel (0 when
            # it is infinite)
            n = mp.n_value
            torsion_product = 1
            for d in inc.torsion:
                torsion_product *= d
            if mp.cyclicity == "unknown":
                order = 0 if inc.free_rank > 0 else torsion_product
                check = "|m(1)| divides the order of the incidence cokernel"
                agree = order % n == 0 if n else order == 0
            else:
                check = "|m(1)| equals the torsion of the incidence cokernel"
                agree = (n == 0 and inc.free_rank > 0) or (
                    n == torsion_product and inc.free_rank == 0
                )
            out.append(_check(
                check, agree,
                "|m(1)| = %d, torsion product = %d, free rank = %d"
                % (n, torsion_product, inc.free_rank),
            ))
        s = None if mp is None else uniform_abs_slope(self.m)
        # slope-Perron agreement for uniformly sloped transitive maps
        if s is not None and self.flags.transitive:
            ent = self.entropy
            if ent.method == "perron_markov" and ent.s_lo is not None:
                lo, hi = s.enclosure(self.options.tol)
                out.append(_check(
                    "uniform slope lies in the Perron enclosure",
                    not (hi < ent.s_lo or lo > ent.s_hi),
                    "slope in [%s, %s], enclosure [%s, %s]" % (lo, hi, ent.s_lo, ent.s_hi),
                ))
        return out


def _orbits_section(p):
    orbits = [forward_orbit(p.m, x, p.options.cap).as_dict() for x in p.m.partition]
    return {"critical_closure": p.closure.as_dict(), "partition_orbits": orbits}


def _route_dict(route, key):
    if route is None:
        return None
    kg, value = route
    d = kg.as_dict()
    d[key] = value
    return d


def _kgroups_section(p):
    inc = p.incidence_route
    return {
        "incidence_route": None if inc is None else inc.as_dict(),
        "minpoly_route": _route_dict(p.minpoly.kgroups, "n")
        or _route_dict(p.minpoly.nonperiodic, "label"),
        "family_route": _route_dict(p.exchange_route, "label")
        or _route_dict(p.multimodal[0], "label"),
    }


def _markov_section(p):
    result = p.markov_result
    if p.markov_data is None:
        section = {"status": result.kind}
        if hasattr(result, "reason"):
            section["reason"] = result.reason
            section["witness"] = result.witness
        if hasattr(result, "cap"):
            section["cap"] = result.cap
        return section
    section = {
        "status": "markov",
        "data": p.markov_data.as_dict(),
        "graph": p.graph_flags.as_dict(),
        "separation": p.separation.as_dict(),
    }
    if p.user_partition is not None:
        coarse, coarse_kg = p.user_partition
        section["user_partition"] = {
            "partition": [x.text() for x in coarse.partition],
            "matrix": [list(r) for r in coarse.matrix],
            "kgroups": coarse_kg.as_dict(),
        }
    return section


def _minimal_polynomial_section(p):
    if p.minpoly.report is not None:
        return p.minpoly.report.as_dict()
    if p.minpoly.status is not None:
        return {"status": p.minpoly.status.kind}
    return None


def _dimension_module_section(p):
    section = {}
    try:
        gens = ktheory.module_generators(p.m)
        section["generators"] = [[a.text(), b.text()] for a, b in gens]
    except NotSurjective:
        section["generators"] = None
    section["stationary_presentation"] = (
        None
        if p.markov_data is None
        else stationary_dimension_triple(p.markov_data.matrix).as_dict()
    )
    return section


# section name -> builder reading the Pipeline stages it needs
_BUILDERS = {
    "map": lambda p: _map_echo(p.spec),
    "options": lambda p: p.options.as_dict(),
    "dynamics": lambda p: p.flags.as_dict(),
    "certificates": lambda p: [
        {"property": c.prop, "value": c.value, "source": c.source} for c in p.certs
    ],
    "orbits": _orbits_section,
    "markov": _markov_section,
    "kgroups": _kgroups_section,
    "minimal_polynomial": _minimal_polynomial_section,
    "dimension_module": _dimension_module_section,
    "entropy": lambda p: p.entropy.as_dict(),
    "classification": lambda p: p.classification.as_dict(),
    "consistency": lambda p: p.consistency,
    "refusals": lambda p: p.refusals,
    "notes": lambda p: p.notes,
}


def run(command, spec, overrides=None):
    """Execute a pipeline slice; returns (report_dict, exit_code).

    The exit code is 3 when a consistency check failed, else 2 when the
    classification was refused for want of an assertion flag, else 0.
    """
    if command not in _SECTIONS:
        raise ImapkError("unknown command %r" % command)
    p = Pipeline(spec, PipelineOptions.from_spec(spec, overrides))
    report = {"command": command}
    for name in _SECTIONS[command]:
        report[name] = _BUILDERS[name](p)
    exit_code = 0
    if any(c["status"] == "FAIL" for c in report.get("consistency", ())):
        exit_code = 3
    elif command in ("ktheory", "classify", "all") and p.refusals:
        cls = p.classification
        if cls.verdict == "invariants_only" and not cls.k0:
            exit_code = 2
    return report, exit_code


def to_json(report):
    return json.dumps(report, indent=2, ensure_ascii=True)


def render_text(report):
    """Human rendering of the same report content."""
    lines = []
    push = lines.append
    push("command: %s" % report["command"])
    echo = report["map"]
    push("map: %s" % echo["family"])
    push("  partition: %s" % ", ".join(echo["partition"]))
    for i, b in enumerate(echo["branches"], 1):
        push("  branch %d: slope %s, intercept %s" % (i, b["slope"], b["intercept"]))
    for note in echo["notes"]:
        push("  note: %s" % note)
    if "dynamics" in report:
        d = report["dynamics"]
        push(
            "dynamics: surjective=%s essentially_injective=%s transitive=%s exact=%s"
            % (d["surjective"], d["essentially_injective"], d["transitive"], d["exact"])
        )
    if "markov" in report:
        mk = report["markov"]
        if mk.get("status") == "markov":
            push("markov: partition %s" % ", ".join(mk["data"]["partition"]))
            for row in mk["data"]["matrix"]:
                push("  %s" % row)
            g = mk["graph"]
            push(
                "  irreducible=%s primitive=%s condition_L=%s period=%s"
                % (g["irreducible"], g["primitive"], g["condition_L"], g["period"])
            )
            push("  separation: %s" % mk["separation"]["status"])
        else:
            push("markov: %s" % mk["status"])
    if "kgroups" in report:
        for route, kg in report["kgroups"].items():
            if kg is None:
                continue
            push(
                "%s: K0 torsion %s free rank %d; K1 free rank %d"
                % (route, kg["k0"]["torsion"], kg["k0"]["free_rank"], kg["k1"]["free_rank"])
            )
    if report.get("minimal_polynomial"):
        mp = report["minimal_polynomial"]
        if "poly" in mp:
            push("minimal polynomial: %s (%s), n = %d" % (mp["poly"], mp["method"], mp["n"]))
        else:
            push("minimal polynomial: %s" % mp["status"])
    if "entropy" in report:
        push("entropy: %s (%s)" % (report["entropy"]["entropy_note"], report["entropy"]["method"]))
    if "classification" in report:
        c = report["classification"]
        name = c["verdict"]
        if name == "cuntz_algebra":
            name = "Cuntz algebra O_%d" % c["index"]
        elif name == "cuntz_infinity":
            name = "Cuntz algebra O_infinity"
        elif name == "cuntz_krieger":
            name = "Cuntz-Krieger algebra of the incidence matrix"
        push("classification: %s%s" % (name, " (conditional)" if c["conditional"] else ""))
        for h in c["hypotheses"]:
            push("  hypothesis: %s" % h)
        for a in c["annotations"]:
            push("  note: %s" % a)
    for r in report.get("refusals", []):
        push("refused: %s (%s)" % (r["flag"], r["reason"]))
    return "\n".join(lines) + "\n"
