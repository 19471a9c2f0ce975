"""Pipeline orchestration: compute what a command emits and assemble its report.

One `Pipeline` object holds the analysis of one report.  Its stages (the
critical closure, the Markov data, the K-group routes, the minimal
polynomial, the entropy, the classification and the consistency checks) are
computed on first use and kept, so each runs at most once per report.
`SECTIONS` says which sections a command emits; building those sections,
and the exit-code rule, pulls only the stages they read.  Every stage reads
the validated map alone: family facts come from
`families.family_certificates`, and the spec's family name appears only in
the map echo, so two spellings of one map give one report.  The JSON report is
deterministic: keys are inserted in a fixed order and scalars are rendered
through their canonical text form.  Every claim that is not computed
outright carries a provenance string (certificate, assertion, or route name).

The stages share the map's table of images (``interval_map.eval_multivalued``;
the ``interval_map`` docstring says which images it holds), so the closure,
the orbit searches and the Markov check map each orbit point once.  `run`
empties the table when the report is built, or when a stage raises, so no
report depends on what an earlier one left in it and a batch of parsed specs
does not keep every point it ever mapped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str

from . import ktheory
from .entropy import entropy_report, uniform_abs_slope
from .errors import (
    CyclicityNotEstablished,
    HypothesisViolatedWithinCap,
    ImapkError,
    NotSurjective,
    ParameterOutOfRange,
)
from .families import (
    KEANE_MINIMAL,
    exchange_kgroups,
    family_certificates,
    multimodal_kgroups,
    recognize_beta,
)
from .interval_map import Certificate, dynamics_flags, is_surjective, validate_map
from .markov import (
    NOT_MARKOV,
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
    IdocFails,
    chains_prove_independence,
    critical_closure,
    forward_orbit,
    idoc_check,
    is_exchange_map,
    keane_idoc,
)
from .scalar import NumberField, as_scalar, scalar_from_text
from .snf import Route, amalgamate, char_poly, kgroups_from_incidence, stationary_dimension_triple
from .specfile import OPTIONS

# minimality from the capped walk's certificates, when Keane's theorem decided nothing
WALK_MINIMAL = Certificate(
    "transitive", True,
    "interval exchange with provably infinite disjoint interior orbits is minimal",
)

SECTIONS = {
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


class PipelineOptions:
    """One attribute per entry of `specfile.OPTIONS`: the value the overrides
    give, else the spec's options section, else the table's default."""

    @staticmethod
    def from_spec(spec, overrides=None):
        given = {**spec.options, **(overrides or {})}
        opts = PipelineOptions()
        for name, (kind, default, _) in OPTIONS.items():
            value = given.pop(name, default)
            if value is not None and kind == "rational":
                value = Fraction(value)
            elif value is not None and kind == ["scalar"]:
                value = [as_scalar(x, spec.field) for x in value]
            setattr(opts, name, value)
        if given:
            raise ImapkError("unknown option %r" % next(iter(given)))
        if opts.tol <= 0:
            raise ParameterOutOfRange("tol must be positive, got %s" % opts.tol)
        if opts.cap < 1:
            raise ParameterOutOfRange("cap must be at least 1, got %s" % opts.cap)
        if opts.depth < 0:
            raise ParameterOutOfRange("depth must not be negative, got %s" % opts.depth)
        return opts

    def as_dict(self):
        out = {}
        for name in OPTIONS:
            value = getattr(self, name)
            if isinstance(value, Fraction):
                value = str(value)
            elif isinstance(value, list):
                value = [x.text() for x in value]
            out[name] = value
        return out


def _map_echo(spec):
    m = spec.map
    field = m.field
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
    nonperiodic: Route | None = None  # the critical orbit never closes
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
    def keane(self):
        """Keane's proof of the IDOC (a ProvablyInfinite status), or None."""
        return keane_idoc(self.m)

    @cached_property
    def markov_result(self):
        # the IDOC makes every interior orbit infinite, so the closure is too
        if self.keane is not None:
            return self.keane
        return detect_markov(self.m, self.options.cap, closure=self.closure)

    @cached_property
    def markov_data(self):
        result = self.markov_result
        return result if isinstance(result, MarkovData) else None

    @cached_property
    def graph_flags(self):
        return None if self.markov_data is None else graph_flags(self.markov_data.matrix)

    @cached_property
    def merged_matrix(self):
        """What `amalgamate` leaves of the Markov matrix, which its
        characteristic polynomial and its K-groups both read."""
        return amalgamate(self.markov_data.matrix)[0]

    @cached_property
    def characteristic_polynomial(self):
        """The characteristic polynomial of the Markov matrix, which the
        Perron enclosure and the stationary presentation both read."""
        return char_poly(self.markov_data.matrix, merged=self.merged_matrix)

    @cached_property
    def beta(self):
        """The beta parameter when the map is a beta transformation, else None."""
        return recognize_beta(self.m)

    @cached_property
    def exchange_route(self):
        """The Route of an interval exchange with disjoint infinite interior
        orbits; the capped check runs only when Keane's theorem decides nothing."""
        if not is_exchange_map(self.m):
            return None
        idoc = self.keane if self.keane is not None else idoc_check(self.m, self.options.cap)
        if isinstance(idoc, IdocFails):
            return None
        return exchange_kgroups(self.m, idoc, self.options.assert_idoc)

    @cached_property
    def certs(self):
        certs = family_certificates(self.m)
        if self.markov_data is not None:
            certs.extend(dynamics_certificates(self.markov_data, self.graph_flags, self.surjective))
        # an exchange with the IDOC is minimal; the identity's label is
        # unconditional too, but it is not minimal
        route = self.exchange_route
        if route is not None and not route.conditional and len(self.m.branches) > 1:
            certs.append(KEANE_MINIMAL if self.keane is not None else WALK_MINIMAL)
        return certs

    @cached_property
    def flags(self):
        return dynamics_flags(self.m, self.options.depth, self.certs)

    @cached_property
    def separation(self):
        if self.markov_data is None:
            return None
        return separation_check(self.markov_data, self.graph_flags)

    @cached_property
    def incidence_route(self):
        """K-groups from the incidence matrix, restricted to the eventual
        range when the map is not surjective."""
        if self.markov_data is None:
            return None
        if self.surjective:
            return kgroups_from_incidence(self.markov_data.matrix, merged=self.merged_matrix)
        matrix, _ = restrict_to_eventual_range(self.markov_data.matrix, self.graph_flags)
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
        iterated minimal polynomial; the iteration alone for other maps.  The
        iteration is skipped, and its status is NotFoundWithinCap, where the
        partition points' chains prove its iterates independent."""
        m, options = self.m, self.options
        out = MinPolyRoute()
        if not self.surjective:
            return out
        orbit_status = None  # the critical orbit's stop status, for the two families
        turning = ktheory.recognize_unimodal(m)
        if turning is not None:
            data, orbit_status = ktheory.unimodal_orbit_data(m, options.cap, turning)
            if data is not None:
                closed = ktheory.unimodal_minpoly(*data)
                out.report = ktheory.MinPolyReport(
                    closed, "unimodal_closed_form", "certified:unimodal"
                )
        elif self.beta is not None:
            data, orbit_status = ktheory.beta_orbit_data(m, self.beta, options.cap)
            if data is not None:
                closed = ktheory.beta_minpoly(*data)
                out.report = ktheory.MinPolyReport(closed, "beta_closed_form", "certified:beta")
        if out.report is not None or orbit_status is None:
            steps = min(options.cap, 64)
            if chains_prove_independence(m, steps):
                iterated = ktheory.NotFoundWithinCap(steps, steps)
            else:
                iterated = ktheory.minimal_polynomial_iter(
                    m, cap=steps, breakpoint_cap=options.cap
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
        if out.report is not None:
            try:
                out.kgroups = ktheory.kgroups_from_minpoly(out.report)
            except CyclicityNotEstablished:
                out.refusal = {
                    "flag": "--assert-cyclic",
                    "reason": "the minimal polynomial route needs the constant "
                    "function to generate the module; pass --assert-cyclic "
                    "to assert it",
                }
        if orbit_status is not None and not isinstance(orbit_status, Closed):
            out.nonperiodic = ktheory.nonperiodic_kgroups(orbit_status)
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
        except HypothesisViolatedWithinCap as exc:
            return None, None, "multimodal route inapplicable: %s" % exc
        if route.conditional and not self.options.assert_orbit_infinite:
            return None, {
                "flag": "--assert-orbit-infinite",
                "reason": "the multimodal route is %s; "
                "pass --assert-orbit-infinite to conclude" % route.label,
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
            separation=self.separation,
            incidence_kgroups=self.incidence_route,
            exchange=self.exchange_route,
            multimodal=self.multimodal[0],
            extra_hypotheses=extra_hyps,
        )

    @cached_property
    def entropy(self):
        # the Perron enclosure factors the whole matrix only when it is irreducible
        irreducible = self.markov_data is not None and self.graph_flags.irreducible
        poly = self.characteristic_polynomial if irreducible else None
        return entropy_report(self.m, self.flags, self.markov_data, self.options.tol, poly)

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
        # the search status that left the closure incomplete, and its fields
        return {"status": NOT_MARKOV[result.kind], **asdict(result)}
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
        else stationary_dimension_triple(
            p.markov_data.matrix, p.characteristic_polynomial
        ).as_dict()
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
    if command not in SECTIONS:
        raise ImapkError("unknown command %r" % command)
    p = Pipeline(spec, PipelineOptions.from_spec(spec, overrides))
    report = {"command": command}
    try:
        for name in SECTIONS[command]:
            report[name] = _BUILDERS[name](p)
        exit_code = 0
        if any(c["status"] == "FAIL" for c in report.get("consistency", ())):
            exit_code = 3
        elif command in ("ktheory", "classify", "all") and p.refusals:
            cls = p.classification
            if cls.verdict == "invariants_only" and not cls.k0:
                exit_code = 2
    finally:
        spec.map.images.clear()
    return report, exit_code


def to_json(report):
    """The report as JSON text, byte for byte what
    ``json.dumps(report, indent=2, ensure_ascii=True)`` writes.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder; this
    writer appends chunks to one list and joins them once, writing keys and
    strings with the C ``encode_basestring_ascii`` and ints with
    ``int.__repr__``, as ``json`` does.  It accepts only dict, list, tuple,
    str, int, bool and None, and str keys; anything else, a float included,
    raises ``TypeError``.  A report holds no cycle.
    """
    chunks = []
    _write(report, "\n", chunks)
    return "".join(chunks)


_int_text = int.__repr__


def _write(value, newline, chunks):
    """Append the JSON text of value, nested at the indent `newline` ends
    with, to chunks."""
    kind = type(value)
    if kind is str:
        chunks.append(_encode_str(value))
    elif kind is int:
        chunks.append(_int_text(value))
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            chunks.append(sep + _encode_str(key) + ": ")
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        # edges, matrices and K-group vectors: one join
        if all(type(x) is int for x in value):
            chunks.append("[" + inner + ("," + inner).join(map(_int_text, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


def render_text(node, indent=""):
    """The report as an indented outline, one line per leaf: a dict is a block
    of its keys; a list is a block numbered from 1 when it holds a dict, a
    list or a string that contains ", ", so that its items stay apart, and
    one comma-joined line otherwise.  Leaves read as `to_json` writes them,
    strings unquoted."""
    lines = []
    for key, value in node.items() if isinstance(node, dict) else enumerate(node, 1):
        if value and (
            isinstance(value, dict)
            or isinstance(value, list) and any(
                isinstance(x, (dict, list)) or isinstance(x, str) and ", " in x for x in value
            )
        ):
            lines.append("%s%s:\n%s" % (indent, key, render_text(value, indent + "  ")))
        else:
            lines.append("%s%s: %s\n" % (indent, key, _leaf(value)))
    return "".join(lines)


def _leaf(value):
    if isinstance(value, list) and value:
        return ", ".join(map(_leaf, value))
    return value if isinstance(value, str) else json.dumps(value)
