"""Pipeline orchestration: run the analysis slices and assemble one report.

Everything is computed once per run (the examples are small), then the
command selects which sections to emit.  The JSON report is deterministic:
keys are inserted in a fixed order and scalars are rendered through their
canonical text form.  Every claim that is not computed outright carries a
provenance string (certificate, assertion, or route name).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import ktheory
from .entropy import entropy_report
from .errors import ImapkError, NotSurjective
from .families import exchange_kgroups, multimodal_kgroups
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
from .scalar import NumberField, Scalar, as_scalar, rational
from .snf import kgroups_from_incidence, stationary_dimension_triple
from .specfile import MapSpecFile

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
    parse = lambda t: as_scalar(t) if not t.startswith("poly:") else _reparse(t, field)
    partition = [parse(t) for t in echo["partition"]]
    branches = [(parse(b["slope"]), parse(b["intercept"])) for b in echo["branches"]]
    return validate_map(partition, branches)


def _reparse(text, field):
    from .scalar import scalar_from_text

    return scalar_from_text(text, field)


def compute(spec: MapSpecFile, options: PipelineOptions):
    """Run every analysis route once; returns the full result bundle."""
    m = spec.map
    refusals = []
    notes = []
    consistency = []
    cyclicity_refusal = None

    surjective = is_surjective(m)
    markov_result = detect_markov(m, options.cap)
    markov_data = markov_result if isinstance(markov_result, MarkovData) else None
    gflags = graph_flags(markov_data.matrix) if markov_data else None

    certs = list(spec.certificates)
    if spec.family is None:
        beta_guess = recognize_beta(m)
        if beta_guess is not None:
            certs.append(
                Certificate(
                    "exact", True,
                    "beta transformations are always topologically exact",
                )
            )
        s_guess = recognize_restricted_tent(m)
        if s_guess is not None:
            cmp2 = (s_guess * s_guess).compare(2)
            if cmp2 > 0:
                certs.append(
                    Certificate(
                        "exact", True,
                        "restricted tent maps with slope above sqrt(2) are "
                        "topologically exact",
                    )
                )
            elif cmp2 == 0:
                certs.append(
                    Certificate(
                        "transitive", True,
                        "the restricted tent map with slope sqrt(2) is transitive",
                    )
                )
    else:
        beta_guess = spec.family_params.get("beta") if spec.family == "beta" else None
        s_guess = spec.family_params.get("s") if spec.family == "restricted_tent" else None

    if markov_data is not None:
        certs.extend(dynamics_certificates(m, markov_data, gflags, surjective))

    idoc_result = None
    exchange_route = None
    if is_exchange_map(m):
        idoc_result = idoc_check(m, options.cap)
        if isinstance(idoc_result, IdocHolds):
            ek = exchange_kgroups(m, idoc_result)
            if not isinstance(ek, tuple):
                ek = None
            else:
                kg, label = ek
                if label != "unconditional" and options.assert_idoc:
                    label = "asserted"
                ek = (kg, label)
                if label == "unconditional":
                    certs.append(
                        Certificate(
                            "transitive", True,
                            "interval exchange with provably infinite disjoint "
                            "interior orbits is minimal",
                        )
                    )
            exchange_route = ek

    flags = dynamics_flags(m, options.depth, certs)

    separation = None
    incidence_route = None
    user_partition_info = None
    if markov_data is not None:
        separation = separation_check(m, markov_data, gflags)
        if surjective:
            incidence_route = kgroups_from_incidence(markov_data.matrix)
            incidence_note = "incidence matrix of the canonical partition"
        else:
            restricted, idx = restrict_to_eventual_range(markov_data.matrix, gflags)
            incidence_route = kgroups_from_incidence(restricted)
            incidence_note = (
                "matrix restricted to the eventual range (indices %s); invariants "
                "are those of the equivalent restricted system"
                % [j + 1 for j in idx]
            )
        if options.partition:
            coarse = markov_for_partition(m, options.partition, options.cap)
            coarse_kg = kgroups_from_incidence(coarse.matrix)
            agree = coarse_kg.as_dict() == incidence_route.as_dict()
            consistency.append(
                {
                    "check": "kgroups invariant under Markov partition refinement",
                    "status": "pass" if agree else "FAIL",
                    "detail": "%s vs %s" % (incidence_route.text(), coarse_kg.text()),
                }
            )
            user_partition_info = {
                "partition": [p.text() for p in coarse.partition],
                "matrix": [list(r) for r in coarse.matrix],
                "kgroups": coarse_kg.as_dict(),
            }

    # minimal polynomial route
    minpoly_report = None
    minpoly_status = None
    minpoly_kg = None
    nonperiodic_route = None
    family_for_nonperiodic = None
    orbit_status = None
    if surjective:
        unimodal_c = ktheory.recognize_unimodal(m)
        if unimodal_c is not None:
            family_for_nonperiodic = "unimodal"
            data, orbit_status = ktheory.unimodal_orbit_data(m, options.cap)
            if data is not None:
                signs, k, p, case = data
                closed = ktheory.unimodal_minpoly(signs, k, p, case)
                minpoly_report = ktheory.MinPolyReport(
                    closed, "unimodal_closed_form", "certified:unimodal"
                )
        elif beta_guess is not None:
            family_for_nonperiodic = "beta"
            data, orbit_status = ktheory.beta_orbit_data(m, beta_guess, options.cap)
            if data is not None:
                digits, k, p, case = data
                closed = ktheory.beta_minpoly(digits, k, p, case)
                minpoly_report = ktheory.MinPolyReport(
                    closed, "beta_closed_form", "certified:beta"
                )
        if minpoly_report is not None or family_for_nonperiodic is None:
            iter_result = ktheory.minimal_polynomial_iter(
                m, cap=min(options.cap, 64), breakpoint_cap=options.cap
            )
            if isinstance(iter_result, ktheory.MinPolyReport):
                if minpoly_report is None:
                    cyc = "asserted" if options.assert_cyclic else "unknown"
                    iter_result.cyclicity = cyc
                    minpoly_report = iter_result
                else:
                    agree = iter_result.poly == minpoly_report.poly
                    consistency.append(
                        {
                            "check": "closed-form vs iterated minimal polynomial",
                            "status": "pass" if agree else "FAIL",
                            "detail": "%s vs %s"
                            % (minpoly_report.poly.text(), iter_result.poly.text()),
                        }
                    )
                    minpoly_report.iterations = iter_result.iterations
            else:
                minpoly_status = iter_result
        if minpoly_report is not None:
            try:
                kg, n = ktheory.kgroups_from_minpoly(minpoly_report)
                minpoly_kg = (kg, n)
            except ImapkError:
                cyclicity_refusal = {
                    "flag": "--assert-cyclic",
                    "reason": "the minimal polynomial route needs the constant "
                    "function to generate the module; pass --assert-cyclic "
                    "to assert it",
                }
        if family_for_nonperiodic and orbit_status is not None and not isinstance(
            orbit_status, Closed
        ):
            nonperiodic_route = ktheory.nonperiodic_kgroups(
                family_for_nonperiodic, orbit_status
            )

    # multimodal route: only when nothing else concluded the K-groups
    multimodal_route = None
    if (
        surjective
        and m.is_continuous()
        and markov_data is None
        and minpoly_kg is None
        and nonperiodic_route is None
        and exchange_route is None
    ):
        try:
            mk = multimodal_kgroups(
                m, options.cap, asserted=options.assert_orbit_infinite
            )
            if mk is None:
                refusals.append(
                    {
                        "flag": "--assert-orbit-infinite",
                        "reason": "critical orbits are disjoint up to the cap; "
                        "pass --assert-orbit-infinite to conclude",
                    }
                )
            else:
                multimodal_route = mk
        except ImapkError as exc:
            notes.append("multimodal route inapplicable: %s" % exc)

    # a cyclicity refusal only matters when no other route concluded
    if cyclicity_refusal is not None and all(
        r is None
        for r in (incidence_route, exchange_route, multimodal_route, nonperiodic_route)
    ):
        refusals.append(cyclicity_refusal)

    # consistency: |m(1)| vs incidence torsion.  Equality needs the constant
    # function to generate the module; without that, m divides the
    # characteristic polynomial of A, so |m(1)| divides |det(id - A)|, the
    # order of the cokernel (0 when it is infinite)
    if minpoly_report is not None and incidence_route is not None:
        n = minpoly_report.n_value
        torsion_product = 1
        for d in incidence_route.torsion:
            torsion_product *= d
        if minpoly_report.cyclicity == "unknown":
            order = 0 if incidence_route.free_rank > 0 else torsion_product
            check = "|m(1)| divides the order of the incidence cokernel"
            agree = order % n == 0 if n else order == 0
        else:
            check = "|m(1)| equals the torsion of the incidence cokernel"
            both_zero = n == 0 and incidence_route.free_rank > 0
            agree = both_zero or (
                n == torsion_product and incidence_route.free_rank == 0
            )
        consistency.append(
            {
                "check": check,
                "status": "pass" if agree else "FAIL",
                "detail": "|m(1)| = %d, torsion product = %d, free rank = %d"
                % (n, torsion_product, incidence_route.free_rank),
            }
        )

    extra_hyps = []
    if markov_data is not None:
        extra_hyps.append("markov with canonical partition of %d intervals" % markov_data.size)
    classification = ktheory.classify(
        flags,
        minpoly_report=minpoly_report,
        minpoly_kgroups=minpoly_kg,
        nonperiodic=nonperiodic_route,
        markov_data=markov_data,
        separation=separation,
        incidence_kgroups=incidence_route,
        exchange=exchange_route,
        multimodal=multimodal_route,
        refusals=refusals,
        extra_hypotheses=extra_hyps,
    )

    entropy = entropy_report(m, flags, markov_data, options.tol)
    if entropy.method == "perron_markov" and minpoly_report is not None:
        # slope-Perron agreement for uniformly sloped transitive maps
        from .entropy import uniform_abs_slope

        s = uniform_abs_slope(m)
        if s is not None and flags.transitive and entropy.s_lo is not None:
            lo, hi = s.enclosure(options.tol)
            overlap = not (hi < entropy.s_lo or lo > entropy.s_hi)
            consistency.append(
                {
                    "check": "uniform slope lies in the Perron enclosure",
                    "status": "pass" if overlap else "FAIL",
                    "detail": "slope in [%s, %s], enclosure [%s, %s]"
                    % (lo, hi, entropy.s_lo, entropy.s_hi),
                }
            )

    return {
        "spec": spec,
        "options": options,
        "flags": flags,
        "markov_result": markov_result,
        "markov_data": markov_data,
        "graph_flags": gflags,
        "separation": separation,
        "incidence_route": incidence_route,
        "user_partition_info": user_partition_info,
        "minpoly_report": minpoly_report,
        "minpoly_status": minpoly_status,
        "minpoly_kg": minpoly_kg,
        "nonperiodic_route": nonperiodic_route,
        "exchange_route": exchange_route,
        "idoc_result": idoc_result,
        "multimodal_route": multimodal_route,
        "classification": classification,
        "entropy": entropy,
        "certs": certs,
        "consistency": consistency,
        "refusals": refusals,
        "notes": notes,
    }


def _orbits_section(spec, options):
    m = spec.map
    cc = critical_closure(m, options.cap)
    orbits = []
    for p in m.partition:
        r = forward_orbit(m, p, options.cap)
        orbits.append(r.as_dict())
    return {"critical_closure": cc.as_dict(), "partition_orbits": orbits}


def _kgroups_section(bundle):
    out = {}
    inc = bundle["incidence_route"]
    out["incidence_route"] = None if inc is None else inc.as_dict()
    mkg = bundle["minpoly_kg"]
    if mkg is not None:
        kg, n = mkg
        d = kg.as_dict()
        d["n"] = n
        out["minpoly_route"] = d
    elif bundle["nonperiodic_route"] is not None:
        kg, label = bundle["nonperiodic_route"]
        d = kg.as_dict()
        d["label"] = label
        out["minpoly_route"] = d
    else:
        out["minpoly_route"] = None
    if bundle["exchange_route"] is not None:
        kg, label = bundle["exchange_route"]
        d = kg.as_dict()
        d["label"] = label
        out["family_route"] = d
    elif bundle["multimodal_route"] is not None:
        kg, label = bundle["multimodal_route"]
        d = kg.as_dict()
        d["label"] = label
        out["family_route"] = d
    else:
        out["family_route"] = None
    return out


def _markov_section(bundle):
    result = bundle["markov_result"]
    if bundle["markov_data"] is None:
        section = {"status": result.kind}
        if hasattr(result, "reason"):
            section["reason"] = result.reason
            section["witness"] = result.witness
        if hasattr(result, "cap"):
            section["cap"] = result.cap
        return section
    data = bundle["markov_data"]
    section = {
        "status": "markov",
        "data": data.as_dict(),
        "graph": bundle["graph_flags"].as_dict(),
        "separation": bundle["separation"].as_dict(),
    }
    if bundle["user_partition_info"] is not None:
        section["user_partition"] = bundle["user_partition_info"]
    return section


def _dimension_module_section(bundle):
    spec = bundle["spec"]
    m = spec.map
    section = {}
    try:
        gens = ktheory.module_generators(m)
        section["generators"] = [[a.text(), b.text()] for a, b in gens]
    except NotSurjective:
        section["generators"] = None
    if bundle["markov_data"] is not None:
        section["stationary_presentation"] = stationary_dimension_triple(
            bundle["markov_data"].matrix
        ).as_dict()
    else:
        section["stationary_presentation"] = None
    return section


def assemble_report(command, spec, options, bundle):
    sections = _SECTIONS[command]
    report = {"command": command}
    report["map"] = _map_echo(spec)
    report["options"] = options.as_dict()
    if "dynamics" in sections:
        report["dynamics"] = bundle["flags"].as_dict()
    if "certificates" in sections:
        report["certificates"] = [
            {"property": c.prop, "value": c.value, "source": c.source}
            for c in bundle["certs"]
        ]
    if "orbits" in sections:
        report["orbits"] = _orbits_section(spec, options)
    if "markov" in sections:
        report["markov"] = _markov_section(bundle)
    if "kgroups" in sections:
        report["kgroups"] = _kgroups_section(bundle)
    if "minimal_polynomial" in sections:
        if bundle["minpoly_report"] is not None:
            report["minimal_polynomial"] = bundle["minpoly_report"].as_dict()
        elif bundle["minpoly_status"] is not None:
            report["minimal_polynomial"] = {"status": bundle["minpoly_status"].kind}
        else:
            report["minimal_polynomial"] = None
    if "dimension_module" in sections:
        report["dimension_module"] = _dimension_module_section(bundle)
    if "entropy" in sections:
        report["entropy"] = bundle["entropy"].as_dict()
    if "classification" in sections:
        report["classification"] = bundle["classification"].as_dict()
    if "consistency" in sections:
        report["consistency"] = bundle["consistency"]
    if "refusals" in sections:
        report["refusals"] = bundle["refusals"]
    if "notes" in sections:
        report["notes"] = bundle["notes"]
    return report


def run(command, spec, overrides=None):
    """Execute a pipeline slice; returns (report_dict, exit_code)."""
    if command not in _SECTIONS:
        raise ImapkError("unknown command %r" % command)
    options = PipelineOptions.from_spec(spec, overrides)
    bundle = compute(spec, options)
    report = assemble_report(command, spec, options, bundle)
    exit_code = 0
    if command in ("ktheory", "classify", "all") and bundle["refusals"]:
        cls = bundle["classification"]
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
