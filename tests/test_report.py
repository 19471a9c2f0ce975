"""The demand-driven report pipeline: recorded reports, one closure per
report, only the stages a command emits, and the exit-code rule."""

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from imapk import interval_map, ktheory, report, stepfun
from imapk.entropy import entropy_report, perron_enclosure
from imapk.errors import InvalidMarkovPartition, ReducibleMinimalPolynomial
from imapk.interval_map import AffineBranch
from imapk.orbit import critical_closure, forward_orbit, idoc_check, keane_idoc
from imapk.report import run, to_json
from imapk.scalar import Scalar
from imapk.snf import char_poly, kgroups_from_incidence, stationary_dimension_triple
from imapk.specfile import parse_spec

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of to_json(report) and the exit code of every shipped spec x command,
# recorded before the pipeline computed its stages on demand
RECORDED = json.loads((ROOT / "tests" / "data" / "shipped_reports.json").read_text())
SPECS = sorted((ROOT / "specs").glob("*.imapk"))
COMMANDS = ("orbit", "markov", "ktheory", "entropy", "classify", "all")
REALIZATION = "map { family = markov_realization; matrix = [[0,1,1],[1,0,1],[1,1,0]] }"
# Keane's theorem proves the golden exchange not Markov, so only the `orbits`
# section of `orbit` and `all` builds its critical closure
NO_CLOSURE = {("golden_exchange", c) for c in ("markov", "ktheory", "entropy", "classify")}


def count_calls(monkeypatch, *functions):
    """A Counter of calls by function name, through every alias in imapk."""
    calls = Counter()
    for fn in functions:
        def spy(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "imapk" or name.startswith("imapk.")):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, spy)
    return calls


def test_recorded_reports_cover_every_shipped_pair():
    assert set(RECORDED) == {"%s/%s" % (p.stem, c) for p in SPECS for c in COMMANDS}


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda p: p.stem)
def test_shipped_reports_are_unchanged_and_compute_only_what_they_emit(spec_path, monkeypatch):
    calls = count_calls(
        monkeypatch, critical_closure, ktheory.minimal_polynomial_iter, entropy_report,
        ktheory.classify, keane_idoc,
    )
    for command in COMMANDS:
        calls.clear()
        got, code = run(command, parse_spec(spec_path.read_text()))
        recorded = RECORDED["%s/%s" % (spec_path.stem, command)]
        assert hashlib.sha256(to_json(got).encode("utf-8")).hexdigest() == recorded["sha256"]
        assert code == recorded["exit"]
        assert calls["critical_closure"] == int((spec_path.stem, command) not in NO_CLOSURE), command
        # Keane's theorem is decided at most once per report, and once for the exchange
        assert calls["keane_idoc"] <= 1, command
        if spec_path.stem == "golden_exchange":
            assert calls["keane_idoc"] == 1, command
        if command in ("orbit", "markov", "entropy"):
            assert calls["minimal_polynomial_iter"] == 0, command
        if command in ("orbit", "markov"):
            assert calls["entropy_report"] == calls["classify"] == 0, command


def test_keane_decides_the_golden_exchange_without_walking_an_orbit(monkeypatch):
    calls = count_calls(monkeypatch, critical_closure, idoc_check)
    got, code = run("classify", parse_spec((ROOT / "specs" / "golden_exchange.imapk").read_text()))
    assert code == 0
    assert calls["critical_closure"] == calls["idoc_check"] == 0
    assert got["markov"]["status"] == "provably_not_markov"
    assert got["markov"]["witness"].startswith("permutation [2, 1]")
    assert got["kgroups"]["family_route"]["label"] == "unconditional"
    assert [c["property"] for c in got["certificates"]] == ["transitive"]


# a generalized exchange whose slopes 3/2 and 3/4 admit no growth certificate
GENERALIZED_EXCHANGE = (
    "map { partition = [0, 1/3, 1]\n"
    "  branch = { slope = 3/2, intercept = 1/2 }\n"
    "  branch = { slope = 3/4, intercept = -1/4 } }"
)


@pytest.mark.parametrize("spec_text, read", [
    (GENERALIZED_EXCHANGE, lambda got: got["kgroups"]["family_route"]["label"]),
    ((ROOT / "specs" / "multimodal.imapk").read_text(), lambda got: got["refusals"][0]["reason"]),
], ids=["exchange_label", "multimodal_refusal"])
def test_a_route_names_the_limit_that_stopped_its_walks(spec_text, read):
    # every interior walk passes the 4096-bit size limit long before the cap
    got, _ = run("classify", parse_spec(spec_text))
    assert got["markov"]["status"] == "not_markov_within_size_limit"
    text = read(got)
    assert "conditional on disjointness beyond the 4096-bit size limit" in text
    assert "cap" not in text


REDUCIBLE_FIELD_EXCHANGE = (
    "field { poly = [6,0,-5,0,1]; iso = [1,3/2] }\n"
    "map { family = interval_exchange; lengths = [alg:[0,0,1/4], alg:[1,0,-1/4]]; "
    "permutation = [2,1] }"
)


def test_keane_leaves_a_reducible_field_to_the_capped_check():
    # (x^2 - 2)(x^2 - 3) at sqrt(2): both lengths are 1/2, the rotation by 1/2
    spec = parse_spec(REDUCIBLE_FIELD_EXCHANGE)
    with pytest.raises(ReducibleMinimalPolynomial):
        run("classify", spec)


@pytest.mark.parametrize("name", ["tent", "realization", "golden_beta"])
@pytest.mark.parametrize("command", ["ktheory", "all"])
def test_one_characteristic_polynomial_per_markov_report(name, command, monkeypatch):
    # the Perron enclosure and the stationary presentation share one stage
    calls = count_calls(monkeypatch, char_poly, perron_enclosure, stationary_dimension_triple)
    run(command, parse_spec((ROOT / "specs" / ("%s.imapk" % name)).read_text()))
    assert calls["perron_enclosure"] == calls["stationary_dimension_triple"] == 1
    assert calls["char_poly"] == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_partition_override_reuses_the_closure(command, monkeypatch):
    calls = count_calls(monkeypatch, critical_closure)
    overrides = {"partition": [0, Fraction(1, 3), Fraction(2, 3), 1]}
    got, code = run(command, parse_spec(REALIZATION), overrides)
    assert code == 0
    assert calls["critical_closure"] == 1
    if "markov" in got:
        assert got["markov"]["user_partition"]["matrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_partition_override_accepts_fractions():
    spec = parse_spec("map { family = tent }")
    got, code = run("markov", spec, {"partition": [Fraction(0), Fraction(1, 2), 1]})
    assert code == 0
    assert got["options"]["partition"] == ["0", "1/2", "1"]
    assert got["markov"]["user_partition"]["matrix"] == [[1, 1], [1, 1]]


def test_orbit_does_not_validate_a_partition_it_does_not_use():
    spec = parse_spec("map { family = tent }")
    overrides = {"partition": [0, Fraction(1, 3), 1]}
    got, code = run("orbit", spec, overrides)
    assert code == 0
    assert got["options"]["partition"] == ["0", "1/3", "1"]
    with pytest.raises(InvalidMarkovPartition):
        run("markov", spec, overrides)


def test_a_failed_consistency_check_exits_3(monkeypatch):
    # an incidence route that disagrees with |m(1)| = 1 of the tent map
    monkeypatch.setattr(
        report, "kgroups_from_incidence", lambda matrix: kgroups_from_incidence([[3]])
    )
    got, code = run("classify", parse_spec("map { family = tent }"))
    statuses = {c["check"]: c["status"] for c in got["consistency"]}
    assert statuses["|m(1)| equals the torsion of the incidence cokernel"] == "FAIL"
    assert list(statuses.values()).count("FAIL") == 1
    assert code == 3
    # commands that emit no consistency section do not run the checks
    assert run("markov", parse_spec("map { family = tent }"))[1] == 0


def test_a_failed_check_takes_precedence_over_a_refusal(monkeypatch):
    spec = parse_spec((ROOT / "specs" / "multimodal.imapk").read_text())
    got, code = run("classify", spec, {"cap": 400})
    assert got["refusals"] and code == 2
    failed = [{"check": "stand-in", "status": "FAIL", "detail": ""}]
    monkeypatch.setattr(report.Pipeline, "consistency", property(lambda p: failed))
    got, code = run("classify", spec, {"cap": 400})
    assert got["refusals"] and code == 3


def test_all_notes_an_eventually_periodic_multimodal_orbit():
    # continuous and onto, and 1/3 -> 1 -> 1/2 -> 1/2; the closure is not
    # finite, so the multimodal route runs and rejects the map
    spec = parse_spec(
        "map { partition = [0, 1/3, 2/3, 1]\n"
        "  branch = { slope = 9/4, intercept = 1/4 }\n"
        "  branch = { slope = -3, intercept = 2 }\n"
        "  branch = { slope = 3/2, intercept = -1 } }"
    )
    got, code = run("all", spec, {"cap": 20})
    assert code == 0
    assert got["notes"] == [
        "multimodal route inapplicable: orbit of 1/3 is eventually periodic "
        "(preperiod 2, period 1)"
    ]


def test_certified_orbits_that_meet_conclude_no_kgroups():
    # each interior orbit is certified infinite, but those of 1/8 and 3/16
    # meet at 19/64, so the multimodal route does not apply
    spec = parse_spec(
        "map { partition = [0, 1/8, 3/16, 5/16, 5/8, 1]\n"
        "  branch = { slope = -9/2, intercept = 9/16 }\n"
        "  branch = { slope = 7/2, intercept = -7/16 }\n"
        "  branch = { slope = 5/2, intercept = -1/4 }\n"
        "  branch = { slope = 3/2, intercept = 1/16 }\n"
        "  branch = { slope = -5/2, intercept = 41/16 } }"
    )
    for command in ("classify", "all"):
        got, code = run(command, spec, {"assert_orbit_infinite": True})
        assert code == 0
        assert got["kgroups"]["family_route"] is None
        cls = got["classification"]
        assert cls["k0"] == {} and cls["conditional"] is False
    assert got["notes"] == [
        "multimodal route inapplicable: orbits of 1/8 and 3/16 collide at 19/64"
    ]



@pytest.mark.parametrize("name", ["tent", "realization", "golden_beta", "beta_three_halves"])
def test_a_report_leaves_the_table_of_images_empty(name):
    spec = parse_spec((ROOT / "specs" / ("%s.imapk" % name)).read_text())
    for command in COMMANDS:
        run(command, spec)
        assert spec.map.images == {}


def test_a_report_that_raises_leaves_the_table_of_images_empty(monkeypatch):
    calls = count_calls(monkeypatch, interval_map.eval_multivalued)
    spec = parse_spec(REDUCIBLE_FIELD_EXCHANGE)
    with pytest.raises(ReducibleMinimalPolynomial):
        run("classify", spec)
    assert calls["eval_multivalued"] > 0
    assert spec.map.images == {}


def test_a_report_maps_each_point_through_its_branch_once(monkeypatch):
    # the closure fills the table; the interior walks and the 64 transfer
    # steps of the minimal-polynomial iteration read it
    calls = count_calls(monkeypatch, interval_map.limits, interval_map.eval_multivalued)
    spy = interval_map.limits
    points = Counter()

    def each_point(m, x):
        points[x] += 1
        return spy(m, x)

    monkeypatch.setattr(interval_map, "limits", each_point)
    run("classify", parse_spec((ROOT / "specs" / "multimodal.imapk").read_text()))
    assert calls["limits"] == len(points) > 1000
    assert calls["eval_multivalued"] > 2 * calls["limits"]


# the orbit 0, 1/4, 5/8, 3/4, 1/2, 1 closes, so the minimal polynomial is found
# and the re-check meets breakpoints strictly inside the branch domains
PERIODIC_UNIMODAL = (
    "map { partition = [0, 1/2, 1]\n"
    "  branch = { slope = 3/2, intercept = 1/4 }\n"
    "  branch = { slope = -2, intercept = 2 } }"
)


@pytest.mark.parametrize("spec_text", [
    (ROOT / "specs" / "realization.imapk").read_text(),
    (ROOT / "specs" / "golden_beta.imapk").read_text(),
    PERIODIC_UNIMODAL,
], ids=["realization", "golden_beta", "periodic_unimodal"])
def test_transfer_steps_map_no_domain_end(spec_text, monkeypatch):
    # a branch maps its domain ends when it is built; the iteration reads the
    # inner breakpoints from the table, and the Horner re-check maps each one
    # through its own branch
    m = parse_spec(spec_text).map
    calls = count_calls(monkeypatch, interval_map.eval_multivalued)
    mapped = []
    branch_call = AffineBranch.__call__

    def each_call(branch, x):
        mapped.append((branch, x))
        return branch_call(branch, x)

    steps = []
    step = stepfun.transfer

    def each_step(m, f, direct=False):
        before = len(mapped)
        result = step(m, f, direct)
        inner = sum(b not in m.partition for b in f.breaks)
        steps.append((direct, inner, len(mapped) - before))
        return result

    monkeypatch.setattr(AffineBranch, "__call__", each_call)
    monkeypatch.setattr(stepfun, "transfer", each_step)
    monkeypatch.setattr(ktheory, "transfer", each_step)
    assert ktheory.minimal_polynomial_iter(m).method == "iteration"
    assert not [(b, x) for b, x in mapped if x == b.lo or x == b.hi]
    rechecks = [(inner, n) for direct, inner, n in steps if direct]
    assert rechecks and all(inner == n for inner, n in rechecks)
    assert calls["eval_multivalued"] == sum(inner for direct, inner, _ in steps if not direct)
    # each table miss maps its point through one branch
    assert len(mapped) == sum(n for n, _ in rechecks) + len(m.images)
    if spec_text == PERIODIC_UNIMODAL:
        assert sum(n for n, _ in rechecks) == 3


def test_a_report_renders_each_scalar_text_once(monkeypatch):
    # the orbit points of the closure recur in the orbits section
    rendered = []  # holding each object keeps its id unique
    render = Scalar._render_text

    def each_render(x):
        rendered.append(x)
        return render(x)

    monkeypatch.setattr(Scalar, "_render_text", each_render)
    got, _ = run("all", parse_spec((ROOT / "specs" / "multimodal.imapk").read_text()))
    to_json(got)
    assert len(rendered) > 5000
    assert len(set(map(id, rendered))) == len(rendered)


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda p: p.stem)
def test_a_warm_table_of_images_changes_no_report(spec_path):
    # what the table holds when a report starts is never read as evidence
    spec = parse_spec(spec_path.read_text())
    m, cap = spec.map, report.PipelineOptions.from_spec(spec).cap
    for command in ("classify", "all"):
        critical_closure(m, cap)
        for x in m.partition:
            forward_orbit(m, x, cap)
        assert m.images
        got, code = run(command, spec)
        recorded = RECORDED["%s/%s" % (spec_path.stem, command)]
        assert hashlib.sha256(to_json(got).encode("utf-8")).hexdigest() == recorded["sha256"]
        assert code == recorded["exit"]
        assert m.images == {}
