"""The demand-driven report pipeline: recorded reports, one closure per
report, only the stages a command emits, and the exit-code rule."""

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imapk import entropy, families, interval_map, ktheory, orbit, report, snf, stepfun
from imapk.entropy import entropy_report, perron_enclosure
from imapk.errors import CertificateFailure, InvalidMarkovPartition, ReducibleMinimalPolynomial
from imapk.interval_map import AffineBranch
from imapk.polynomials import count_real_roots
from imapk.orbit import critical_closure, forward_orbit, idoc_check, keane_idoc
from imapk.report import run, to_json
from imapk.scalar import NumberField, Scalar
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
        text = to_json(got)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == recorded["sha256"], command
        assert text == json.dumps(got, indent=2, ensure_ascii=True), command
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


def repeated_lists(report):
    """Paths of each matrix (a list of lists) or list of records (a list of
    dicts, such as the refusals) that occurs under two or more keys, grouped
    by value.  An orbit's `edges` index its own `points`, so equal edges of
    two orbits are two facts and are not collected."""
    seen = {}

    def walk(v, path):
        if isinstance(v, dict):
            for k, x in v.items():
                if k != "edges":
                    walk(x, "%s/%s" % (path, k))
        elif isinstance(v, list):
            if v and (all(isinstance(x, list) for x in v) or all(isinstance(x, dict) for x in v)):
                seen.setdefault(json.dumps(v), []).append(path)
            for i, x in enumerate(v):
                walk(x, "%s/%d" % (path, i))

    walk(report, "")
    return [paths for paths in seen.values() if len(paths) > 1]


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda p: p.stem)
def test_a_report_states_each_matrix_and_refusal_list_once(spec_path):
    # the Markov matrix is markov.data.matrix and the refusals are the
    # top-level section; classification and dimension_module copy neither
    for command in COMMANDS:
        got, _ = run(command, parse_spec(spec_path.read_text()))
        assert repeated_lists(json.loads(to_json(got))) == [], command


def test_repeated_lists_finds_a_copied_matrix_and_refusal_list():
    refusal = [{"flag": "--assert-orbit-infinite", "reason": "conditional"}]
    report = {
        "markov": {"data": {"matrix": [[1, 1], [1, 0]]}},
        "classification": {"matrix": [[1, 1], [1, 0]], "refusals": refusal},
        "refusals": refusal,
        "orbits": [{"points": ["0"], "edges": [[0, 0]]}, {"points": ["1"], "edges": [[0, 0]]}],
    }
    assert repeated_lists(report) == [
        ["/markov/data/matrix", "/classification/matrix"],
        ["/classification/refusals", "/refusals"],
    ]


def test_report_bytes_read_no_scalar_hash(monkeypatch):
    # a salted hash changes every set and dict order of scalars; the spec is
    # parsed under it, and the salted hash reads no cached _hash
    def salted(self):
        return hash((self.num, self.den, 0x5EED))

    monkeypatch.setattr(Scalar, "__hash__", salted)
    assert hash(Scalar(None, [Fraction(1, 3)])) == hash(((1,), 3, 0x5EED))
    for spec_path in SPECS:
        for command in COMMANDS:
            got, code = run(command, parse_spec(spec_path.read_text()))
            recorded = RECORDED["%s/%s" % (spec_path.stem, command)]
            assert hashlib.sha256(to_json(got).encode("utf-8")).hexdigest() == recorded["sha256"], (
                spec_path.stem, command)
            assert code == recorded["exit"], (spec_path.stem, command)


# -- the JSON writer against json.dumps ----------------------------------------

# any code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(exclude_categories=()))
_INT_DIGITS = sys.get_int_max_str_digits() or 5000
_JSON_LEAVES = (
    st.none() | st.booleans() | st.sampled_from([0, 1, True, False]) | st.integers() | _TEXT
    | st.integers(-(10**_INT_DIGITS - 1), 10**_INT_DIGITS - 1)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.lists(st.integers() | st.booleans()) | st.dictionaries(_TEXT, children),
    max_leaves=40,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_JSON)
def test_to_json_writes_what_json_dumps_writes(value):
    assert to_json(value) == json.dumps(value, indent=2, ensure_ascii=True)


@pytest.mark.parametrize("value", [
    0.5, {"a": [1, 2.0]}, {1, 2}, [b"x"], {1: "a"}, {"a": {None: 1}},
], ids=["float", "nested-float", "set", "bytes", "int-key", "none-key"])
def test_to_json_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_keane_decides_the_golden_exchange_without_walking_an_orbit(monkeypatch):
    calls = count_calls(monkeypatch, critical_closure, idoc_check)
    got, code = run("classify", parse_spec((ROOT / "specs" / "golden_exchange.imapk").read_text()))
    assert code == 0
    assert calls["critical_closure"] == calls["idoc_check"] == 0
    assert got["markov"]["status"] == "provably_not_markov"
    assert got["markov"]["witness"].startswith("permutation [2, 1]")
    assert got["kgroups"]["family_route"]["label"] == "unconditional"
    assert [c["property"] for c in got["certificates"]] == ["transitive"]


# a generalized exchange whose slopes 3/2 and 3/4 have negative valuation at
# 2, with no unit branch: the valuation certificate ends its interior walk
GENERALIZED_EXCHANGE = (
    "map { partition = [0, 1/3, 1]\n"
    "  branch = { slope = 3/2, intercept = 1/2 }\n"
    "  branch = { slope = 3/4, intercept = -1/4 } }"
)
# a generalized exchange whose slopes 10/3 and 18/25 have positive valuation
# at 5 and at 3, the primes of the slope denominators: no certificate applies
UNCERTIFIED_EXCHANGE = (
    "map { partition = [0, 3/28, 1]\n"
    "  branch = { slope = 10/3, intercept = 9/14 }\n"
    "  branch = { slope = 18/25, intercept = -27/350 } }"
)
# a continuous map like the shipped multimodal one that no certificate ends:
# its closure walks to the 4096-bit size limit
UNCERTIFIED_MULTIMODAL_PATH = ROOT / "tests" / "data" / "uncertified_multimodal.imapk"
UNCERTIFIED_MULTIMODAL = UNCERTIFIED_MULTIMODAL_PATH.read_text()


def test_a_certified_generalized_exchange_concludes_unconditionally():
    # an exchange is injective on [0, 1), and the certified region holds no
    # partition point, so the certified walk proves disjointness too
    got, _ = run("classify", parse_spec(GENERALIZED_EXCHANGE))
    assert got["markov"]["status"] == "provably_not_markov"
    assert got["kgroups"]["family_route"]["label"] == "unconditional"


@pytest.mark.parametrize("spec_text, read", [
    (UNCERTIFIED_EXCHANGE, lambda got: got["kgroups"]["family_route"]["label"]),
    (UNCERTIFIED_MULTIMODAL, lambda got: got["refusals"][0]["reason"]),
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


def test_a_reducible_field_is_refused_at_parse_time():
    # (x^2 - 2)(x^2 - 3) at sqrt(2): both lengths would be 1/2, the rotation
    # by 1/2, though their coefficient vectors are independent
    with pytest.raises(ReducibleMinimalPolynomial, match=r"factor x\^2 - 2 has the isolated root"):
        parse_spec(REDUCIBLE_FIELD_EXCHANGE)


# the rotation by sqrt(2) + sqrt(3) - 3 over its minimal polynomial
# x^4 - 10x^2 + 1, which splits modulo every prime
SQRT2_PLUS_SQRT3_ROTATION = (
    "field { poly = [1,0,-10,0,1]; iso = [3,4] }\n"
    "map { family = interval_exchange; lengths = [alg:[4,-1], alg:[-3,1]]; permutation = [2,1] }"
)


def test_keane_decides_a_rotation_over_a_polynomial_that_splits_modulo_every_prime(monkeypatch):
    calls = count_calls(monkeypatch, critical_closure, idoc_check)
    keane = "Keane: an interval exchange with an irreducible permutation"
    got, code = run("classify", parse_spec(SQRT2_PLUS_SQRT3_ROTATION))
    assert code == 0 and calls["critical_closure"] == calls["idoc_check"] == 0
    assert got["kgroups"]["family_route"]["label"] == "unconditional"
    assert got["markov"]["status"] == "provably_not_markov"
    assert got["markov"]["witness"].startswith("permutation [2, 1]")
    got, code = run("orbit", parse_spec(SQRT2_PLUS_SQRT3_ROTATION))
    assert code == 0
    assert [(c["property"], c["source"][:len(keane)]) for c in got["certificates"]] == [("transitive", keane)]


def test_the_echo_rebuilds_its_scalars_over_the_one_field_it_names(monkeypatch):
    # each quoted element repeats the echo's field key; building a field runs
    # proper_factor and a Sturm count, so the echo's field is built once
    got, _ = run("classify", parse_spec(SQRT2_PLUS_SQRT3_ROTATION))
    built = []
    init = NumberField.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(NumberField, "__init__", counted)
    m = report.map_from_echo(json.loads(to_json(got))["map"])
    assert len(built) == 1
    scalars = list(m.partition) + [x for b in m.branches for x in (b.slope, b.intercept)]
    algebraic = [x for x in scalars if x.field is not None]
    assert len(algebraic) == 3 and all(x.field is built[0] for x in algebraic)
    assert m == parse_spec(SQRT2_PLUS_SQRT3_ROTATION).map


@pytest.mark.parametrize("name", ["tent", "realization", "golden_beta"])
@pytest.mark.parametrize("command", ["ktheory", "all"])
def test_one_characteristic_polynomial_per_markov_report(name, command, monkeypatch):
    # the Perron enclosure and the stationary presentation share one stage
    calls = count_calls(monkeypatch, char_poly, perron_enclosure, stationary_dimension_triple)
    run(command, parse_spec((ROOT / "specs" / ("%s.imapk" % name)).read_text()))
    assert calls["perron_enclosure"] == calls["stationary_dimension_triple"] == 1
    assert calls["char_poly"] == 1


@pytest.mark.parametrize("name", ["tent", "realization", "golden_beta"])
@pytest.mark.parametrize("command", ["classify", "all"])
def test_one_merge_of_the_markov_matrix_per_report(name, command, monkeypatch):
    # the K-groups and the characteristic polynomial read one merged matrix
    calls = count_calls(monkeypatch, snf.amalgamate, char_poly, kgroups_from_incidence)
    run(command, parse_spec((ROOT / "specs" / ("%s.imapk" % name)).read_text()))
    assert calls["char_poly"] == calls["kgroups_from_incidence"] == calls["amalgamate"] == 1


def test_an_isolated_perron_root_takes_one_sturm_count(monkeypatch):
    # (0, 2] holds only the golden ratio, so sign tests make every halving;
    # only the bisection's counts are counted, not the NumberField's own check
    calls = Counter()

    def spy(*args):
        calls["count_real_roots"] += 1
        return count_real_roots(*args)

    monkeypatch.setattr(entropy, "count_real_roots", spy)
    lo, hi, _ = perron_enclosure([[1, 1], [1, 0]])
    assert hi - lo <= Fraction(1, 10**6)
    assert calls["count_real_roots"] == 1


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
        report, "kgroups_from_incidence", lambda matrix, merged=None: kgroups_from_incidence([[3]])
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
    # the graph flags are read after the closure has filled the table
    calls = count_calls(monkeypatch, interval_map.eval_multivalued)

    def fail(matrix):
        raise CertificateFailure("graph flags")

    monkeypatch.setattr(report, "graph_flags", fail)
    spec = parse_spec((ROOT / "specs" / "tent.imapk").read_text())
    with pytest.raises(CertificateFailure):
        run("classify", spec)
    assert calls["eval_multivalued"] > 0
    assert spec.map.images == {}


def test_a_report_maps_each_point_through_its_branch_once(monkeypatch):
    # the closure fills the table and is its only reader here; the interior
    # walks and the chain walks of a rational map run on integer pairs, and
    # the 64 transfer steps of the minimal-polynomial iteration, run when the
    # chain check is off, map their breakpoints by their branches, so none of
    # them reads or fills it
    calls = count_calls(monkeypatch, interval_map.limits, interval_map.eval_multivalued)
    spy = interval_map.limits
    points = Counter()

    def each_point(m, x):
        points[x] += 1
        return spy(m, x)

    monkeypatch.setattr(interval_map, "limits", each_point)
    during = {}

    def counted(fn):
        def each_call(*args, **kwargs):
            before = sum(calls.values())
            try:
                return fn(*args, **kwargs)
            finally:
                during.setdefault(fn.__name__, []).append(sum(calls.values()) - before)

        return each_call

    for module, name in [
        (orbit, "interior_orbits_disjoint"),
        (families, "interior_orbits_disjoint"),
        (report, "chains_prove_independence"),
        (ktheory, "minimal_polynomial_iter"),
    ]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    run("classify", parse_spec(UNCERTIFIED_MULTIMODAL))
    assert calls["limits"] == calls["eval_multivalued"] == len(points) > 1000
    # the chains prove the iteration fruitless, so it does not run
    assert during == {"interior_orbits_disjoint": [0], "chains_prove_independence": [0]}
    calls.clear()
    points.clear()
    during.clear()
    monkeypatch.setattr(report, "chains_prove_independence", lambda m, k: False)
    run("classify", parse_spec(UNCERTIFIED_MULTIMODAL))
    assert calls["limits"] == calls["eval_multivalued"] == len(points) > 1000
    assert during == {"interior_orbits_disjoint": [0], "minimal_polynomial_iter": [0]}


# the orbit 0, 1/4, 5/8, 3/4, 1/2, 1 closes, so the minimal polynomial is found
# and the re-check meets breakpoints strictly inside the branch domains
PERIODIC_UNIMODAL = (
    "map { partition = [0, 1/2, 1]\n"
    "  branch = { slope = 3/2, intercept = 1/4 }\n"
    "  branch = { slope = -2, intercept = 2 } }"
)


# the minimal polynomial has degree 7, and the Horner re-check meets 5 inner
# points 10 times, and maps each once
RECURRING_RECHECK = (
    "map { partition = [0, 6/7, 1]\n"
    "  branch = { slope = 1, intercept = 1/7 }\n"
    "  branch = { slope = -6, intercept = 6 } }"
)


@pytest.mark.parametrize("spec_text", [
    (ROOT / "specs" / "realization.imapk").read_text(),
    (ROOT / "specs" / "golden_beta.imapk").read_text(),
    PERIODIC_UNIMODAL,
    RECURRING_RECHECK,
], ids=["realization", "golden_beta", "periodic_unimodal", "recurring_recheck"])
def test_transfer_steps_map_no_domain_end(spec_text, monkeypatch):
    # a branch maps its domain ends when it is built; the iteration numbers
    # its breakpoints in one table and maps each inner one by its own branch
    # once, however many iterates break there, and the Horner re-check does
    # the same in a table of its own; no step reads the table of images
    m = parse_spec(spec_text).map
    calls = count_calls(monkeypatch, interval_map.eval_multivalued, interval_map.limits)
    mapped = []
    branch_call = AffineBranch.__call__

    def each_call(branch, x):
        mapped.append((branch, x))
        return branch_call(branch, x)

    steps = []  # (numbering, inner breakpoints, points mapped) of each step
    step = stepfun.transfer

    def each_step(m, f, table):
        before = len(mapped)
        result = step(m, f, table)
        inner = [table.points[k] for k in f.jumps if table.points[k] not in m.partition]
        steps.append((table, inner, len(mapped) - before))
        return result

    monkeypatch.setattr(AffineBranch, "__call__", each_call)
    monkeypatch.setattr(stepfun, "transfer", each_step)
    monkeypatch.setattr(ktheory, "transfer", each_step)
    report = ktheory.minimal_polynomial_iter(m)
    assert report.method == "iteration"
    assert not calls
    assert not [(b, x) for b, x in mapped if x == b.lo or x == b.hi]
    # the iteration's table, then the re-check's, one step per coefficient
    tables = list({id(table): table for table, _, _ in steps}.values())
    assert len(tables) == 2
    iteration, recheck = ([(inner, n) for t, inner, n in steps if t is table] for table in tables)
    assert (len(iteration), len(recheck)) == (report.iterations, report.poly.degree + 1)
    met = [set(x for inner, _ in part for x in inner) for part in (iteration, recheck)]
    assert [sum(n for _, n in part) for part in (iteration, recheck)] == [len(points) for points in met]
    assert len(mapped) == len(met[0]) + len(met[1])
    if spec_text == PERIODIC_UNIMODAL:
        # three inner points, met 9 times by the 5 steps of the iteration
        assert (len(met[0]), sum(len(inner) for inner, _ in iteration)) == (3, 9)
        assert len(met[1]) == 3
    if spec_text == RECURRING_RECHECK:
        # five inner points, met 10 times by the steps of the re-check
        assert (len(met[1]), sum(len(inner) for inner, _ in recheck)) == (5, 10)


def test_a_report_renders_each_scalar_text_once(monkeypatch):
    # the orbit points of the closure recur in the orbits section
    rendered = []  # holding each object keeps its id unique
    render = Scalar._render_text

    def each_render(x):
        rendered.append(x)
        return render(x)

    monkeypatch.setattr(Scalar, "_render_text", each_render)
    got, _ = run("all", parse_spec(UNCERTIFIED_MULTIMODAL))
    to_json(got)
    assert len(rendered) > 5000
    assert len(set(map(id, rendered))) == len(rendered)


@pytest.mark.parametrize("spec_path", SPECS + [UNCERTIFIED_MULTIMODAL_PATH], ids=lambda p: p.stem)
def test_a_warm_table_of_images_changes_no_report(spec_path):
    # what the table holds when a report starts is never read as evidence;
    # the uncertified map's walks fill it up to the size limit, and its
    # report is compared with a run on a cold table
    spec = parse_spec(spec_path.read_text())
    m, cap = spec.map, report.PipelineOptions.from_spec(spec).cap
    for command in ("classify", "all"):
        recorded = RECORDED.get("%s/%s" % (spec_path.stem, command))
        if recorded is None:
            cold, code = run(command, parse_spec(spec_path.read_text()))
            recorded = {"sha256": hashlib.sha256(to_json(cold).encode("utf-8")).hexdigest(), "exit": code}
        critical_closure(m, cap)
        for x in m.partition:
            forward_orbit(m, x, cap)
        assert m.images
        got, code = run(command, spec)
        assert hashlib.sha256(to_json(got).encode("utf-8")).hexdigest() == recorded["sha256"]
        assert code == recorded["exit"]
        assert m.images == {}
