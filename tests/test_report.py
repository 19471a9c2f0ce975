"""The demand-driven report pipeline: recorded reports, one closure per
report, only the stages a command emits, and the exit-code rule."""

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from imapk import ktheory, report
from imapk.entropy import entropy_report
from imapk.errors import InvalidMarkovPartition
from imapk.orbit import critical_closure
from imapk.report import run, to_json
from imapk.snf import kgroups_from_incidence
from imapk.specfile import parse_spec

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of to_json(report) and the exit code of every shipped spec x command,
# recorded before the pipeline computed its stages on demand
RECORDED = json.loads((ROOT / "tests" / "data" / "shipped_reports.json").read_text())
SPECS = sorted((ROOT / "specs").glob("*.imapk"))
COMMANDS = ("orbit", "markov", "ktheory", "entropy", "classify", "all")
REALIZATION = "map { family = markov_realization; matrix = [[0,1,1],[1,0,1],[1,1,0]] }"


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
        ktheory.classify,
    )
    for command in COMMANDS:
        calls.clear()
        got, code = run(command, parse_spec(spec_path.read_text()))
        recorded = RECORDED["%s/%s" % (spec_path.stem, command)]
        assert hashlib.sha256(to_json(got).encode("utf-8")).hexdigest() == recorded["sha256"]
        assert code == recorded["exit"]
        assert calls["critical_closure"] == 1, command
        if command in ("orbit", "markov", "entropy"):
            assert calls["minimal_polynomial_iter"] == 0, command
        if command in ("orbit", "markov"):
            assert calls["entropy_report"] == calls["classify"] == 0, command


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
