import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from imapk.cli import main
from imapk.errors import ParameterOutOfRange, SpecSemanticError, SpecSyntaxError
from imapk.report import SECTIONS, map_from_echo, render_text, run, to_json
from imapk.specfile import OPTIONS, parse_spec

TENT_SPEC = "map { family = tent }\n"

GOLDEN_BETA_SPEC = """\
field { poly = [-1,-1,1]; iso = [1,2] }
map { family = beta; beta = alg:[0,1] }
"""

TENT_EXPLICIT = """\
map {
  partition = [0, 1/2, 1]
  branch = {slope=2,intercept=0}
  branch = {slope=-2,intercept=2}
}
"""

MULTIMODAL_SPEC = """\
map {
  partition = [0, 1/3, 2/3, 1]
  branch = { slope = 9/5, intercept = 2/5 }
  branch = { slope = -3, intercept = 2 }
  branch = { slope = 9/5, intercept = -6/5 }
}
"""


def test_parse_tent_family():
    spec = parse_spec(TENT_SPEC)
    assert spec.family == "tent"
    assert len(spec.map.branches) == 2


def test_parse_golden_beta():
    spec = parse_spec(GOLDEN_BETA_SPEC)
    assert spec.family == "beta"
    assert spec.map.branches[0].slope == spec.field.alpha()


def test_parse_explicit_tent(tent):
    spec = parse_spec(TENT_EXPLICIT)
    assert spec.family is None
    assert spec.map == tent


def test_parse_options():
    spec = parse_spec(
        "map { family = tent }\n"
        "options { cap = 500; tol = 1/1000; assert_cyclic = true }\n"
    )
    assert spec.options == {
        "cap": 500,
        "tol": Fraction(1, 1000),
        "assert_cyclic": True,
    }


def test_syntax_error_location():
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec("map { family = = }")
    assert err.value.line == 1


def test_semantic_errors():
    with pytest.raises(SpecSemanticError):
        parse_spec("map { family = nosuch }")
    with pytest.raises(SpecSemanticError):
        parse_spec("map { family = tent }\noptions { wat = 1 }")
    with pytest.raises(SpecSemanticError):
        parse_spec("map { family = beta; beta = alg:[0,1] }")  # no field declared
    with pytest.raises(SpecSemanticError):
        parse_spec("options { cap = 10 }")  # no map section


def test_run_all_tent_report():
    spec = parse_spec(TENT_SPEC)
    report, code = run("all", spec)
    assert code == 0
    assert report["markov"]["data"]["matrix"] == [[1, 1], [1, 1]]
    assert report["classification"]["verdict"] == "cuntz_algebra"
    assert report["classification"]["index"] == 2
    assert report["entropy"]["exact_s"] == "2"
    assert report["kgroups"]["incidence_route"]["k0"] == {
        "torsion": [],
        "free_rank": 0,
    }


def test_report_json_round_trip_and_determinism():
    spec1 = parse_spec(GOLDEN_BETA_SPEC)
    report1, _ = run("all", spec1)
    text1 = to_json(report1)
    spec2 = parse_spec(GOLDEN_BETA_SPEC)
    report2, _ = run("all", spec2)
    text2 = to_json(report2)
    assert text1 == text2
    parsed = json.loads(text1)
    rebuilt = map_from_echo(parsed["map"])
    assert rebuilt == spec1.map


def test_refusal_exit_code(tmp_path, capsys):
    path = tmp_path / "multimodal.imapk"
    path.write_text(MULTIMODAL_SPEC)
    code = main(["classify", str(path), "--cap", "400", "--json"])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["refusals"][0]["flag"] == "--assert-orbit-infinite"
    code = main(["classify", str(path), "--cap", "400", "--assert-orbit-infinite", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["kgroups"]["family_route"]["k0"]["free_rank"] == 2


def test_assertion_flags_give_conditional_verdicts(tmp_path, capsys):
    path = tmp_path / "exchange.imapk"
    path.write_text(
        "field { poly = [-1,-1,1]; iso = [1,2] }\n"
        "map { family = interval_exchange; permutation = [3,2,1]\n"
        "  lengths = [alg:[-5/6,2/3], alg:[-4/5,4/5], alg:[79/30,-22/15]] }\n"
    )
    cases = (([], "conditional on disjointness beyond cap 150"), (["--assert-idoc"], "asserted"))
    for flags, label in cases:
        assert main(["classify", str(path), "--cap", "150", "--json"] + flags) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kgroups"]["family_route"]["label"] == label
        assert report["classification"]["conditional"] is True
    path.write_text(MULTIMODAL_SPEC)
    assert main(["classify", str(path), "--cap", "400", "--assert-orbit-infinite", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kgroups"]["family_route"]["label"] == "asserted"
    assert report["classification"]["conditional"] is True


def test_cli_markov_command(tmp_path, capsys):
    path = tmp_path / "tent.imapk"
    path.write_text(TENT_SPEC)
    code = main(["markov", str(path), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "markov"
    assert "kgroups" not in report


def test_cli_partition_flag(tmp_path, capsys):
    path = tmp_path / "realization.imapk"
    path.write_text("map { family = markov_realization; matrix = [[0,1,1],[1,0,1],[1,1,0]] }\n")
    code = main(["ktheory", str(path), "--partition", "[0,1/3,2/3,1]", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    checks = {c["check"]: c["status"] for c in report["consistency"]}
    assert checks["kgroups invariant under Markov partition refinement"] == "pass"
    assert report["markov"]["user_partition"]["matrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_cli_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.imapk"
    path.write_text("map { partition = [0, 1]; branch = {slope=3, intercept=0} }\n")
    code = main(["all", str(path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["all", "/nonexistent/x.imapk"]) == 1


def test_quoted_long_scalar_form():
    spec = parse_spec(
        'field { poly = [-2,0,1]; iso = [1,2] }\n'
        'map { family = restricted_tent; '
        's = "poly:[-2,0,1]; iso:[1,2]; elem:[0,1]" }\n'
    )
    assert spec.family == "restricted_tent"
    assert spec.map.branches[0].slope == spec.field.alpha()


# -- certificates that survive python -O ---------------------------------------

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))
SRC = Path(__file__).resolve().parents[1] / "src"
# its closure and the integer-pair walks of its turning points both end at
# the size limit
UNCERTIFIED_MULTIMODAL = Path(__file__).resolve().parent / "data" / "uncertified_multimodal.imapk"


@pytest.mark.parametrize("spec_path", SPECS + [UNCERTIFIED_MULTIMODAL], ids=lambda p: p.stem)
def test_cli_json_is_the_same_under_optimize(spec_path, capsys):
    # classify reaches every certificate check: the closure and its valuation
    # witness, the row-image law, the realization cursor, the K-theory routes
    code = main(["classify", str(spec_path), "--json"])
    expected = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "imapk", "classify", str(spec_path), "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == code, done.stderr
    assert done.stdout == expected


# -- a bad tolerance is an error message, not a traceback ------------------------

@pytest.mark.parametrize("tol, message", [
    ("0", "tol must be positive, got 0"),
    ("-1/3", "tol must be positive, got -1/3"),
    ("abc", "--tol expects a rational, got 'abc'"),
    ("1/0", "--tol expects a rational, got '1/0'"),
])
def test_cli_rejects_a_bad_tol(tmp_path, capsys, tol, message):
    path = tmp_path / "golden_beta.imapk"
    path.write_text(GOLDEN_BETA_SPEC)
    assert main(["entropy", str(path), "--tol=" + tol]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


def test_a_zero_tol_in_the_spec_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "tent.imapk"
    path.write_text(TENT_SPEC + "options { tol = 0 }\n")
    assert main(["entropy", str(path)]) == 1
    assert capsys.readouterr().err == "error: tol must be positive, got 0\n"
    with pytest.raises(ParameterOutOfRange):
        run("entropy", parse_spec(TENT_SPEC), {"tol": Fraction(0)})


# -- --partition takes spec syntax -------------------------------------------------

GOLDEN_BETA_PATH = str(Path(__file__).resolve().parents[1] / "specs" / "golden_beta.imapk")


def test_cli_partition_reads_field_elements_as_the_options_section_does(tmp_path, capsys):
    assert main(["markov", GOLDEN_BETA_PATH, "--partition", "[0, alg:[-1,1], 1]", "--json"]) == 0
    from_flag = json.loads(capsys.readouterr().out)["markov"]["user_partition"]
    path = tmp_path / "golden_beta.imapk"
    path.write_text(GOLDEN_BETA_SPEC + "options { partition = [0, alg:[-1,1], 1] }\n")
    assert main(["markov", str(path), "--json"]) == 0
    from_spec = json.loads(capsys.readouterr().out)["markov"]["user_partition"]
    assert from_flag is not None
    assert from_flag == from_spec


def test_cli_partition_error_names_the_flag(capsys):
    assert main(["markov", GOLDEN_BETA_PATH, "--partition", "[0, abc, 1]"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --partition: line 1, column 5: expected a scalar\n"
    assert captured.out == ""


# -- cap and depth out of range ------------------------------------------------------

@pytest.mark.parametrize("option, message", [
    ("cap = 0", "cap must be at least 1, got 0"),
    ("cap = -5", "cap must be at least 1, got -5"),
    ("depth = -3", "depth must not be negative, got -3"),
])
def test_out_of_range_cap_and_depth_in_the_spec_file_are_rejected(tmp_path, capsys, option, message):
    with pytest.raises(ParameterOutOfRange, match=message):
        run("markov", parse_spec(TENT_SPEC + "options { %s }\n" % option))
    path = tmp_path / "tent.imapk"
    path.write_text(TENT_SPEC + "options { %s }\n" % option)
    assert main(["markov", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("flag, message", [
    ("--cap=0", "cap must be at least 1, got 0"),
    ("--cap=-5", "cap must be at least 1, got -5"),
    ("--depth=-3", "depth must not be negative, got -3"),
])
def test_out_of_range_cap_and_depth_flags_are_rejected(tmp_path, capsys, flag, message):
    path = tmp_path / "tent.imapk"
    path.write_text(TENT_SPEC)
    assert main(["markov", str(path), flag]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


# -- the text report is an outline of the JSON report ---------------------------------

def _leaves(node):
    """Each leaf of a JSON value, as `to_json` writes it but with strings unquoted."""
    if isinstance(node, dict):
        return [leaf for value in node.values() for leaf in _leaves(value)]
    if isinstance(node, list) and node:
        return [leaf for value in node for leaf in _leaves(value)]
    return [node if isinstance(node, str) else json.dumps(node)]


def test_the_text_report_is_an_indented_outline_of_the_json_report():
    report = {
        "command": "classify",
        "map": {"partition": ["0", "1/2", "1"], "field": None, "notes": [], "extra": {}},
        "matrix": [[1, 1], [1, 0]],
        "consistency": [{"check": "stand-in", "status": "FAIL", "detail": "1 vs 2"}],
        "conditional": False,
    }
    assert render_text(report) == (
        "command: classify\n"
        "map:\n"
        "  partition: 0, 1/2, 1\n"
        "  field: null\n"
        "  notes: []\n"
        "  extra: {}\n"
        "matrix:\n"
        "  1: 1, 1\n"
        "  2: 1, 0\n"
        "consistency:\n"
        "  1:\n"
        "    check: stand-in\n"
        "    status: FAIL\n"
        "    detail: 1 vs 2\n"
        "conditional: false\n"
    )


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda p: p.stem)
def test_the_text_report_shows_every_leaf_of_the_json_report(spec_path):
    for command in SECTIONS:
        report, _ = run(command, parse_spec(spec_path.read_text()))
        text = render_text(report)
        # in order: each leaf after the one before it
        at = 0
        for leaf in _leaves(report):
            at = text.find(leaf, at)
            assert at >= 0, (command, leaf)
            at += len(leaf)
        sections = [line.split(":")[0] for line in text.splitlines() if line[0] != " "]
        assert sections == list(report), command


def test_orbit_text_shows_the_critical_closure_and_the_partition_orbits(capsys):
    assert main(["orbit", str(SRC.parent / "specs" / "tent.imapk")]) == 0
    text = capsys.readouterr().out
    assert "orbits:\n  critical_closure:\n    points: 0, 1/2, 1\n" in text
    assert "  partition_orbits:\n    1:\n      seed: 0\n" in text
    assert "    2:\n      seed: 1/2\n      points: 1/2, 1, 0\n" in text


def test_text_items_that_contain_commas_are_numbered(capsys):
    # the annotations and the entropy notes hold ", " themselves, so a
    # comma-joined line would run them together; the JSON lists stay as they are
    tent = str(SRC.parent / "specs" / "tent.imapk")
    assert main(["classify", tent]) == 0
    text = capsys.readouterr().out
    assert ("  notes:\n"
            "    1: unique trace on the core algebra, scaled by exp(-h) with h = ln 2\n"
            "    2: unique KMS state at inverse temperature h = ln 2\n") in text
    assert ("  annotations:\n"
            "    1: crossed product is separable, simple, purely infinite, nuclear; "
            "its K-groups determine it\n"
            "    2: core algebra is simple with a unique trace\n") in text
    assert "  partition: 0, 1/2, 1\n" in text
    assert main(["classify", tent, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]["annotations"] == [
        "crossed product is separable, simple, purely infinite, nuclear; its K-groups determine it",
        "core algebra is simple with a unique trace",
    ]


def test_a_failed_check_is_named_in_the_text_of_an_exit_3_run(tmp_path, capsys, monkeypatch):
    from imapk import report
    from imapk.snf import kgroups_from_incidence

    monkeypatch.setattr(
        report, "kgroups_from_incidence", lambda matrix, merged=None: kgroups_from_incidence([[3]])
    )
    path = tmp_path / "tent.imapk"
    path.write_text(TENT_SPEC)
    assert main(["classify", str(path)]) == 3
    text = capsys.readouterr().out
    assert ("    check: |m(1)| equals the torsion of the incidence cokernel\n"
            "    status: FAIL\n") in text


def test_help_lists_the_option_table_and_json(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", text, re.M)
    assert listed == ["--help"] + ["--" + name.replace("_", "-") for name in OPTIONS] + ["--json"]
