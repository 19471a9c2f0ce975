"""A report depends on the map, not on how the spec file spells it.

Family facts are read off the validated map, so a family spelling, an
explicit partition with branches and another family's spelling of the same
map give the same `classify` and `all` reports, apart from `map.family`.
"""

from pathlib import Path

import pytest

from imapk.ktheory import minimal_polynomial_iter
from imapk.report import run
from imapk.specfile import parse_spec

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))
# a small cap keeps the capped searches of golden_exchange and multimodal short
OVERRIDES = {"cap": 200}
GOLDEN_FIELD = "field { poly = [-1,-1,1]; iso = [1,2] }\n"
GOLDEN_LENGTHS = '"poly:[-1,-1,1]; iso:[1,2]; elem:[2,-1]"'


def explicit_spelling(m):
    """Spec text of the map m as an explicit partition and branches; field
    elements are written in the quoted self-contained form."""
    quote = lambda x: '"%s"' % x.text()
    lines = ["map {", "  partition = [%s]" % ", ".join(quote(p) for p in m.partition)]
    for b in m.branches:
        lines.append("  branch = { slope = %s, intercept = %s }" % (quote(b.slope), quote(b.intercept)))
    return "\n".join(lines + ["}"]) + "\n"


def reports(text):
    """The classify and all reports of a spec text, without map.family."""
    out = []
    for command in ("classify", "all"):
        report, code = run(command, parse_spec(text), OVERRIDES)
        del report["map"]["family"]
        out.append((report, code))
    return out


# name -> (family spelling, other spellings of the same map)
SPELLINGS = {
    "restricted_tent": (
        "map { family = restricted_tent; s = 3/2 }",
        [
            "map { family = uniform_pl; partition = [0, 1/3, 1]; signs = [1, -1]; s = 3/2 }",
            "map { partition = [0, 1/3, 1]; branch = { slope = 3/2, intercept = 1/2 }; "
            "branch = { slope = -3/2, intercept = 3/2 } }",
        ],
    ),
    "beta_five_halves": (
        "map { family = beta; beta = 5/2 }",
        [
            "map { family = multimodal; partition = [0, 2/5, 4/5, 1]; "
            "branch = { slope = 5/2, intercept = 0 }; branch = { slope = 5/2, intercept = -1 }; "
            "branch = { slope = 5/2, intercept = -2 } }",
        ],
    ),
    "exchange_in_place": (
        # an exchange that leaves both intervals in place is the identity map;
        # the explicit spelling keeps the two branches so that they merge too
        GOLDEN_FIELD
        + "map { family = interval_exchange; lengths = [alg:[2,-1], alg:[-1,1]]; "
        "permutation = [1, 2] }",
        [
            "map { partition = [0, %s, 1]; branch = { slope = 1, intercept = 0 }; "
            "branch = { slope = 1, intercept = 0 } }" % GOLDEN_LENGTHS,
        ],
    ),
    "full_two_shift": (
        # the realization of the full 2-shift is the doubling map
        "map { family = markov_realization; matrix = [[1,1],[1,1]] }",
        ["map { family = beta; beta = 2 }"],
    ),
}


@pytest.mark.parametrize("spec_path", SPECS, ids=lambda p: p.stem)
def test_shipped_specs_report_the_same_when_spelled_explicitly(spec_path):
    text = spec_path.read_text()
    assert reports(explicit_spelling(parse_spec(text).map)) == reports(text)


@pytest.mark.parametrize("name", SPELLINGS)
def test_other_spellings_of_a_family_map_report_the_same(name):
    family, others = SPELLINGS[name]
    want = reports(family)
    for text in others:
        assert parse_spec(text).map == parse_spec(family).map
        assert reports(text) == want, text


def test_the_realization_of_the_full_two_shift_is_the_doubling_map():
    report, code = run("classify", parse_spec(SPELLINGS["full_two_shift"][0]), OVERRIDES)
    assert code == 0
    assert report["classification"]["verdict"] == "cuntz_algebra"
    assert report["classification"]["index"] == 2


# phi as the root of x^2 - x - 1 in [1, 2], as the shipped specs spell it,
# and as (1 + sqrt 5)/2 with sqrt 5 the root of x^2 - 5 in [2, 3]
SQRT5_FIELD = "field { poly = [-5,0,1]; iso = [2,3] }\n"
PRESENTATIONS = {
    "golden_beta": (
        "map { family = beta; beta = alg:[0,1] }",
        "map { family = beta; beta = alg:[1/2,1/2] }",
    ),
    "golden_exchange": (
        # lengths 1/phi^2 = 2 - phi = (3 - sqrt 5)/2 and 1/phi = phi - 1 = (sqrt 5 - 1)/2
        "map { family = interval_exchange; lengths = [alg:[2,-1], alg:[-1,1]]; permutation = [2,1] }",
        "map { family = interval_exchange; lengths = [alg:[3/2,-1/2], alg:[-1/2,1/2]]; "
        "permutation = [2,1] }",
    ),
}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_the_golden_maps_do_not_depend_on_the_presentation_of_phi(name):
    over_phi, over_sqrt5 = PRESENTATIONS[name]
    shipped = parse_spec((SPECS[0].parent / ("%s.imapk" % name)).read_text()).map
    assert parse_spec(GOLDEN_FIELD + over_phi).map == shipped
    found = []
    for text in (GOLDEN_FIELD + over_phi, SQRT5_FIELD + over_sqrt5):
        spec = parse_spec(text)
        report, code = run("classify", spec)
        found.append((spec.map.field.poly, minimal_polynomial_iter(spec.map).poly,
                      report["kgroups"], report["classification"], code))
    (phi_poly, *from_phi), (sqrt5_poly, *from_sqrt5) = found
    assert (phi_poly, sqrt5_poly) == ((-1, -1, 1), (-5, 0, 1))
    assert from_phi == from_sqrt5
