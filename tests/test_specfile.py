"""Spec text is read by one table: each family's parameters are declared once
in `families.FAMILIES`, and every value goes through `specfile.read_value`.

Malformed text of any shape is an `ImapkError` with a line and column, never
a Python exception, and the CLI turns it into `error: ...` with exit code 1.
"""

import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imapk.cli import main
from imapk.errors import ImapkError, SpecSemanticError, SpecSyntaxError
from imapk.families import EXPLICIT_MAP, FAMILIES
from imapk import specfile
from imapk.specfile import _OPTION_KEYS, parse_spec, read_value

GOLDEN_FIELD = "field { poly = [-1,-1,1]; iso = [1,2] }\n"

# each input once crashed the reader with a raw Python error, or was read
# while part of it was silently dropped
MALFORMED = [
    "map { family = interval_exchange; lengths = 3; permutation = [1] }",
    "map { family = uniform_pl; partition = [0, 1]; signs = 1; s = 1 }",
    "map { family = markov_realization; matrix = [1, 2] }",
    "map { family = tent }\noptions { cap = [1] }",
    "field { poly = [-1,-1,1]; iso = [1, [2]] }\nmap { family = tent }",
    "map { family = beta; beta = 1/0 }",
    "map { family = beta; beta = 1/2/3 }",
    'map { family = beta; beta = "abc" }',
    "map { family = tent\n  partition = [0, 1/2, 1]\n"
    "  branch = {slope=2, intercept=0}\n  branch = {slope=-2, intercept=2}\n}",
    "map { family = beta; beta = 2; s = 3/2 }",
    "map { family = beta; beta = 2; family = tent }",
]

# the grammar's own vocabulary: every section, every declared key with its
# kind, and atoms of every shape, including malformed numbers and bare words
KINDS = {key: kind for _, kinds in FAMILIES.values() for key, kind in kinds.items()}
KINDS.update(_OPTION_KEYS, family="name", poly=["rational"], iso=["rational"])
NUMBERS = ["0", "1", "-1", "2", "3", "1/2", "1/3", "2/3", "3/2", "5/2", "-5"]
ATOMS = NUMBERS + [
    "1/0", "1/2/3", "3/", "true", "false", "abc",
    '"abc"', '"1/2"', '"1/0"', '"poly:[-1,-1,1]; iso:[1,2]; elem:[0,1]"', '"poly:[1,1]"',
] + sorted(FAMILIES)


def _join(items):
    return ", ".join(items)


def _entries(keys, values):
    return st.lists(st.tuples(keys, values), max_size=4).map(
        lambda kvs: "; ".join("%s = %s" % kv for kv in kvs)
    )


# values of any shape: atoms, lists, alg:[...] and dicts, nested
anything = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda xs: "[%s]" % _join(xs)),
        st.lists(inner, max_size=3).map(lambda xs: "alg:[%s]" % _join(xs)),
        _entries(st.sampled_from(sorted(KINDS) + ["slope", "intercept"]), inner).map("{%s}".__mod__),
    ),
    max_leaves=8,
)


def shaped(kind):
    """Values of the right shape for a kind, so that the builders run too."""
    if isinstance(kind, list):
        return st.lists(shaped(kind[0]), max_size=4).map(lambda xs: "[%s]" % _join(xs))
    if kind == "branch":
        return st.tuples(shaped("scalar"), shaped("scalar")).map(
            lambda t: "{slope = %s, intercept = %s}" % t
        )
    if kind == "name":
        return st.sampled_from(sorted(FAMILIES))
    if kind == "bool":
        return st.sampled_from(["true", "false"])
    if kind == "scalar":
        return st.sampled_from(NUMBERS + ["alg:[0,1]", "alg:[-1,1]", "alg:[2,-1]"])
    return st.sampled_from(NUMBERS)


def _entries_for(key):
    """One entry for the key, or one to three for a key that collects."""
    if KINDS[key] == ["branch"]:
        return st.lists(st.one_of(shaped("branch"), anything), min_size=1, max_size=3).map(
            lambda values: "; ".join("%s = %s" % (key, v) for v in values)
        )
    return st.one_of(shaped(KINDS[key]), anything).map(lambda v: "%s = %s" % (key, v))


stray_entries = st.sampled_from(sorted(KINDS)).flatmap(_entries_for)


def _map_section(family):
    """The keys the family takes, in any order, and maybe one it does not."""
    kinds = FAMILIES[family][1] if family else EXPLICIT_MAP[1]
    head = ["family = %s" % family] if family else []
    return (
        st.tuples(*[_entries_for(key) for key in kinds], st.lists(stray_entries, max_size=1))
        .flatmap(lambda t: st.permutations(head + list(t[:-1]) + t[-1]))
        .map(lambda parts: "map { %s }" % "; ".join(parts))
    )


other_sections = st.tuples(
    st.sampled_from(["options", "options", "field", "map", "branch"]),
    st.lists(stray_entries, max_size=3),
).map(lambda t: "\n%s { %s }" % (t[0], "; ".join(t[1])))
documents = st.tuples(
    st.sampled_from(["", GOLDEN_FIELD]),
    st.sampled_from([None] + sorted(FAMILIES)).flatmap(_map_section),
    st.lists(other_sections, max_size=1).map("".join),
).map("".join)
# a cut anywhere leaves text that the grammar's sentences never end with
spec_texts = st.tuples(documents, st.integers(0, 15)).map(
    lambda t: t[0] if t[1] < 11 else t[0][: len(t[0]) * (t[1] - 11) // 5]
)


@pytest.fixture(scope="module")
def spec_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "fuzz.imapk"


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(spec_texts)
@example(GOLDEN_FIELD + "map { family = beta; beta = alg:[0,1] }")
@example(GOLDEN_FIELD + "map { family = beta; beta = alg:[0,1] }\noptions { partition = [0, 1] }")
@example("map { partition = [0, 1]; branch = {slope=1, intercept=0} }")
@example("map { family = tent }\noptions { partition = %s%s }" % ("[" * 5000, "]" * 5000))
@example(MALFORMED[0])
@example(MALFORMED[1])
@example(MALFORMED[2])
@example(MALFORMED[3])
@example(MALFORMED[4])
@example(MALFORMED[5])
@example(MALFORMED[6])
@example(MALFORMED[7])
@example(MALFORMED[8])
@example(MALFORMED[9])
@example(MALFORMED[10])
def test_fuzzed_spec_text_raises_only_imapk_errors(spec_file, text):
    try:
        parse_spec(text)
    except ImapkError:
        pass
    spec_file.write_text(text)
    assert main(["markov", str(spec_file), "--cap", "20", "--depth", "4"]) in (0, 1, 2, 3)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_spec_text_is_an_error_at_its_line_and_column(text, tmp_path, capsys):
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert err.value.line is not None and err.value.column is not None
    path = tmp_path / "bad.imapk"
    path.write_text(text)
    assert main(["markov", str(path)]) == 1
    message = capsys.readouterr().err
    assert message.startswith("error: line %d, column %d: " % (err.value.line, err.value.column))
    assert message.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("map { family = tent; s = 3/2 }", "line 1, column 22: family tent takes no key 's'"),
    ("map { family = beta; beta = 2; beta = 3 }", "line 1, column 32: duplicate key 'beta'"),
    ("map { family = beta; beta = [2] }", "line 1, column 29: expected a scalar"),
    ("map { family = beta; beta = 1/0 }", "line 1, column 29: malformed number '1/0'"),
    # the tokenizer takes any character str.isdigit accepts, such as a superscript
    ("map { family = beta; beta = 3\u00b2 }", "line 1, column 29: malformed number '3\u00b2'"),
    ("map { family = tent }\noptions { cap = 3\u00b2 }", "line 2, column 17: malformed number '3\u00b2'"),
    ("map { family = nosuch }", "line 1, column 7: unknown family 'nosuch'"),
    ("map { family = beta }", "line 1, column 1: family beta needs beta"),
    ("map { partition = [0, 1] }", "line 1, column 1: a map without a family needs branch"),
    ("map { partition = [0, 1]; branch = {slope=1} }",
     "line 1, column 36: a branch needs intercept"),
    ("map { family = tent }\noptions { cap = 1/2 }", "line 2, column 17: expected an integer"),
    ("map { family = tent }\noptions { assert_idoc = yes }",
     "line 2, column 25: expected true or false"),
])
def test_error_messages_name_the_offending_key_or_value(text, message):
    with pytest.raises(SpecSemanticError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_an_integer_token_is_read_without_a_fraction(monkeypatch):
    # a token without "/" is read by int; only a rational kind wraps it
    read = []

    def spy(*args):
        read.extend(args)
        return Fraction(*args)

    monkeypatch.setattr(specfile, "Fraction", spy)
    spec = parse_spec("map { family = markov_realization; matrix = [[0,1,1],[1,0,1],[1,1,0]] }\n"
                      "options { cap = 40 }")
    assert read == [] and spec.options["cap"] == 40
    for text, kind, want in [("-7", "int", -7), ("-7", "rational", Fraction(-7)),
                             ("4/2", "int", 2), ("4/2", "rational", Fraction(2)),
                             ("1/3", "rational", Fraction(1, 3))]:
        number = read_value(("number", specfile._Token("number", text, 1, 1)), kind)
        assert number == want and type(number) is type(want)
    assert read == [-7, "4/2", "4/2", "1/3"]


@pytest.mark.parametrize("text, message", [
    ("map { family = tent", "line 1, column 5: missing closing brace"),
    ("map { partition = [0, 1]\n  branch = {slope = 1, intercept = 0",
     "line 2, column 12: missing closing brace"),
])
def test_an_unclosed_brace_is_named_where_it_opens(text, message):
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text)
    assert str(err.value) == message


def test_branch_entries_collect_in_order_and_may_precede_the_partition(tent):
    spec = parse_spec(
        "map { branch = {slope=2, intercept=0}; branch = {slope=-2, intercept=2}\n"
        "      partition = [0, 1/2, 1] }"
    )
    assert spec.family is None
    assert spec.map == tent


def test_options_may_name_field_elements_before_the_field_section():
    spec = parse_spec(
        "options { partition = [0, alg:[-1,1], 1] }\n"
        + GOLDEN_FIELD
        + "map { family = beta; beta = alg:[0,1] }"
    )
    assert spec.options["partition"][1] == spec.field.alpha() - 1


def test_a_field_with_a_huge_constant_term_parses_at_once():
    # the rational-root test once trial-divided up to the square root of 10^20 + 3
    text = (
        "# Q(sqrt(10^20 + 3))\n"
        "field { poly = [-100000000000000000003, 0, 1]; iso = [1, 100000000000] }\n"
        "map { family = tent }\n"
    )
    start = time.perf_counter()
    spec = parse_spec(text)
    assert time.perf_counter() - start < 1
    assert spec.field.poly == (-(10**20 + 3), 0, 1)
