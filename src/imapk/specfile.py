"""Parser for the map specification files consumed by the CLI.

The grammar is a small key = value language with nested braces::

    field { poly = [-1,-1,1]; iso = [1,2] }
    map { family = beta; beta = alg:[0,1] }
    options { cap = 10000; assert_cyclic = true }

Scalars are rationals ``p/q``, field elements ``alg:[c0,c1,...]`` (relative
to the declared field), or the self-contained quoted form
``"poly:[...]; iso:[...]; elem:[...]"``.  Explicit maps list a partition and
one ``branch = {slope=..., intercept=...}`` entry per interval.

`families.FAMILIES` is the one declaration of each family's parameters and
their kinds; the field, options and branch keys are declared here.  Every
value is read by `read_value` according to its kind, and so is the CLI's
``--partition``.  A key the section (or the chosen family) does not take is
an error, and so is a key given twice, except ``branch``, which collects.
Each error gives the line and column of the offending key or value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ImapkError, SpecSemanticError, SpecSyntaxError
from .families import EXPLICIT_MAP, FAMILIES, FamilySpec, build
from .interval_map import PMMap, validate_map
from .scalar import NumberField, as_scalar, scalar_from_text

_PUNCT = "{}[]=;,"


@dataclass
class _Token:
    kind: str  # ident | number | string | punct | algref
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(_Token("punct", ";", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise SpecSyntaxError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise SpecSyntaxError("unterminated string", line, col)
            tokens.append(_Token("string", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "alg" and j < n and text[j] == ":":
                tokens.append(_Token("algref", word, line, col))
                j += 1
            else:
                tokens.append(_Token("ident", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError("unexpected character %r" % ch, line, col)
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def _peek(self):
        while self.pos < len(self.tokens) and self.tokens[self.pos].text == ";":
            self.pos += 1
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("punct", "", 1, 1)
            raise SpecSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def _expect(self, text):
        tok = self._next()
        if tok.text != text:
            raise SpecSyntaxError("expected %r, found %r" % (text, tok.text), tok.line, tok.col)
        return tok

    def sections(self):
        out = []
        while self._peek() is not None:
            name = self._next()
            if name.kind != "ident":
                raise SpecSyntaxError("expected a section name", name.line, name.col)
            out.append((name, self.entries(self._expect("{"))))
        return out

    def entries(self, brace, depth=0):
        """The entries up to the brace that closes `brace`."""
        entries = []
        while True:
            tok = self._peek()
            if tok is None:
                raise SpecSyntaxError("missing closing brace", brace.line, brace.col)
            if tok.text == "}":
                self._next()
                return entries
            if tok.text == ",":
                self._next()
                continue
            key = self._next()
            if key.kind != "ident":
                raise SpecSyntaxError("expected a key", key.line, key.col)
            self._expect("=")
            entries.append((key, self.value(depth)))

    def value(self, depth=0):
        tok = self._next()
        if depth > 32:  # bounds the recursion; no meaningful value nests this deep
            raise SpecSyntaxError("values nested too deeply", tok.line, tok.col)
        if tok.kind == "number":
            return ("number", tok)
        if tok.kind == "string":
            return ("string", tok)
        if tok.kind == "algref":
            lst = self.value(depth + 1)
            if lst[0] != "list":
                raise SpecSyntaxError("alg: must be followed by a list", tok.line, tok.col)
            return ("alg", tok, lst[2])
        if tok.kind == "ident":
            return ("word", tok)
        if tok.text == "[":
            items = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise SpecSyntaxError("unterminated list", tok.line, tok.col)
                if nxt.text == "]":
                    self._next()
                    return ("list", tok, items)
                items.append(self.value(depth + 1))
                sep = self._peek()
                if sep is not None and sep.text == ",":
                    self._next()
        if tok.text == "{":
            return ("dict", tok, self.entries(tok, depth + 1))
        raise SpecSyntaxError("unexpected token %r" % tok.text, tok.line, tok.col)


@dataclass
class MapSpecFile:
    field: NumberField | None
    map: PMMap
    family: str | None
    options: dict


_FIELD_KEYS = {"poly": ["rational"], "iso": ["rational"]}
# Each report option, once: name -> (kind, default, CLI help).  The options
# section reads its values by these kinds, and `report.PipelineOptions` and
# the CLI's flags are built from this table.
OPTIONS = {
    "cap": ("int", 10000, "orbit/breakpoint cap"),
    "tol": ("rational", Fraction(1, 10**6), "Perron enclosure tolerance as a rational"),
    "depth": ("int", 64, "eventual-surjectivity iteration depth"),
    "assert_cyclic": ("bool", False, "assert that the constant function generates the module"),
    "assert_idoc": ("bool", False, "assert orbit disjointness beyond the search limit"),
    "assert_orbit_infinite": (
        "bool", False, "assert the critical orbits are infinite beyond the search limit"
    ),
    "partition": (
        ["scalar"], None, "coarser Markov partition in spec syntax, e.g. '[0,1/3,2/3,1]'; "
        "points may be alg:[...] or quoted scalars",
    ),
}
_OPTION_KEYS = {name: kind for name, (kind, _, _) in OPTIONS.items()}
_BRANCH_KEYS = {"slope": "scalar", "intercept": "scalar"}


def _fail(message, tok):
    return SpecSemanticError(message, tok.line, tok.col)


def read_value(value, kind, field=None):
    """The Python value of a parsed spec value of the given kind.

    Kinds are "int", "rational", "bool", "name", "scalar", "branch" and
    [kind], a list of that kind.  A value of the wrong shape is a
    SpecSemanticError at its own line and column.
    """
    shape, tok = value[0], value[1]
    if isinstance(kind, list):
        if shape != "list":
            raise _fail("expected a list", tok)
        return [read_value(item, kind[0], field) for item in value[2]]
    if kind in ("int", "rational"):
        if shape != "number":
            raise _fail("expected a number", tok)
        try:
            x = Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise _fail("malformed number %r" % tok.text, tok) from None
        if kind == "int" and x.denominator != 1:
            raise _fail("expected an integer", tok)
        return int(x) if kind == "int" else x
    if kind in ("bool", "name"):
        if shape != "word" or kind == "bool" and tok.text not in ("true", "false"):
            raise _fail("expected true or false" if kind == "bool" else "expected a name", tok)
        return tok.text == "true" if kind == "bool" else tok.text
    if kind == "branch":
        if shape != "dict":
            raise _fail("expected {slope=..., intercept=...}", tok)
        branch = _read_entries(tok, value[2], _BRANCH_KEYS, field, "a branch")
        return branch["slope"], branch["intercept"]
    # a scalar
    if shape == "number":
        return as_scalar(read_value(value, "rational"))
    if shape == "alg" and field is None:
        raise _fail("alg:[...] needs a field section", tok)
    if shape not in ("alg", "string"):
        raise _fail("expected a scalar", tok)
    coeffs = read_value(("list", tok, value[2]), ["rational"]) if shape == "alg" else None
    try:
        return field.element(coeffs) if coeffs is not None else scalar_from_text(tok.text, field)
    except (ImapkError, ValueError, ZeroDivisionError) as exc:
        raise _fail(str(exc), tok) from None


def _read_entries(where, entries, kinds, field, what, required=True):
    """The entries of a section or branch, each read by its declared kind.

    A key outside `kinds`, or given twice, is an error; a key of kind
    ["branch"] instead collects one branch per entry.  With `required`, every
    declared key must be present.
    """
    out = {}
    for key, value in entries:
        kind = kinds.get(key.text)
        if kind is None:
            raise _fail("%s takes no key %r" % (what, key.text), key)
        if kind == ["branch"]:
            out.setdefault(key.text, []).append(read_value(value, "branch", field))
        elif key.text in out:
            raise _fail("duplicate key %r" % key.text, key)
        else:
            out[key.text] = read_value(value, kind, field)
    missing = [key for key in kinds if key not in out]
    if required and missing:
        raise _fail("%s needs %s" % (what, ", ".join(missing)), where)
    return out


def parse_option(key, text, field=None):
    """Read the text of one option value, written as in the options section."""
    parser = _Parser(_tokenize(text))
    value = parser.value()
    extra = parser._peek()
    if extra is not None:
        raise SpecSyntaxError("unexpected %r after the value" % extra.text, extra.line, extra.col)
    return read_value(value, _OPTION_KEYS[key], field)


def parse_spec(text):
    """Parse a spec document into a validated MapSpecFile."""
    sections = {}
    for name, entries in _Parser(_tokenize(text)).sections():
        if name.text not in ("field", "map", "options"):
            raise _fail("unknown section %r" % name.text, name)
        if name.text in sections:
            raise _fail("duplicate section %r" % name.text, name)
        sections[name.text] = (name, entries)
    if "map" not in sections:
        raise SpecSemanticError("missing map section")
    field = None
    if "field" in sections:
        poly_iso = _read_entries(*sections["field"], _FIELD_KEYS, None, "the field section")
        field = NumberField(poly_iso["poly"], poly_iso["iso"])
    options = {}
    if "options" in sections:
        options = _read_entries(
            *sections["options"], _OPTION_KEYS, field, "the options section", required=False
        )
    name, entries = sections["map"]
    named = [(key, value) for key, value in entries if key.text == "family"]
    family = _read_entries(name, named, {"family": "name"}, None, "the map section", False)
    family = family.get("family")
    if family is not None and family not in FAMILIES:
        raise _fail("unknown family %r" % family, named[0][0])
    rest = [(key, value) for key, value in entries if key.text != "family"]
    if family is None:
        params = _read_entries(name, rest, EXPLICIT_MAP[1], field, "a map without a family")
        m = validate_map(params["partition"], params["branch"])
    else:
        params = _read_entries(name, rest, FAMILIES[family][1], field, "family " + family)
        m = build(FamilySpec(family, params))
    return MapSpecFile(field, m, family, options)
