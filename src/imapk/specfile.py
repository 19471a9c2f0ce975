"""Parser for the map specification files consumed by the CLI.

The grammar is a small key = value language with nested braces::

    field { poly = [-1,-1,1]; iso = [1,2] }
    map { family = beta; beta = alg:[0,1] }
    options { cap = 10000; assert_cyclic = true }

Scalars are rationals ``p/q``, field elements ``alg:[c0,c1,...]`` (relative
to the declared field), or the self-contained quoted form
``"poly:[...]; iso:[...]; elem:[...]"``.  Explicit maps list a partition and
one ``branch = {slope=..., intercept=...}`` entry per interval.  Unknown keys
are rejected with a line/column diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpecSemanticError, SpecSyntaxError
from .families import FamilySpec, build
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
            self._expect("{")
            out.append((name, self.entries()))
        return out

    def entries(self):
        entries = []
        while True:
            tok = self._peek()
            if tok is None:
                raise SpecSyntaxError("missing closing brace", 0, 0)
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
            entries.append((key, self.value()))

    def value(self):
        tok = self._next()
        if tok.kind == "number":
            return ("number", tok)
        if tok.kind == "string":
            return ("string", tok)
        if tok.kind == "algref":
            lst = self.value()
            if lst[0] != "list":
                raise SpecSyntaxError("alg: must be followed by a list", tok.line, tok.col)
            return ("alg", tok, lst[1])
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
                    return ("list", items)
                items.append(self.value())
                sep = self._peek()
                if sep is not None and sep.text == ",":
                    self._next()
        if tok.text == "{":
            self.pos -= 1
            self._expect("{")
            return ("dict", self.entries())
        raise SpecSyntaxError("unexpected token %r" % tok.text, tok.line, tok.col)


@dataclass
class MapSpecFile:
    field: NumberField | None
    map: PMMap
    family: str | None
    options: dict


_OPTION_KEYS = {
    "cap": "int",
    "tol": "rational",
    "depth": "int",
    "assert_cyclic": "bool",
    "assert_idoc": "bool",
    "assert_orbit_infinite": "bool",
    "partition": "scalars",
}

_FAMILY_KEYS = {
    "tent": set(),
    "restricted_tent": {"s"},
    "uniform_pl": {"partition", "signs", "s"},
    "beta": {"beta"},
    "interval_exchange": {"lengths", "permutation"},
    "markov_realization": {"matrix"},
    "multimodal": {"partition", "branch"},
}


def _to_scalar(value, field):
    kind = value[0]
    if kind == "number":
        return as_scalar(Fraction(value[1].text))
    if kind == "string":
        return scalar_from_text(value[1].text, field)
    if kind == "alg":
        tok = value[1]
        if field is None:
            raise SpecSemanticError(
                "alg:[...] needs a field section", tok.line, tok.col
            )
        return field.element([_to_fraction(v) for v in value[2]])
    tok = value[1] if len(value) > 1 and hasattr(value[1], "line") else None
    raise SpecSemanticError(
        "expected a scalar value", tok.line if tok else None, tok.col if tok else None
    )


def _to_fraction(value):
    if value[0] != "number":
        tok = value[1]
        raise SpecSemanticError("expected a rational", tok.line, tok.col)
    return Fraction(value[1].text)


def _to_int(value):
    f = _to_fraction(value)
    if f.denominator != 1:
        tok = value[1]
        raise SpecSemanticError("expected an integer", tok.line, tok.col)
    return int(f)


def _to_bool(value, key):
    if value[0] == "word" and value[1].text in ("true", "false"):
        return value[1].text == "true"
    tok = value[1]
    raise SpecSemanticError("%s must be true or false" % key.text, tok.line, tok.col)


def parse_spec(text):
    """Parse a spec document into a validated MapSpecFile."""
    parser = _Parser(_tokenize(text))
    sections = parser.sections()
    field = None
    map_entries = None
    options = {}
    seen = set()
    for name, entries in sections:
        if name.text in seen:
            raise SpecSemanticError("duplicate section %r" % name.text, name.line, name.col)
        seen.add(name.text)
        if name.text == "field":
            field = _parse_field(entries)
        elif name.text == "map":
            map_entries = entries
        elif name.text == "options":
            options = _parse_options(entries, field)
        else:
            raise SpecSemanticError("unknown section %r" % name.text, name.line, name.col)
    if map_entries is None:
        raise SpecSemanticError("missing map section")
    return _parse_map(map_entries, field, options)


def _parse_field(entries):
    poly = iso = None
    for key, value in entries:
        if key.text == "poly":
            if value[0] != "list":
                raise SpecSemanticError("poly must be a list", key.line, key.col)
            poly = [_to_fraction(v) for v in value[1]]
        elif key.text == "iso":
            if value[0] != "list" or len(value[1]) != 2:
                raise SpecSemanticError("iso must be [lo, hi]", key.line, key.col)
            iso = tuple(_to_fraction(v) for v in value[1])
        else:
            raise SpecSemanticError("unknown field key %r" % key.text, key.line, key.col)
    if poly is None or iso is None:
        raise SpecSemanticError("field section needs poly and iso")
    return NumberField(poly, iso)


def _parse_options(entries, field):
    out = {}
    for key, value in entries:
        spec = _OPTION_KEYS.get(key.text)
        if spec is None:
            raise SpecSemanticError("unknown option %r" % key.text, key.line, key.col)
        if spec == "int":
            out[key.text] = _to_int(value)
        elif spec == "rational":
            out[key.text] = _to_fraction(value)
        elif spec == "bool":
            out[key.text] = _to_bool(value, key)
        elif spec == "scalars":
            if value[0] != "list":
                raise SpecSemanticError("%s must be a list" % key.text, key.line, key.col)
            out[key.text] = [_to_scalar(v, field) for v in value[1]]
    return out


def _parse_map(entries, field, options):
    family = None
    params = {}
    partition = None
    branches = []
    for key, value in entries:
        if key.text == "family":
            if value[0] != "word":
                raise SpecSemanticError("family must be a name", key.line, key.col)
            family = value[1].text
            if family not in _FAMILY_KEYS:
                raise SpecSemanticError(
                    "unknown family %r" % family, key.line, key.col
                )
        elif key.text == "partition":
            if value[0] != "list":
                raise SpecSemanticError("partition must be a list", key.line, key.col)
            partition = [_to_scalar(v, field) for v in value[1]]
        elif key.text == "branch":
            if value[0] != "dict":
                raise SpecSemanticError("branch must be {slope=..., intercept=...}", key.line, key.col)
            slope = intercept = None
            for bkey, bval in value[1]:
                if bkey.text == "slope":
                    slope = _to_scalar(bval, field)
                elif bkey.text == "intercept":
                    intercept = _to_scalar(bval, field)
                else:
                    raise SpecSemanticError(
                        "unknown branch key %r" % bkey.text, bkey.line, bkey.col
                    )
            if slope is None or intercept is None:
                raise SpecSemanticError("branch needs slope and intercept", key.line, key.col)
            branches.append((slope, intercept))
        elif key.text == "s":
            params["s"] = _to_scalar(value, field)
        elif key.text == "beta":
            params["beta"] = _to_scalar(value, field)
        elif key.text == "lengths":
            params["lengths"] = [_to_scalar(v, field) for v in value[1]]
        elif key.text == "permutation":
            params["permutation"] = [_to_int(v) for v in value[1]]
        elif key.text == "signs":
            params["signs"] = [_to_int(v) for v in value[1]]
        elif key.text == "matrix":
            if value[0] != "list":
                raise SpecSemanticError("matrix must be a list of rows", key.line, key.col)
            params["matrix"] = [[_to_int(x) for x in row[1]] for row in value[1]]
        else:
            raise SpecSemanticError("unknown map key %r" % key.text, key.line, key.col)

    if family is not None:
        needed = _FAMILY_KEYS[family]
        if family == "uniform_pl":
            params["partition"] = partition
        if family == "multimodal":
            params["partition"] = partition
            params["branches"] = branches
        missing = {k for k in needed if k not in params and k not in ("partition", "branch")}
        if family in ("uniform_pl", "multimodal") and partition is None:
            missing.add("partition")
        if family == "multimodal" and not branches:
            missing.add("branch")
        if missing:
            raise SpecSemanticError(
                "family %s needs %s" % (family, ", ".join(sorted(missing)))
            )
        return MapSpecFile(field, build(FamilySpec(family, params)), family, options)
    if partition is None or not branches:
        raise SpecSemanticError("map section needs a family or partition + branches")
    return MapSpecFile(field, validate_map(partition, branches), None, options)
