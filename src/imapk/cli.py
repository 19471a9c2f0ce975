"""Command line front end: imapk <command> <specfile> [flags]."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import ImapkError
from .report import SECTIONS, render_text, run, to_json
from .specfile import OPTIONS, parse_option, parse_spec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imapk",
        description="Exact invariants of piecewise monotonic interval maps",
    )
    parser.add_argument("command", choices=list(SECTIONS))
    parser.add_argument("specfile", help="map specification file")
    for name, (kind, default, text) in OPTIONS.items():
        if kind in ("int", "rational"):
            text = "%s (default %s)" % (text, default)
        how = {"action": "store_true"} if kind == "bool" else {"type": int if kind == "int" else str}
        parser.add_argument(_flag(name), default=None, help=text, **how)
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _flag(name):
    return "--" + name.replace("_", "-")


def _overrides(args, field):
    """The options given as flags; argparse reads the integers and booleans."""
    out = {}
    for name, (kind, _, _) in OPTIONS.items():
        value = getattr(args, name)
        if value is None:
            continue
        if kind == "rational":
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ImapkError("%s expects a rational, got %r" % (_flag(name), value)) from None
        elif isinstance(kind, list):
            try:
                value = parse_option(name, value, field)
            except ImapkError as exc:
                raise ImapkError("%s: %s" % (_flag(name), exc)) from None
        out[name] = value
    return out


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.specfile, "r", encoding="utf-8") as handle:
            text = handle.read()
        spec = parse_spec(text)
        report, code = run(args.command, spec, _overrides(args, spec.field))
    except (ImapkError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(to_json(report))
    else:
        sys.stdout.write(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
