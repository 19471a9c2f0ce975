"""Command line front end: imapk <command> <specfile> [flags]."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import ImapkError
from .report import render_text, run, to_json
from .specfile import parse_option, parse_spec

COMMANDS = ("orbit", "markov", "ktheory", "entropy", "classify", "all")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imapk",
        description="Exact invariants of piecewise monotonic interval maps",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("specfile", help="map specification file")
    parser.add_argument("--cap", type=int, default=None,
                        help="orbit/breakpoint cap (default 10000)")
    parser.add_argument("--tol", type=str, default=None,
                        help="Perron enclosure tolerance as a rational (default 1/1000000)")
    parser.add_argument("--depth", type=int, default=None,
                        help="eventual-surjectivity iteration depth (default 64)")
    parser.add_argument("--assert-cyclic", action="store_true",
                        help="assert that the constant function generates the module")
    parser.add_argument("--assert-idoc", action="store_true",
                        help="assert orbit disjointness beyond the search limit")
    parser.add_argument("--assert-orbit-infinite", action="store_true",
                        help="assert the critical orbits are infinite beyond the search limit")
    parser.add_argument("--partition", type=str, default=None,
                        help="coarser Markov partition in spec syntax, e.g. '[0,1/3,2/3,1]'; "
                        "points may be alg:[...] or quoted scalars")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _overrides(args, field):
    out = {}
    if args.cap is not None:
        out["cap"] = args.cap
    if args.tol is not None:
        try:
            out["tol"] = Fraction(args.tol)
        except (ValueError, ZeroDivisionError):
            raise ImapkError("--tol expects a rational, got %r" % args.tol) from None
    if args.depth is not None:
        out["depth"] = args.depth
    if args.assert_cyclic:
        out["assert_cyclic"] = True
    if args.assert_idoc:
        out["assert_idoc"] = True
    if args.assert_orbit_infinite:
        out["assert_orbit_infinite"] = True
    if args.partition is not None:
        try:
            out["partition"] = parse_option("partition", args.partition, field)
        except ImapkError as exc:
            raise ImapkError("--partition: %s" % exc) from None
    return out


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.specfile, "r", encoding="utf-8") as handle:
            text = handle.read()
        spec = parse_spec(text)
        report, code = run(args.command, spec, _overrides(args, spec.field))
    except ImapkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(to_json(report))
    else:
        sys.stdout.write(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
