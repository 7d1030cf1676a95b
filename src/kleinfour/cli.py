"""Command-line interface.

Subcommands: check, construct, invariants, table, census, hyperelliptic.
JSON is the machine format (every document carries "schema": "k4/1");
tables are TSV for eyeballing and diffing.  Exit codes: 0 success or
realizable, 1 impossible cell, 2 bad input, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ascurve import ASCurve, DegenerateCover
from .census import CensusViolation, run_census
from .construct import NotRealizable, construct
from .field import GF2, GF4
from .klein4 import MAX_GENUS, InvalidCover, InvalidPartition, partitions_of
from .ratfun import parse_ratfun
from .realize import (RANK_ONLY_CITATION, hyperelliptic_extra_involution,
                      partition_validate, realizable, realizable_any)
from .zeta import verify

SCHEMA = "k4/1"

EXIT_OK = 0
EXIT_IMPOSSIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3

_FIELDS = {"gf2": GF2, "gf4": GF4}


def _field_from_flag(name):
    if name is None:
        name = os.environ.get("K4_DEFAULT_FIELD", "gf2")
    try:
        return _FIELDS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; choose gf2 or gf4")


def _parse_partition(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidPartition(f"partition must be three integers, got {text!r}")
    try:
        return tuple(int(t) for t in parts)
    except ValueError:
        raise InvalidPartition(f"partition must be three integers, got {text!r}")


def _emit(doc):
    doc = {"schema": SCHEMA, **doc}
    print(json.dumps(doc, indent=2))


def cmd_check(args):
    if args.partition is None:
        ok = realizable_any(args.g, args.s)
        _emit({"g": args.g, "sigma": args.s, "exists": ok,
               "clause": "none" if ok else "rank-only",
               "citation": RANK_ONLY_CITATION})
        return EXIT_OK if ok else EXIT_IMPOSSIBLE
    p = partition_validate(args.g, _parse_partition(args.partition))
    verdict = realizable(args.g, args.s, p)
    _emit({"g": args.g, "sigma": args.s, "type": list(p.entries),
           **verdict.to_json()})
    return EXIT_OK if verdict.exists else EXIT_IMPOSSIBLE


def cmd_construct(args):
    p = partition_validate(args.g, _parse_partition(args.partition))
    try:
        cover, recipe = construct(args.g, args.s, p)
    except NotRealizable as e:
        _emit({"g": args.g, "sigma": args.s, "type": list(p.entries),
               **e.verdict.to_json()})
        return EXIT_IMPOSSIBLE
    doc = {"witness": cover.to_json(), "recipe": recipe.to_json()}
    code = EXIT_OK
    if args.verify_depth is not None:
        report = verify(cover, args.verify_depth)
        doc["report"] = report.to_json()
        if not report.confirmed:
            code = EXIT_MISMATCH
    _emit(doc)
    return code


def cmd_invariants(args):
    field = _field_from_flag(args.field)
    f = parse_ratfun(field, args.function)
    curve = ASCurve(f)
    _emit({"curve": curve.to_json(),
           "genus": curve.genus, "two_rank": curve.two_rank})
    return EXIT_OK


def _table_rows(g):
    for p in partitions_of(g):
        for s in range(g + 1):
            yield s, p, realizable(g, s, p)


def cmd_table(args):
    g = args.g
    if g > MAX_GENUS:
        raise ValueError(f"table accepts g up to {MAX_GENUS}, got {g}")
    rows = []
    worst = EXIT_OK
    for s, p, verdict in _table_rows(g):
        row = {"g": g, "sigma": s, "type": list(p.entries),
               "exists": verdict.exists, "clause": verdict.clause,
               "citation": verdict.citation}
        if args.verify and verdict.exists:
            cover, _ = construct(g, s, p)
            depth = max(sub.genus for sub in cover.quotients)
            report = verify(cover, depth)
            row["verified"] = report.confirmed
            if not report.confirmed:
                worst = EXIT_MISMATCH
        rows.append(row)
    if args.json:
        _emit({"g": g, "rows": rows})
    else:
        cols = ["g", "sigma", "type", "exists", "clause"]
        if args.verify:
            cols.append("verified")
        print("\t".join(cols))
        for row in rows:
            print("\t".join(_cell_text(row.get(c)) for c in cols))
    return worst


def _cell_text(v):
    if v is None:
        return "-"
    if isinstance(v, list):
        return "{%s}" % ",".join(str(x) for x in v)
    return str(v)


def cmd_census(args):
    field = _field_from_flag(args.field)
    try:
        cells = run_census(field, args.max_deg)
    except CensusViolation as e:
        print(f"census violation: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.json:
        _emit({"field": field.to_json(), "max_deg": args.max_deg,
               "cells": [c.to_json() for c in cells]})
    else:
        print("g\tsigma\ttype\tcovers\texample")
        for c in cells:
            print("%d\t%d\t{%s}\t%d\t%s | %s"
                  % (c.g, c.sigma, ",".join(str(x) for x in c.type),
                     c.witness_count, c.example.f1, c.example.f2))
    return EXIT_OK


def cmd_hyperelliptic(args):
    ok = hyperelliptic_extra_involution(args.g, args.s)
    _emit({"g": args.g, "sigma": args.s, "extra_involution": ok,
           "citation": "an extra involution exists if and only if "
                       "g = sigma (mod 2)"})
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="k4",
        description="Klein-four covers of the projective line in "
                    "characteristic 2: realizability, witnesses, and "
                    "point-count verification.")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted for compatibility and ignored: output "
                         "does not depend on it")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="is (g, sigma[, type]) realizable?")
    c.add_argument("-g", type=int, required=True)
    c.add_argument("-s", type=int, required=True)
    c.add_argument("-p", "--partition", help="genus triple, e.g. 2,2,1")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("construct", help="emit a witness pair of equations")
    c.add_argument("-g", type=int, required=True)
    c.add_argument("-s", type=int, required=True)
    c.add_argument("-p", "--partition", required=True)
    c.add_argument("--verify-depth", type=int, default=None,
                   help="also run the point-count oracle to this depth")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("invariants",
                       help="genus and 2-rank of y^2+y = f(x)")
    c.add_argument("-f", "--function", required=True,
                   help='right-hand side, e.g. "x^3 + 1/x"')
    c.add_argument("--field", choices=sorted(_FIELDS),
                   help="coefficient field (default gf2 or K4_DEFAULT_FIELD)")
    c.set_defaults(func=cmd_invariants)

    c = sub.add_parser("table", help="full verdict table for a genus")
    c.add_argument("-g", type=int, required=True)
    c.add_argument("--verify", action="store_true",
                   help="construct and oracle-check every realizable cell")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_table)

    c = sub.add_parser("census",
                       help="enumerate all small covers, check soundness")
    c.add_argument("--field", choices=sorted(_FIELDS),
                   help="coefficient field (default gf2 or K4_DEFAULT_FIELD)")
    c.add_argument("--max-deg", type=int, default=2)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_census)

    c = sub.add_parser("hyperelliptic",
                       help="can a hyperelliptic curve of genus g and "
                            "2-rank sigma have an extra involution?")
    c.add_argument("-g", type=int, required=True)
    c.add_argument("-s", type=int, required=True)
    c.set_defaults(func=cmd_hyperelliptic)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidPartition, InvalidCover, DegenerateCover, ValueError,
            ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
