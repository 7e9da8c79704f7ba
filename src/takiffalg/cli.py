"""Command line front end.

    takiff build --m 2 sl2 --out sl2m2.json
    takiff build --multi 1,1 heis1 --out h11.json
    takiff invariants --m 1 sl2 --out family.json
    takiff verify --m 1 --trials 5 --seed 0 sl2 --report report.json
    takiff verify --multi 1,1 sl3
    takiff nilfiber --levels 3 --seed 0 sl2 --report nf.json
    takiff catalog list
    takiff catalog export sl3 --out sl3.json

Inputs are JSON files in the algebra schema; catalog names work anywhere a
path is expected.  ``--m M`` is ``--multi M``: `build` goes through
`multi_current` and `verify` through `verify_multi_current`.  `build` and
`invariants` print the validation report of a base that breaks Jacobi.
Exit codes: 0 all checks passed (possibly sampled), 1 a check failed,
2 bad input or arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import algio, catalog, nilfiber, verify
from .liealg import (DEFAULT_TRIALS, AlgebraError, AlgebraFormatError,
                     InvariantSet, LieAlgebra, validate)
from .polyring import ParseError
from .raistauvel import build_family
from .report import FAIL, Report
from .takiff import multi_current

__all__ = ["main"]


class InputError(Exception):
    pass


def _resolve_input(source: str) -> tuple[LieAlgebra, InvariantSet]:
    """Catalog name or path to an algebra JSON file."""
    if source in catalog.NAMES:
        entry = catalog.load(source)
        return entry.algebra, entry.invariants
    if Path(source).is_file():
        return algio.load_algebra_file(source)
    raise InputError(
        f"'{source}' is neither a catalog name ({', '.join(catalog.NAMES)}) "
        "nor an existing file")


def _degrees(args: argparse.Namespace) -> list[int]:
    """The truncation degrees: [M] for --m M, else the --multi list."""
    if args.multi is None:
        return [args.m]
    try:
        degrees = [int(part) for part in args.multi.split(",")]
    except ValueError:
        raise InputError(f"--multi expects comma-separated integers, got '{args.multi}'")
    if not degrees or any(d < 1 for d in degrees):
        raise InputError("--multi degrees must all be at least 1")
    return degrees


def _emit_report(rep: Report, path: str | None) -> int:
    for line in rep.human_lines():
        print(line)
    if path:
        Path(path).write_text(rep.to_json(), encoding="utf-8")
        print(f"wrote {path}")
    return 0 if rep.summary != FAIL else 1


def _cmd_build(args: argparse.Namespace) -> int:
    L, _ = _resolve_input(args.input)
    base = validate(L)
    if base.summary == FAIL:
        return _emit_report(base, None)
    Lm = multi_current(L, _degrees(args))
    algio.write_algebra_file(args.out, Lm)
    print(f"wrote {args.out} ({Lm.label}, dim {Lm.dim})")
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    L, fs = _resolve_input(args.input)
    base = validate(L)
    if base.summary == FAIL:
        return _emit_report(base, None)
    if not fs.polys:
        raise InputError(f"'{args.input}' supplies no invariants to expand")
    fam = build_family(fs, args.m)
    payload = algio.family_to_dict(fam)
    if args.out:
        algio.dump_json(args.out, payload)
        print(f"wrote {args.out} ({len(fam)} polynomials)")
    else:
        import json
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    L, fs = _resolve_input(args.input)
    rep = verify.verify_multi_current(L, fs, _degrees(args), trials=args.trials, seed=args.seed)
    return _emit_report(rep, args.report)


def _cmd_nilfiber(args: argparse.Namespace) -> int:
    L, _ = _resolve_input(args.input)
    if not L.structure_equal(catalog.load("sl2").algebra):
        raise InputError("the null-fiber chain is implemented for sl2 only")
    if not 1 <= args.levels <= 3:
        raise InputError("--levels must be 1, 2, or 3")
    rep = nilfiber.sl2_chain(levels=args.levels, seed=args.seed)
    return _emit_report(rep, args.report)


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in catalog.NAMES:
            entry = catalog.load(name)
            print(f"{name:12s} dim {entry.algebra.dim:2d}  "
                  f"ind {entry.expected['index']}  {entry.summary}")
        return 0
    entry = catalog.load(args.name)
    algio.write_algebra_file(args.out, entry.algebra,
                             invariants=entry.invariants, flags=entry.flags)
    print(f"wrote {args.out}")
    return 0


def _add_depth_group(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", type=int, metavar="M",
                   help="truncation degree (single step)")
    g.add_argument("--multi", metavar="M1,M2,..",
                   help="iterated truncation degrees, innermost first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="takiff",
        description="Truncated current algebras: construction, invariant "
                    "expansion, and structural verification on exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the truncation and write it out")
    _add_depth_group(p)
    p.add_argument("input", help="catalog name or algebra JSON file")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("invariants", help="expand the invariants into a family")
    p.add_argument("--m", type=int, required=True, metavar="M")
    p.add_argument("input", help="catalog name or algebra JSON file")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("verify", help="run the structural checks")
    _add_depth_group(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help=f"samples for rank estimates (default {DEFAULT_TRIALS})")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("input", help="catalog name or algebra JSON file")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("nilfiber", help="null-fiber chain diagnostics (sl2)")
    p.add_argument("--levels", type=int, default=3, help="chain depth, 1 to 3")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("input", help="must resolve to sl2")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_nilfiber)

    p = sub.add_parser("catalog", help="list or export built-in algebras")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("list", help="list catalog entries")
    c.set_defaults(func=_cmd_catalog, action="list")
    c = csub.add_parser("export", help="write one entry as JSON")
    c.add_argument("name", help="catalog entry name")
    c.add_argument("--out", required=True, help="output path")
    c.set_defaults(func=_cmd_catalog, action="export")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", None) is not None and args.m < 1:
        print("error: --m must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "trials", 1) < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except (InputError, AlgebraFormatError, ParseError, AlgebraError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
