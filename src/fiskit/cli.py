"""Command-line front end.

Each subcommand is a thin wrapper over one library operation; outputs
are byte-stable because every search and every serializer is
deterministic.  Exit codes encode verdicts: 0 yes, 1 no, 2 error, so
shell harnesses need no output parsing.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .analysis import (
    bounded_accessibility,
    bounded_emptiness,
    format_structural_report,
    structural_check,
)
from .errors import FiskitError, FormatError
from .fis import (
    Transition,
    iter_accepted,
    parse_fis,
    format_fis,
    recognize,
    render_scenario,
)
from .grids import format_grid, parse_grid
from .pcp import (
    compile_pcp,
    compile_pcp_probe,
    parse_pcp,
    probe_witness,
    solve_pcp,
    witness_from_solution,
)
from .tiles import fis_to_tiles, format_tiles, parse_tiles, tiles_to_fis


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _cmd_recognize(args) -> int:
    f = parse_fis(_read(args.fis))
    g = parse_grid(_read(args.grid))
    sc = recognize(f, g)
    if sc is None:
        print("REJECT")
        return 1
    if args.scenario:  # written first, so an error leaves stdout empty
        _write(args.scenario, render_scenario(sc))
    print("ACCEPT")
    return 0


def _cmd_enumerate(args) -> int:
    f = parse_fis(_read(args.fis))
    for w in iter_accepted(f, args.max_rows, args.max_cols):
        sys.stdout.write(format_grid(w) + "\n")
    return 0


def _cmd_compile_pcp(args) -> int:
    p = parse_pcp(_read(args.pcp))
    f = compile_pcp_probe(p) if args.s1 else compile_pcp(p)
    _write(args.out, format_fis(f))
    return 0


def _cmd_solve_pcp(args) -> int:
    p = parse_pcp(_read(args.pcp))
    sol = solve_pcp(p, args.max_k)
    if sol is None:
        print("NONE")
        return 1
    print(" ".join(map(str, sol)))
    return 0


def _cmd_witness(args) -> int:
    p = parse_pcp(_read(args.pcp))
    indices = tuple(args.indices)
    w = probe_witness(p, indices) if args.s1 else witness_from_solution(p, indices)
    sys.stdout.write(format_grid(w))
    return 0


def _verdict(found: tuple | None, no: str) -> int:
    """Print a search's first grid and exit 0, or the word ``no`` and exit 1."""
    if found is None:
        print(no)
        return 1
    sys.stdout.write(format_grid(found[0]))
    return 0


def _cmd_check_empty(args) -> int:
    f = parse_fis(_read(args.fis))
    return _verdict(bounded_emptiness(f, args.max_rows, args.max_cols),
                    "EMPTY-WITHIN-BOUNDS")


def _cmd_check_access(args) -> int:
    f = parse_fis(_read(args.fis))
    tokens = args.trans.split()
    if len(tokens) != 5:
        raise FormatError("--trans needs five tokens: north west letter east south")
    return _verdict(bounded_accessibility(f, Transition(*tokens), args.max_rows, args.max_cols),
                    "INACCESSIBLE-WITHIN-BOUNDS")


def _cmd_convert(args) -> int:
    if args.fis is not None:
        _write(args.out, format_tiles(fis_to_tiles(parse_fis(_read(args.fis)))))
    else:
        _write(args.out, format_fis(tiles_to_fis(parse_tiles(_read(args.tiles)))))
    return 0


def _cmd_check_structure(args) -> int:
    p = parse_pcp(_read(args.pcp))
    g = parse_grid(_read(args.grid))
    f = compile_pcp(p)
    sc = recognize(f, g)
    if sc is None:
        print("REJECT")
        return 1
    rep = structural_check(p, sc, compiled=f)
    sys.stdout.write(format_structural_report(rep))
    return 0 if rep.ok else 1


@cache  # parse_args keeps no state between calls, so one parser serves them all
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fiskit",
        description="Grid languages: recognizers, word-matching reductions "
                    "and tile systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def bounds(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-rows", type=int, required=True)
        p.add_argument("--max-cols", type=int, required=True)

    p = sub.add_parser("recognize", help="test one grid against a system")
    p.add_argument("--fis", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--scenario", metavar="OUT",
                   help="write the accepting scenario drawing here")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("enumerate", help="print all accepted grids within bounds")
    p.add_argument("--fis", required=True)
    bounds(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("compile-pcp", help="compile a word-matching instance "
                                           "into a system")
    p.add_argument("--pcp", required=True)
    p.add_argument("--s1", action="store_true",
                   help="add the accessibility probe transition")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile_pcp)

    p = sub.add_parser("solve-pcp", help="search for a matching index sequence")
    p.add_argument("--pcp", required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.set_defaults(func=_cmd_solve_pcp)

    p = sub.add_parser("witness", help="print the grid encoding a solution")
    p.add_argument("--pcp", required=True)
    p.add_argument("--indices", type=int, nargs="+", required=True)
    p.add_argument("--s1", action="store_true",
                   help="shape the witness for the probe-extended system")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("check-empty", help="search for any accepted grid")
    p.add_argument("--fis", required=True)
    bounds(p)
    p.set_defaults(func=_cmd_check_empty)

    p = sub.add_parser("check-access", help="search for a grid whose scenario "
                                            "uses a given transition")
    p.add_argument("--fis", required=True)
    p.add_argument("--trans", required=True,
                   metavar='"N W a E S"')
    bounds(p)
    p.set_defaults(func=_cmd_check_access)

    p = sub.add_parser("convert", help="translate a system to tiles or tiles to a system")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--fis")
    source.add_argument("--tiles")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("check-structure", help="verify the reduction shape of "
                                               "an accepted grid")
    p.add_argument("--pcp", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(func=_cmd_check_structure)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FiskitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, still an error and never a "no"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
