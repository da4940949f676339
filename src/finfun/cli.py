"""Command-line front end.

Subcommands mirror the library one to one: ``check`` runs the exhaustive
verification battery, ``eval``/``map`` print values and actions,
``supp``/``modify``/``degree`` surface the support machinery, ``export``
dumps a tabulation.  Functors are addressed as ``zoo:<name>``, a ``.ffn``
presentation file, or a ``.json`` tabulation.

Exit codes: 0 all requested checks pass, 1 a checked property failed
(including a monomorphicity refusal), 2 input or validation error.
Nothing else, ever.  Structured reports are byte-stable unless --timing
adds elapsed seconds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import TextIO

from . import __version__
from .finset import FiniteFunction, FiniteSet, empty_function
from .presentation import ParseError, PresentationInstance, parse_presentation
from .tabulated import TabulatedError, export_tabulated, load_tabulated
from .theory import (
    STANDARD_CHECKS,
    CheckReport,
    FunctorInstance,
    ModificationKind,
    MonomorphicityError,
    SizeBoundError,
    UnknownElementError,
    degree,
    modify,
    run_standard_checks,
    support,
)
from .zoo import zoo_instance

MAX_SIZE_CAP = 5


def load_input(target: str) -> FunctorInstance:
    """Resolve zoo:<name>, <file>.ffn or <file>.json to an instance."""
    if target.startswith("zoo:"):
        return zoo_instance(target[len("zoo:"):])
    path = Path(target)
    if not path.is_file():
        raise ValueError(f"no such input file: {target}")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".ffn":
        return PresentationInstance(
            parse_presentation(text, default_name=path.stem))
    if path.suffix == ".json":
        return load_tabulated(text, name=path.stem)
    raise ValueError(
        f"cannot tell the format of {target!r}: expected zoo:<name>, "
        f"a .ffn presentation, or a .json tabulation")


def _load_modified(target: str, mode: str | None) -> FunctorInstance:
    g = load_input(target)
    if mode is not None:
        g = modify(g, ModificationKind(mode))
    return g


def _checked_size(n: int, flag: str) -> int:
    if n < 0:
        raise ValueError(f"{flag} must be non-negative, got {n}")
    return n


def _checked_max_size(n: int) -> int:
    _checked_size(n, "--max-size")
    if n > MAX_SIZE_CAP:
        raise ValueError(
            f"--max-size is capped at {MAX_SIZE_CAP}; exhaustive function "
            f"enumeration explodes beyond that")
    return n


def _report_payload(functor: str, max_size: int, timing: bool,
                    reports: list[CheckReport]) -> dict:
    checks = []
    for r in reports:
        entry: dict[str, object] = {
            "name": r.name,
            "verdict": "pass" if r.passed else "fail",
            "counterexamples": list(r.counterexamples),
        }
        if timing:
            entry["elapsed"] = round(r.elapsed, 6)
        checks.append(entry)
    return {"tool_version": __version__, "functor": functor,
            "max_size": max_size, "checks": checks}


def _print_text_report(functor: str, max_size: int, timing: bool,
                       reports: list[CheckReport]) -> None:
    print(f"checking {functor} at sizes <= {max_size}")
    for r in reports:
        elapsed = f"  [{r.elapsed:.3f}s]" if timing else ""
        print(f"  {r.name:<14} {'pass' if r.passed else 'FAIL'}{elapsed}")
        for c in r.counterexamples:
            print(f"      - {c}")
        if not r.passed and r.details:
            print(f"      ({r.details})")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        print(f"{failed} of {len(reports)} checks failed")
    else:
        print(f"all {len(reports)} checks passed")


def cmd_check(args: argparse.Namespace) -> int:
    skip = _parse_skip(args.skip)
    max_size = _checked_max_size(args.max_size)
    g = _load_modified(args.target, args.modify)
    reports = run_standard_checks(g, max_size, seed=args.seed, skip=skip)
    if args.json:
        payload = _report_payload(g.name, max_size, args.timing, reports)
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        _print_text_report(g.name, max_size, args.timing, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_eval(args: argparse.Namespace) -> int:
    size = _checked_size(args.size, "--size")
    g = _load_modified(args.target, args.modify)
    names = g.elements(size)
    print(f"{g.name}({size}): {len(names)} element"
          f"{'' if len(names) == 1 else 's'}")
    for i, name in enumerate(names):
        print(f"  {i}: {name}")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    table = _parse_table(args.fn)
    g = _load_modified(args.target, args.modify)
    f = FiniteFunction(FiniteSet(args.dom), FiniteSet(args.cod), table)
    out = g.map(f)
    print(f"{g.name}({f!r}) = {out!r}")
    dom_names = g.elements(args.dom)
    cod_names = g.elements(args.cod)
    for i, v in enumerate(out.table):
        print(f"  {dom_names[i]} -> {cod_names[v]}")
    return 0


def _resolve_element(g: FunctorInstance, n: int, text: str) -> int:
    try:
        return g.element_index(n, text)
    except UnknownElementError:
        if not text.isdecimal():
            raise
    return int(text)


def cmd_supp(args: argparse.Namespace) -> int:
    size = _checked_size(args.size, "--size")
    g = _load_modified(args.target, args.modify)
    idx = _resolve_element(g, size, args.element)
    removal = range(size - 1, -1, -1) if args.order == "desc" else None
    print(repr(support(g, size, idx, order=removal).support))
    return 0


def cmd_modify(args: argparse.Namespace) -> int:
    max_size = _checked_max_size(args.max_size)
    h = _load_modified(args.target, args.mode)
    sym = ModificationKind(args.mode).symbol
    # Every line is built before any is printed, so a refusal at a larger
    # size leaves stdout empty.
    lines = [f"F{sym}∅ = {{{', '.join(h.elements(0))}}}"]
    lines += [f"F{sym}(∅→{y}) = {h.map(empty_function(FiniteSet(y)))!r}"
              for y in range(1, max_size + 1)]
    print("\n".join(lines))
    return 0


def cmd_degree(args: argparse.Namespace) -> int:
    max_size = _checked_max_size(args.max_size)
    g = _load_modified(args.target, args.modify)
    print(repr(degree(g, max_size)))
    return 0


_SLICE = 1 << 16


def _write_in_slices(out: TextIO, text: str) -> None:
    """Write ``text`` and a newline in slices of at most 64 Ki characters,
    so the stream never encodes the whole document into one bytes object."""
    for i in range(0, len(text), _SLICE):
        out.write(text[i:i + _SLICE])
    out.write("\n")


def cmd_export(args: argparse.Namespace) -> int:
    max_size = _checked_max_size(args.max_size)
    g = _load_modified(args.target, args.modify)
    text = export_tabulated(g, max_size)
    if args.out is None:
        _write_in_slices(sys.stdout, text)
    else:
        with Path(args.out).open("w", encoding="utf-8") as out:
            _write_in_slices(out, text)
        print(f"wrote {g.name} tabulated up to size {max_size} to "
              f"{args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argparse wiring


def _parse_table(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--fn expects a comma-separated table like '0,2,1', got {text!r}"
        ) from None


def _parse_skip(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    unknown = [s for s in names if s not in STANDARD_CHECKS]
    if unknown:
        raise ValueError(
            f"unknown check name(s) in --skip: {', '.join(unknown)}; "
            f"known: {', '.join(STANDARD_CHECKS)}")
    if set(STANDARD_CHECKS) <= set(names):
        raise ValueError("--skip leaves no check to run")
    return names


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every argument list with, built once per
    process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="finfun",
        description="Check, evaluate and modify finitary set functors.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument(
        "target",
        help="zoo:<name>, a .ffn presentation file, or a .json tabulation")

    mod = argparse.ArgumentParser(add_help=False)
    mod.add_argument("--modify", choices=["min", "max"], default=None,
                     help="apply an empty-set modification first")

    p = sub.add_parser("check", parents=[target, mod],
                       help="run the exhaustive verification battery")
    p.add_argument("--max-size", type=int, default=3, metavar="N",
                   help="largest set size to enumerate (default 3, cap 5)")
    p.add_argument("--skip", default=None, metavar="CHECKS",
                   help=f"comma-separated checks to leave out "
                        f"({', '.join(STANDARD_CHECKS)})")
    p.add_argument("--seed", type=int, default=0,
                   help="labels the supports scope, which neither the "
                        "text nor the --json report prints: it changes no "
                        "output")
    p.add_argument("--json", action="store_true",
                   help="emit the structured report instead of text")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed seconds (output no longer "
                        "byte-stable)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", parents=[target, mod],
                       help="list the elements of F(n)")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("map", parents=[target, mod],
                       help="apply F to one function")
    p.add_argument("--fn", required=True, metavar="TABLE",
                   help="comma-separated values, e.g. '0,2,1'; '' for the "
                        "empty function")
    p.add_argument("--dom", type=int, required=True, metavar="K")
    p.add_argument("--cod", type=int, required=True, metavar="M")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("supp", parents=[target, mod],
                       help="support of one element of F(n)")
    p.add_argument("--size", type=int, required=True, metavar="N")
    p.add_argument("--element", required=True, metavar="TERM",
                   help="canonical term such as 'p(0,2)', or an index")
    p.add_argument("--order", choices=["asc", "desc"], default="asc",
                   help="removal order for the greedy pass")
    p.set_defaults(func=cmd_supp)

    p = sub.add_parser("modify", parents=[target],
                       help="print F°∅ or F∘∅ and the maps out of it")
    p.add_argument("--mode", choices=["min", "max"], required=True)
    p.add_argument("--max-size", type=int, default=3, metavar="N",
                   help="print the empty morphisms into F(1)..F(N)")
    p.set_defaults(func=cmd_modify)

    p = sub.add_parser("degree", parents=[target, mod],
                       help="largest support size over the probed range")
    p.add_argument("--max-size", type=int, default=3, metavar="N",
                   help="probe elements of F(0)..F(N)")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("export", parents=[target, mod],
                       help="write the functor as a tabulation")
    p.add_argument("--max-size", type=int, default=3, metavar="N")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return args.func(args)
    except MonomorphicityError as err:
        print(f"property failure: {err}", file=sys.stderr)
        return 1
    except (ParseError, TabulatedError, SizeBoundError, UnknownElementError,
            ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
