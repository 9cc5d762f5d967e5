"""Command-line front end.

Subcommands: solve, decompose (solve and always print the multiplier f),
verify (solve and check the result, failing loudly), bench (the
parity-class census and predicted operation counts of one (n, m), from
closed forms).  Exit codes: 0 success, 2 input error, 3 verification
failure, 4 float-mode ill-conditioning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .layout import descent_unknowns, largest_class_work
from .parsing import (
    ParseError,
    exceeds_digit_limit,
    format_polynomial,
    parse_polynomial,
    parse_surface,
    poly_to_json_terms,
)
from .polynomial import MAX_VARIABLES, DimensionMismatchError, Poly
from .quadric import InvalidQuadricError, NonhyperbolicQuadratic
from .solver import IllConditionedSystemError, solve_dirichlet
from .verify import ORACLE_MAX_UNKNOWNS, verify_solution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_ILL_CONDITIONED = 4

# ``solve``, ``decompose`` and ``verify`` refuse a problem whose descent has
# more unknowns over all its levels than this (``layout.descent_unknowns``),
# before they solve.  On 2 cores (CPython 3.11) x1^60 on a surface with a
# linear part, 35,990 unknowns, took 8 to 19 s in exact mode, and x1^100,
# 166,650 unknowns, 3.5 to 10 s in float mode; every benchmark problem has
# fewer than 6,000.
SOLVE_MAX_UNKNOWNS = {"exact": 40_000, "float": 200_000}

# They also refuse a problem whose largest parity class needs more work
# than this (``layout.largest_class_work``), which the unknown count does
# not bound: float x1^632 on x1^2+x2^2+x3^2 has one level, one class of
# 50,086.  The slowest accepted class measured took 1.5 s exact, 0.2 s float.
SOLVE_MAX_CLASS_WORK = 4_000_000


def _read_surface_argument(arg: str) -> NonhyperbolicQuadratic:
    if os.path.isfile(arg):
        with open(arg, "r", encoding="utf-8") as handle:
            arg = handle.read()
    return parse_surface(arg)


def _refusal(p: Poly, surface: NonhyperbolicQuadratic, mode: str, oracle: bool) -> str | None:
    """Why p on the surface is refused before any solve, or None: a size
    limit passed, from closed forms, or a coefficient float mode cannot hold."""
    n, degree = p.n, p.degree() or 0
    if oracle:
        if mode == "float":
            return "--oracle requires --mode exact"
        unknowns = math.comb(degree - 2 + n, n) if degree >= 2 else 0
        if unknowns > ORACLE_MAX_UNKNOWNS:
            return (f"--oracle on degree {degree} in {n} variables needs {unknowns} "
                    f"unknowns; the limit is {ORACLE_MAX_UNKNOWNS}")
    limit = SOLVE_MAX_UNKNOWNS[mode]
    if descent_unknowns(p, surface, limit) > limit:
        return (f"degree {degree} in {n} variables needs more than {limit} "
                f"unknowns over its levels in {mode} mode; the limit is {limit}")
    work = largest_class_work(n, degree - 2)
    if work > SOLVE_MAX_CLASS_WORK:
        return (f"degree {degree} in {n} variables has a parity class of work {work}; "
                f"the limit is {SOLVE_MAX_CLASS_WORK}")
    if mode == "float":
        try:
            p.to_float(), surface.to_polynomial().to_float()
        except OverflowError:
            return "a coefficient is too large for float mode"
    return None


def _solution_document(n, mode, dec, report, timing_ms):
    doc = {
        "n": n,
        "mode": mode,
        "h": poly_to_json_terms(dec.h),
        "f": poly_to_json_terms(dec.f),
    }
    if report is not None:
        doc["verify"] = {
            "harmonic": report.harmonic_ok,
            "residual_zero": report.residual_ok,
            "surface_nondegenerate": report.surface_nondegenerate,
        }
        if report.oracle_match is not None:
            doc["verify"]["oracle_match"] = report.oracle_match
        doc["verify"]["notes"] = report.notes
    doc["timing_ms"] = timing_ms
    return doc


def cmd_solve(args: argparse.Namespace, *, force_show_f=False, force_verify=False) -> int:
    # Parse and surface errors reach ``main``, which exits 2.
    p = parse_polynomial(args.boundary)
    surface = _read_surface_argument(args.surface)
    n = max(p.n, surface.n, args.dim or 0)
    surface, p = surface.extend(n), p.extend(n)
    error = _refusal(p, surface, args.mode, args.oracle)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT

    p_solved = p.to_float() if args.mode == "float" else p
    t0 = time.perf_counter()
    try:
        dec = solve_dirichlet(p_solved, surface)
    except IllConditionedSystemError as exc:
        print(f"error: ill-conditioned system in float mode: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    timing_ms = (time.perf_counter() - t0) * 1000.0

    show_f = force_show_f or args.show_f
    printed = (dec.h, dec.f) if show_f or args.format == "json" else (dec.h,)
    if any(map(exceeds_digit_limit, printed)):
        print(f"error: the answer has a number of more than {sys.get_int_max_str_digits()} "
              "digits, which Python will not print; PYTHONINTMAXSTRDIGITS raises the limit",
              file=sys.stderr)
        return EXIT_INPUT

    report = None
    if force_verify or args.verify or args.oracle:
        report = verify_solution(p_solved, surface, dec, check_oracle=args.oracle)

    if args.format == "json":
        # f is part of the document schema whether or not --show-f is given.
        doc = _solution_document(n, args.mode, dec, report, timing_ms)
        print(json.dumps(doc))
    else:
        print(f"h = {format_polynomial(dec.h)}")
        if show_f:
            print(f"f = {format_polynomial(dec.f)}")
        if report is not None:
            flags = (
                f"harmonic={str(report.harmonic_ok).lower()} "
                f"residual_zero={str(report.residual_ok).lower()} "
                f"surface_nondegenerate={str(report.surface_nondegenerate).lower()}"
            )
            if report.oracle_match is not None:
                flags += f" oracle_match={str(report.oracle_match).lower()}"
            print(f"verify: {flags}")
            for note in report.notes:
                print(f"note: {note}")

    if report is not None and not report.ok():
        if report.ill_conditioned:
            print("error: float result too large against the boundary to verify; "
                  "solve in exact mode", file=sys.stderr)
            return EXIT_ILL_CONDITIONED
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported here so that solve, decompose and verify do not load it.
    from .bench import CENSUS_MAX_CLASSES, CENSUS_MAX_DEGREE, census_report, class_count

    n, m = args.dim, args.degree
    error = None
    if n < 2:
        error = "--dim must be at least 2"
    elif not 0 <= m <= CENSUS_MAX_DEGREE:
        error = f"--degree must be from 0 to {CENSUS_MAX_DEGREE}"
    elif (classes := class_count(n, m)) > CENSUS_MAX_CLASSES:
        error = (f"--dim {n} --degree {m} has {classes} parity classes; "
                 f"bench reports at most {CENSUS_MAX_CLASSES}")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    print(census_report(n, m))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadharm",
        description=(
            "Solve polynomial Dirichlet problems on quadric surfaces by "
            "computing the unique splitting p = h + q*f with h harmonic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--boundary", required=True, help="boundary polynomial p")
    common.add_argument("--surface", required=True,
                        help="surface q: an expression, a JSON document, or a path to either")
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--dim", type=int, default=None, help="raise the working dimension")
    common.add_argument("--show-f", action="store_true", help="also print the multiplier f")
    common.add_argument("--verify", action="store_true", help="check the result before printing")
    common.add_argument("--oracle", action="store_true", help="verify, and also compare "
                        "with the operator-matrix oracle (exact mode)")

    sub.add_parser("solve", parents=[common], help="print the harmonic solution h")
    sub.add_parser("decompose", parents=[common], help="print both h and f")
    sub.add_parser("verify", parents=[common], help="solve, check, and report")

    bench = sub.add_parser("bench", help="parity-class census and predicted operation counts")
    bench.add_argument("--dim", type=int, required=True, help="number of variables n")
    bench.add_argument("--degree", type=int, required=True,
                       help="order m of the top-level system (boundary degree is m + 2)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the input-error code
        return int(exc.code or 0)
    if args.dim is not None and args.dim > MAX_VARIABLES:
        print(f"error: --dim {args.dim} is past the limit of {MAX_VARIABLES} variables",
              file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "decompose":
            return cmd_solve(args, force_show_f=True)
        if args.command == "verify":
            return cmd_solve(args, force_verify=True)
        if args.command == "bench":
            return cmd_bench(args)
    except (ParseError, InvalidQuadricError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
