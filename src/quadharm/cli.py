"""Command-line front end.

Subcommands: solve, decompose (solve and always print the multiplier f),
verify (solve and check the result, failing loudly), bench.  Exit codes:
0 success, 2 input error, 3 verification failure, 4 float-mode
ill-conditioning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .parsing import (
    ParseError,
    format_polynomial,
    parse_polynomial,
    parse_surface,
    poly_to_json_terms,
)
from .polynomial import MAX_VARIABLES, DimensionMismatchError
from .quadric import InvalidQuadricError, NonhyperbolicQuadratic
from .solver import IllConditionedSystemError, descent_unknowns, solve_dirichlet
from .verify import ORACLE_MAX_UNKNOWNS, verify_solution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_ILL_CONDITIONED = 4

# ``solve``, ``decompose`` and ``verify`` refuse a problem whose descent has
# more unknowns over all its levels than this (``solver.descent_unknowns``),
# before they solve.  On 2 cores (CPython 3.11) x1^60 on a surface with a
# linear part, 35,990 unknowns, took 8 to 19 s in exact mode, and x1^100,
# 166,650 unknowns, 3.5 to 10 s in float mode; every benchmark problem has
# fewer than 6,000.
SOLVE_MAX_UNKNOWNS = {"exact": 40_000, "float": 200_000}


def _read_surface_argument(arg: str, n: int | None) -> NonhyperbolicQuadratic:
    if os.path.isfile(arg):
        with open(arg, "r", encoding="utf-8") as handle:
            arg = handle.read()
    return parse_surface(arg, n)


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
    try:
        p = parse_polynomial(args.boundary)
        surface = _read_surface_argument(args.surface, None)
    except (ParseError, InvalidQuadricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    n = max(p.n, surface.n, args.dim or 0)
    try:
        surface = surface.extend(n)
        p = p.extend(n)
    except InvalidQuadricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    run_verify = force_verify or args.verify or args.oracle
    if args.oracle:
        if args.mode == "float":
            print("error: --oracle requires --mode exact", file=sys.stderr)
            return EXIT_INPUT
        degree = p.degree() or 0
        unknowns = math.comb(degree - 2 + n, n) if degree >= 2 else 0
        if unknowns > ORACLE_MAX_UNKNOWNS:
            print(f"error: --oracle on degree {degree} in {n} variables needs "
                  f"{unknowns} unknowns; the limit is {ORACLE_MAX_UNKNOWNS}",
                  file=sys.stderr)
            return EXIT_INPUT

    limit = SOLVE_MAX_UNKNOWNS[args.mode]
    if descent_unknowns(p, surface, limit) > limit:
        print(f"error: degree {p.degree()} in {n} variables needs more than {limit} "
              f"unknowns over its levels in {args.mode} mode; the limit is {limit}",
              file=sys.stderr)
        return EXIT_INPUT

    p_solved = p.to_float() if args.mode == "float" else p
    t0 = time.perf_counter()
    try:
        dec = solve_dirichlet(p_solved, surface)
    except IllConditionedSystemError as exc:
        print(f"error: ill-conditioned system in float mode: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    timing_ms = (time.perf_counter() - t0) * 1000.0

    report = None
    if run_verify:
        report = verify_solution(p_solved, surface, dec, check_oracle=args.oracle)

    show_f = force_show_f or args.show_f
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
    from .bench import (
        CENSUS_MAX_CLASSES,
        BenchRecord,
        class_count,
        dense_boundary,
        monomial_boundary,
        record_to_text,
        records_to_csv,
        run_comparison,
    )

    n, m = args.dim, args.degree
    if n < 2:
        print("error: --dim must be at least 2", file=sys.stderr)
        return EXIT_INPUT
    if m < 0:
        print("error: --degree must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    classes = class_count(n, m)
    if classes > CENSUS_MAX_CLASSES:
        print(f"error: --dim {n} --degree {m} has {classes} parity classes; "
              f"bench reports at most {CENSUS_MAX_CLASSES}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.surface:
            surface = _read_surface_argument(args.surface, n).extend(n)
        else:
            surface = NonhyperbolicQuadratic((1,) * n, (0,) * n, -1)
    except (ParseError, InvalidQuadricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    record = BenchRecord(n, m, args.boundary_kind)
    if args.compare_full or args.time:
        builder = monomial_boundary if args.boundary_kind == "monomial" else dense_boundary
        p = builder(n, m + 2)
        if args.mode == "float":
            p = p.to_float()
        try:
            record = run_comparison(
                p,
                surface,
                repetitions=args.reps,
                compare_full=args.compare_full,
            )
        except IllConditionedSystemError as exc:
            print(f"error: ill-conditioned system in float mode: {exc}", file=sys.stderr)
            return EXIT_ILL_CONDITIONED

    if args.format == "csv":
        print(records_to_csv([record]))
    else:
        print(record_to_text(record))
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
    common.add_argument(
        "--surface",
        required=True,
        help="surface q: an expression, a JSON document, or a path to either",
    )
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument(
        "--dim", type=int, default=None, help="raise the working dimension"
    )
    common.add_argument(
        "--show-f", action="store_true", help="also print the multiplier f"
    )
    common.add_argument(
        "--verify", action="store_true", help="check the result before printing"
    )
    common.add_argument(
        "--oracle",
        action="store_true",
        help="verify, and also compare with the operator-matrix oracle (exact mode)",
    )

    sub.add_parser("solve", parents=[common], help="print the harmonic solution h")
    sub.add_parser("decompose", parents=[common], help="print both h and f")
    sub.add_parser("verify", parents=[common], help="solve, check, and report")

    bench = sub.add_parser("bench", help="class census, predicted ops, timings")
    bench.add_argument("--dim", type=int, required=True)
    bench.add_argument(
        "--degree",
        type=int,
        required=True,
        help="order m of the top-level system (boundary degree is m + 2)",
    )
    bench.add_argument("--surface", default=None)
    bench.add_argument(
        "--boundary-kind", choices=("monomial", "dense"), default="monomial"
    )
    bench.add_argument("--mode", choices=("exact", "float"), default="exact")
    bench.add_argument(
        "--compare-full",
        action="store_true",
        help="also time the unpartitioned solver",
    )
    bench.add_argument(
        "--time", action="store_true", help="time the partitioned solver"
    )
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--format", choices=("text", "csv"), default="text")
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
