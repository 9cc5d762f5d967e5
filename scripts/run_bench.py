#!/usr/bin/env python3
"""Timed degree sweep with the per-level text report.

For each boundary degree, times the partitioned solver against the
unpartitioned reference over the unit sphere and prints the report of
`quadharm bench`: census, predicted operation counts, medians, and one
line per level from the first (cold) solve.  For the CSV table of one
grid cell use `quadharm bench --format csv`.
"""

import argparse
import sys
import time

from quadharm.bench import dense_boundary, monomial_boundary, record_to_text, run_comparison
from quadharm.quadric import NonhyperbolicQuadratic


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=3, help="dimension of the sweep")
    parser.add_argument("--degrees", type=int, nargs="+", default=[8, 10, 12],
                        help="boundary degrees of the sweep")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per timing (median is reported)")
    parser.add_argument("--monomial", action="store_true",
                        help="use a single-monomial boundary instead of a dense one")
    parser.add_argument("--float", action="store_true",
                        help="run in float arithmetic instead of exact rationals")
    parser.add_argument("--no-full", action="store_true",
                        help="skip the unpartitioned reference (partitioned timing only)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    unit_sphere = NonhyperbolicQuadratic((1,) * args.dim, (0,) * args.dim, -1)
    builder = monomial_boundary if args.monomial else dense_boundary
    for degree in args.degrees:
        boundary = builder(args.dim, degree)
        if args.float:
            boundary = boundary.to_float()
        t0 = time.perf_counter()
        record = run_comparison(
            boundary, unit_sphere, repetitions=args.reps, compare_full=not args.no_full
        )
        elapsed = time.perf_counter() - t0
        print(record_to_text(record))
        print(f"total wall time {elapsed:.2f} s")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
