"""Operation-count predictions, the class census, and the timed comparison.

Eliminating a dense s x s system costs about (2/3) s^3 flops.  The level
system over all multi-indices of order m in n variables has
s = comb(m + n - 1, m) rows; splitting it into the 2^(n-1) parity blocks
of roughly equal size divides the predicted work by 2^(2n-2), and monomial
boundaries gain another factor 2^(n-1) because only one block per level
carries a nonzero right-hand side.

``census_report`` prints the census and the predictions of one (n, m),
which follow from closed forms.  ``run_comparison`` times the partitioned
solver against the unpartitioned reference; its ``BenchRecord`` holds the
two median timings.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .polynomial import Poly, Scalar, multi_indices, taylor_reconstruct
from .quadric import NonhyperbolicQuadratic
from .elimination import SingularSystemError
from .solver import IllConditionedSystemError, _level_order, level_rows, solve_dirichlet


class BenchRecord(NamedTuple):
    """Median milliseconds of the unpartitioned and the partitioned solve."""

    measured_full_ms: float
    measured_partitioned_ms: float


def predicted_full_ops(m: int, n: int) -> Fraction:
    """Elimination cost of the unpartitioned order-m system: (2/3) comb^3."""
    size = math.comb(m + n - 1, m)
    return Fraction(2, 3) * size**3


def predicted_partitioned_ops(m: int, n: int) -> Fraction:
    """Cost with 2^(n-1) equal parity blocks: full cost / 2^(2n-2)."""
    return predicted_full_ops(m, n) / 2 ** (2 * n - 2)


def predicted_ratio(n: int) -> Fraction:
    """Predicted full/partitioned ratio, independent of m."""
    return Fraction(2 ** (2 * n - 2))


def monomial_combined_factor(n: int) -> int:
    """Partition gain times the single-active-block gain for monomials."""
    return 2 ** (3 * n - 3)


# ``quadharm bench`` refuses an (n, m) with more inhabited parity classes
# than this, as the report lists each, or an m whose predicted operation
# counts could overflow a float.
CENSUS_MAX_CLASSES = 4096
CENSUS_MAX_DEGREE = 10**6


def class_count(n: int, order: int) -> int:
    """Number of inhabited parity classes: parity vectors with |e| <= m and
    |e| = m (mod 2)."""
    return sum(math.comb(n, k) for k in range(order % 2, min(n, order) + 1, 2))


def class_census(n: int, order: int) -> dict[tuple[int, ...], int]:
    """Sizes of the inhabited parity classes at one order, canonical order.

    The class of parity vector e holds the alpha = e + 2*beta with
    |beta| = (m - |e|) / 2, so it has comb((m - |e|)/2 + n - 1, n - 1)
    members; no multi-index is listed.
    """
    census = {}
    for k in range(min(n, order), -1, -1):
        if (order - k) % 2:
            continue
        size = math.comb((order - k) // 2 + n - 1, n - 1)
        for ones in itertools.combinations(range(n), k):
            census[tuple(int(j in ones) for j in range(n))] = size
    return census


def monomial_boundary(n: int, degree: int) -> Poly:
    """x1^degree in n variables."""
    return Poly.monomial(n, (degree,) + (0,) * (n - 1))


def dense_boundary(n: int, degree: int) -> Poly:
    """Every monomial of the given degree, coefficients cycling 1, 2, 3."""
    terms = {}
    for i, alpha in enumerate(multi_indices(n, degree)):
        terms[alpha] = Fraction(i % 3 + 1)
    return Poly(n, terms)


def _plain_elimination(matrix: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar]:
    """Dense elimination in natural order that never skips a zero entry.

    The unpartitioned reference must pay the full cubic cost that the
    operation-count model assigns it.  Cross-class entries of the level
    matrix are zero and stay zero under row operations, so an elimination
    with skip-zero guards would quietly do block-by-block work and measure
    nothing but bookkeeping overhead.  With every a_j >= 0 no pivot of a
    level system is zero (see the README's Fischer form), so it swaps no
    row, and a zero pivot raises.
    """
    size = len(rhs)
    is_float = size > 0 and isinstance(matrix[0][0], float)
    zero: Scalar = 0.0 if is_float else Fraction(0)
    for col in range(size):
        prow = matrix[col]
        pivot = prow[col]
        if pivot == 0:
            error = IllConditionedSystemError if is_float else SingularSystemError
            raise error(f"reference system has a zero pivot at column {col}")
        for r in range(col + 1, size):
            row = matrix[r]
            factor = row[col] / pivot
            row[col] = zero
            for cc in range(col + 1, size):
                row[cc] = row[cc] - factor * prow[cc]
            rhs[r] = rhs[r] - factor * rhs[col]
    out: list[Scalar] = [zero] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r]
        row = matrix[r]
        for cc in range(r + 1, size):
            acc = acc - row[cc] * out[cc]
        out[r] = acc / row[r]
    return out


def full_reference_solver(ph: Poly, q2: Poly) -> Poly:
    """Unpartitioned homogeneous-level solve at the dense-model cost.

    Same equations as the production path, one matrix over all order-m
    multi-indices, eliminated without zero shortcuts; the only place that
    expands the sparse level rows into a dense matrix.  Plug into
    solve_dirichlet(..., homogeneous_solver=...) for timing comparisons.
    """
    order = _level_order(ph, q2)
    if order is None:
        return Poly.zero(ph.n)
    members = list(multi_indices(ph.n, order))
    rows, rhs = level_rows(ph.laplacian(), q2, members)
    # Exact entries become ``Fraction``s: the elimination divides them.
    scalar = float if q2.is_float() else Fraction
    matrix = [[scalar(row.get(c, 0)) for c in range(len(rows))] for row in rows]
    values = dict(zip(members, _plain_elimination(matrix, [scalar(v) for v in rhs])))
    return taylor_reconstruct(order, values, ph.n)


def _median_time_ms(fn: Callable[[], object], repetitions: int) -> float:
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def run_comparison(p: Poly, quadric: NonhyperbolicQuadratic, repetitions: int = 5
                   ) -> BenchRecord:
    """Time the partitioned solver against the unpartitioned one.

    Both paths must produce identical results (exact mode; float mode is
    compared to 1e-9); a mismatch raises.  Timings are medians over the
    given repetition count.  Each path first solves once untimed, for the
    comparison, so each runs 1 + repetitions times in all.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if p.degree() is None:
        raise ValueError("boundary must be nonzero")

    base = solve_dirichlet(p, quadric)
    part_ms = _median_time_ms(lambda: solve_dirichlet(p, quadric), repetitions)

    def run_full():
        return solve_dirichlet(p, quadric, homogeneous_solver=full_reference_solver)

    other = run_full()
    if p.is_float():
        drift = max(
            float((other.h - base.h).max_abs_coefficient()),
            float((other.f - base.f).max_abs_coefficient()),
        )
        if drift > 1e-9:
            raise RuntimeError(f"partitioned and full paths drift by {drift:.3e}")
    elif other.h != base.h or other.f != base.f:
        raise RuntimeError("partitioned and full paths disagree")
    return BenchRecord(_median_time_ms(run_full, repetitions), part_ms)


def census_report(n: int, m: int) -> str:
    """The parity-class census of order m in n variables and the predicted
    operation counts, from closed forms: nothing is built or solved."""
    census = class_census(n, m)
    return "\n".join([
        f"dimension n = {n}, top system order m = {m}",
        f"inhabited parity classes: {len(census)} with sizes {list(census.values())}",
        f"predicted ops: full = {float(predicted_full_ops(m, n)):.4g}, "
        f"partitioned = {float(predicted_partitioned_ops(m, n)):.4g}, "
        f"ratio = {predicted_ratio(n)}",
    ])
