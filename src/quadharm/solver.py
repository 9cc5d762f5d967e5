"""Harmonic decomposition of polynomials relative to a quadric surface.

Given a boundary polynomial p and a surface q, there is exactly one pair
(h, f) with p = h + q*f and laplacian(h) = 0, and h solves the Dirichlet
problem for p on the zero set of q.  The solver finds f one homogeneous
level at a time.

For a homogeneous component of p of degree m + 2 with q = q2 + q1 + q0
split by degree, applying D^alpha for |alpha| = m to the harmonicity
condition laplacian(p - q2*f) = 0 yields, per multi-index alpha,

    D^alpha(lap p) = (2*S + 4*sum_j alpha_j a_j) * D^alpha f
                   + sum_j alpha_j (alpha_j - 1) a_j * sum_k D^(alpha + 2e_k - 2e_j) f

where a_j are the square coefficients of q2 and S = sum_j a_j.  An
equation couples only multi-indices of one coordinatewise parity, so the
unknowns D^alpha f split into one block per parity class.  The right-hand
side, alpha! times the x^alpha coefficient of lap p, is read off directly,
blocks where it is zero are skipped, and f is rebuilt from its Taylor
constants.  Lower degrees follow by one descending pass: the degree-k part
of p = h + q*f reads p_k = h_k + q2*f_(k-2) + q1*f_(k-1) + q0*f_k, so the
carry p_k - q1*f_(k-1) - q0*f_k is split by one level solve, from the top
degree down to 2.

The pass differentiates and multiplies but never integrates, and it runs
on class lists (``quadharm.layout``): each degree-k part of the carry, f
and h is one list per nonzero parity class e, in the class's member order
alpha = e + 2*beta of the level plan.  The Laplacian and the products with
q2, q1 and q0 move beta by one unit vector e_j, so each is a weighted
shift that the shift program of the class's layout runs as slices over
the runs of the last two axes of beta, one elementwise pass per axis,
summed over the axes in order; a product with x_j where e_j = 0 is a
scaled copy into the class e + e_j.  A level's right-hand side is the
class Laplacian times alpha!, and its f is the solved values over alpha!.
No exponent tuple is built inside the pass: the input is read into lists
once, and h and f are written out once, with the tuples of the stored
level plans where there are some.  The lists are per class, not per
degree, because a degree's full list can be many times the classes a
sparse input has: x1^4 in 64 variables has one class of 2,080 slots where
all of degree 4 has 766,480.

Exact mode is integer work throughout.  Every part is int numerators over
one denominator; a level eliminates int rows, back-substitutes to reduced
int (numerator, denominator) pairs, folds alpha! into the denominators and
returns f_(k-2) as int numerators over one denominator.  ``Fraction``s are
formed only for the coefficients of h and f.  Float mode runs the same pass
with denominator 1; its sums run in axis order, so its answer does not
depend on the order in which the input lists its terms.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, combinations
from operator import mul, truediv
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .elimination import _packed, _replay_int, _scan_ends, _solve_int
from .layout import _attach, _carry, _laplacian, _members, _minus_q2, _shift_program, _split
from .polynomial import (
    DimensionMismatchError,
    Poly,
    Scalar,
    multi_factorial,
)
from .quadric import NonhyperbolicQuadratic

FLOAT_PIVOT_RTOL = 1e-12

# Float mode holds each D^alpha f = alpha! * (x^alpha coefficient) as a
# float, and alpha! reaches order!: 170! is the last factorial below the
# largest float, so float levels of higher order raise before any work.
FLOAT_MAX_ORDER = 170


class IllConditionedSystemError(ArithmeticError):
    """Float mode met a pivot below the conditioning threshold, a multiplier
    or an unknown that overflowed, or an order whose alpha! overflows a float.

    A small pivot of ``_factor_float`` gives its ``column``, the ``pivot``,
    ``row_max``, the largest magnitude in its row of U, and ``ratio`` =
    |pivot| / row_max (0.0 for an all-zero row); one of ``_factor_symmetric``
    its ``column``, ``pivot`` and ``ratio`` = pivot / its diagonal, with no
    ``row_max``.  An overflowed multiplier or unknown gives its ``column``
    and ``pivot`` only.
    """

    def __init__(self, message: str, *, column: int | None = None, pivot: float | None = None,
                 row_max: float | None = None, ratio: float | None = None):
        super().__init__(message)
        self.column = column
        self.pivot = pivot
        self.row_max = row_max
        self.ratio = ratio


def parity_class(alpha: Sequence[int]) -> tuple[int, ...]:
    """Coordinatewise parity signature of a multi-index."""
    return tuple(e & 1 for e in alpha)


class ClassSystem(NamedTuple):
    """One parity block of the level-m linear system, as ``level_rows``
    makes its rows: ``matrix`` holds one sparse row ``{column: nonzero
    entry}`` per member of ``members`` (canonical order), which the kernels
    never change, and ``rhs`` the right-hand sides: floats, or exact ints
    and ``Fraction``s in any mix.  ``weights`` are the float class's
    ``_fischer_weights``, which ``solve_class`` factors with, or None
    (exact mode, a zero a_j, or a hand-built system)."""

    parity: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    matrix: list[dict[int, Scalar | int]]
    rhs: tuple[Scalar, ...]
    weights: list[float] | None = None

    def has_nonzero_rhs(self) -> bool:
        return any(v != 0 for v in self.rhs)


class HarmonicDecomposition(NamedTuple):
    """Result pair (h, f) with p = h + q*f and laplacian(h) = 0."""

    h: Poly
    f: Poly
    p: Poly
    q: NonhyperbolicQuadratic


class LevelStats(NamedTuple):
    """Instrumentation for one cascade level (carry of one degree).

    ``assemble_ms`` covers the right-hand sides, weights and matrices
    built, ``solve_ms`` the eliminations and substitutions, ``rebuild_ms``
    the rebuild of f.  ``factor_hits`` counts the classes solved from
    factors that an earlier solve stored, in either mode.  Exact mode fills
    ``carry_den_bits`` and ``carry_num_bits``, the bit lengths of the
    carry's denominator and of its largest numerator.  Float mode fills
    ``min_pivot_ratio``, the smallest pivot ratio of the level's solved
    classes as their factors recorded it, so a warm solve reports what the
    cold one did: pivot over its diagonal where ``_factor_symmetric``
    factored, |pivot| over the largest magnitude in its row of U where
    ``_factor_float`` did (both eliminate in natural order), and None when
    no class was solved.

    ``rhs_ms`` covers the carry's Laplacian and the right-hand sides, and
    ``assemble_ms`` then only the weights and matrices.  ``carry_ms``
    covers the products and subtractions that form this level's carry and
    the rebuild of h from it; ``fraction_ms``, exact mode only, forming the
    ``Fraction``s of this degree's h and of the level's f.  A
    ``homogeneous_solver`` hook records no level.
    """

    carry_degree: int
    system_order: int
    class_count: int
    class_sizes: list[int]
    nonzero_rhs_classes: int
    rhs_is_zero: bool
    assemble_ms: float
    solve_ms: float
    rebuild_ms: float
    carry_den_bits: int | None = None
    carry_num_bits: int | None = None
    factor_hits: int = 0
    min_pivot_ratio: float | None = None
    rhs_ms: float = 0.0
    carry_ms: float = 0.0
    fraction_ms: float = 0.0


class SolveStats:
    """The ``LevelStats`` of the levels a solve ran, top degree first."""

    def __init__(self, levels: list[LevelStats] | None = None):
        self.levels = [] if levels is None else levels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.levels == other.levels

    def __repr__(self):
        return f"SolveStats(levels={self.levels!r})"


def _axis_squares(q2: Poly) -> tuple[list[Scalar], int, Scalar]:
    """The diagonal coefficients a_j of q2 = sum a_j x_j^2 as the level
    equations use them, with the scale L and the zero of the mode.  Float
    mode gives the floats a_j and L = 1; exact mode gives the ints L * a_j,
    where L is the lcm of the denominators of the a_j."""
    float_mode = q2.is_float()
    zero: Scalar = 0.0 if float_mode else 0
    a = [zero] * q2.n
    for alpha, c in q2.terms.items():
        if sum(alpha) != 2 or max(alpha) != 2:
            raise ValueError(f"quadratic part has a non-diagonal term at {alpha}")
        a[alpha.index(2)] = c
    if float_mode:
        return a, 1, zero
    scale = math.lcm(*[aj.denominator for aj in a])
    return [aj.numerator * (scale // aj.denominator) for aj in a], scale, zero


def _check_level(n: int, q2: Poly, order: int, float_mode: bool) -> None:
    """The guards of every level route, run before it builds a plan or a
    row: ``DimensionMismatchError`` for a source in n variables and a q2 in
    another number, and ``IllConditionedSystemError`` for a float order
    past FLOAT_MAX_ORDER."""
    if n != q2.n:
        raise DimensionMismatchError(f"operands have dimensions {n} and {q2.n}")
    if order > FLOAT_MAX_ORDER and float_mode:
        raise IllConditionedSystemError(
            f"order {order} is past {FLOAT_MAX_ORDER}, where alpha! overflows a float")


def _level_order(ph: Poly, q2: Poly) -> int | None:
    """deg(ph) - 2, or None where the answer is zero (a degree below 2);
    the guards every homogeneous level route runs first: operands of one
    dimension, and a homogeneous ph."""
    ph._check_dim(q2)
    if not ph.is_homogeneous():
        raise ValueError("boundary component must be homogeneous")
    deg = ph.degree()
    return None if deg is None or deg < 2 else deg - 2


def level_rows(
    rhs_source: Poly, q2: Poly, members: Sequence[tuple[int, ...]]
) -> tuple[list[dict[int, Scalar | int]], list[Scalar]]:
    """Sparse rows and right-hand sides of the level equations for
    ``members``, which must hold every alpha - 2e_j + 2e_k a member
    reaches: one parity class, or all multi-indices of one order.

    Row i is ``{column: entry}`` for ``members[i]``, columns numbered by
    position; for a_j >= 0 every entry is a sum of positive terms, so none
    is 0.  The right-hand side of row alpha is D^alpha(rhs_source), alpha!
    times the x^alpha coefficient.  In exact mode rows and right-hand sides
    are scaled by L, the lcm of the denominators of the a_j, which makes
    the entries ints, and the right-hand sides too for an int rhs_source.
    It raises first as ``_check_level`` does.
    """
    _check_level(rhs_source.n, q2, sum(members[0]) if members else 0,
                 q2.is_float() or rhs_source.is_float())
    a, scale, zero = _axis_squares(q2)
    rhs = _level_rhs(rhs_source, members, map(multi_factorial, members), scale, zero)
    return _level_matrix(a, zero, members), rhs


def _level_matrix(
    a: Sequence[Scalar], zero: Scalar, members: Sequence[tuple[int, ...]], upper: bool = False
) -> list[dict[int, Scalar | int]]:
    """The rows of ``level_rows`` for the axis squares ``a`` and the zero of
    the mode, as ``_axis_squares`` gives them; with ``upper``, only their
    entries on or right of the diagonal, which are all ``_factor_symmetric``
    reads.

    Members come in descending lexicographic order, so the column of alpha -
    2e_j + 2e_k lies right of alpha's exactly when k > j."""
    n = len(a)
    two_s = 2 * sum(a, zero)
    col = {alpha: i for i, alpha in enumerate(members)}
    rows = []
    for i, alpha in enumerate(members):
        diag = two_s
        for j, aj in enumerate(alpha):
            diag = diag + 4 * aj * a[j]
        row = {}
        for j, aj in enumerate(alpha):
            w = aj * (aj - 1) * a[j]
            if w == 0:
                continue
            # k == j reaches alpha itself; each k != j reaches a column
            # that no other (j, k) reaches.
            diag = diag + w
            for k in range(j + 1 if upper else 0, n):
                if k != j:
                    beta = list(alpha)
                    beta[j] -= 2
                    beta[k] += 2
                    row[col[tuple(beta)]] = w
        row[i] = diag
        rows.append(row)
    return rows


def _level_rhs(rhs_source: Poly, members: Sequence[tuple[int, ...]], factorials: Iterable[int],
               scale: int, zero: Scalar) -> list[Scalar]:
    """D^alpha(rhs_source) at the origin times ``scale`` for each alpha in
    ``members``: alpha!, given in ``factorials``, times the x^alpha
    coefficient; adding ``zero`` makes float mode's values floats."""
    coefficient = rhs_source.terms.get
    return [c * (fact * scale) + zero if (c := coefficient(alpha)) else zero
            for alpha, fact in zip(members, factorials)]


def assemble_class_systems(rhs_source: Poly, q2: Poly, order: int) -> list[ClassSystem]:
    """Every parity block of the order-m system, zero right-hand sides
    included, each with the rows and right-hand sides of ``level_rows``;
    the D^alpha of the homogeneous ``rhs_source`` are the right-hand sides.
    It raises as ``level_rows`` does, before it builds the plan."""
    _check_level(rhs_source.n, q2, order, q2.is_float() or rhs_source.is_float())
    a = _axis_squares(q2)[0]
    systems = []
    for parity, members, factorials in level_plan(q2.n, order):
        rows, rhs = level_rows(rhs_source, q2, members)
        weights = _fischer_weights(a, members, factorials) if q2.is_float() else None
        systems.append(ClassSystem(parity, members, rows, tuple(rhs), weights))
    return systems


def _fischer_weights(a: Sequence[float], members: Sequence[tuple[int, ...]],
                     factorials: Iterable[int]) -> list[float] | None:
    """Row weights that make a float level class symmetric: d_alpha = 1 /
    (alpha! * prod_j a_j^(alpha_j // 2)) for each member, all times one
    power of two, so that the largest lies in (1, 2] (see the README's
    Fischer form).  None when an a_j is not positive, or when the weights
    span more than 2**970, the range of the normal floats less 52 bits, so
    that the ratio of any two is a normal float.

    Each weight is alpha!, converted once, times the mantissas of the
    a_j^(alpha_j // 2), with their exponents summed apart, so it overflows
    nowhere and is off by a few ulps at most: weights off by 1e-14 make the
    weighted rows visibly unsymmetric and cost digits in the answers.
    """
    if min(a) <= 0.0:
        return None
    axes = [math.frexp(aj) for aj in a]
    scaled = []
    for alpha, fact in zip(members, factorials):
        mantissa, exponent = float(fact), 0
        for (m, e), k in zip(axes, alpha):
            if k > 1:
                k >>= 1
                mantissa *= m ** k
                exponent += e * k
        mantissa, e = math.frexp(mantissa)
        scaled.append((mantissa, exponent + e))
    top = min(e for _, e in scaled)
    weights = [math.ldexp(1.0 / m, top - e) for m, e in scaled]
    if min(weights) < sys.float_info.min / sys.float_info.epsilon:
        return None
    return weights


def _factor_float(matrix: Sequence[Mapping[int, float]]) -> tuple:
    """Band LU factors of sparse float rows in their given order: no pivot
    search and no row swap, and small pivots raise instead of smearing.

    The kernel of the classes without ``_fischer_weights`` and of hand-built
    systems.  A class with a zero a_j needs no swap: row alpha stores only
    columns with the same or a larger exponent on each zero axis, so each
    pivot is a pivot of its exponent block, positive by the README's Fischer
    form; a system that needs a swap raises at its zero or small pivot.
    Working row r spans its first stored column (or r) to the last column
    of any row up to it, which holds the fill.  Column col updates only the
    rows before its ``_scan_ends`` bound that store it, up to the last
    column row col reached; the entries it skips are exact zeros, so it
    performs every floating-point operation of a dense loop that can change
    a finite value, in the same order.  A pivot must exceed FLOAT_PIVOT_RTOL
    times the largest magnitude in its row of U, and a multiplier must be
    finite: past an infinite one the dense loop's 0 * inf products would
    give NaN where the band skips them.  Returns five arrays of exactly
    their length, then the smallest |pivot| / row max, at most 1:

    * ``l_start``, ``l_rows``, ``l_factors``: for i from l_start[col] to
      l_start[col + 1], row l_rows[i] lost l_factors[i] times row col, only
      for the rows that held a nonzero in column col;
    * ``u_start``, ``u_values``: row r of U is u_values[u_start[r]:u_start[r + 1]],
      from its diagonal to the last column it reached, zeros included.
    """
    starts = [min((r, *entries)) for r, entries in enumerate(matrix)]
    last = [max((r, *entries)) for r, entries in enumerate(matrix)]
    rows = []
    for entries, start, end in zip(matrix, starts, accumulate(last, max)):
        row = [0.0] * (end - start + 1)
        for c, v in entries.items():
            row[c - start] = v
        rows.append(row)
    l_start, l_rows, l_factors, u_start, u_values = [0], [], [], [0], []
    keep_row, keep_factor = l_rows.append, l_factors.append
    least = 1.0
    for col, bound in enumerate(_scan_ends(matrix)):
        hi = last[col]
        prow = rows[col][col - starts[col]:hi - starts[col] + 1]
        pivot = prow[0]
        row_max = max(map(abs, prow))
        if pivot == 0.0 or abs(pivot) < FLOAT_PIVOT_RTOL * row_max:
            raise IllConditionedSystemError(
                f"pivot {pivot!r} at column {col} is below {FLOAT_PIVOT_RTOL} "
                f"of row max {row_max!r}",
                column=col,
                pivot=pivot,
                row_max=row_max,
                ratio=abs(pivot) / row_max if row_max else 0.0,
            )
        least = min(least, abs(pivot) / row_max)
        width = len(prow)
        for r in range(col + 1, bound):
            off = col - starts[r]
            if off < 0:
                continue
            row = rows[r]
            v = row[off]
            if v == 0.0:
                continue
            factor = v / pivot
            if not -math.inf < factor < math.inf:
                raise IllConditionedSystemError(
                    f"multiplier of row {r} at column {col} is {factor!r} after dividing "
                    f"by pivot {pivot!r}", column=col, pivot=pivot)
            for c in range(1, width):
                row[off + c] -= factor * prow[c]
            if last[r] < hi:
                last[r] = hi
            keep_row(r)
            keep_factor(factor)
        l_start.append(len(l_rows))
        u_values += prow
        u_start.append(len(u_values))
    return (array("i", l_start), array("i", l_rows), array("d", l_factors),
            array("i", u_start), array("d", u_values), least)


def _factor_symmetric(matrix: Sequence[Mapping[int, float]], weights: Sequence[float]) -> tuple:
    """Factors in ``_factor_float``'s format, with no row swaps, for a
    level class A whose rows weighted by its ``_fischer_weights`` d are
    symmetric: a band LDL^T of D*A that searches no pivot.

    D*A = L*P*L^T gives A = (D^-1*L*D)*(D^-1*P*L^T), a unit lower factor
    and U.  The elimination runs on A's rows (working row r is the LDL^T's
    over d_r) and reads and updates only the entries on or right of each
    diagonal, about half the updates of ``_factor_float``: by symmetry, the
    multiplier of row r in column col is (v / pivot) * (d_col / d_r) for the
    pivot row's entry v in column r.  Working row r spans its diagonal to
    the last column of any row above it, which holds the fill, so the rows
    hold about s times the bandwidth entries, not s^2.

    A pivot must exceed FLOAT_PIVOT_RTOL times its diagonal, or the class
    raises; the weights leave that ratio unchanged.  Positive pivots make
    D*A positive definite, up to rounding, so the level operator is
    bijective on this class.  Returns the five arrays, then the smallest
    pivot over its diagonal, at most 1.
    """
    # The running maximum of each row's last column bounds its fill.
    ends = accumulate(map(max, matrix), max)
    rows = []
    for i, (entries, end) in enumerate(zip(matrix, ends)):
        row = [0.0] * (end - i + 1)
        for c, v in entries.items():
            if c >= i:
                row[c - i] = v
        rows.append(row)
    l_start, l_rows, l_factors, u_start, u_values = [0], [], [], [0], []
    keep_row, keep_factor = l_rows.append, l_factors.append
    least = 1.0
    for col, prow in enumerate(rows):
        pivot = prow[0]
        # The diagonal only loses (v / pivot) * (d_col / d_r) * v >= 0.
        diagonal = matrix[col][col]
        ratio = pivot / diagonal
        if not ratio > FLOAT_PIVOT_RTOL:
            raise IllConditionedSystemError(
                f"pivot {pivot!r} at column {col} is below {FLOAT_PIVOT_RTOL} "
                f"of its diagonal {diagonal!r}",
                column=col,
                pivot=pivot,
                ratio=ratio,
            )
        least = min(least, ratio)
        d = weights[col]
        width = len(prow)
        for off in range(1, width):
            v = prow[off]
            if v == 0.0:
                continue
            r = col + off
            factor = v / pivot * (d / weights[r])
            row = rows[r]
            for c in range(width - off):
                row[c] -= factor * prow[off + c]
            keep_row(r)
            keep_factor(factor)
        l_start.append(len(l_rows))
        u_values += prow
        u_start.append(len(u_values))
    return (array("i", l_start), array("i", l_rows), array("d", l_factors),
            array("i", u_start), array("d", u_values), least)


def _factor(rows: Sequence[Mapping[int, float]], weights: Sequence[float] | None) -> tuple:
    """Factors of a float level class: ``_factor_symmetric`` where it has
    ``_fischer_weights``, ``_factor_float`` where it has none."""
    return _factor_float(rows) if weights is None else _factor_symmetric(rows, weights)


def _substitute_float(factors: tuple, rhs: Sequence[float]) -> list[float]:
    """Solve for one right-hand side with the factors of ``_factor_float``
    or ``_factor_symmetric``, replaying the updates in order; with
    ``_factor_float``'s, the answer has the bits of a dense loop in natural
    order.  An unknown that overflows (a subnormal pivot passes the relative
    test) raises, since past it the dense loop's 0 * inf products would give
    NaN where the band skips them.
    """
    l_start, l_rows, l_factors, u_start, u_values, _ = factors
    rhs = list(rhs)
    size = len(rhs)
    i = 0
    for col in range(size):
        b = rhs[col]
        end = l_start[col + 1]
        while i < end:
            rhs[l_rows[i]] -= l_factors[i] * b
            i += 1
    out = [0.0] * size
    for r in range(size - 1, -1, -1):
        lo = u_start[r]
        acc = rhs[r]
        c = r
        for i in range(lo + 1, u_start[r + 1]):
            c += 1
            acc -= u_values[i] * out[c]
        pivot = u_values[lo]
        out[r] = acc / pivot
        if not math.isfinite(out[r]):
            raise IllConditionedSystemError(
                f"unknown {r} is {out[r]!r} after dividing by pivot {pivot!r}",
                column=r,
                pivot=pivot,
            )
    return out


# Every store charges sys.getsizeof of what it holds (``_nbytes``) and about
# what a key adds to the table of the dict or set that holds it.
_SLOT_BYTES = 64

# Level plans by (n, order) and float factors by (order, parity class, axis
# squares) share one store of this many bytes.
LEVEL_STORE_BYTES = 1 << 22

# Exact mode keeps the steps ``_forward_eliminate`` recorded by (order,
# parity class, primitive int axis squares), flattened into one tuple, within
# this many bytes, first-sighting marks included.  The 151 classes of the
# exact benchmark's five fixed surfaces take 281 KB, and 146 of them fit.
EXACT_STORE_BYTES = 1 << 18


def _nbytes(value: object) -> int:
    """``sys.getsizeof`` of the value and, through tuples and slices, of
    everything it holds, the interpreter's shared None and small ints
    excepted."""
    if type(value) is tuple:
        return sys.getsizeof(value) + sum(map(_nbytes, value))
    if type(value) is slice:
        return sys.getsizeof(value) + _nbytes(value.start) + _nbytes(value.stop)
    if value is None or type(value) is int and -5 <= value <= 256:
        return 0
    return sys.getsizeof(value)


class _Store:
    """Values by key, each kept while its key, slot and value fit the bound
    with what is kept already.

    Nothing is evicted: a repeated workload's working set is cyclic, and
    oldest-first eviction under a smaller bound would miss on every solve.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.clear()

    def keep(self, key: tuple, value: object) -> bool:
        size = _nbytes(key) + _SLOT_BYTES + _nbytes(value)
        if self.nbytes + size > self.bound:
            return False
        self.entries[key] = value
        self.nbytes += size
        return True

    def clear(self) -> None:
        self.entries: dict[tuple, object] = {}
        self.nbytes = 0


class _ExactStore(_Store):
    """Recorded eliminations, made on a key's second sighting.

    A first sighting only marks the key, so a one-off solve divides content
    as it eliminates; the second records as it solves and the later ones
    replay.  A recording that does not fit is stopped or dropped, and its
    key kept with None, so it never records again.  Marks count toward
    ``nbytes``; when a mark does not fit, the marks (never the recordings)
    are dropped.
    """

    def admit(self, key: tuple[int, ...]) -> int:
        """The step limit of ``_solve_int`` for this sighting of the key: on
        its second, which records, the room left in packed ints, and -1 on
        any other."""
        if key in self.entries:
            return -1
        size = _nbytes(key) + _SLOT_BYTES
        if key not in self.seen:
            if self.nbytes + size > self.bound:
                self.nbytes -= sum(_nbytes(mark) + _SLOT_BYTES for mark in self.seen)
                self.seen.clear()
            if self.nbytes + size <= self.bound:
                self.seen.add(key)
                self.nbytes += size
            return -1
        self.seen.remove(key)
        self.nbytes -= size
        # A packed int takes 2 bytes or more, so the count alone can rule
        # the steps out before they are all made.
        return (self.bound - self.nbytes) // 2

    def clear(self) -> None:
        super().clear()
        self.seen: set[tuple[int, ...]] = set()


_level_store = _Store(LEVEL_STORE_BYTES)
_exact_store = _ExactStore(EXACT_STORE_BYTES)


def clear_stores() -> None:
    """Empty the level plans, the float factors and the exact recordings,
    so that the next solve runs as in a fresh process."""
    _level_store.clear()
    _exact_store.clear()


# A level's plan holds one (parity, members, factorials) triple per inhabited
# parity class, classes and members in canonical order, with alpha! for each
# member.
LevelPlan = "tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]], ...]"


def level_plan(n: int, order: int) -> LevelPlan:
    """The plan of the order-``order`` level in n variables, from the level
    store or made and offered to it."""
    plan = _level_store.entries.get((n, order))
    if plan is None:
        # Class e holds the e + 2*beta with |beta| = (order - |e|) / 2, so it
        # is inhabited when |e| <= order has the parity of order; for one |e|,
        # combinations give the classes in descending order.
        factorials = list(map(math.factorial, range(order + 1)))
        top = min(n, order)
        classes = []
        for weight in range(top - ((order - top) & 1), -1, -2):
            for ones in combinations(range(n), weight):
                bits = [0] * n
                for j in ones:
                    bits[j] = 1
                parity = tuple(bits)
                members = tuple(_members(parity, (order - weight) >> 1))
                classes.append((parity, members, tuple(
                    [math.prod(map(factorials.__getitem__, alpha)) for alpha in members])))
        plan = tuple(classes)
        _level_store.keep((n, order), plan)
    return plan


def _stored_plan(n: int, order: int) -> LevelPlan | tuple:
    """The plan of the order-``order`` level in n variables if the level
    store holds it, else (): the class lists of that degree read their
    exponent tuples from it."""
    return _level_store.entries.get((n, order), ())


def _shifts(n: int, b: int) -> tuple:
    """The shift program of layout (n, b), from the level store or made and
    offered to it."""
    key = ("shifts", n, b)
    program = _level_store.entries.get(key)
    if program is None:
        program = _shift_program(n, b)
        _level_store.keep(key, program)
    return program


def solve_class(system: ClassSystem) -> dict[tuple[int, ...], Scalar]:
    """Solve one parity block, mapping each member to its D^alpha f
    constant; an all-zero right-hand side gives zeros without elimination.
    A float block is factored by ``_factor``, as the level solve does; an
    exact block's rows and right-hand sides are cleared of denominators
    into int copies for ``_solve_int``.  A block that mixes float and exact
    entries or right-hand sides raises ``ValueError``."""
    kinds = {isinstance(v, float) for part in (system.rhs, *map(dict.values, system.matrix))
             for v in part}
    if len(kinds) > 1:
        raise ValueError("a class system mixes float and exact entries or right-hand sides")
    is_float = True in kinds
    if not system.has_nonzero_rhs():
        zero: Scalar = 0.0 if is_float else Fraction(0)
        return {alpha: zero for alpha in system.members}
    if is_float:
        values = _substitute_float(_factor(system.matrix, system.weights), system.rhs)
    else:
        lcm = math.lcm(*[v.denominator for row in system.matrix for v in row.values()])
        rows = [{c: v.numerator * (lcm // v.denominator) for c, v in row.items()}
                for row in system.matrix]
        den = math.lcm(*[b.denominator for b in system.rhs])
        rhs = [b.numerator * (den // b.denominator) * lcm for b in system.rhs]
        values = [Fraction(num, d * den) for num, d in _solve_int(rows, rhs)[0]]
    return dict(zip(system.members, values))


def solve_homogeneous(
    ph: Poly,
    q2: Poly,
    *,
    stats: SolveStats | None = None,
) -> Poly:
    """Find homogeneous f of degree deg(ph) - 2 with lap(q2*f) = lap(ph).

    For ph of degree below 2 (already harmonic) the answer is zero.  Float
    mode (a float ph or q2) is ``_solve_level`` on ph's class lists as
    floats; exact mode runs it on their int numerators and turns its answer
    into ``Fraction``s.
    """
    order = _level_order(ph, q2)
    if order is None:
        return Poly.zero(ph.n)
    exact = not (q2.is_float() or ph.is_float())
    carry, den = _split(ph, exact, partial(_stored_plan, ph.n))[order + 2]
    f, f_den = _solve_level(carry, order + 2, den, q2 if exact else q2.to_float(), stats)
    terms: dict = {}
    _attach(terms, f, order, f_den, exact, _stored_plan(ph.n, order))
    return Poly._raw(ph.n, terms)


def _solve_level(
    carry: Mapping[tuple[int, ...], list], k: int, den: int, q2: Poly, stats: SolveStats | None
) -> tuple[dict[tuple[int, ...], list], int]:
    """f with lap(q2*f) = lap(carry/den) for a nonzero carry of degree
    k >= 2 given as class lists, as class lists over their denominator.

    After ``_check_level``, each class's right-hand side is its Laplacian,
    run on the shift program, times alpha! from the level plan; only
    classes where it is nonzero are assembled and solved.  Float mode (a
    float q2, den 1) uses the factors stored for the class or stores those
    ``_factor`` makes, on the upper rows where the class has
    ``_fischer_weights``, on the full rows where it has none, and f is the
    solved D^alpha f over alpha!.  Exact mode takes int numerators and
    replays stored factors; otherwise it solves within the step limit
    ``_exact_store.admit`` gives, which records on a class's second
    sighting, and offers the store what was recorded.  Each D^alpha f comes
    out as a reduced int pair, alpha! and den join its denominator, and f
    comes back as int numerators over their lcm, divided by one gcd.
    """
    n = q2.n
    order = k - 2
    float_mode = q2.is_float()
    _check_level(n, q2, order, float_mode)
    # Without stats the clock reads 0.0.
    clock = time.perf_counter if stats is not None else float
    t0 = clock()
    plan = level_plan(n, order)
    a, scale, zero = _axis_squares(q2)
    sources = []
    for parity, members, factorials in plan:
        values = carry.get(parity)
        if values is not None:
            axes = _shifts(n, (order - sum(parity)) >> 1)[2]
            scaled = factorials if scale == 1 else [fact * scale for fact in factorials]
            rhs = list(map(mul, _laplacian(values, parity, axes), scaled))
            if any(rhs):
                sources.append((parity, members, factorials, rhs))
    t1 = clock()
    # Exact rows are built on the axis squares over their gcd, so that
    # proportional surfaces share stored factors; the unknowns then come out
    # content times too large.
    content = 1 if float_mode else math.gcd(*a) or 1
    if content > 1:
        a = [aj // content for aj in a]
    stored = (_level_store if float_mode else _exact_store).entries
    active = []
    for parity, members, factorials, rhs in sources:
        # One flat tuple is the smallest key, and longer than a plan's (n, order).
        key = (order, *parity, *a)
        factors = stored.get(key)
        rows = weights = None
        if factors is None:
            weights = _fischer_weights(a, members, factorials) if float_mode else None
            rows = _level_matrix(a, zero, members, upper=weights is not None)
        active.append((parity, factorials, rows, weights, rhs, key, factors))
    t2 = clock()
    solved = []
    hits = 0
    ratios = []
    for parity, factorials, rows, weights, rhs, key, factors in active:
        if factors is not None:
            hits += 1
            values = _substitute_float(factors, rhs) if float_mode else _replay_int(*factors, rhs)
        elif float_mode:
            factors = _factor(rows, weights)
            _level_store.keep(key, factors)
            values = _substitute_float(factors, rhs)
        else:
            limit = _exact_store.admit(key)
            values, steps = _solve_int(rows, rhs, limit)
            # A recording that stopped or does not fit leaves its key with
            # None, which fits: admitting the recording freed the key's mark.
            if limit >= 0 and (steps is None or not _exact_store.keep(key, _packed(steps))):
                _exact_store.keep(key, None)
        if float_mode:
            ratios.append(factors[-1])
        solved.append((parity, factorials, values))
    t3 = clock()
    if float_mode:
        f = {parity: list(map(truediv, values, factorials))
             for parity, factorials, values in solved}
        f_den = 1
    else:
        dens = {parity: [d * fact if num else 1 for (num, d), fact in zip(values, factorials)]
                for parity, factorials, values in solved}
        lcm = math.lcm(*chain.from_iterable(dens.values()))
        f = {parity: [num * (lcm // d) for (num, _), d in zip(values, dens[parity])]
             for parity, _, values in solved}
        f_den = den * lcm * content
        g = math.gcd(f_den, *chain.from_iterable(f.values()))
        if g > 1:
            f = {parity: [v // g for v in values] for parity, values in f.items()}
            f_den //= g
    t4 = clock()

    if stats is not None:
        den_bits, num_bits = (None, None) if float_mode else (
            den.bit_length(), max(max(map(abs, v)) for v in carry.values()).bit_length())
        stats.levels.append(LevelStats(
            carry_degree=k, system_order=order, class_count=len(plan),
            class_sizes=[len(members) for _, members, _ in plan],
            nonzero_rhs_classes=len(active), rhs_is_zero=not active,
            assemble_ms=(t2 - t1) * 1000.0, solve_ms=(t3 - t2) * 1000.0,
            rebuild_ms=(t4 - t3) * 1000.0, carry_den_bits=den_bits, carry_num_bits=num_bits,
            factor_hits=hits, min_pivot_ratio=min(ratios, default=None),
            rhs_ms=(t1 - t0) * 1000.0))
    return f, f_den


HomogeneousSolver = Callable[[Poly, Poly], Poly]


def solve_dirichlet(
    p: Poly,
    quadric: NonhyperbolicQuadratic,
    *,
    homogeneous_solver: HomogeneousSolver | None = None,
    stats: SolveStats | None = None,
) -> HarmonicDecomposition:
    """Full decomposition p = h + q*f with h harmonic.

    One pass runs from the top degree of p down to 0.  With q = q2 + q1 +
    q0 and p_k, h_k, f_k the degree-k parts, the degree-k part of p = h +
    q*f reads

        carry_k = p_k - q1 * f_(k-1) - q0 * f_k = h_k + q2 * f_(k-2)

    so each carry of degree k >= 2 is split by one level solve for
    f_(k-2), and below degree 2 h_k = carry_k.  Every part is held as class
    lists: exact mode holds q, p_k, f_k and carry_k as int numerators over
    one denominator each and forms ``Fraction``s only for h and f; float
    mode runs the same loop with every denominator 1.  No ``Poly``
    arithmetic runs.  A ``homogeneous_solver`` receives the carry as a
    ``Fraction`` (or float) polynomial and returns f_(k-2).
    """
    if p.n != quadric.n:
        raise DimensionMismatchError(f"operands have dimensions {p.n} and {quadric.n}")
    n = p.n
    exact = not p.is_float()
    q2 = quadric.parts()[0]
    parts_of_q = (quadric.a, quadric.c, (quadric.d,))
    if exact:
        qden = math.lcm(*[v.denominator for part in parts_of_q for v in part])
        a, c, (d,) = ([v.numerator * (qden // v.denominator) for v in part] for part in parts_of_q)
    else:
        q2, qden = q2.to_float(), 1
        a, c, (d,) = ([float(v) for v in part] for part in parts_of_q)
    shifts = partial(_shifts, n)
    plan_of = partial(_stored_plan, n)
    # Without stats the clock reads 0.0.
    clock = time.perf_counter if stats is not None else float

    def level(carry: dict, k: int, den: int) -> tuple[dict, int]:
        """f_(k-2), as class lists and denominator, for the carry carry/den."""
        if homogeneous_solver is None:
            return _solve_level(carry, k, den, q2, stats)
        source: dict = {}
        _attach(source, carry, k, den, exact)
        f = homogeneous_solver(Poly._raw(n, source), q2)
        return _split(f, exact, plan_of).get(k - 2, ({}, 1))

    none: tuple[dict, int] = ({}, 1)
    parts = _split(p, exact, plan_of)
    f_parts: dict[int, tuple[dict, int]] = {}
    h_terms: dict = {}
    f_terms: dict = {}
    for k in range(max(parts, default=0), -1, -1):
        t0 = clock()
        p_k, p_den = parts.get(k, none)
        f1, d1 = f_parts.get(k - 1, none)
        f0, d0 = f_parts.get(k, none)
        den = math.lcm(p_den, qden * d1, qden * d0)
        # q's parts have at most n terms each, so they are scaled instead of
        # the products.
        carry = _carry(k, p_k, den // p_den, f1, [cj * (den // (qden * d1)) for cj in c],
                       f0, d * (den // (qden * d0)), shifts)
        t1 = clock()
        # Zero carries occur whenever p skips a degree and q has no linear
        # part; they need no level.
        solved = k >= 2 and bool(carry)
        if solved:
            f_k2, f_den = f_parts[k - 2] = level(carry, k, den)
            t2 = clock()
            h_den = math.lcm(den, qden * f_den)
            carry = _minus_q2(carry, h_den // den, f_k2,
                              [aj * (h_den // (qden * f_den)) for aj in a], k, shifts)
            t3 = clock()
            _attach(f_terms, f_k2, k - 2, f_den, exact, plan_of(k - 2))
            den = h_den
        # Degrees are disjoint, so h and f are gathered without arithmetic.
        _attach(h_terms, carry, k, den, exact, plan_of(k))
        if solved and homogeneous_solver is None and stats is not None:
            stats.levels[-1] = stats.levels[-1]._replace(
                carry_ms=(t1 - t0 + t3 - t2) * 1000.0,
                fraction_ms=(clock() - t3) * 1000.0 if exact else 0.0)
    return HarmonicDecomposition(h=Poly._raw(n, h_terms), f=Poly._raw(n, f_terms), p=p, q=quadric)
