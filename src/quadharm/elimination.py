"""Exact elimination of sparse int rows.

Every exact system is eliminated here, as int rows and int right-hand sides
that its caller cleared of denominators: the level solve, ``solve_class``,
both oracles and the kernel probe.  ``_forward_eliminate`` is the one
elimination loop: it eliminates a system together with its right-hand side,
scanning each column only down to its ``_scan_ends`` bound (which the float
band LU, ``solver._factor_float``, shares), and either divides out each new
row's content or, given a step limit, divides none and records the steps.
``_replay_int`` applies a recording to any right-hand side, and ``_packed``
holds one in few bytes.  Both paths end in ``_back_substitute``.  Which
classes are recorded, and which recordings are kept, is the level solve's
store policy (``solver``).
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, islice
from typing import Mapping, Sequence


class SingularSystemError(ArithmeticError):
    """A class system was singular in exact mode (internal invariant
    breach); ``column`` is the first column left without a pivot."""

    def __init__(self, message: str, *, column: int | None = None):
        super().__init__(message)
        self.column = column


def _scan_ends(rows: Sequence[Mapping[int, object]]) -> list[int]:
    """For each column, one past the last row that can store it while the
    rows are eliminated: the running maximum, over columns, of one past the
    last row whose first stored column is that column.

    An update adds entries only right of its pivot column, so no row ever
    stores a column left of its first one.  The ends never decrease, and
    the steps before a column update and swap only rows before their own
    column's end, so each row from that column's end on is still the given
    row, which does not store it.  On a banded system the ends follow the
    band; on a block upper-triangular one each column stays in its block.
    """
    ends = [0] * len(rows)
    for r, row in enumerate(rows, 1):
        if row:
            ends[min(row)] = r
    return list(accumulate(ends, max))


def _forward_eliminate(rows: list[dict[int, int]], rhs: list[int], limit: float = -1
                       ) -> tuple[list[int], list[int] | None]:
    """Gaussian elimination in place on sparse int rows ``{column: nonzero
    int}``, such as ``level_rows`` or ``verify._operator_matrix`` makes,
    and on their right-hand side.

    Each column pivots on the stored entry of fewest bits among the unused
    rows before its ``_scan_ends`` bound, the first winning ties.  Each
    later row storing the pivot column becomes (p/g)*row - (v/g)*pivot_row
    with g = gcd(p, v), and so does its right-hand side, and cancelled
    entries are deleted, so a banded system fills in only within its band.
    A column with no stored entry left to pivot on stays free.

    Returns the pivot columns, where row i holds its pivot in column
    pivots[i] and nothing left of it, and the steps.  Below a ``limit`` of
    0, each updated row's content and its right-hand side's is divided out
    and the steps are None.  From 0 on, no content is divided and the steps
    are recorded for ``_replay_int``: for each column top in turn they hold
    p, k and k triples (r, a, b): rows top and p were swapped, then rhs[r] =
    a*rhs[r] - b*rhs[top] for each triple; then row top of the result, which
    pivots in column top, as its entry count and (column, entry) pairs.  As
    soon as the steps of the columns done pass ``limit``, or a column stays
    free, the steps are dropped, content is divided from the next column
    on, and None is returned in their place.
    """
    pivots: list[int] = []
    steps: list[int] | None = [] if limit >= 0 else None
    for col, end in enumerate(_scan_ends(rows)):
        top = len(pivots)
        pivot_row, bits = -1, 0
        for r in range(top, end):
            v = rows[r].get(col)
            if v is not None and (pivot_row < 0 or v.bit_length() < bits):
                pivot_row, bits = r, v.bit_length()
        if pivot_row < 0:
            steps = None
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            rhs[top], rhs[pivot_row] = rhs[pivot_row], rhs[top]
        prow = rows[top]
        pivot = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        top_rhs = rhs[top]
        ops = []
        for r in range(top + 1, end):
            row = rows[r]
            v = row.pop(col, None)
            if v is None:
                continue
            g = math.gcd(pivot, v)
            a, b = pivot // g, v // g
            if a != 1:
                row = {c: a * x for c, x in row.items()}
            for c, pv in tail:
                new = row.get(c, 0) - b * pv
                if new:
                    row[c] = new
                else:
                    del row[c]
            b_r = a * rhs[r] - b * top_rhs
            if steps is None:
                g = math.gcd(*row.values(), b_r)
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
                    b_r //= g
            else:
                ops += (r, a, b)
            rows[r] = row
            rhs[r] = b_r
        if steps is not None:
            steps += (pivot_row, len(ops) // 3, *ops, len(prow))
            for item in prow.items():
                steps += item
            if len(steps) > limit:
                steps = None
        pivots.append(col)
    return pivots, steps


def _back_substitute(
    rows: list[dict[int, int]], rhs: list[int], pivots: Sequence[int], out: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Fill the pivot unknowns of ``out``, which enter as (0, 1), bottom up,
    each a reduced (numerator, positive denominator) pair; free unknowns
    keep the pair they hold.

    Each row's sum is kept as an int numerator over the lcm of the
    denominators it has met, and reduced once.
    """
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        row = rows[r]
        num, den = rhs[r], 1
        for c, v in row.items():
            x, d = out[c]
            if x:
                if d != den:
                    lcm = den // math.gcd(den, d) * d
                    num *= lcm // den
                    den = lcm
                num -= v * x * (den // d)
        den *= row[col]
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        out[col] = (num // g, den // g)
    return out


# A stored elimination: the steps ``_forward_eliminate`` recorded, in one
# array, and the position and value of each int set apart because it is too
# large for the array's items; the array holds 0 there (``_packed``).
IntFactors = "tuple[array | list[int], tuple[int, ...]]"

# About what an int set apart costs: two tuple slots and two int objects.
_SPILL_BYTES = 80


def _packed(values: list[int]) -> IntFactors:
    """The ints in an array of 2-, 4- or 8-byte items, whichever takes the
    fewest bytes with the ints too large for its items set apart."""
    bits = [v.bit_length() for v in values]
    _, code, limit = min(
        (item * len(values) + _SPILL_BYTES * sum(b > limit for b in bits), code, limit)
        for code, item, limit in (("h", 2, 15), ("i", 4, 31), ("q", 8, 63)))
    spill = tuple(x for i, v in enumerate(values) if bits[i] > limit for x in (i, v))
    for i in spill[::2]:
        values[i] = 0
    return array(code, values), spill


def _replay_int(steps: Sequence[int], spill: tuple[int, ...], rhs: list[int]
                ) -> list[tuple[int, int]]:
    """Solve for one int right-hand side, changed in place, with the steps
    ``_forward_eliminate`` recorded, or the ``_packed`` steps and their ints
    set apart, then ``_back_substitute``: the reduced (numerator,
    denominator) of each unknown."""
    if spill:
        steps = list(steps)
        for i in range(0, len(spill), 2):
            steps[spill[i]] = spill[i + 1]
    steps = iter(steps)
    size = len(rhs)
    rows = []
    for top in range(size):
        p, k = next(steps), next(steps)
        if p != top:
            rhs[top], rhs[p] = rhs[p], rhs[top]
        b_top = rhs[top]
        ops = islice(steps, 3 * k)
        for r, a, b in zip(ops, ops, ops):
            rhs[r] = a * rhs[r] - b * b_top
        entries = islice(steps, 2 * next(steps))
        rows.append(dict(zip(entries, entries)))
    return _back_substitute(rows, rhs, range(size), [(0, 1)] * size)


def _solve_int(rows: list[dict[int, int]], rhs: list[int], limit: float = -1
               ) -> tuple[list[tuple[int, int]], list[int] | None]:
    """Solve sparse int rows in place: the reduced (numerator, denominator)
    of each unknown, and the steps ``_forward_eliminate`` records within
    ``limit``, or None.  A singular system raises with its first free
    column."""
    pivots, steps = _forward_eliminate(rows, rhs, limit)
    if len(pivots) < len(rhs):
        col = min(set(range(len(rhs))).difference(pivots))
        raise SingularSystemError(
            f"singular system at column {col}; the operator should be bijective",
            column=col,
        )
    return _back_substitute(rows, rhs, pivots, [(0, 1)] * len(rhs)), steps

