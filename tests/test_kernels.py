"""The exact and float elimination kernels against reference loops."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from quadharm import (
    ClassSystem,
    IllConditionedSystemError,
    NonhyperbolicQuadratic,
    Poly,
    SingularSystemError,
    operator_is_bijective,
    operator_kernel,
    solve_class,
)
from quadharm.elimination import (
    _forward_eliminate,
    _back_substitute,
    _packed,
    _replay_int,
    _scan_ends,
    _solve_int,
)
from quadharm.polynomial import multi_factorial
from quadharm.solver import (
    FLOAT_PIVOT_RTOL,
    _factor_float,
    _factor_symmetric,
    _fischer_weights,
    _level_matrix,
    _substitute_float,
    level_plan,
)
from quadharm.verify import _kernel_basis, _operator_matrix
from conftest import column_steps, fractions_st


def dense_natural_order(matrix, rhs):
    """The float kernel as a dense loop in natural order: no row swap, every
    row below the pivot, every column right of it.  Kept here as the
    reference, with the kernel's pivot test and overflow checks."""
    matrix = [list(row) for row in matrix]
    rhs = list(rhs)
    size = len(rhs)
    for col in range(size):
        prow = matrix[col]
        pivot = prow[col]
        row_max = max(abs(v) for v in prow[col:])
        if pivot == 0.0 or abs(pivot) < FLOAT_PIVOT_RTOL * row_max:
            raise IllConditionedSystemError(
                f"pivot {pivot!r} at column {col} is below {FLOAT_PIVOT_RTOL} of row max {row_max!r}"
            )
        for r in range(col + 1, size):
            v = matrix[r][col]
            if v == 0.0:
                continue
            factor = v / pivot
            if not math.isfinite(factor):
                raise IllConditionedSystemError(
                    f"multiplier of row {r} at column {col} is {factor!r} "
                    f"after dividing by pivot {pivot!r}")
            row = matrix[r]
            row[col] = 0.0
            for cc in range(col + 1, size):
                row[cc] -= factor * prow[cc]
            rhs[r] -= factor * rhs[col]
    out = [0.0] * size
    for r in range(size - 1, -1, -1):
        acc = rhs[r]
        row = matrix[r]
        for cc in range(r + 1, size):
            acc -= row[cc] * out[cc]
        out[r] = acc / row[r]
        if not math.isfinite(out[r]):
            raise IllConditionedSystemError(
                f"unknown {r} is {out[r]!r} after dividing by pivot {row[r]!r}")
    return out


def fraction_forward_eliminate(rows, rhs):
    """The oracle's elimination before it moved to integer rows: the same
    textbook pivot rule on sparse ``Fraction`` rows, subtracting
    (v / pivot) * pivot_row.  Kept here as the reference."""
    size = len(rows)
    pivots = []
    for col in range(size):
        top = len(pivots)
        pivot_row = next((r for r in range(top, size) if col in rows[r]), -1)
        if pivot_row < 0:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            rhs[top], rhs[pivot_row] = rhs[pivot_row], rhs[top]
        prow = rows[top]
        pivot = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        top_rhs = rhs[top]
        for r in range(top + 1, size):
            row = rows[r]
            v = row.pop(col, None)
            if v is None:
                continue
            factor = v / pivot
            for c, pv in tail:
                new = row.get(c, 0) - factor * pv
                if new:
                    row[c] = new
                else:
                    del row[c]
            if top_rhs:
                rhs[r] -= factor * top_rhs
        pivots.append(col)
    return pivots


def unbounded_forward_eliminate(rows, rhs):
    """``_forward_eliminate`` before its scans stopped at ``_scan_ends``:
    every unused row, for every column.  Kept here as the reference."""
    size = len(rows)
    pivots = []
    for col in range(size):
        top = len(pivots)
        pivot_row, bits = -1, 0
        for r in range(top, size):
            v = rows[r].get(col)
            if v is not None and (pivot_row < 0 or v.bit_length() < bits):
                pivot_row, bits = r, v.bit_length()
        if pivot_row < 0:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            rhs[top], rhs[pivot_row] = rhs[pivot_row], rhs[top]
        prow = rows[top]
        pivot = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        top_rhs = rhs[top]
        for r in range(top + 1, size):
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
            g = math.gcd(*row.values(), b_r)
            if g > 1:
                row = {c: x // g for c, x in row.items()}
                b_r //= g
            rows[r] = row
            rhs[r] = b_r
        pivots.append(col)
    return pivots


def unbounded_record_int(rows, rhs, columns=None):
    """The recording elimination before its scans stopped at ``_scan_ends``,
    with no limit, stopped after ``columns`` columns if given; the
    right-hand side takes each row swap and update.  Kept here as the
    reference."""
    size = len(rows)
    steps = []
    for col in range(size if columns is None else columns):
        pivot_row, bits = -1, 0
        for r in range(col, size):
            v = rows[r].get(col)
            if v is not None and (pivot_row < 0 or v.bit_length() < bits):
                pivot_row, bits = r, v.bit_length()
        if pivot_row < 0:
            raise SingularSystemError(f"singular system at column {col}", column=col)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        prow = rows[col]
        pivot = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        ops = []
        for r in range(col + 1, size):
            row = rows[r]
            v = row.pop(col, None)
            if v is None:
                continue
            g = math.gcd(pivot, v)
            a, b = pivot // g, v // g
            if a != 1:
                row = rows[r] = {c: a * x for c, x in row.items()}
            for c, pv in tail:
                new = row.get(c, 0) - b * pv
                if new:
                    row[c] = new
                else:
                    del row[c]
            rhs[r] = a * rhs[r] - b * rhs[col]
            ops += (r, a, b)
        steps += (pivot_row, len(ops) // 3, *ops, len(prow))
        for item in prow.items():
            steps += item
    return steps


def fraction_back_substitute(rows, rhs, pivots, out):
    """The oracle's back-substitution before it moved to integer rows, one
    ``Fraction`` operation per stored entry.  Kept here as the reference."""
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = rhs[r]
        for c, v in rows[r].items():
            if c != col and out[c]:
                acc -= v * out[c]
        out[col] = acc / rows[r][col]
    return out


def fraction_solve(matrix, rhs):
    """The reference textbook solve on ``Fraction`` rows; a singular system
    names its first free column, as the oracle does."""
    rows, rhs = sparse_rows(matrix), list(rhs)
    pivots = fraction_forward_eliminate(rows, rhs)
    if len(pivots) < len(rhs):
        col = min(set(range(len(rhs))).difference(pivots))
        raise SingularSystemError(f"singular at column {col}", column=col)
    return fraction_back_substitute(rows, rhs, pivots, [Fraction(0)] * len(rhs))


def rref_kernel(matrix):
    """The kernel probe before it shared the oracle's textbook elimination:
    reduced row echelon form, then per free column that unknown set to 1
    and each pivot unknown to minus its row's entry there.  Kept here as the
    reference."""
    matrix = [list(row) for row in matrix]
    size = len(matrix)
    pivot_cols = []
    row = 0
    for col in range(size):
        pivot = -1
        for r in range(row, size):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot < 0:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        pv = matrix[row][col]
        matrix[row] = [v / pv for v in matrix[row]]
        for r in range(size):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivot_cols.append(col)
        row += 1
        if row == size:
            break
    kernel = []
    for fc in (c for c in range(size) if c not in pivot_cols):
        vec = [Fraction(0)] * size
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[r][fc]
        kernel.append(vec)
    return kernel


@st.composite
def systems(draw, entries, zero=0):
    """A square system whose nonzeros lie in a random band; the band may be
    the whole matrix, and the diagonal may be zero to force row swaps."""
    size = draw(st.integers(1, 7))
    lower = draw(st.integers(0, size - 1))
    upper = draw(st.integers(0, size - 1))
    zero_diagonal = draw(st.booleans())
    matrix = [
        [draw(entries) if -lower <= j - i <= upper and not (zero_diagonal and i == j) else zero
         for j in range(size)]
        for i in range(size)
    ]
    rhs = [draw(entries) for _ in range(size)]
    return matrix, rhs


@st.composite
def singular_systems(draw, entries):
    """A ``systems`` draw with one row overwritten by a combination of two
    others (or a multiple of one)."""
    matrix, rhs = draw(systems(entries))
    size = len(rhs)
    assume(size >= 2)
    target = draw(st.integers(0, size - 1))
    i, j = draw(st.lists(st.integers(0, size - 1).filter(lambda k: k != target),
                         min_size=2, max_size=2))
    ci, cj = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    matrix[target] = [ci * x + cj * y for x, y in zip(matrix[i], matrix[j])]
    return matrix, rhs


def as_fractions(matrix, rhs):
    return [[Fraction(v) for v in row] for row in matrix], [Fraction(v) for v in rhs]


def sparse_rows(matrix):
    """Dense rows as every elimination takes them: {column: nonzero entry}."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def int_rows(matrix, rhs):
    """Dense rational rows as sparse primitive int rows: each row and its
    right-hand side times the lcm of their denominators, over the gcd of
    the results.  The system keeps its solutions."""
    rows, out = [], []
    for row, b in zip(matrix, rhs):
        den = math.lcm(*[Fraction(v).denominator for v in (*row, b)])
        nums = [int(v * den) for v in (*row, b)]
        g = math.gcd(*nums) or 1
        out.append(nums.pop() // g)
        rows.append({c: v // g for c, v in enumerate(nums) if v})
    return rows, out


def class_system(matrix, rhs):
    """A hand-built exact ``ClassSystem`` of dense rows, member (i,) for row i."""
    return ClassSystem((0,), tuple((i,) for i in range(len(rhs))), sparse_rows(matrix),
                       tuple(rhs))


def class_solve(matrix, rhs):
    """``solve_class`` on ``class_system``, as a list."""
    return list(solve_class(class_system(matrix, rhs)).values())


def dense_rows(rows, size):
    return [[row.get(c, Fraction(0)) for c in range(size)] for row in rows]


def reference_exact(matrix, rhs):
    """The textbook ``Fraction`` solve, or None when the system is singular."""
    try:
        return fraction_solve(*as_fractions(matrix, rhs))
    except SingularSystemError:
        return None


def is_primitive_int_row(row, b):
    values = [*row.values(), b]
    return (all(type(v) is int for v in values) and 0 not in row.values()
            and math.gcd(*values) in (0, 1))


EXACT_ENTRIES = {
    "int": st.integers(-9, 9),
    "fraction": fractions_st(),
}
# Small dyadic and decimal floats, never -0.0 (as in the assembled systems).
FLOAT_ENTRIES = st.one_of(
    st.integers(-40, 40).map(lambda k: k / 4),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0),
)


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_exact_kernel_matches_dense_oracle(kind, data):
    matrix, rhs = data.draw(systems(EXACT_ENTRIES[kind]))
    expected = reference_exact(matrix, rhs)
    assume(expected is not None)
    got = class_solve(matrix, rhs)
    assert got == expected
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_exact_kernel_raises_on_singular_systems(kind, data):
    matrix, rhs = data.draw(singular_systems(EXACT_ENTRIES[kind]))
    with pytest.raises(SingularSystemError) as info:
        _solve_int(*int_rows(matrix, rhs))
    assert 0 <= info.value.column < len(rhs)


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_oracle_kernel_basis_matches_rref(kind, data):
    matrix, rhs = as_fractions(*data.draw(singular_systems(EXACT_ENTRIES[kind])))
    expected = rref_kernel(matrix)
    assert expected
    basis = _kernel_basis(int_rows(matrix, [0] * len(rhs))[0])
    assert basis == expected
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix)
    # The solve names the first free column, the last nonzero of basis[0].
    with pytest.raises(SingularSystemError) as info:
        _solve_int(*int_rows(matrix, rhs))
    assert info.value.column == max(c for c, x in enumerate(basis[0]) if x)


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_oracle_solve_matches_fraction_reference(kind, data):
    # The one exact solve, used by the class systems and both oracles, on
    # int or Fraction entries as drawn; the reference gets Fractions.  A
    # singular system goes to ``_solve_int``, as ``solve_class`` gives
    # zeros for a zero right-hand side without eliminating.
    strategy = data.draw(st.sampled_from([systems, singular_systems]))
    matrix, rhs = data.draw(strategy(EXACT_ENTRIES[kind]))
    try:
        expected = fraction_solve(*as_fractions(matrix, rhs))
    except SingularSystemError as reference_error:
        with pytest.raises(SingularSystemError) as info:
            _solve_int(*int_rows(matrix, rhs))
        assert info.value.column == reference_error.column
        return
    got = class_solve(matrix, rhs)
    assert got == expected
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_oracle_elimination_keeps_primitive_int_rows(kind, data):
    strategy = data.draw(st.sampled_from([systems, singular_systems]))
    matrix, rhs = as_fractions(*data.draw(strategy(EXACT_ENTRIES[kind])))
    rows, int_rhs = int_rows(matrix, rhs)
    pivots, steps = _forward_eliminate(rows, int_rhs)
    assert pivots == fraction_forward_eliminate(sparse_rows(matrix), list(rhs))
    assert steps is None
    assert all(is_primitive_int_row(row, b) for row, b in zip(rows, int_rhs))
    for r, col in enumerate(pivots):
        assert min(rows[r]) == col


CLASS_ENTRIES = {**EXACT_ENTRIES, "mixed": st.one_of(*EXACT_ENTRIES.values())}


@pytest.mark.parametrize("kind", sorted(CLASS_ENTRIES))
@given(data=st.data())
def test_solve_class_clears_denominators_without_changing_the_rows(kind, data):
    # Int, Fraction or mixed entries and rational right-hand sides: the
    # answers and singular columns of the Fraction reference, and the
    # stored rows as they were, entry types included.
    strategy = data.draw(st.sampled_from([systems, singular_systems]))
    matrix, _ = data.draw(strategy(CLASS_ENTRIES[kind]))
    rhs = data.draw(st.lists(fractions_st(), min_size=len(matrix), max_size=len(matrix)))
    system = class_system(matrix, rhs)
    before = repr(system.matrix)
    try:
        expected = fraction_solve(*as_fractions(matrix, rhs))
    except SingularSystemError as reference_error:
        assume(any(rhs))
        with pytest.raises(SingularSystemError) as info:
            solve_class(system)
        assert info.value.column == reference_error.column
    else:
        got = solve_class(system)
        assert list(got) == list(system.members)
        assert list(got.values()) == expected
        assert all(type(v) is Fraction for v in got.values())
    assert repr(system.matrix) == before


def test_scan_ends_are_a_running_maximum_over_first_columns():
    # First columns 2, 0, 2, none and 1: column 0 can reach row 1 at most,
    # and column 1, through row 4's first column, every row.
    rows = [{2: 1, 3: 1}, {0: 1}, {4: 1, 2: 5}, {}, {3: 2, 1: 1}]
    assert _scan_ends(rows) == [2, 5, 5, 5, 5]
    assert _scan_ends([{0: 1, 1: 1}, {0: 1, 2: 1}, {2: 1}]) == [2, 2, 3]


@pytest.mark.parametrize("kind", sorted(EXACT_ENTRIES))
@given(data=st.data())
def test_bounded_scans_match_the_unbounded_eliminations(kind, data):
    # Rows in random order, so that first columns are not monotone and the
    # scan ends jump; rows storing a column past its end would be missed.
    strategy = data.draw(st.sampled_from([systems, singular_systems]))
    matrix, rhs = as_fractions(*data.draw(strategy(EXACT_ENTRIES[kind])))
    order = data.draw(st.permutations(range(len(rhs))))
    rows, int_rhs = int_rows([matrix[i] for i in order], [rhs[i] for i in order])
    recorded_rows, recorded_rhs = list(map(dict.copy, rows)), list(int_rhs)
    reference_rows, reference_rhs = list(map(dict.copy, rows)), list(int_rhs)
    expected_rows, expected_rhs = list(map(dict.copy, rows)), list(int_rhs)
    expected = unbounded_forward_eliminate(expected_rows, expected_rhs)
    assert _forward_eliminate(rows, int_rhs) == (expected, None)
    assert (rows, int_rhs) == (expected_rows, expected_rhs)
    # The recording mode: the same pivot columns, and on a regular system
    # the same steps, rows and right-hand side.
    pivots, steps = _forward_eliminate(recorded_rows, recorded_rhs, math.inf)
    assert pivots == expected
    try:
        expected_steps = unbounded_record_int(reference_rows, reference_rhs)
    except SingularSystemError:
        assert steps is None
        return
    assert steps == expected_steps
    assert (recorded_rows, recorded_rhs) == (reference_rows, reference_rhs)


def test_int_solve_gives_reduced_pairs_with_positive_denominators():
    # x1 = -3/6 and x0 = (2 - 2 * x1) / -4, each reduced once.
    assert _solve_int([{0: -4, 1: 2}, {1: 6}], [2, -3]) == ([(-3, 4), (-1, 2)], None)
    assert _solve_int([{0: 5}], [0]) == ([(0, 1)], None)


def test_pivot_is_the_entry_of_fewest_bits():
    rows, rhs = [{0: 12, 1: 1}, {0: 1, 1: 1}], [1, 2]
    assert _forward_eliminate(rows, rhs) == ([0, 1], None)
    assert (rows, rhs) == ([{0: 1, 1: 1}, {1: -11}], [2, -23])
    # 3 and -2 both have two bits: the first row keeps the pivot.
    rows, rhs = [{0: 3, 1: 1}, {0: -2, 1: 1}], [1, 2]
    assert _forward_eliminate(rows, rhs) == ([0, 1], None)
    assert (rows, rhs) == ([{0: 3, 1: 1}, {1: 5}], [1, 8])


def replayed(steps, spill, rhs):
    """The replay's answer for a copy of rhs, as ``Fraction``s."""
    return [Fraction(*pair) for pair in _replay_int(steps, spill, list(rhs))]


def recorded(matrix, rhs=None, limit=math.inf):
    """The steps of the recording elimination of the int matrix."""
    return _forward_eliminate(sparse_rows(matrix), list(rhs or [0] * len(matrix)), limit)[1]


@given(data=st.data())
def test_one_recorded_elimination_serves_every_right_hand_side(data):
    # Drawn systems may have a zero diagonal, which forces row swaps.
    matrix, first = data.draw(systems(EXACT_ENTRIES["int"]))
    assume(reference_exact(matrix, first) is not None)
    size = len(first)
    others = data.draw(st.lists(st.lists(EXACT_ENTRIES["int"], min_size=size, max_size=size),
                                min_size=1, max_size=3))
    # The recording sighting solves its own right-hand side as it records.
    rows, rhs = sparse_rows(matrix), list(first)
    values, steps = _solve_int(rows, rhs, math.inf)
    assert [Fraction(*pair) for pair in values] == fraction_solve(*as_fractions(matrix, first))
    kept = list(steps)
    packed, spill = _packed(list(steps))
    stored = packed.tolist()
    for rhs in (first, [0] * size, *others):
        expected = fraction_solve(*as_fractions(matrix, rhs))
        assert replayed(steps, (), rhs) == expected
        assert replayed(packed, spill, rhs) == expected
    assert steps == kept and packed.tolist() == stored
    # A limit below the steps' count stops the recording; one at it does not.
    assert recorded(matrix, first, len(steps)) == steps
    assert recorded(matrix, first, len(steps) - 1) is None


@given(data=st.data())
def test_a_stop_past_the_limit_gives_the_fused_answer(data):
    # Every limit from -1 past the steps' count: the steps come back only
    # when nothing stopped, and the answer is the fused one.  The columns up
    # to the one whose steps passed the limit are eliminated as recorded, and
    # the columns after it as the fused elimination of what remains.
    strategy = data.draw(st.sampled_from([systems, singular_systems]))
    matrix, rhs = data.draw(strategy(EXACT_ENTRIES["int"]))
    size = len(rhs)
    try:
        fused = _solve_int(sparse_rows(matrix), list(rhs))
    except SingularSystemError as error:
        fused = error.column
    full = recorded(matrix, rhs)
    passed = [] if full is None else list(accumulate(column_steps(full)))
    for limit in range(-1, (passed or [0])[-1] + 2):
        rows, got_rhs = sparse_rows(matrix), list(rhs)
        pivots, steps = _forward_eliminate(rows, got_rhs, limit)
        assert steps == (full if passed and limit >= passed[-1] else None)
        if type(fused) is int:
            assert len(pivots) < size and min(set(range(size)) - set(pivots)) == fused
            continue
        assert _back_substitute(rows, got_rhs, pivots, [(0, 1)] * size) == fused[0]
        if limit < 0 or steps is not None:
            continue
        stop = next(col for col, count in enumerate(passed) if count > limit) + 1
        expected_rows, expected_rhs = sparse_rows(matrix), list(rhs)
        unbounded_record_int(expected_rows, expected_rhs, stop)
        tail = [{c - stop: v for c, v in row.items()} for row in expected_rows[stop:]]
        tail_rhs = expected_rhs[stop:]
        unbounded_forward_eliminate(tail, tail_rhs)
        tail = [{c + stop: v for c, v in row.items()} for row in tail]
        assert rows == expected_rows[:stop] + tail and got_rhs == expected_rhs[:stop] + tail_rhs


def test_recording_keeps_its_row_swaps():
    matrix = ((0, 2, 1), (3, 1, 0), (0, 4, 5))
    steps = recorded(matrix)
    # Column 0 pivots on row 1, the only one storing it, and updates no row.
    assert steps[:2] == [1, 0]
    for rhs in ((1, 1, -3), (0, 0, 0), (0, 7, 0)):
        assert replayed(steps, (), rhs) == reference_exact(matrix, rhs)


def test_recording_pivots_on_the_entry_of_fewest_bits():
    # The rule of _forward_eliminate: 1 has fewer bits than 12, and of 3
    # and -2, both of two bits, the first row keeps the pivot.
    assert recorded([[12, 1], [1, 1]])[:2] == [1, 1]
    assert recorded([[3, 1], [-2, 1]])[:2] == [0, 1]


def test_packing_sets_apart_the_ints_too_large_for_its_items():
    values, spill = _packed([5] * 100 + [2**70, -7])
    assert (values.typecode, spill) == ("h", (100, 2**70))
    assert values.tolist() == [5] * 100 + [0, -7]
    # Three ints: 8-byte items cost less than one set apart.
    values, spill = _packed([1, 2**40, -3])
    assert (values.typecode, spill, values.tolist()) == ("q", (), [1, 2**40, -3])
    # A system with entries past 63 bits replays from its packed steps.
    matrix = ((2**70 + 1, 3, 0), (5, 2**66 - 1, 7), (0, 11, 2**64 + 13))
    steps = recorded(matrix)
    values, spill = _packed(list(steps))
    assert spill
    for rhs in ((1, 2, 3), (2**80, 0, -1)):
        assert replayed(values, spill, rhs) == reference_exact(matrix, rhs)


@given(data=st.data())
def test_recording_names_the_first_free_column_of_a_singular_system(data):
    matrix, rhs = data.draw(singular_systems(EXACT_ENTRIES["int"]))
    with pytest.raises(SingularSystemError) as reference:
        fraction_solve(*as_fractions(matrix, rhs))
    assert recorded(matrix, rhs) is None
    with pytest.raises(SingularSystemError) as info:
        _solve_int(sparse_rows(matrix), list(rhs), math.inf)
    assert info.value.column == reference.value.column
    assert f"column {info.value.column}" in str(info.value)


@given(systems(FLOAT_ENTRIES, 0.0))
def test_float_kernel_is_bit_identical_to_dense_loop(system):
    matrix, rhs = system
    try:
        expected = dense_natural_order(matrix, rhs)
    except IllConditionedSystemError as dense_error:
        with pytest.raises(IllConditionedSystemError) as info:
            _substitute_float(_factor_float(sparse_rows(matrix)), rhs)
        assert str(info.value) == str(dense_error)
        return
    got = _substitute_float(_factor_float(sparse_rows(matrix)), rhs)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@given(systems(FLOAT_ENTRIES, 0.0), st.lists(st.lists(FLOAT_ENTRIES, min_size=7, max_size=7),
                                             min_size=3, max_size=3))
def test_one_float_factorization_serves_three_right_hand_sides(system, right_hand_sides):
    matrix, _ = system
    size = len(matrix)
    try:
        factors = _factor_float(sparse_rows(matrix))
    except IllConditionedSystemError as error:
        with pytest.raises(IllConditionedSystemError) as dense_error:
            dense_natural_order(matrix, [0.0] * size)
        assert str(error) == str(dense_error.value)
        return
    # Row r of U is row r from its pivot on, as the pivot test read it.
    u_start, u_values = factors[3], factors[4]
    u_rows = [u_values[u_start[r]:u_start[r + 1]] for r in range(size)]
    assert factors[-1] == min(abs(row[0]) / max(map(abs, row)) for row in u_rows)
    for rhs in right_hand_sides:
        rhs = rhs[:size]
        try:
            expected = dense_natural_order(matrix, rhs)
        except IllConditionedSystemError as dense_error:
            with pytest.raises(IllConditionedSystemError) as info:
                _substitute_float(factors, rhs)
            assert str(info.value) == str(dense_error)
            continue
        got = _substitute_float(factors, rhs)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_float_overflow_raises_instead_of_returning_inf():
    # The subnormal pivot passes the relative test, but 0.25 / pivot
    # overflows; the dense loop would then multiply 0.0 by inf.
    matrix = [[0.25, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 2.2250738585e-313]]
    rhs = [0.0, 0.0, 0.25]
    with pytest.raises(IllConditionedSystemError) as info:
        _substitute_float(_factor_float(sparse_rows(matrix)), rhs)
    assert (info.value.column, info.value.pivot) == (2, 2.2250738585e-313)
    with pytest.raises(IllConditionedSystemError) as dense_error:
        dense_natural_order(matrix, rhs)
    assert str(info.value) == str(dense_error.value)


def test_an_all_zero_row_raises_with_ratio_zero():
    for matrix in ([{}], [{0: 1.0, 1: 2.0}, {}]):
        col = len(matrix) - 1
        with pytest.raises(IllConditionedSystemError) as info:
            _factor_float(matrix)
        err = info.value
        assert (err.column, err.pivot, err.row_max, err.ratio) == (col, 0.0, 0.0, 0.0)
        assert str(err) == f"pivot 0.0 at column {col} is below 1e-12 of row max 0.0"


def test_an_overflowing_multiplier_raises():
    # The subnormal pivot passes the relative test, but 1.0 / pivot is inf;
    # the dense loop would go on with inf * 0.0 = NaN where the band skips.
    matrix = [[5e-324, 0.0], [1.0, 1.0]]
    with pytest.raises(IllConditionedSystemError) as info:
        _factor_float(sparse_rows(matrix))
    err = info.value
    assert (err.column, err.pivot, err.row_max, err.ratio) == (0, 5e-324, None, None)
    assert str(err) == "multiplier of row 1 at column 0 is inf after dividing by pivot 5e-324"
    with pytest.raises(IllConditionedSystemError) as dense_error:
        dense_natural_order(matrix, [1.0, 1.0])
    assert str(dense_error.value) == str(err)


def test_zero_leading_entry_forces_a_swap():
    # The exact loop swaps rows; the float kernel swaps none and raises at
    # the zero pivot.
    matrix = ((0, 2, 1), (3, 1, 0), (0, 4, 5))
    rhs = (Fraction(1, 2), 1, Fraction(-3))
    assert class_solve(matrix, rhs) == reference_exact(matrix, rhs)
    float_matrix = tuple(tuple(float(v) for v in row) for row in matrix)
    with pytest.raises(IllConditionedSystemError) as info:
        _factor_float(sparse_rows(float_matrix))
    err = info.value
    assert (err.column, err.pivot, err.row_max, err.ratio) == (0, 0.0, 2.0, 0.0)
    assert str(err) == "pivot 0.0 at column 0 is below 1e-12 of row max 2.0"


def fischer_weight(alpha, a):
    """1 / (alpha! * prod_j a_j^(alpha_j // 2)) as a ``Fraction``."""
    w = Fraction(multi_factorial(alpha))
    for aj, e in zip(a, alpha):
        w *= aj ** (e // 2)
    return 1 / w


def pivots_of(factors):
    """The diagonal of U in the five-array factors."""
    u_start, u_values = factors[3], factors[4]
    return [u_values[u_start[r]] for r in range(len(u_start) - 1)]


@pytest.mark.parametrize("n", range(2, 6))
def test_weighted_level_classes_are_symmetric_and_positive_definite(n):
    rng = random.Random(n)
    for order in range(10):
        a = [Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(n)]
        floats = [float(aj) for aj in a]
        for _, members, factorials in level_plan(n, order):
            rows = _level_matrix(a, Fraction(0), members)
            d = [fischer_weight(alpha, a) for alpha in members]
            for r, row in enumerate(rows):
                for c, v in row.items():
                    assert d[r] * v == d[c] * rows[c][r]
            # The float weights are the exact ones times one power of two,
            # to a few ulps.
            weights = _fischer_weights(floats, members, factorials)
            scale = weights[0] / float(d[0])
            assert all(abs(w / (float(x) * scale) - 1) <= 8 * 2.0 ** -52
                       for w, x in zip(weights, d))
            float_rows = _level_matrix(floats, 0.0, members)
            factors = _factor_symmetric(float_rows, weights)
            pivots = pivots_of(factors)
            assert all(p > 0.0 for p in pivots)
            assert 0.0 < factors[-1] == min(p / row[r] for r, (p, row) in
                                            enumerate(zip(pivots, float_rows))) <= 1.0


def natural_order_pivots(rows, size):
    """The pivots of exact sparse rows eliminated in natural order, with no
    row swap; None at the first zero pivot."""
    rows = [dict(row) for row in rows]
    pivots = []
    for col in range(size):
        prow = rows[col]
        pivot = prow.get(col, 0)
        if pivot == 0:
            return None
        pivots.append(pivot)
        for row in rows[col + 1:]:
            v = row.pop(col, 0)
            if v:
                for c, pv in prow.items():
                    if c > col:
                        row[c] = row.get(c, 0) - v / pivot * pv
    return pivots


@pytest.mark.parametrize("n", range(2, 6))
def test_zero_axis_classes_need_no_row_swap(n):
    # Row alpha stores only columns with the same or a larger exponent on
    # each zero axis, so the natural order's pivots are those of each
    # exponent block eliminated alone: positive, as the blocks are classes
    # in the positive axes.
    rng = random.Random(100 + n)
    for order in range({2: 30, 3: 16, 4: 11, 5: 8}[n]):
        zeros = rng.sample(range(n), rng.randint(1, n - 1))
        a = [Fraction(0) if j in zeros else Fraction(rng.randint(1, 40), rng.randint(1, 12))
             for j in range(n)]
        floats = [float(aj) for aj in a]
        for _, members, _ in level_plan(n, order):
            rows = _level_matrix(a, Fraction(0), members)
            block = [tuple(alpha[z] for z in zeros) for alpha in members]
            for r, row in enumerate(rows):
                assert all(x >= y for c in row for x, y in zip(block[c], block[r]))
            pivots = natural_order_pivots(rows, len(members))
            assert pivots is not None and all(p > 0 for p in pivots)
            for key in set(block):
                inside = [i for i, b in enumerate(block) if b == key]
                at = {i: k for k, i in enumerate(inside)}
                own = [{at[c]: v for c, v in rows[i].items() if c in at} for i in inside]
                assert natural_order_pivots(own, len(inside)) == [pivots[i] for i in inside]
            factors = _factor_float(_level_matrix(floats, 0.0, members))
            assert all(p > 0.0 for p in pivots_of(factors))
            assert 0.0 < factors[-1] <= 1.0


def test_symmetric_kernel_agrees_with_the_band_lu():
    rng = random.Random(7)
    for n, orders in ((2, range(0, 31, 3)), (3, range(1, 31, 4)), (4, range(0, 13, 3))):
        for order in orders:
            a = [rng.uniform(0.05, 20.0) for _ in range(n)]
            for _, members, factorials in level_plan(n, order):
                rows = _level_matrix(a, 0.0, members)
                weights = _fischer_weights(a, members, factorials)
                factors = _factor_symmetric(rows, weights)
                # It reads only the entries on or right of the diagonal.
                upper = _level_matrix(a, 0.0, members, upper=True)
                assert upper == [{c: v for c, v in row.items() if c >= r}
                                 for r, row in enumerate(rows)]
                assert _factor_symmetric(upper, weights) == factors
                rhs = [rng.uniform(-1.0, 1.0) for _ in members]
                want = _substitute_float(_factor_float(rows), rhs)
                got = _substitute_float(factors, rhs)
                scale = max(map(abs, want))
                assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale


def test_symmetric_kernel_raises_on_a_small_pivot():
    # Symmetric with unit weights; the second pivot is 1e-14 of its diagonal.
    matrix = [{0: 1.0, 1: 1.0}, {0: 1.0, 1: 1.0 + 2.0 ** -46}]
    with pytest.raises(IllConditionedSystemError) as info:
        _factor_symmetric(matrix, [1.0, 1.0])
    err = info.value
    assert (err.column, err.pivot, err.row_max) == (1, 2.0 ** -46, None)
    assert err.ratio == 2.0 ** -46 / (1.0 + 2.0 ** -46)
    assert str(err) == (f"pivot {2.0 ** -46!r} at column 1 is below {FLOAT_PIVOT_RTOL} "
                        f"of its diagonal {1.0 + 2.0 ** -46!r}")


def test_weights_exist_only_for_positive_axes_within_the_float_range():
    plan = level_plan(2, 168)
    (_, members, factorials), = [c for c in plan if c[0] == (0, 0)]
    # d_alpha spans about 10^252 here, and 10^504 for 10^6.
    assert _fischer_weights([1000.0, 1.0], members, factorials) is not None
    assert _fischer_weights([1e6, 1.0], members, factorials) is None
    assert _fischer_weights([1.0, 1e6], members, factorials) is None
    _, members, factorials = level_plan(3, 4)[0]
    assert _fischer_weights([1.0, 0.0, 2.0], members, factorials) is None


def test_oracle_singular_system_carries_column():
    matrix = [[Fraction(1, 2), Fraction(1), Fraction(3)],
              [Fraction(1), Fraction(2), Fraction(-1, 3)],
              [Fraction(0), Fraction(0), Fraction(5, 7)]]
    with pytest.raises(SingularSystemError) as info:
        _solve_int(*int_rows(matrix, [Fraction(1)] * 3))
    assert info.value.column == 1
    assert "column 1" in str(info.value)


# Eliminating column 0 cancels row 1's entry in column 1 exactly and fills
# row 2's empty column 2, so column 1 must pivot on row 2.  A cancelled
# entry left stored would be taken for a zero pivot.
CANCELLING = [[Fraction(1, 2), Fraction(1), Fraction(1, 3)],
              [Fraction(3, 2), Fraction(3), Fraction(2)],
              [Fraction(1), Fraction(1, 4), Fraction(0)]]


def test_oracle_elimination_deletes_exact_cancellations():
    rhs = [Fraction(1), Fraction(2), Fraction(3)]
    rows, int_rhs = int_rows(CANCELLING, rhs)
    assert _forward_eliminate(rows, int_rhs) == ([0, 1, 2], None)
    # The primitive int row proportional to {1: -7/4, 2: -2/3}.
    assert rows[1] in ({1: -21, 2: -8}, {1: 21, 2: 8})
    assert all(is_primitive_int_row(row, b) for row, b in zip(rows, int_rhs))
    got = class_solve(CANCELLING, rhs)
    assert got == reference_exact(CANCELLING, rhs)
    assert all(type(v) is Fraction for v in got)
    assert all(sum(a * x for a, x in zip(row, got)) == b for row, b in zip(CANCELLING, rhs))


def test_oracle_kernel_after_exact_cancellation():
    # Row 2 is row 0 plus row 1: after column 0 it cancels in column 1 and
    # then against row 1 in column 2, leaving column 1 free.
    matrix = CANCELLING[:2] + [[a + b for a, b in zip(CANCELLING[0], CANCELLING[1])]]
    rows, zeros = int_rows(matrix, [0] * 3)
    assert _kernel_basis(list(map(dict.copy, rows))) == rref_kernel(matrix) == [[-2, 1, 0]]
    assert _forward_eliminate(rows, zeros) == ([0, 2], None)
    assert rows[2] == {}
    with pytest.raises(SingularSystemError) as info:
        _solve_int(*int_rows(matrix, [Fraction(1)] * 3))
    assert info.value.column == 1


# Kernel dimensions of f -> laplacian(q*f) on P_m, m = 0..4: three
# hyperbolic quadratics, then three valid surfaces.
KERNEL_DIMENSIONS = [
    (Poly(2, {(2, 0): 1, (0, 2): -1}), [1, 1, 2, 2, 3]),
    (Poly(2, {(2, 0): 1, (0, 2): -3}), [0, 1, 1, 1, 2]),
    (Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2}), [1, 1, 1, 3, 3]),
    (NonhyperbolicQuadratic((2, 3, 4), (0, 0, 0), -1), [0] * 5),
    (NonhyperbolicQuadratic((1, 2, 0), (0, 0, -1), 0), [0] * 5),
    (NonhyperbolicQuadratic((1, 1), (0, 0), -1), [0] * 5),
]


def test_operator_kernel_of_more_than_one_dimension():
    # x1^2 - x2^2 is harmonic, and so is xy * (x1^2 - x2^2) = Im(z^4) / 4.
    q = Poly(2, {(2, 0): 1, (0, 2): -1})
    basis = operator_kernel(q, 2)
    assert len(basis) == 2
    assert all(set(v.terms) <= {(0, 0), (1, 1)} for v in basis)
    for surface, dims in KERNEL_DIMENSIONS:
        q_poly = surface if isinstance(surface, Poly) else surface.to_polynomial()
        for order, dim in enumerate(dims):
            rows, monomials = _operator_matrix(q_poly, order)
            size = len(monomials)
            assert len(rref_kernel(dense_rows(rows, size))) == dim
            basis = operator_kernel(surface, order)
            assert len(basis) == dim
            assert operator_is_bijective(surface, order) == (dim == 0)
            for v in basis:
                assert not v.is_zero()
                assert (q_poly * v).laplacian().is_zero()
            # Independent: the matrix whose columns are the basis vectors
            # (padded with zero columns) has rank dim.
            columns = [[v.coefficient(alpha) for v in basis] + [0] * (size - dim)
                       for alpha in monomials]
            assert len(rref_kernel(columns)) == size - dim
