"""Class lists and shift programs against plain tuple arithmetic."""

import random

import pytest

from quadharm import Poly, multi_indices
import quadharm.layout as layout
import quadharm.solver as solver
from conftest import random_fraction


def unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(n))


def shifted(beta, n, j, step):
    return tuple(x + step * u for x, u in zip(beta, unit(n, j)))


@pytest.mark.parametrize("n", range(1, 6))
def test_members_are_the_plan_order(n):
    for order in range(11):
        for parity, members, _ in solver.level_plan(n, order):
            assert layout._members(parity, (order - sum(parity)) // 2) == list(members)


@pytest.mark.parametrize("n", range(1, 6))
def test_shift_programs_move_each_beta_by_one_unit_vector(n):
    for b in range(6):
        low, high = list(multi_indices(n, b)), list(multi_indices(n, b + 1))
        size_low, size_high, axes = layout._shift_program(n, b)
        assert (size_low, size_high) == (len(low), len(high))
        for j, (down, up, weights) in enumerate(axes):
            assert list(layout._gather(high, down)) == [shifted(beta, n, j, 1) for beta in low]
            padded = low + [None] * (len(high) - len(low))
            assert list(layout._gather(padded, up)) == [
                shifted(gamma, n, j, -1) if gamma[j] else None for gamma in high]
            for e, table in enumerate(weights):
                assert list(table) == [(e + 2 * beta[j] + 2) * (e + 2 * beta[j] + 1)
                                       for beta in low]


def test_runs_continue_only_where_both_sides_do():
    # Axis 0 moves layout b onto the head of layout b + 1, one run; each
    # of the last two axes moves one run of theirs per head.
    _, _, axes = layout._shift_program(4, 5)
    (first, _, _), (second, _, _), (third, _, _), (last, _, _) = axes
    heads = len(list(multi_indices(3, 5)))
    assert len(first) == 1
    assert len(second) == len(list(multi_indices(2, 5)))
    assert len(third) == len(last) == heads


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("n", range(1, 5))
def test_split_and_attach_give_back_the_polynomial(exact, n):
    # Member lists made for the terms' classes, or read from level plans.
    rng = random.Random(n)
    for _ in range(5):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            alpha = tuple(rng.randint(0, 5) for _ in range(n))
            terms[alpha] = random_fraction(rng)
        p = Poly(n, terms) if exact else Poly(n, terms).to_float()
        made = layout._split(p, exact, lambda k: ())
        assert layout._split(p, exact, lambda k: solver.level_plan(n, k)) == made
        for with_plans in (False, True):
            out: dict = {}
            for k, (classes, den) in made.items():
                for parity, values in classes.items():
                    assert len(values) == layout._layout_size(n, (k - sum(parity)) // 2)
                    assert all(type(v) is (int if exact else float) for v in values)
                    assert any(values)
                plan = solver.level_plan(n, k) if with_plans else ()
                layout._attach(out, classes, k, den, exact, plan)
            assert Poly._raw(n, out) == p


@pytest.mark.parametrize("n", range(1, 5))
def test_laplacian_of_a_class_list_is_the_polynomial_laplacian(n):
    rng = random.Random(10 + n)
    for k in range(2, 9):
        p = Poly(n, {alpha: random_fraction(rng) for alpha in multi_indices(n, k)
                     if rng.random() < 0.6})
        (classes, den), = layout._split(p, True, lambda k: ()).values()
        lap = {}
        for parity, values in classes.items():
            b = (k - sum(parity)) // 2
            if b:
                axes = layout._shift_program(n, b - 1)[2]
                lap[parity] = list(layout._laplacian(values, parity, axes))
        out: dict = {}
        layout._attach(out, lap, k - 2, den, True)
        assert out == p.laplacian().terms


def test_one_variable_has_no_pair_of_tail_axes():
    assert layout._members((1,), 3) == [(7,)]
    low, high, ((down, up, weights),) = layout._shift_program(1, 3)
    assert (low, high, weights) == (1, 1, ((56,), (72,)))
    assert down == up == (slice(0, 1),)


def test_shift_programs_live_in_the_level_store():
    program = solver._shifts(3, 4)
    assert solver._level_store.entries[("shifts", 3, 4)] is program
    assert solver._shifts(3, 4) is program
    solver.clear_stores()
    assert not solver._level_store.entries
