"""Partitioned level systems and the degree-descending cascade."""

import gc
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quadharm import (
    ClassSystem,
    DimensionMismatchError,
    IllConditionedSystemError,
    NonhyperbolicQuadratic,
    Poly,
    SingularSystemError,
    SolveStats,
    assemble_class_systems,
    multi_indices,
    multi_indices_upto,
    oracle_full_system,
    oracle_operator_matrix,
    parity_class,
    solve_class,
    solve_dirichlet,
    solve_homogeneous,
    verify_solution,
)
import quadharm.layout as layout
import quadharm.solver as solver
from quadharm.bench import dense_boundary, full_reference_solver
from quadharm.polynomial import multi_factorial, taylor_reconstruct
from quadharm.solver import LevelStats, level_rows
from conftest import all_degree, column_steps, random_fraction, random_poly, random_quadric


def test_every_exported_name_resolves():
    import quadharm

    namespace: dict = {}
    exec("from quadharm import *", namespace)
    assert len(set(quadharm.__all__)) == len(quadharm.__all__)
    assert all(namespace[name] is getattr(quadharm, name) for name in quadharm.__all__)


def sphere(n: int = 3) -> NonhyperbolicQuadratic:
    return NonhyperbolicQuadratic((1,) * n, (0,) * n, -1)


PARABOLOID = NonhyperbolicQuadratic(
    (Fraction(2, 3), Fraction(5, 2), 0), (Fraction(1, 2), -3, -3), Fraction(-307, 54))
SHIFTED_ELLIPSOID = NonhyperbolicQuadratic((1, 2, 3), (1, -1, Fraction(1, 2)), -2)
# Axis squares with denominators 2, 3 and 4: exact rows are scaled by L = 12.
NON_INTEGER_AXES = NonhyperbolicQuadratic(
    (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)), (1, 0, Fraction(-1, 3)), -1)


class TestParityClass:
    def test_signature(self):
        assert parity_class((3, 0, 2)) == (1, 0, 0)
        assert parity_class((0, 0)) == (0, 0)

    def test_members_share_parity(self):
        systems = assemble_class_systems(
            Poly.monomial(2, (2, 2)), Poly(2, {(2, 0): 1, (0, 2): 1}), 4)
        for sysm in systems:
            for alpha in sysm.members:
                assert parity_class(alpha) == sysm.parity


class TestAssembly:
    def test_order_zero_single_equation(self):
        # q2 = 2 x1^2 + 3 x2^2, boundary x1^2: the one equation is 10 f = 2
        q2 = Poly(2, {(2, 0): 2, (0, 2): 3})
        systems = assemble_class_systems(Poly.constant(2, 2), q2, 0)
        assert len(systems) == 1
        assert systems[0].matrix == [{0: Fraction(10)}]
        assert systems[0].rhs == (Fraction(2),)
        assert solve_class(systems[0]) == {(0, 0): Fraction(1, 5)}

    def test_order_two_hand_assembled_blocks(self):
        # q2 = x1^2 + 2 x2^2: 2S = 6.  Even block rows for (2,0) and (0,2):
        #   (2,0): diagonal 6 + 8 + 2, neighbour 2
        #   (0,2): diagonal 6 + 16 + 4, neighbour 4
        # Odd block row for (1,1): diagonal 6 + 4(1 + 2).
        q2 = Poly(2, {(2, 0): 1, (0, 2): 2})
        rhs_source = Poly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
        odd, even = assemble_class_systems(rhs_source, q2, 2)  # parity keys descend
        assert even.members == ((2, 0), (0, 2))
        assert even.matrix == [{0: Fraction(16), 1: Fraction(2)},
                               {0: Fraction(4), 1: Fraction(26)}]
        assert even.rhs == (Fraction(2), Fraction(2))
        assert odd.members == ((1, 1),)
        assert odd.matrix == [{0: Fraction(18)}]
        assert odd.rhs == (Fraction(1),)

    def test_classes_partition_all_indices(self):
        q2 = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        systems = assemble_class_systems(Poly.monomial(3, (4, 0, 0)), q2, 4)
        seen = [alpha for s in systems for alpha in s.members]
        assert len(seen) == len(set(seen)) == 15  # comb(6, 4)

    def test_float_mode_gets_float_entries(self):
        q2 = Poly(2, {(2, 0): 1, (0, 2): 1}).to_float()
        systems = assemble_class_systems(Poly.constant(2, 2).to_float(), q2, 0)
        assert isinstance(systems[0].matrix[0][0], float)
        assert isinstance(systems[0].rhs[0], float)

    def test_rhs_is_the_derivative_constant(self, rng):
        q2 = Poly(3, {(2, 0, 0): 2, (0, 2, 0): 3, (0, 0, 2): 4})
        for order in (0, 3, 6):
            rhs_source = Poly(3, {
                alpha: random_fraction(rng) for alpha in multi_indices(3, order)
                if rng.random() < 0.7})
            for system in assemble_class_systems(rhs_source, q2, order):
                for alpha, value in zip(system.members, system.rhs):
                    assert value == rhs_source.d_alpha(alpha).coefficient((0, 0, 0))

    def test_cross_term_in_quadratic_part_rejected(self):
        bad = Poly(2, {(1, 1): 1, (2, 0): 1})
        with pytest.raises(ValueError):
            assemble_class_systems(Poly.constant(2, 1), bad, 0)


class TestNonIntegerAxisSquares:
    def test_solution_matches_both_oracles(self, rng):
        q = NON_INTEGER_AXES
        p = all_degree(rng, 3, 6)
        dec = solve_dirichlet(p, q)
        reference = oracle_operator_matrix(p, q)
        assert dec.h == reference.h and dec.f == reference.f
        unpartitioned = solve_dirichlet(
            p, q, homogeneous_solver=lambda s, q2: oracle_full_system(s, q2, s.degree() - 2))
        assert unpartitioned.h == dec.h and unpartitioned.f == dec.f

    def test_exact_rows_are_ints_and_rhs_is_scaled(self, rng):
        q2 = NON_INTEGER_AXES.parts()[0]
        rhs_source = Poly(3, {alpha: random_fraction(rng) for alpha in multi_indices(3, 4)})
        for system in assemble_class_systems(rhs_source, q2, 4):
            assert all(type(v) is int for row in system.matrix for v in row.values())
            for alpha, value in zip(system.members, system.rhs):
                assert value == 12 * rhs_source.d_alpha(alpha).coefficient((0, 0, 0))

    def test_int_rhs_source_gives_int_rhs(self, rng):
        q2 = NON_INTEGER_AXES.parts()[0]
        rhs_source = Poly._raw(3, {alpha: rng.randint(-9, 9) or 1
                                   for alpha in multi_indices(3, 4) if rng.random() < 0.6})
        for system in assemble_class_systems(rhs_source, q2, 4):
            assert all(type(v) is int for v in system.rhs)
            for alpha, value in zip(system.members, system.rhs):
                assert value == 12 * rhs_source.d_alpha(alpha).coefficient((0, 0, 0))

    def test_full_system_solves_divide_exactly(self, rng):
        # The full system comes back as level_rows made it: int entries, and
        # a plain 0 for a missing coefficient.  Both eliminations that read
        # it divide, and ints must not divide into floats.
        q2 = NON_INTEGER_AXES.parts()[0]
        ph = Poly(3, {alpha: random_fraction(rng) for alpha in multi_indices(3, 6)})
        # Its Laplacian lacks every coefficient with x1^2 x2^2 in it.
        sparse = Poly(3, {alpha: c for alpha, c in ph.terms.items() if min(alpha[:2]) < 2})
        for source in (ph, sparse):
            rows, rhs = level_rows(source.laplacian(), q2, list(multi_indices(3, 4)))
            assert all(type(v) is int for row in rows for v in row.values())
            expected = solve_homogeneous(source, q2)
            for solver in (full_reference_solver, lambda s, q: oracle_full_system(s, q, 4)):
                got = solver(source, q2)
                assert got == expected
                assert all(type(c) is Fraction for c in got.terms.values())
        assert 0 in rhs


class TestLevelRouteGuards:
    """The public level routes refuse what the level solve refuses, with its
    error, before they build a plan or a row."""

    ROUTES = {
        "assemble_class_systems": lambda ph, q2, order: assemble_class_systems(
            ph.laplacian(), q2, order),
        "level_rows": lambda ph, q2, order: level_rows(
            ph.laplacian(), q2, list(multi_indices(q2.n, order))),
        "full_reference_solver": lambda ph, q2, order: full_reference_solver(ph, q2),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_a_float_order_past_the_limit_raises_the_level_solve_error(self, route):
        ph = Poly(2, {(175, 0): 1.0})
        for q2 in (Poly(2, {(2, 0): 1, (0, 2): 1}), Poly(2, {(2, 0): 1.0, (0, 2): 1.0})):
            with pytest.raises(IllConditionedSystemError) as level:
                solve_homogeneous(ph, q2)
            assert str(level.value) == "order 173 is past 170, where alpha! overflows a float"
            with pytest.raises(IllConditionedSystemError) as info:
                self.ROUTES[route](ph, q2, 173)
            assert str(info.value) == str(level.value)
            assert (2, 173) not in solver._level_store.entries

    @pytest.mark.parametrize("route", ["level_rows", "full_reference_solver"])
    def test_a_source_of_fewer_variables_than_q2_raises(self, route):
        ph = Poly(2, {(3, 1): 1, (0, 4): 2})
        q2 = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
        with pytest.raises(DimensionMismatchError, match="dimensions 2 and 3"):
            self.ROUTES[route](ph, q2, 2)


class TestUnpartitionedRouteGuards:
    """The unpartitioned level routes guard ph as ``solve_homogeneous``
    does, before they build anything."""

    ROUTES = {
        "full_reference_solver": full_reference_solver,
        "oracle_full_system": lambda ph, q2: oracle_full_system(ph, q2, 2),
    }
    Q2 = Poly(2, {(2, 0): 1, (0, 2): 1})

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_a_zero_source_gives_zero(self, route):
        assert solve_homogeneous(Poly.zero(2), self.Q2) == Poly.zero(2)
        assert self.ROUTES[route](Poly.zero(2), self.Q2) == Poly.zero(2)

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_a_source_of_two_degrees_raises(self, route):
        # Dropping x1^3 would give an f with lap(q2*f) - lap(ph) = -6*x1.
        ph = Poly(2, {(4, 0): 1, (3, 0): 1})
        for solve in (solve_homogeneous, self.ROUTES[route]):
            with pytest.raises(ValueError, match="boundary component must be homogeneous"):
                solve(ph, self.Q2)


class TestSolveClass:
    @pytest.mark.parametrize("float_mode", [False, True], ids=["exact", "float"])
    def test_kernels_leave_the_stored_rows_unchanged(self, rng, float_mode):
        q2 = NON_INTEGER_AXES.parts()[0]
        rhs_source = Poly(3, {alpha: random_fraction(rng) for alpha in multi_indices(3, 6)})
        if float_mode:
            q2, rhs_source = q2.to_float(), rhs_source.to_float()
        systems = assemble_class_systems(rhs_source, q2, 6)
        before = [[dict(row) for row in s.matrix] for s in systems]
        assert all(v != 0 for s in systems for row in s.matrix for v in row.values())
        assert max(len(s.members) for s in systems) > 1
        for system in systems:
            assert system.has_nonzero_rhs()
            solve_class(system)
        assert [s.matrix for s in systems] == before

    def test_zero_rhs_short_circuits_to_typed_zeros(self):
        q2 = Poly(2, {(2, 0): 1, (0, 2): 1})
        systems = assemble_class_systems(Poly.monomial(2, (2, 0)), q2, 2)
        odd = next(s for s in systems if s.parity == (1, 1))
        assert not odd.has_nonzero_rhs()
        out = solve_class(odd)
        assert out == {(1, 1): Fraction(0)}
        assert isinstance(out[(1, 1)], Fraction)

    def test_exact_singular_matrix_raises(self):
        system = ClassSystem(
            parity=(0, 0),
            members=((2, 0), (0, 2)),
            matrix=[{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}],
            rhs=(Fraction(1), Fraction(2)),
        )
        with pytest.raises(SingularSystemError) as info:
            solve_class(system)
        assert info.value.column == 1
        assert str(info.value) == "singular system at column 1; the operator should be bijective"

    def test_float_tiny_pivot_raises(self):
        system = ClassSystem(
            parity=(0, 0, 0),
            members=((2, 0, 0), (0, 2, 0), (0, 0, 2)),
            matrix=[
                {0: 1.0},
                {1: 1e-16, 2: 1.0},
                {2: 1.0},
            ],
            rhs=(1.0, 1.0, 1.0),
        )
        with pytest.raises(IllConditionedSystemError) as info:
            solve_class(system)
        err = info.value
        assert (err.column, err.pivot, err.row_max, err.ratio) == (1, 1e-16, 1.0, 1e-16)
        assert str(err) == "pivot 1e-16 at column 1 is below 1e-12 of row max 1.0"

    @pytest.mark.parametrize("system", [
        ClassSystem((0,), ((0,), (1,)), [{0: 1.0}, {1: 1.0}], (1, 2.0)),
        ClassSystem((0,), ((0,),), [{0: 1.0}], (Fraction(1),)),
    ], ids=["exact-and-float-rhs", "float-rows-exact-rhs"])
    def test_a_system_mixing_float_and_exact_values_raises(self, system):
        with pytest.raises(ValueError) as info:
            solve_class(system)
        assert str(info.value) == (
            "a class system mixes float and exact entries or right-hand sides")


class TestCascade:
    """Single homogeneous components through the degree-descending pass."""

    def test_paraboloid_hand_solution(self):
        # x1^2 on the surface x3 = -(x1^2 + x2^2)
        q = NonhyperbolicQuadratic((1, 1, 0), (0, 0, 1), 0)
        p = Poly.monomial(3, (2, 0, 0))
        dec = solve_dirichlet(p, q)
        h, f = dec.h, dec.f
        assert f == Poly.constant(3, Fraction(1, 2))
        assert h == Poly(3, {
            (2, 0, 0): Fraction(1, 2),
            (0, 2, 0): Fraction(-1, 2),
            (0, 0, 1): Fraction(-1, 2)})
        assert h.laplacian().is_zero()

    def test_low_degree_passthrough(self):
        dec = solve_dirichlet(Poly.variable(3, 0), sphere())
        assert dec.h == Poly.variable(3, 0) and dec.f.is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_dirichlet(Poly.monomial(2, (2, 0)), sphere(3))


class TestSolveDirichlet:
    def test_harmonic_input_passes_through(self):
        p = Poly(3, {(1, 1, 0): 1, (0, 0, 1): 5})
        dec = solve_dirichlet(p, sphere())
        assert dec.h == p and dec.f.is_zero()

    def test_defining_identities_on_random_inputs(self, rng):
        for _ in range(15):
            n = rng.randint(2, 3)
            q = random_quadric(rng, n)
            p = random_poly(rng, n, rng.randint(2, 5), terms=4)
            dec = solve_dirichlet(p, q)
            assert dec.h.laplacian().is_zero()
            assert (p - dec.h - q.to_polynomial() * dec.f).is_zero()
            if dec.f.degree() is not None:
                assert dec.f.degree() <= p.degree() - 2

    def test_multiplier_keeps_boundary_parity(self):
        # an even/odd pattern in the boundary survives into f
        dec = solve_dirichlet(Poly.monomial(3, (4, 3, 0)), sphere())
        assert not dec.f.is_zero()
        for alpha in dec.f.terms:
            assert parity_class(alpha) == (0, 1, 0)

    @pytest.mark.parametrize("q", [PARABOLOID, SHIFTED_ELLIPSOID], ids=["paraboloid", "shifted"])
    def test_one_pass_equals_sum_of_component_cascades(self, rng, q):
        p = all_degree(rng, 3, 8)
        dec = solve_dirichlet(p, q)
        h_sum, f_sum = Poly.zero(3), Poly.zero(3)
        for _, component in p.homogeneous_components():
            part = solve_dirichlet(component, q)
            h_sum, f_sum = h_sum + part.h, f_sum + part.f
        assert dec.h == h_sum and dec.f == f_sum
        assert all(isinstance(c, Fraction) for c in (*dec.h.terms.values(), *dec.f.terms.values()))

    @pytest.mark.parametrize("q", [PARABOLOID, SHIFTED_ELLIPSOID], ids=["paraboloid", "shifted"])
    def test_one_level_solve_per_degree(self, rng, q):
        top = 8
        stats = SolveStats()
        solve_dirichlet(all_degree(rng, 3, top), q, stats=stats)
        assert [lv.carry_degree for lv in stats.levels] == list(range(top, 1, -1))

    def test_stats_for_monomial_on_sphere(self):
        stats = SolveStats()
        solve_dirichlet(Poly.monomial(2, (6, 0)), sphere(2), stats=stats)
        assert [lv.system_order for lv in stats.levels] == [4, 2, 0]
        assert all(lv.nonzero_rhs_classes == 1 for lv in stats.levels)

    def test_float_answer_is_accurate_on_a_high_degree_monomial(self):
        # A level system written in f's own coefficients instead of the
        # Taylor constants reached 3.3e-10 here; the Taylor form gives 8e-16.
        q = NonhyperbolicQuadratic((1, 2, 0), (0, 0, 1), 0)
        p = Poly.monomial(3, (32, 0, 0))
        exact = solve_dirichlet(p, q).h
        approx = solve_dirichlet(p.to_float(), q).h
        scale = float(exact.max_abs_coefficient())
        error = max(abs(approx.coefficient(alpha) - float(exact.coefficient(alpha)))
                    for alpha in set(exact.terms) | set(approx.terms))
        assert error <= 1e-13 * scale

    def test_float_mode_residual_small(self, rng):
        q = random_quadric(rng, 3, "ellipsoid")
        p = random_poly(rng, 3, 5, terms=5).to_float()
        dec = solve_dirichlet(p, q)
        qf = q.to_polynomial().to_float()
        residual = p - dec.h - qf * dec.f
        assert float(residual.max_abs_coefficient()) < 1e-9
        assert float(dec.h.laplacian().max_abs_coefficient()) < 1e-9

    def test_solve_homogeneous_agrees_with_cascade_when_pure(self):
        # with q1 = q0 = 0 the cascade top level is the whole story
        q = NonhyperbolicQuadratic((2, 3), (0, 0), 0)
        p = Poly.monomial(2, (4, 2))
        f_top = solve_homogeneous(p, q.parts()[0])
        dec = solve_dirichlet(p, q)
        assert dec.f == f_top
        assert dec.h == p - q.parts()[0] * f_top


def _lcm_den(poly: Poly) -> int:
    return math.lcm(*[c.denominator for c in poly.terms.values()])


class TestLevelStats:
    def test_exact_carry_bit_lengths_match_a_recomputation(self, rng):
        q = SHIFTED_ELLIPSOID
        p = all_degree(rng, 3, 8)
        stats = SolveStats()
        dec = solve_dirichlet(p, q, stats=stats)
        _, q1, q0 = q.parts()
        qden = _lcm_den(q.to_polynomial())
        assert qden == 2
        zero = Poly.zero(3)
        p_parts = dict(p.homogeneous_components())
        f_parts = dict(dec.f.homogeneous_components())
        assert len(stats.levels) == 7
        for lv in stats.levels:
            k = lv.carry_degree
            p_k = p_parts.get(k, zero)
            f_above, f_same = f_parts.get(k - 1, zero), f_parts.get(k, zero)
            carry = p_k - q1 * f_above - q0 * f_same
            den = math.lcm(_lcm_den(p_k), qden * _lcm_den(f_above), qden * _lcm_den(f_same))
            numerators = [c * den for c in carry.terms.values()]
            assert all(v.denominator == 1 for v in numerators)
            assert lv.carry_den_bits == den.bit_length()
            assert lv.carry_num_bits == max(abs(v) for v in numerators).numerator.bit_length()
            assert lv.carry_den_bits > 1 and lv.carry_num_bits > lv.carry_den_bits

    def test_stats_compare_and_print_by_value(self, rng):
        p = all_degree(rng, 3, 5)
        first, second = SolveStats(), SolveStats()
        solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=first)
        solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=second)
        times = dict.fromkeys(
            ["assemble_ms", "solve_ms", "rebuild_ms", "rhs_ms", "carry_ms", "fraction_ms"], 0.0)
        untimed = [lv._replace(**times) for lv in first.levels]
        assert SolveStats(untimed) == SolveStats([lv._replace(**times) for lv in second.levels])
        assert SolveStats() == SolveStats([]) != SolveStats(untimed)
        assert repr(SolveStats(untimed[:1])) == f"SolveStats(levels=[{untimed[0]!r}])"
        assert repr(untimed[0]).startswith("LevelStats(carry_degree=5, system_order=3, ")

    def test_float_levels_report_their_smallest_pivot_ratio(self, rng):
        p = all_degree(rng, 3, 9)
        exact = SolveStats()
        solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=exact)
        assert all(lv.min_pivot_ratio is None for lv in exact.levels)
        for q in (SHIFTED_ELLIPSOID, PARABOLOID):
            solver.clear_stores()
            stats = SolveStats()
            solve_dirichlet(p.to_float(), q, stats=stats)
            # Every level has its own order, and only solved classes are stored.
            by_order: dict = {}
            for key, factors in float_factors().items():
                by_order.setdefault(key[0], []).append(factors[-1])
            assert [lv.min_pivot_ratio for lv in stats.levels] == [
                min(by_order[lv.system_order]) for lv in stats.levels]
            assert all(0.0 < lv.min_pivot_ratio <= 1.0 for lv in stats.levels)

    def test_float_mode_leaves_bit_lengths_unset(self, rng):
        stats = SolveStats()
        solve_dirichlet(all_degree(rng, 3, 6).to_float(), SHIFTED_ELLIPSOID, stats=stats)
        assert stats.levels
        assert all(lv.carry_den_bits is None and lv.carry_num_bits is None
                   for lv in stats.levels)

    def test_levels_time_the_right_hand_sides_the_carry_and_the_fractions(self, rng):
        p = all_degree(rng, 3, 8)
        for exact in (True, False):
            stats = SolveStats()
            solve_dirichlet(p if exact else p.to_float(), SHIFTED_ELLIPSOID, stats=stats)
            assert len(stats.levels) == 7
            assert all(lv.rhs_ms > 0.0 and lv.carry_ms > 0.0 for lv in stats.levels)
            assert all((lv.fraction_ms > 0.0) == exact for lv in stats.levels)
        hooked = SolveStats()
        solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level, stats=hooked)
        assert hooked == SolveStats()

    def test_a_level_built_without_the_new_fields_reads_zero_there(self):
        old = LevelStats(4, 2, 2, [2, 1], 1, False, 1.0, 2.0, 3.0, 12, 30, 1, None)
        assert (old.rhs_ms, old.carry_ms, old.fraction_ms) == (0.0, 0.0, 0.0)
        assert old == LevelStats(4, 2, 2, [2, 1], 1, False, 1.0, 2.0, 3.0, carry_den_bits=12,
                                 carry_num_bits=30, factor_hits=1)
        assert old != old._replace(carry_ms=0.5)


def class_system_level(ph: Poly, q2: Poly) -> Poly:
    """One level through ``assemble_class_systems``, ``solve_class`` and
    ``taylor_reconstruct``: float mode runs ``solver._factor`` and stores no
    factors, and f is rebuilt by the polynomial module."""
    order = ph.degree() - 2
    values = {}
    for system in assemble_class_systems(ph.laplacian(), q2, order):
        values.update(solve_class(system))
    return taylor_reconstruct(order, values, ph.n)


def float_bits(dec) -> tuple[dict, dict]:
    return tuple({alpha: c.hex() for alpha, c in poly.terms.items()} for poly in (dec.h, dec.f))


def charge(key, value) -> int:
    """The bytes a store charges for one entry."""
    return solver._nbytes(key) + solver._SLOT_BYTES + solver._nbytes(value)


def stored_bytes(store) -> int:
    """The bytes of a store's entries, counted afresh."""
    return sum(charge(key, value) for key, value in store.entries.items())


def float_factors() -> dict:
    """The float factors of the level store, keyed by (order, *parity class,
    *axis squares); the plans beside them are keyed by (n, order) and the
    shift programs by ("shifts", n, b)."""
    return {key: factors for key, factors in solver._level_store.entries.items()
            if len(key) > 2 and key[0] != "shifts"}


def plans() -> dict:
    return {key: plan for key, plan in solver._level_store.entries.items() if len(key) == 2}


class TestFloatFactorCache:
    def test_cold_and_warm_solves_match_the_uncached_kernel(self, rng):
        p = (dense_boundary(3, 12) + all_degree(rng, 3, 9)).to_float()
        reference = solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)
        assert not float_factors()
        cold, warm = SolveStats(), SolveStats()
        assert float_bits(solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=cold)) == float_bits(reference)
        assert float_bits(solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=warm)) == float_bits(reference)
        assert [lv.factor_hits for lv in cold.levels] == [0] * len(cold.levels)
        assert [lv.factor_hits for lv in warm.levels] == [
            lv.nonzero_rhs_classes for lv in warm.levels]
        assert sum(lv.factor_hits for lv in warm.levels) > 0
        untimed = {"assemble_ms": 0, "solve_ms": 0, "rebuild_ms": 0, "rhs_ms": 0, "carry_ms": 0,
                   "fraction_ms": 0, "factor_hits": 0}
        assert ([lv._replace(**untimed) for lv in cold.levels]
                == [lv._replace(**untimed) for lv in warm.levels])

    def test_surfaces_differing_in_one_axis_square_share_no_factors(self):
        p = dense_boundary(3, 10).to_float()
        first = NonhyperbolicQuadratic((1, 2, 3), (0, 0, 0), -1)
        second = NonhyperbolicQuadratic((1, 2, Fraction(7, 2)), (0, 0, 0), -1)
        solve_dirichlet(p, first)
        first_keys = set(float_factors())
        stats = SolveStats()
        dec = solve_dirichlet(p, second, stats=stats)
        second_keys = set(float_factors()) - first_keys
        assert sum(lv.factor_hits for lv in stats.levels) == 0
        assert {key[-3:] for key in first_keys} == {(1.0, 2.0, 3.0)}
        assert {key[-3:] for key in second_keys} == {(1.0, 2.0, 3.5)}
        assert len(second_keys) == len(first_keys)
        reference = solve_dirichlet(p, second, homogeneous_solver=class_system_level)
        assert float_bits(dec) == float_bits(reference)

    def test_positive_axis_squares_route_to_the_symmetric_kernel(self, monkeypatch, rng):
        calls = {"symmetric": 0, "band": 0}
        symmetric, band = solver._factor_symmetric, solver._factor_float

        def counted_symmetric(rows, weights):
            calls["symmetric"] += 1
            return symmetric(rows, weights)

        def counted_band(rows):
            calls["band"] += 1
            return band(rows)

        monkeypatch.setattr(solver, "_factor_symmetric", counted_symmetric)
        monkeypatch.setattr(solver, "_factor_float", counted_band)
        p = all_degree(rng, 3, 8).to_float()
        counts = []
        for q in (SHIFTED_ELLIPSOID, PARABOLOID):
            solver.clear_stores()
            stats = SolveStats()
            solve_dirichlet(p, q, stats=stats)
            solved = sum(lv.nonzero_rhs_classes for lv in stats.levels)
            counts.append((calls["symmetric"], calls["band"], solved))
            calls.update(symmetric=0, band=0)
        (sym, lu, solved), (sym_z, lu_z, solved_z) = counts
        assert (sym, lu) == (solved, 0) and solved > 0
        assert (sym_z, lu_z) == (0, solved_z) and solved_z > 0

    def test_a_zero_axis_square_keeps_the_band_lu_bits(self):
        # f's bits from the band LU; h follows from f by the descent's own
        # arithmetic.
        p = Poly(3, {(3, 1, 2): 1.5, (0, 5, 0): -0.75})
        golden = {
            NonhyperbolicQuadratic((1, 2, 0), (0, 0, 1), 0): {
                (0, 1, 0): "-0x1.5067fae726dd8p-6", (0, 1, 1): "0x1.265afb8a4201dp-3",
                (0, 3, 0): "-0x1.76a2576a2576bp-2", (1, 1, 0): "0x1.3657a9bee0324p-6",
                (1, 1, 1): "-0x1.5d229ef6bc389p-3", (1, 1, 2): "0x1.0000000000000p-1",
                (1, 3, 0): "-0x1.01767dce434aap-4", (2, 1, 0): "0x1.76a2576a2576bp-4",
                (3, 1, 0): "0x1.30463796ac9e0p-4"},
            NonhyperbolicQuadratic((2, 0, 3), (0, 0, 0), -1): {
                (0, 1, 0): "-0x1.5a62386cab5d0p-1", (0, 1, 2): "0x1.31a1f58d0fac7p-1",
                (0, 3, 0): "-0x1.8000000000000p+0", (1, 1, 0): "0x1.2379c48de7124p-5",
                (1, 1, 2): "0x1.592b2564ac959p-3", (2, 1, 0): "0x1.0a72f0539782ap-1",
                (3, 1, 0): "0x1.9e33c678cf19dp-5"},
        }
        for q, f_hex in golden.items():
            assert float_bits(solve_dirichlet(p, q))[1] == f_hex

    def test_ill_conditioned_class_raises_every_time_and_is_never_stored(self, monkeypatch):
        p = dense_boundary(3, 8).to_float()
        solve_dirichlet(p, sphere())
        stored = float_factors()
        # No pivot reaches twice its row's largest entry, so every class
        # that is factored raises.
        monkeypatch.setattr(solver, "FLOAT_PIVOT_RTOL", 2.0)
        for _ in range(3):
            with pytest.raises(IllConditionedSystemError):
                solve_dirichlet(p, SHIFTED_ELLIPSOID)
            assert float_factors() == stored
        # Stored factors passed the test when they were made.
        solve_dirichlet(p, sphere())

    @pytest.mark.parametrize("bound", [0, 600, 3000, 1 << 20])
    def test_stored_bytes_never_exceed_the_bound(self, monkeypatch, bound):
        # The plans and shift programs of every level below are made
        # first, so ``bound`` is the room the factors have.
        store = solver._level_store
        for order in range(11):
            solver.level_plan(3, order)
        for b in range(6):
            solver._shifts(3, b)
        monkeypatch.setattr(store, "bound", store.nbytes + bound)
        offered, kept = [], {}
        keep = solver._Store.keep

        def checked_keep(self, key, value):
            assert len(key) > 2 and key[0] != "shifts"
            fits = keep(self, key, value)
            assert self.nbytes == stored_bytes(self) <= self.bound
            # No kept entry is dropped or replaced.
            assert all(self.entries[k] is v for k, v in kept.items())
            kept.update(self.entries)
            offered.append(charge(key, value))
            return fits

        monkeypatch.setattr(solver._Store, "keep", checked_keep)
        for degree in range(2, 13):
            p = dense_boundary(3, degree).to_float()
            dec = solve_dirichlet(p, SHIFTED_ELLIPSOID)
            reference = solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)
            assert float_bits(dec) == float_bits(reference)
        # The store keeps some factors exactly when one fits the room alone,
        # and every factor offered only in the largest room.
        assert bool(float_factors()) == (min(offered) <= bound)
        assert (len(float_factors()) < len(offered)) == (bound < 1 << 20)


def relative_error(exact: Poly, approx: Poly) -> float:
    """The largest coefficient error of approx, computed exactly, over the
    largest coefficient of exact."""
    scale = max(map(abs, exact.terms.values()), default=0)
    errors = (abs(Fraction(approx.coefficient(alpha)) - exact.coefficient(alpha))
              for alpha in set(exact.terms) | set(approx.terms))
    return float(max(errors, default=0) / scale) if scale else 0.0


def zero_axis_problems(count: int, seed: int) -> list[tuple[Poly, NonhyperbolicQuadratic]]:
    """Exact boundaries on surfaces with one or more zero a_j and linear and
    constant parts, n = 2 to 4: one to three terms, the first of the drawn
    degree, up to 16 (11 for n = 4).  Frozen here, so that the answers do
    not move with the shared generators."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        n = rng.randint(2, 4)
        zeros = set(rng.sample(range(n), rng.randint(1, n - 1)))
        a = [0 if j in zeros else Fraction(rng.randint(1, 40), rng.randint(1, 8)) for j in range(n)]
        c = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        d = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        degree = rng.randint(2, 16 if n < 4 else 11)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = [0] * n
            for _ in range(rng.randint(0, degree) if terms else degree):
                alpha[rng.randrange(n)] += 1
            terms[tuple(alpha)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                                           rng.randint(1, 9))
        problems.append((Poly(n, terms), NonhyperbolicQuadratic(a, c, d)))
    return problems


class TestZeroAxisFloatAccuracy:
    """Float answers on surfaces with a zero a_j, whose classes the band LU
    factors, against the exact answers of the same problems."""

    def test_a_high_power_on_a_parabolic_cylinder_is_accurate(self):
        # a = (0, 8/5): a partial-pivoting LU swaps rows in these classes
        # and errs by 6.8e-14 of max|h|; natural order errs by 5.7e-16.
        p = Poly(2, {(7, 10): Fraction(-3, 7)})
        q = NonhyperbolicQuadratic((0, Fraction(8, 5)), (0, -3), -3)
        exact, approx = solve_dirichlet(p, q), solve_dirichlet(p.to_float(), q)
        assert relative_error(exact.h, approx.h) <= 1e-14
        assert relative_error(exact.f, approx.f) <= 1e-14

    def test_float_answers_stay_close_to_the_exact_ones(self):
        # The largest error measured on these 200 problems was 3.4e-14.
        for p, q in zero_axis_problems(200, 2026):
            exact, approx = solve_dirichlet(p, q), solve_dirichlet(p.to_float(), q)
            assert relative_error(exact.h, approx.h) <= 1e-13, (p, q)
            assert relative_error(exact.f, approx.f) <= 1e-13, (p, q)


def store_bytes(store) -> tuple[int, int]:
    """The bytes of the exact store's entries and of its marks, counted
    afresh."""
    return stored_bytes(store), sum(charge(mark, None) for mark in store.seen)


def counting_calls(monkeypatch) -> tuple[list[int], list[int]]:
    """Patch the level solve's exact kernels to log the size of each system
    solved with a step limit, which records, and of each one replayed."""
    records, replays = [], []
    solve, replay = solver._solve_int, solver._replay_int

    def counting_solve(rows, rhs, limit=-1):
        if limit >= 0:
            records.append(len(rows))
        return solve(rows, rhs, limit)

    def counting_replay(steps, spill, rhs):
        replays.append(len(rhs))
        return replay(steps, spill, rhs)

    monkeypatch.setattr(solver, "_solve_int", counting_solve)
    monkeypatch.setattr(solver, "_replay_int", counting_replay)
    return records, replays


def exact_answer(dec) -> tuple[dict, dict]:
    assert all(type(c) is Fraction for c in (*dec.h.terms.values(), *dec.f.terms.values()))
    return dec.h.terms, dec.f.terms


class TestExactFactorStore:
    def test_records_on_the_second_sighting_and_replays_after(self, monkeypatch):
        records, replays = counting_calls(monkeypatch)
        p = dense_boundary(3, 10)
        reference = exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID,
                                                 homogeneous_solver=class_system_level))
        seen = []
        for _ in range(4):
            stats = SolveStats()
            assert exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=stats)) == reference
            seen.append((len(records), len(replays), sum(lv.factor_hits for lv in stats.levels)))
        # Every level has its own order, so no key repeats within a solve.
        active = sum(lv.nonzero_rhs_classes for lv in stats.levels)
        assert active > 0
        # The recording sighting solves from its own rows and replays nothing.
        assert seen == [(0, 0, 0), (active, 0, 0), (active, active, active),
                        (active, 2 * active, active)]

    def test_factors_over_the_bound_are_recorded_once(self, monkeypatch):
        p = dense_boundary(3, 8)
        reference = exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID))
        store = solver._exact_store
        marks = store_bytes(store)[1]
        assert store.nbytes == marks
        solver.clear_stores()
        # Room for every mark, and so for no factors.
        monkeypatch.setattr(store, "bound", marks)
        calls, _ = counting_calls(monkeypatch)
        counts = []
        for _ in range(4):
            assert exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID)) == reference
            counts.append(len(calls))
        assert counts == [0] + [len(store.entries)] * 3
        assert store.entries and all(factors is None for factors in store.entries.values())
        assert store.nbytes == store_bytes(store)[0] == marks

    def test_a_recording_past_the_room_stops_early_and_is_solved_fused(self, monkeypatch):
        # x1^8 x2^4 gives one active class of 21 unknowns, whose recording
        # takes 550 steps; 400 bytes leave room for 200 once its mark is
        # freed.
        p = Poly.monomial(3, (8, 4, 0))
        q2 = SHIFTED_ELLIPSOID.parts()[0]
        reference = class_system_level(p, q2)
        store = solver._exact_store
        monkeypatch.setattr(store, "bound", 400)
        solve = solver._solve_int
        calls = []

        def watched(rows, rhs, limit=-1):
            if limit < 0:
                return solve(rows, rhs, limit)
            full_rows = list(map(dict.copy, rows))
            _, full = solve(full_rows, list(rhs), math.inf)
            values, steps = solve(rows, rhs, limit)
            stop = next(col for col, count in enumerate(accumulate(column_steps(full)))
                        if count > limit) + 1
            calls.append((steps, stop, len(rows), limit))
            # Eliminated as recorded up to the column whose steps passed the
            # limit, with content divided after it.
            assert rows[:stop] == full_rows[:stop] and rows != full_rows
            return values, steps

        monkeypatch.setattr(solver, "_solve_int", watched)
        counts = []
        for _ in range(4):
            assert solve_homogeneous(p, q2) == reference
            counts.append(len(calls))
        assert counts == [0, 1, 1, 1]
        steps, stop, size, limit = calls[0]
        assert steps is None and 0 < stop < size and limit == 200
        assert list(store.entries.values()) == [None] and not store.seen
        assert store.nbytes == store_bytes(store)[0] <= 400

    def test_a_store_exactly_full_at_the_second_sighting_keeps_a_tombstone(self, monkeypatch):
        # One recording is kept, then the key of x1^8 x2^4's one active class
        # is marked and the bound set to what the store holds.  Admitting the
        # key frees its mark, which leaves room for half as many steps as the
        # mark's bytes: the recording stops, and its None fills the freed
        # bytes exactly.
        store = solver._exact_store
        q2 = SHIFTED_ELLIPSOID.parts()[0]
        kept = Poly.monomial(3, (4, 2, 0))
        p = Poly.monomial(3, (8, 4, 0))
        for _ in range(2):
            solve_homogeneous(kept, q2)
        recorded = dict(store.entries)
        assert len(recorded) == 1 and None not in recorded.values()
        solve_homogeneous(p, q2)
        (key,) = store.seen
        monkeypatch.setattr(store, "bound", store.nbytes)
        records, replays = counting_calls(monkeypatch)
        reference = class_system_level(p, q2)
        for _ in range(4):
            assert solve_homogeneous(p, q2) == reference
            assert store.entries == {**recorded, key: None} and not store.seen
            assert store.nbytes == store_bytes(store)[0] == store.bound
            # Only the second sighting recorded, and it stopped.
            assert len(records) == 1 and not replays
        solve_homogeneous(kept, q2)
        assert len(replays) == 1

    @pytest.mark.parametrize("bound", [0, 5000, 20000, 1 << 22])
    def test_kept_bytes_never_exceed_the_bound_and_nothing_is_evicted(self, monkeypatch, bound):
        store = solver._exact_store
        monkeypatch.setattr(store, "bound", bound)
        kept = {}
        admit, keep = solver._ExactStore.admit, solver._ExactStore.keep

        def checked(method):
            def call(self, *args):
                result = method(self, *args)
                entries, marks = store_bytes(self)
                assert self.nbytes == entries + marks <= bound
                assert all(self.entries[k] is f for k, f in kept.items())
                kept.update(self.entries)
                return result
            return call

        monkeypatch.setattr(solver._ExactStore, "admit", checked(admit))
        monkeypatch.setattr(solver._ExactStore, "keep", checked(keep))
        for degree in (6, 8, 10, 12):
            p = dense_boundary(3, degree)
            reference = exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID,
                                                     homogeneous_solver=class_system_level))
            for _ in range(3):
                assert exact_answer(solve_dirichlet(p, SHIFTED_ELLIPSOID)) == reference
        if bound == 0:
            assert not store.entries and not store.seen
        else:
            # Only the largest bound holds every factorization it recorded.
            assert any(store.entries.values())
            assert (None in store.entries.values()) == (bound < 1 << 22)

    def test_proportional_surfaces_share_factors(self):
        p = dense_boundary(3, 9)
        first = NonhyperbolicQuadratic((1, 2, 3), (1, -1, Fraction(1, 2)), -2)
        scaled = NonhyperbolicQuadratic((Fraction(1, 3), Fraction(2, 3), 1),
                                        (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 6)),
                                        Fraction(-2, 3))
        cold = exact_answer(solve_dirichlet(p, scaled))
        solver.clear_stores()
        for _ in range(2):
            solve_dirichlet(p, first)
        stats = SolveStats()
        assert exact_answer(solve_dirichlet(p, scaled, stats=stats)) == cold
        assert [lv.factor_hits for lv in stats.levels] == [
            lv.nonzero_rhs_classes for lv in stats.levels]

    def test_exact_and_float_factors_never_share_a_key(self):
        # (1, 2, 3) == (1.0, 2.0, 3.0): one dict for both modes would hand
        # float factors to an exact solve on this integral surface.
        q = NonhyperbolicQuadratic((1, 2, 3), (0, 0, 0), -1)
        p = dense_boundary(3, 10)
        cold = exact_answer(solve_dirichlet(p, q))
        solver.clear_stores()
        floats = float_bits(solve_dirichlet(p.to_float(), q))
        hits = 0
        for _ in range(3):
            stats = SolveStats()
            assert exact_answer(solve_dirichlet(p, q, stats=stats)) == cold
            hits += sum(lv.factor_hits for lv in stats.levels)
        assert hits > 0
        assert float_bits(solve_dirichlet(p.to_float(), q)) == floats


class TestLevelPlan:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_classes_members_and_factorials_match_the_enumeration(self, n):
        for order in range(13):
            groups: dict = {}
            for alpha in multi_indices(n, order):
                groups.setdefault(parity_class(alpha), []).append(alpha)
            keys = sorted(groups, key=lambda e: (sum(e), e), reverse=True)
            plan = solver.level_plan(n, order)
            assert [parity for parity, _, _ in plan] == keys
            assert [members for _, members, _ in plan] == [tuple(groups[key]) for key in keys]
            for _, members, factorials in plan:
                assert factorials == tuple(map(multi_factorial, members))
            assert solver.level_plan(n, order) is plan

    @pytest.mark.parametrize("bound", [0, 2000, 20000])
    def test_retained_bytes_never_exceed_the_bound(self, monkeypatch, bound):
        store = solver._level_store
        monkeypatch.setattr(store, "bound", bound)
        kept, dropped = 0, 0
        for order in range(16):
            plan = solver.level_plan(3, order)
            stored = store.entries.get((3, order))
            assert store.nbytes == stored_bytes(store) <= bound
            if stored is None:
                dropped += 1
                # Used though not kept: a fresh copy equals it.
                assert solver.level_plan(3, order) == plan
                assert (3, order) not in store.entries
            else:
                kept += 1
                assert stored is plan
        assert (kept > 0) == (bound > 0) and dropped > 0
        # A solve that meets plans over the bound still answers right and keeps to it.
        p = dense_boundary(3, 12)
        assert solve_dirichlet(p, SHIFTED_ELLIPSOID) == solve_dirichlet(
            p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)
        assert store.nbytes <= bound

    def test_plans_hold_no_surface_data(self):
        # Every level from 9 down to 2 runs on a surface with a linear part.
        p = dense_boundary(3, 9)
        solve_dirichlet(p, SHIFTED_ELLIPSOID)
        made = plans()
        assert list(made) == [(3, order) for order in range(7, -1, -1)]
        solve_dirichlet(p, sphere())
        solve_dirichlet(p.to_float(), NON_INTEGER_AXES)
        assert plans() == made
        assert all(plans()[key] is plan for key, plan in made.items())

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_cold_and_warm_solves_match_the_class_system_route(self, rng, mode):
        # The monomial leaves most classes with a zero right-hand side.
        for p in (dense_boundary(3, 12) + all_degree(rng, 3, 9), Poly.monomial(3, (12, 1, 0))):
            if mode == "float":
                p = p.to_float()
            reference = solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)
            solver.clear_stores()
            for _ in ("cold", "warm"):
                dec = solve_dirichlet(p, SHIFTED_ELLIPSOID)
                if mode == "float":
                    assert float_bits(dec) == float_bits(reference)
                else:
                    assert dec.h == reference.h and dec.f == reference.f
                    for c in (*dec.h.terms.values(), *dec.f.terms.values()):
                        assert type(c) is Fraction
                assert set(plans()) == {(3, m) for m in range(p.degree() - 1)}

    def test_rebuild_is_timed_per_level(self):
        stats = SolveStats()
        solve_dirichlet(dense_boundary(3, 8), SHIFTED_ELLIPSOID, stats=stats)
        assert len(stats.levels) == 7
        assert all(lv.rebuild_ms >= 0.0 for lv in stats.levels)


class TestStores:
    @pytest.mark.parametrize("kind, size", [
        ("plans", (3, 30)), ("plans", (4, 12)), ("plans", (2, 200)),
        ("float", 12), ("float", 16), ("exact", 12), ("exact", 16),
    ], ids=["plans-3-30", "plans-4-12", "plans-2-200", "float-12", "float-16", "exact-12",
            "exact-16"])
    def test_counted_bytes_match_the_allocations(self, kind, size):
        if kind == "plans":
            store = solver._level_store

            def fill():
                solver.level_plan(*size)
        else:
            p = dense_boundary(3, size)
            # A solve in the other mode first makes the level plans, which
            # are not measured here.
            if kind == "float":
                solve_dirichlet(p, SHIFTED_ELLIPSOID)
                store = solver._level_store

                def fill():
                    solve_dirichlet(p.to_float(), SHIFTED_ELLIPSOID)
            else:
                solve_dirichlet(p.to_float(), SHIFTED_ELLIPSOID)
                store = solver._exact_store

                def fill():
                    for _ in range(2):
                        solve_dirichlet(p, SHIFTED_ELLIPSOID)
        counted = store.nbytes
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fill()
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        counted = store.nbytes - counted
        assert store.entries and not getattr(store, "seen", ())
        assert 0.9 * traced <= counted <= 1.1 * traced

    def test_shared_none_and_small_ints_are_not_charged(self):
        values = (None, -5, 256, -6, 257, 2**70, 1.5, (0, 1), slice(3, 300))
        assert solver._nbytes(values) == sum(map(sys.getsizeof, (
            values, -6, 257, 2**70, 1.5, (0, 1), slice(3, 300), 300)))

    def test_clear_stores_empties_every_store(self):
        p = dense_boundary(3, 8)
        for _ in range(2):
            solve_dirichlet(p, SHIFTED_ELLIPSOID)
            solve_dirichlet(p.to_float(), SHIFTED_ELLIPSOID)
        assert solver._level_store.entries and solver._exact_store.entries
        stores = [value for name, module in list(sys.modules.items())
                  if name == "quadharm" or name.startswith("quadharm.")
                  for value in vars(module).values() if isinstance(value, solver._Store)]
        assert {id(solver._level_store), id(solver._exact_store)} <= set(map(id, stores))
        solver.clear_stores()
        # The tests rely on clear_stores for their isolation, so a store it
        # misses would carry one test's entries into the next.
        for store in stores:
            assert vars(store) == vars(type(store)(store.bound))


class TestDescentUnknowns:
    @pytest.mark.parametrize("q", [
        SHIFTED_ELLIPSOID, PARABOLOID, sphere(),
        NonhyperbolicQuadratic((1, 2, 3), (0, 0, 0), 0),
    ], ids=["linear part", "paraboloid", "constant only", "squares only"])
    def test_counts_the_unknowns_the_descent_solves(self, rng, q):
        boundaries = [all_degree(rng, 3, 7), dense_boundary(3, 8), Poly.monomial(3, (9, 0, 0)),
                      dense_boundary(3, 9) + dense_boundary(3, 4), random_poly(rng, 3, 8, terms=3)]
        for p in boundaries:
            stats = SolveStats()
            solve_dirichlet(p, q, stats=stats)
            solved = sum(sum(lv.class_sizes) for lv in stats.levels)
            assert layout.descent_unknowns(p, q, 10**6) == solved

    def test_below_degree_two_there_is_nothing_to_solve(self):
        assert layout.descent_unknowns(Poly.zero(3), sphere(), 0) == 0
        assert layout.descent_unknowns(Poly.monomial(3, (0, 1, 0)), SHIFTED_ELLIPSOID, 0) == 0

    @pytest.mark.parametrize("q", [sphere(2), NonhyperbolicQuadratic((1, 2), (0, 0), 0),
                                   NonhyperbolicQuadratic((1, 2), (1, 0), 0)])
    def test_huge_degrees_are_counted_without_listing_their_levels(self, q):
        # Levels of degree k in 2 variables have k - 1 unknowns, so the
        # sum passes the limit within a few hundred levels.
        p = Poly.monomial(2, (10**11, 0)) + Poly.monomial(2, (0, 10**11 - 1))
        assert layout.descent_unknowns(p, q, 200_000) > 200_000


def _non_integer(num: int) -> st.SearchStrategy:
    """Rationals n/d, 1 <= |n| <= num, 2 <= d <= 6, whose reduced denominator is not 1."""
    return st.builds(Fraction, st.integers(-num, num).filter(bool), st.integers(2, 6)).filter(
        lambda v: v.denominator != 1)


@st.composite
def descent_problems(draw, kind: str):
    n = draw(st.integers(2, 3))
    a = [abs(draw(_non_integer(9))) for _ in range(n)]
    c = [draw(_non_integer(9)) for _ in range(n)]
    d = draw(_non_integer(9))
    if kind == "paraboloid":
        j = draw(st.integers(0, n - 1))
        a[j] = Fraction(0)
    elif kind == "no linear part":
        c = [0] * n
    elif kind == "no constant":
        d = 0
    top = draw(st.integers(2, 7 if n == 2 else 5))
    coefficients = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 6))
    p = Poly(n, {alpha: draw(coefficients) for alpha in multi_indices_upto(n, top)})
    return p, NonhyperbolicQuadratic(tuple(a), tuple(c), d)


class TestIntegerDescent:
    """The descent runs on integer numerators; its answer must equal the
    hook route, which hands the unpartitioned oracle a ``Fraction`` carry."""

    @pytest.mark.parametrize("kind", ["ellipsoid", "paraboloid", "no linear part", "no constant"])
    @settings(max_examples=12)
    @given(data=st.data())
    def test_equals_the_full_system_route(self, kind, data):
        p, q = data.draw(descent_problems(kind))
        dec = solve_dirichlet(p, q)
        reference = solve_dirichlet(
            p, q, homogeneous_solver=lambda s, q2: oracle_full_system(s, q2, s.degree() - 2))
        assert dec.h == reference.h and dec.f == reference.f
        for c in (*dec.h.terms.values(), *dec.f.terms.values()):
            assert type(c) is Fraction and c != 0
        assert (p - dec.h - q.to_polynomial() * dec.f).is_zero()

    def test_fractions_are_formed_only_for_the_output(self, monkeypatch, rng):
        # The levels solve, rebuild and carry in ints; each coefficient of
        # h and f is the one Fraction the descent forms for it.
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(solver, "Fraction", counting)
        p = all_degree(rng, 3, 9) + dense_boundary(3, 9)
        stats = SolveStats()
        dec = solve_dirichlet(p, SHIFTED_ELLIPSOID, stats=stats)
        assert len(stats.levels) == 8 and len(dec.f.terms) > 100
        assert len(made) <= len(dec.h.terms) + len(dec.f.terms) + 2 * len(stats.levels)
        monkeypatch.undo()
        assert dec == solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)


def shuffled(p: Poly, rng: random.Random) -> Poly:
    return Poly(p.n, rng.sample(list(p.terms.items()), len(p.terms)))


class TestClassListDescent:
    """The descent on class lists: no ``Poly`` arithmetic, sums in axis
    order, and memory that follows the classes present."""

    def test_float_answers_do_not_depend_on_the_order_of_the_terms(self):
        rng = random.Random("term order")
        for _ in range(24):
            n = rng.randint(2, 4)
            a = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n)]
            c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            q = NonhyperbolicQuadratic(a, c, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            top = rng.randint(6, {2: 14, 3: 10, 4: 7}[n])
            p = Poly(n, {alpha: float(random_fraction(rng)) for alpha in multi_indices_upto(n, top)
                         if sum(alpha) == top or rng.random() < 0.6})
            dec = solve_dirichlet(p, q)
            ph = Poly(n, {alpha: v for alpha, v in p.terms.items() if sum(alpha) == top})
            f_top = solve_homogeneous(ph, q.parts()[0])
            for _ in range(2):
                assert float_bits(solve_dirichlet(shuffled(p, rng), q)) == float_bits(dec)
                f = solve_homogeneous(shuffled(ph, rng), q.parts()[0])
                assert {alpha: v.hex() for alpha, v in f.terms.items()} == {
                    alpha: v.hex() for alpha, v in f_top.terms.items()}

    def test_the_default_route_runs_no_poly_arithmetic(self, monkeypatch, rng):
        p = all_degree(rng, 3, 8) + Poly.monomial(3, (9, 2, 1))
        answers = {(exact, q): solve_dirichlet(p if exact else p.to_float(), q)
                   for exact in (True, False) for q in (SHIFTED_ELLIPSOID, PARABOLOID)}

        def refuse(*args):
            raise AssertionError("the descent ran Poly arithmetic")

        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "laplacian"):
            monkeypatch.setattr(Poly, name, refuse)
        for (exact, q), dec in answers.items():
            solver.clear_stores()
            again = solve_dirichlet(p if exact else p.to_float(), q)
            assert again.h.terms == dec.h.terms and again.f.terms == dec.f.terms
        with pytest.raises(AssertionError, match="Poly arithmetic"):
            solve_dirichlet(p, SHIFTED_ELLIPSOID, homogeneous_solver=class_system_level)

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_a_sparse_boundary_in_64_variables_stays_small(self, exact):
        # One list per degree would give the degree-4 part 766,480 slots.
        n = 64
        p = Poly(n, {(4,) + (0,) * 63: 1, (0, 3, 1) + (0,) * 61: 1})
        if not exact:
            p = p.to_float()
        q = sphere(n)
        gc.collect()
        tracemalloc.start()
        try:
            dec = solve_dirichlet(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert dec.f.degree() == 2 and dec.h.degree() == 4
        if exact:
            assert verify_solution(p, q, dec).ok()
        else:
            exact_dec = solve_dirichlet(Poly(n, {a: Fraction(v) for a, v in p.terms.items()}), q)
            assert relative_error(exact_dec.h, dec.h) < 1e-13
            assert relative_error(exact_dec.f, dec.f) < 1e-13

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_one_variable_has_no_pair_of_tail_axes(self, exact):
        # lap(a x^2 * (c/a) x^(k-2)) = lap(c x^k).
        for k in range(2, 12):
            ph, q2 = Poly(1, {(k,): Fraction(3, 7)}), Poly(1, {(2,): Fraction(5, 2)})
            if exact:
                assert solve_homogeneous(ph, q2) == Poly(1, {(k - 2,): Fraction(6, 35)})
            else:
                f = solve_homogeneous(ph.to_float(), q2.to_float())
                assert list(f.terms) == [(k - 2,)]
                assert abs(f.coefficient((k - 2,)) - 6 / 35) <= 1e-15


class TestLargestClassWork:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_matches_the_assembled_rows(self, n):
        for order in range(10):
            members = max((m for _, m, _ in solver.level_plan(n, order)), key=len)
            rows = solver._level_matrix([1] * n, 0, members)
            lower = max(i - min(row) for i, row in enumerate(rows))
            upper = max(max(row) - i for i, row in enumerate(rows))
            size = len(members)
            assert lower == upper
            assert layout.largest_class_work(n, order) == size * max(size, lower**2)

    def test_a_zero_axis_square_only_narrows_the_band(self):
        for order in range(10):
            members = max((m for _, m, _ in solver.level_plan(3, order)), key=len)
            rows = solver._level_matrix([1, 0, 2], 0, members)
            lower = max(i - min(row) for i, row in enumerate(rows))
            assert len(members) * max(len(members), lower**2) <= layout.largest_class_work(3, order)

    def test_below_order_zero_there_is_no_class(self):
        assert layout.largest_class_work(3, -1) == layout.largest_class_work(3, -2) == 0
        assert layout.largest_class_work(1, 7) == 1
