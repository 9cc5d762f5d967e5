"""Operation-count predictions, the class census, and the timed comparison."""

import math
from fractions import Fraction

import pytest

from quadharm import NonhyperbolicQuadratic, Poly
from quadharm.solver import level_plan
from quadharm.bench import (
    BenchRecord,
    census_report,
    class_census,
    class_count,
    dense_boundary,
    full_reference_solver,
    monomial_boundary,
    monomial_combined_factor,
    predicted_full_ops,
    predicted_partitioned_ops,
    predicted_ratio,
    run_comparison,
)


class TestPredictions:
    def test_full_ops_values(self):
        assert predicted_full_ops(0, 2) == Fraction(2, 3)
        assert predicted_full_ops(2, 2) == 18           # size 3
        assert predicted_full_ops(10, 3) == 191664      # size 66

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ratio_is_power_of_four(self, n):
        assert predicted_ratio(n) == Fraction(2 ** (2 * n - 2))
        for m in (3, 6, 9):
            assert (predicted_full_ops(m, n)
                    / predicted_partitioned_ops(m, n)) == predicted_ratio(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_monomial_combined_factor(self, n):
        assert monomial_combined_factor(n) == 2 ** (3 * n - 3)


class TestCensus:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sizes_partition_the_index_set(self, n):
        for m in range(0, 13):
            census = class_census(n, m)
            assert sum(census.values()) == math.comb(m + n - 1, m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inhabited_class_count_stabilizes(self, n):
        for m in range(n + 1, n + 9):
            assert len(class_census(n, m)) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_matches_enumeration(self, n):
        for m in range(0, 11):
            enumerated = {parity: len(members) for parity, members, _ in level_plan(n, m)}
            assert list(class_census(n, m).items()) == list(enumerated.items())
            assert class_count(n, m) == len(enumerated)

    def test_census_keys_are_parities_in_canonical_order(self):
        census = class_census(2, 4)
        assert list(census) == [(1, 1), (0, 0)]
        assert census[(0, 0)] == 3 and census[(1, 1)] == 2


class TestBoundaries:
    def test_monomial_boundary(self):
        p = monomial_boundary(3, 5)
        assert p == Poly.monomial(3, (5, 0, 0))

    def test_dense_boundary_covers_every_monomial(self):
        p = dense_boundary(3, 4)
        assert len(p.terms) == math.comb(6, 4)
        assert p.is_homogeneous()


class TestComparison:
    def test_record_stores_only_measurements(self):
        assert BenchRecord._fields == ("measured_full_ms", "measured_partitioned_ms")

    def test_run_comparison_checks_agreement(self, monkeypatch):
        q = NonhyperbolicQuadratic((1, 1), (0, 0), -1)
        p = dense_boundary(2, 4)
        rec = run_comparison(p, q, repetitions=1)
        assert rec.measured_full_ms > 0 and rec.measured_partitioned_ms > 0

        # Wrong by x1^(k - 2), so every carry stays homogeneous, as the
        # reference solver demands of its input.
        def wrong_solver(ph, q2):
            return full_reference_solver(ph, q2) + Poly.monomial(ph.n, (ph.degree() - 2, 0))

        monkeypatch.setattr("quadharm.bench.full_reference_solver", wrong_solver)
        with pytest.raises(RuntimeError):
            run_comparison(p, q, repetitions=1)

    @pytest.mark.parametrize("reps", [1, 5])
    def test_each_path_solves_once_per_rep_plus_one(self, monkeypatch, reps):
        from quadharm.bench import solve_dirichlet

        calls = {"partitioned": 0, "full": 0}

        def counting(p, q, **kwargs):
            calls["full" if kwargs.get("homogeneous_solver") else "partitioned"] += 1
            return solve_dirichlet(p, q, **kwargs)

        monkeypatch.setattr("quadharm.bench.solve_dirichlet", counting)
        q = NonhyperbolicQuadratic((1, 1), (0, 0), -1)
        run_comparison(monomial_boundary(2, 4), q, repetitions=reps)
        assert calls == {"partitioned": 1 + reps, "full": 1 + reps}

    def test_float_paths_agree_within_tolerance(self):
        q = NonhyperbolicQuadratic((2, 3), (1, 0), -1)
        rec = run_comparison(dense_boundary(2, 5).to_float(), q, repetitions=1)
        assert rec.measured_full_ms > 0

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_below_one_raise_before_any_solve(self, monkeypatch, repetitions):
        monkeypatch.setattr("quadharm.bench.solve_dirichlet", None)  # a solve would TypeError
        q = NonhyperbolicQuadratic((1, 1), (0, 0), -1)
        with pytest.raises(ValueError, match="repetitions"):
            run_comparison(monomial_boundary(2, 4), q, repetitions=repetitions)


class TestRecordFormats:
    def test_census_text_report_has_no_level_lines(self):
        text = census_report(3, 4)
        assert "inhabited parity classes: 4 with sizes [3, 3, 3, 6]" in text
        assert "ratio = 16" in text
        assert "measured" not in text and "level deg" not in text
