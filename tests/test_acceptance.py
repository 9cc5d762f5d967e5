"""Acceptance gate: one test per external requirement.

Golden solutions are frozen as exact rationals and compared bit-exact.
Bulk identity checks run the production solver against two independent
reference routes.  Timing checks assert direction only (which path is
faster), never absolute wall-clock numbers.  Each test prints one
pass/fail line in the terminal summary (see conftest).
"""

import math
import random
import statistics
import time
from fractions import Fraction

from quadharm import (
    NonhyperbolicQuadratic,
    Poly,
    SolveStats,
    operator_is_bijective,
    operator_kernel,
    oracle_full_system,
    oracle_operator_matrix,
    product_diff_linear,
    product_diff_quadratic,
    solve_dirichlet,
)
from quadharm.bench import (
    class_census,
    dense_boundary,
    monomial_boundary,
    monomial_combined_factor,
    predicted_full_ops,
    predicted_partitioned_ops,
    predicted_ratio,
    run_comparison,
)
from conftest import random_poly, random_quadric

ELLIPSOID_3 = NonhyperbolicQuadratic((2, 3, 4), (0, 0, 0), -1)
UNIT_SPHERE_3 = NonhyperbolicQuadratic((1, 1, 1), (0, 0, 0), -1)

# Unique multiplier for boundary x1^4 x2^3 on 2x1^2 + 3x2^2 + 4x3^2 = 1,
# all ten coefficients exact.
EXAMPLE1_MULTIPLIER = {
    (4, 1, 0): Fraction(3423451, 60434439),
    (2, 3, 0): Fraction(2306686, 20144813),
    (2, 1, 2): Fraction(-3712712, 60434439),
    (0, 5, 0): Fraction(-97950, 20144813),
    (0, 3, 2): Fraction(-53836, 20144813),
    (0, 1, 4): Fraction(236464, 60434439),
    (2, 1, 0): Fraction(2524856930, 100139865423),
    (0, 3, 0): Fraction(148091, 33379955141),
    (0, 1, 2): Fraction(-32326712, 7703066571),
    (0, 1, 0): Fraction(701980831, 500699327115),
}

# Value at the origin of the harmonic match of x1^10 on the same ellipsoid.
EXAMPLE3_ORIGIN_VALUE = Fraction(
    500945213823452554440546462385400584789,
    397263369506735959801289842040922215251461,
)


def test_criterion_01_degree7_golden_coefficients():
    start = time.perf_counter()
    p = Poly.monomial(3, (4, 3, 0))
    dec = solve_dirichlet(p, ELLIPSOID_3)
    elapsed = time.perf_counter() - start

    assert dec.f == Poly(3, EXAMPLE1_MULTIPLIER)
    assert dec.h == p - ELLIPSOID_3.to_polynomial() * dec.f
    assert dec.h.laplacian().is_zero()
    assert elapsed < 1.0


def test_criterion_02_degree10_origin_value():
    start = time.perf_counter()
    p = Poly.monomial(3, (10, 0, 0))
    dec = solve_dirichlet(p, ELLIPSOID_3)
    elapsed = time.perf_counter() - start

    assert dec.h.coefficient((0, 0, 0)) == EXAMPLE3_ORIGIN_VALUE
    assert dec.h.laplacian().is_zero()
    assert (p - dec.h - ELLIPSOID_3.to_polynomial() * dec.f).is_zero()
    assert elapsed < 10.0


def test_criterion_03_unit_sphere_cross_check():
    p = Poly.monomial(3, (10, 0, 0))
    dec = solve_dirichlet(p, UNIT_SPHERE_3)
    h = dec.h

    assert h.coefficient((0, 0, 0)) == Fraction(1, 11)
    assert max(c.denominator for c in h.terms.values()) == 46189

    # The monomial-basis numerators exceed 46189 (the largest is 50400 on
    # x1^4 x2^4 x3^2 and x1^4 x2^2 x3^4).  The 46189 bound holds for the
    # solution collected in powers of (x2^2 + x3^2), the natural display
    # for this rotationally symmetric case: each group (i, k) carries one
    # rational c with coefficient(i, 2u, 2v) = c * comb(k, u), and the
    # largest integer over every such c is exactly 46189.
    assert max(abs(c.numerator) for c in h.terms.values()) == 50400

    collected: dict[tuple[int, int], Fraction] = {}
    for (i, e2, e3), coeff in h.terms.items():
        assert e2 % 2 == 0 and e3 % 2 == 0
        u, v = e2 // 2, e3 // 2
        k = u + v
        base = coeff / math.comb(k, u)
        if (i, k) in collected:
            assert collected[(i, k)] == base
        else:
            collected[(i, k)] = base
    largest = max(
        max(abs(c.numerator), c.denominator) for c in collected.values()
    )
    assert largest == 46189


def test_criterion_04_dimension4_parametric_family_at_two():
    # Expected multiplier derived by independent exact evaluation of the
    # closed-form family solution at axis scale 2 (first axis coefficient).
    s = Fraction(2)
    den = 788400 + 367920 * s + 48712 * s**2 + 2520 * s**3 + 45 * s**4
    assert den == 1739968
    inner = {
        (1, 0, 3, 1): 4 * (50 + 3 * s) * (36 + 5 * s),
        (3, 0, 1, 1): -12 * (2190 + 281 * s + 9 * s**2),
        (1, 0, 1, 1): -(82800 + 21868 * s + 1764 * s**2 + 45 * s**3)
        / (3 * (10 + s)),
        (1, 2, 1, 1): -(50400 + 21118 * s + 1845 * s**2 + 45 * s**3),
        (1, 0, 1, 3): 5 * (46 + 3 * s) * (36 + 5 * s),
    }
    expected_f = Poly(4, {e: -v / den for e, v in inner.items()})

    q = NonhyperbolicQuadratic((2, 3, 4, 5), (0, 0, 0, 0), -1)
    p = Poly.monomial(4, (3, 2, 1, 1))
    dec = solve_dirichlet(p, q)

    assert dec.f == expected_f
    assert dec.h == p - q.to_polynomial() * dec.f
    assert dec.h.laplacian().is_zero()


def test_criterion_05_bulk_identities_with_triple_agreement():
    rng = random.Random(50_20260815)
    start = time.perf_counter()
    schedule = [(2, 8, 30), (3, 7, 30), (4, 6, 25), (5, 5, 20)]
    cases = 0
    for n, max_degree, count in schedule:
        for _ in range(count):
            q = random_quadric(rng, n)
            p = random_poly(rng, n, rng.randint(2, max_degree),
                            terms=rng.randint(1, 5))
            dec = solve_dirichlet(p, q)

            assert dec.h.laplacian().is_zero()
            assert (p - dec.h - q.to_polynomial() * dec.f).is_zero()

            unpartitioned = solve_dirichlet(
                p, q,
                homogeneous_solver=lambda s, q2: oracle_full_system(
                    s, q2, s.degree() - 2),
            )
            assert unpartitioned.h == dec.h and unpartitioned.f == dec.f

            operator_route = oracle_operator_matrix(p, q)
            assert operator_route.h == dec.h and operator_route.f == dec.f
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 100
    assert elapsed < 300.0


def test_criterion_06_product_derivative_formulas():
    rng = random.Random(60_20260815)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        g = Poly(n, {
            tuple(1 if k == j else 0 for k in range(n)): rng.randint(-5, 5)
            for j in range(n)
        }) + Poly.constant(n, Fraction(rng.randint(-5, 5)))
        f = random_poly(rng, n, rng.randint(0, 5), terms=rng.randint(1, 5))
        alpha = tuple(rng.randint(0, 6 // n) for _ in range(n))
        assert product_diff_linear(g, f, alpha) == (g * f).d_alpha(alpha)
        checked += 1
    for _ in range(120):
        n = rng.randint(1, 4)
        terms = {}
        for j in range(n):
            terms[tuple(2 if k == j else 0 for k in range(n))] = rng.randint(-4, 4)
            terms[tuple(1 if k == j else 0 for k in range(n))] = rng.randint(-4, 4)
        terms[(0,) * n] = rng.randint(-4, 4)
        q = Poly(n, terms)
        f = random_poly(rng, n, rng.randint(0, 5), terms=rng.randint(1, 5))
        alpha = tuple(rng.randint(0, 6 // n) for _ in range(n))
        assert product_diff_quadratic(q, f, alpha) == (q * f).d_alpha(alpha)
        checked += 1
    assert checked >= 200


def test_criterion_07_parity_census_and_single_active_class():
    for n in (2, 3, 4):
        for m in range(n + 1, n + 7):
            census = class_census(n, m)
            assert len(census) == 2 ** (n - 1)
            assert sum(census.values()) == math.comb(m + n - 1, m)

    # monomial boundary, no linear surface part: one active class per level
    for quadric, degree in [
        (ELLIPSOID_3, 6), (ELLIPSOID_3, 9),
        (NonhyperbolicQuadratic((1, 1, 0), (0, 0, 0), -1), 7),
        (NonhyperbolicQuadratic((1, 2), (0, 0), -3), 8),
    ]:
        stats = SolveStats()
        solve_dirichlet(monomial_boundary(quadric.n, degree), quadric,
                        stats=stats)
        assert stats.levels
        assert all(lv.nonzero_rhs_classes == 1 for lv in stats.levels)


def test_criterion_08_operation_count_formulas():
    assert predicted_full_ops(0, 2) == Fraction(2, 3)
    assert predicted_full_ops(2, 2) == 18
    assert predicted_full_ops(10, 3) == 191664
    for n in range(2, 9):
        assert predicted_ratio(n) == Fraction(2 ** (2 * n - 2))
        for m in (2, 5, 8):
            ratio = predicted_full_ops(m, n) / predicted_partitioned_ops(m, n)
            assert ratio == Fraction(2 ** (2 * n - 2))
        assert monomial_combined_factor(n) == 2 ** (3 * n - 3)


def test_criterion_09_hyperbolic_negative_control():
    hyperbolic = Poly(2, {(2, 0): 1, (0, 2): -3})
    assert not operator_is_bijective(hyperbolic, 1)
    basis = operator_kernel(hyperbolic, 1)
    assert len(basis) == 1
    witness = basis[0]
    scale = witness.coefficient((1, 0))
    assert scale != 0
    assert witness == scale * Poly.variable(2, 0)


def test_criterion_10_partitioning_and_float_are_faster():
    # partitioned vs unpartitioned, dense boundaries, n = 3, m in {8, 10}
    for boundary_degree in (10, 12):
        record = run_comparison(
            dense_boundary(3, boundary_degree), UNIT_SPHERE_3, repetitions=3)
        assert record.measured_partitioned_ms <= record.measured_full_ms

    # float mode vs exact mode on the degree-20 monomial; the samples
    # alternate so that a change of core speed hits both modes alike
    p = Poly.monomial(3, (20, 0, 0))
    p_float = p.to_float()

    def elapsed_ms(boundary):
        t0 = time.perf_counter()
        solve_dirichlet(boundary, ELLIPSOID_3)
        return (time.perf_counter() - t0) * 1000.0

    exact_samples, float_samples = [], []
    for _ in range(7):
        exact_samples.append(elapsed_ms(p))
        float_samples.append(elapsed_ms(p_float))
    exact_ms = statistics.median(exact_samples)
    float_ms = statistics.median(float_samples)
    assert float_ms < exact_ms
