"""Oracle agreement, kernel probes, and report semantics."""

from fractions import Fraction

import pytest

from quadharm import (
    HarmonicDecomposition,
    NonhyperbolicQuadratic,
    Poly,
    VerificationReport,
    operator_is_bijective,
    operator_kernel,
    oracle_full_system,
    oracle_operator_matrix,
    solve_dirichlet,
    solve_homogeneous,
    verify_solution,
)
from quadharm.bench import dense_boundary
from conftest import random_poly, random_quadric


def sphere(n: int = 3) -> NonhyperbolicQuadratic:
    return NonhyperbolicQuadratic((1,) * n, (0,) * n, -1)


def random_homogeneous(rng, n, degree):
    from quadharm import multi_indices

    exps = list(multi_indices(n, degree))
    rng.shuffle(exps)
    picked = exps[: rng.randint(1, min(4, len(exps)))]
    return Poly(n, {e: Fraction(rng.randint(1, 9)) for e in picked})


class TestFullSystemOracle:
    def test_matches_partitioned_homogeneous_solve(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            q = random_quadric(rng, n)
            q2 = q.parts()[0]
            deg = rng.randint(2, 6)
            ph = random_homogeneous(rng, n, deg)
            assert oracle_full_system(ph, q2, deg - 2) == solve_homogeneous(ph, q2)

    def test_order_must_match_degree(self):
        q2 = Poly(2, {(2, 0): 1, (0, 2): 1})
        with pytest.raises(ValueError):
            oracle_full_system(Poly.monomial(2, (4, 0)), q2, 1)

    def test_float_input_is_refused(self):
        ph = Poly.monomial(2, (4, 0))
        q2 = Poly(2, {(2, 0): 1, (0, 2): 1})
        for args in ((ph.to_float(), q2), (ph, q2.to_float())):
            with pytest.raises(ValueError, match="runs in exact mode only"):
                oracle_full_system(*args, 2)


class TestOperatorMatrixOracle:
    def test_agrees_with_solver_on_random_cases(self, rng):
        for _ in range(8):
            n = rng.randint(2, 3)
            q = random_quadric(rng, n)
            p = random_poly(rng, n, rng.randint(2, 5), terms=4)
            dec = solve_dirichlet(p, q)
            ref = oracle_operator_matrix(p, q)
            assert ref.h == dec.h and ref.f == dec.f

    def test_rejects_float_input(self):
        with pytest.raises(ValueError):
            oracle_operator_matrix(Poly.monomial(2, (2, 0)).to_float(), sphere(2))

    def test_low_degree_input_is_its_own_harmonic_part(self):
        p = Poly.variable(3, 1)
        ref = oracle_operator_matrix(p, sphere())
        assert ref.h == p and ref.f.is_zero()
        # A harmonic input of degree 2 goes through the elimination, whose
        # unknowns all come out zero.
        p = Poly(3, {(2, 0, 0): 1, (0, 2, 0): -1})
        paraboloid = NonhyperbolicQuadratic((1, 2, 0), (Fraction(1, 2), -1, 1), 0)
        ref = oracle_operator_matrix(p, paraboloid)
        assert ref.h == p and ref.f.is_zero()


class TestKernelProbe:
    def test_hyperbolic_quadratic_has_kernel_spanned_by_x1(self):
        hyper = Poly(2, {(2, 0): 1, (0, 2): -3})
        basis = operator_kernel(hyper, 1)
        assert len(basis) == 1
        witness = basis[0]
        x1 = Poly.variable(2, 0)
        scale = witness.coefficient((1, 0))
        assert scale != 0
        assert witness == scale * x1
        assert not operator_is_bijective(hyper, 1)

    def test_float_quadratic_is_probed_exactly(self):
        hyper = Poly(2, {(2, 0): 1, (0, 2): -3})
        assert operator_kernel(hyper.to_float(), 3) == operator_kernel(hyper, 3)

    def test_valid_surfaces_have_trivial_kernel(self, rng):
        for _ in range(6):
            n = rng.randint(2, 3)
            q = random_quadric(rng, n)
            order = rng.randint(0, 3)
            assert operator_kernel(q, order) == []
            assert operator_is_bijective(q, order)


class TestVerifySolution:
    def test_accepts_true_solution_with_oracle(self, rng):
        q = random_quadric(rng, 3)
        p = random_poly(rng, 3, 4, terms=4)
        dec = solve_dirichlet(p, q)
        report = verify_solution(p, q, dec, check_oracle=True)
        assert report.ok()
        assert report.harmonic_ok and report.residual_ok
        assert report.oracle_match is True
        assert report.residual.is_zero()

    def test_harmonic_perturbation_breaks_residual_only(self):
        # adding a harmonic term keeps laplacian(h) = 0 but spoils p = h + q*f,
        # which is how uniqueness shows up in the report
        added = Poly(3, {(1, 1, 0): Fraction(1, 7)})
        fractional = NonhyperbolicQuadratic(
            (Fraction(1, 2), Fraction(2, 3), 3), (Fraction(1, 5), 0, Fraction(-3, 4)),
            Fraction(-7, 2))
        for q in (sphere(), fractional):
            p = Poly.monomial(3, (2, 1, 0))
            dec = solve_dirichlet(p, q)
            tampered = HarmonicDecomposition(h=dec.h + added, f=dec.f, p=p, q=q)
            report = verify_solution(p, q, tampered)
            assert report.harmonic_ok
            assert not report.residual_ok
            assert not report.ok()
            assert report.residual == -added

    def test_nonharmonic_perturbation_breaks_harmonicity(self):
        q = sphere()
        p = Poly.monomial(3, (2, 1, 0))
        dec = solve_dirichlet(p, q)
        tampered = HarmonicDecomposition(
            h=dec.h + Poly.monomial(3, (2, 0, 0)), f=dec.f, p=p, q=q)
        report = verify_solution(p, q, tampered)
        assert not report.harmonic_ok
        assert not report.ok()

    def test_oracle_flag_reports_foreign_multiplier(self):
        q = sphere()
        p = Poly.monomial(3, (2, 1, 0))
        dec = solve_dirichlet(p, q)
        wrong = HarmonicDecomposition(
            h=dec.h, f=dec.f + Poly.constant(3, 1), p=p, q=q)
        report = verify_solution(p, q, wrong, check_oracle=True)
        assert report.oracle_match is False
        assert not report.ok()

    def test_float_mode_tolerance(self, rng):
        q = random_quadric(rng, 2, "ellipsoid")
        p = random_poly(rng, 2, 5, terms=4).to_float()
        dec = solve_dirichlet(p, q)
        report = verify_solution(p, q, dec)
        assert report.ok()
        assert any("float mode" in note for note in report.notes)
        drifted = HarmonicDecomposition(
            h=dec.h + Poly.constant(2, 1e-6).to_float(), f=dec.f, p=p, q=q)
        assert not verify_solution(p, q, drifted).residual_ok

    def test_float_tolerance_scales_with_the_input(self):
        # A dense degree-12 boundary scaled by 10^6: its correct float solve
        # has |laplacian(h)| around 1e-7, far above any absolute cutoff.
        q = NonhyperbolicQuadratic((2, 3, 4), (0, 0, 0), -1)
        p = (10**6 * dense_boundary(3, 12)).to_float()
        dec = solve_dirichlet(p, q)
        report = verify_solution(p, q, dec)
        assert report.ok()
        assert any("tolerance" in note for note in report.notes)
        size = float(p.max_abs_coefficient())
        for drift in (Poly.constant(3, 1), Poly.monomial(3, (2, 0, 0))):
            drifted = HarmonicDecomposition(
                h=dec.h + (1e-6 * size) * drift.to_float(), f=dec.f, p=p, q=q)
            report = verify_solution(p, q, drifted)
            assert not report.ok() and not report.ill_conditioned

    def test_float_solution_far_above_the_input_is_ill_conditioned(self):
        # On this paraboloid h is about 3e6 times larger than p: its rounding
        # exceeds a tolerance at the size of p, so the correct answer is not
        # verified but marked ill-conditioned, and a drift of 1e-6 * max|p|
        # is rejected as well.
        q = NonhyperbolicQuadratic((1, 1, 0), (0, 0, 1), 0)
        p = dense_boundary(3, 10).to_float()
        dec = solve_dirichlet(p, q)
        size = float(p.max_abs_coefficient())
        assert float(dec.h.max_abs_coefficient()) > 1e6 * size
        report = verify_solution(p, q, dec)
        assert not report.ok() and report.ill_conditioned
        assert any("ill-conditioned" in note for note in report.notes)
        drifted = HarmonicDecomposition(
            h=dec.h + Poly.constant(3, 1e-6 * size).to_float(), f=dec.f, p=p, q=q)
        assert not verify_solution(p, q, drifted).ok()

    def test_float_oracle_combination_rejected(self):
        p = Poly.monomial(2, (2, 0)).to_float()
        dec = solve_dirichlet(p, sphere(2))
        with pytest.raises(ValueError):
            verify_solution(p, sphere(2), dec, check_oracle=True)

    def test_degenerate_surface_notes_do_not_fail_report(self):
        q = NonhyperbolicQuadratic((1, 1, 1), (0, 0, 0), 1)  # empty zero set
        p = Poly.monomial(3, (2, 0, 0))
        dec = solve_dirichlet(p, q)
        report = verify_solution(p, q, dec)
        assert report.ok()
        assert not report.surface_nondegenerate
        assert any("degenerate" in note for note in report.notes)

    def test_report_has_value_semantics(self):
        zero = Poly.zero(2)
        report = VerificationReport(harmonic_ok=True, residual_ok=False, residual=zero,
                                    surface_nondegenerate=True)
        assert (report.oracle_match, report.notes, report.ill_conditioned) == (None, [], False)
        assert report.notes is not VerificationReport(True, True, zero, True).notes
        assert report == VerificationReport(True, False, zero, True, None, [], False)
        assert report != VerificationReport(True, False, zero, True, notes=["x"])
        assert repr(report) == (
            "VerificationReport(harmonic_ok=True, residual_ok=False, "
            f"residual={zero!r}, surface_nondegenerate=True, oracle_match=None, "
            "notes=[], ill_conditioned=False)")
