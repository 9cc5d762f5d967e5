"""Surface coefficient validation and classification."""

from fractions import Fraction

import pytest

from quadharm import InvalidQuadricError, NonhyperbolicQuadratic, Poly


def sphere(n: int = 3) -> NonhyperbolicQuadratic:
    return NonhyperbolicQuadratic((1,) * n, (0,) * n, -1)


class TestValidation:
    def test_coefficients_coerced_to_fractions(self):
        q = sphere()
        assert all(isinstance(v, Fraction) for v in q.a + q.c)
        assert isinstance(q.d, Fraction)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidQuadricError):
            NonhyperbolicQuadratic((1, 1), (0,), 0)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(InvalidQuadricError):
            NonhyperbolicQuadratic((1,), (0,), -1)

    def test_negative_square_coefficient_rejected(self):
        with pytest.raises(InvalidQuadricError):
            NonhyperbolicQuadratic((1, -3), (0, 0), -1)

    def test_all_zero_square_coefficients_rejected(self):
        with pytest.raises(InvalidQuadricError):
            NonhyperbolicQuadratic((0, 0), (1, 1), 0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            sphere().d = Fraction(2)

    def test_value_semantics(self):
        q = NonhyperbolicQuadratic(a=[1, 2], c=(0, Fraction(1, 2)), d=-1)
        same = NonhyperbolicQuadratic((1, 2), (0, Fraction(1, 2)), Fraction(-1))
        assert q == same and hash(q) == hash(same) and len({q, same}) == 1
        for other in (NonhyperbolicQuadratic((1, 3), (0, Fraction(1, 2)), -1),
                      NonhyperbolicQuadratic((1, 2), (0, 0), -1),
                      NonhyperbolicQuadratic((1, 2), (0, Fraction(1, 2)), 0)):
            assert q != other
        assert q != (q.a, q.c, q.d)
        assert repr(q) == ("NonhyperbolicQuadratic(a=(Fraction(1, 1), Fraction(2, 1)), "
                           "c=(Fraction(0, 1), Fraction(1, 2)), d=Fraction(-1, 1))")


class TestPolynomialViews:
    def test_to_polynomial_round_trip(self):
        q = NonhyperbolicQuadratic((2, 3, 4), (0, -1, 0), Fraction(5, 7))
        p = q.to_polynomial()
        assert p == Poly(3, {
            (2, 0, 0): 2, (0, 2, 0): 3, (0, 0, 2): 4,
            (0, 1, 0): -1, (0, 0, 0): Fraction(5, 7)})

    def test_parts_sum_to_whole(self):
        q = NonhyperbolicQuadratic((2, 0), (1, 3), -2)
        q2, q1, q0 = q.parts()
        assert q2 + q1 + q0 == q.to_polynomial()
        assert q2.is_homogeneous() and q2.degree() == 2
        assert q1.degree() == 1
        assert q0.degree() == 0

    def test_extend_pads_with_zeros(self):
        q = sphere(2).extend(4)
        assert q.n == 4
        assert q.a == (1, 1, 0, 0)
        with pytest.raises(InvalidQuadricError):
            q.extend(3)


class TestGeometry:
    def test_sphere_is_nondegenerate_ellipsoid(self):
        q = sphere()
        assert q.is_nondegenerate_zero_set()

    def test_empty_sphere_detected(self):
        q = NonhyperbolicQuadratic((1, 1, 1), (0, 0, 0), 1)
        assert not q.is_nondegenerate_zero_set()

    def test_single_point_is_degenerate(self):
        # x1^2 + x2^2 = 0 only at the origin
        q = NonhyperbolicQuadratic((1, 1), (0, 0), 0)
        assert not q.is_nondegenerate_zero_set()

    def test_completed_square_threshold(self):
        # x1^2 - 2 x1 + x2^2 + d = 0 is a circle for d < 1
        ok = NonhyperbolicQuadratic((1, 1), (-2, 0), Fraction(99, 100))
        empty = NonhyperbolicQuadratic((1, 1), (-2, 0), 1)
        assert ok.is_nondegenerate_zero_set()
        assert not empty.is_nondegenerate_zero_set()

    def test_paraboloid_always_nondegenerate(self):
        q = NonhyperbolicQuadratic((1, 1, 0), (0, 0, 1), 5)
        assert q.is_nondegenerate_zero_set()

    def test_cylinder(self):
        # x1^2 + x3^2 = 4 for every x2
        q = NonhyperbolicQuadratic((1, 0, 1), (0, 0, 0), -4)
        assert q.is_nondegenerate_zero_set()
