"""Sparse polynomial arithmetic and differential operators."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quadharm import (
    DimensionMismatchError,
    Poly,
    multi_indices,
    multi_indices_upto,
    product_diff_linear,
    product_diff_quadratic,
    taylor_reconstruct,
)
from conftest import dimensioned_polys_st, polys_st, random_fraction, random_poly

x1 = Poly.variable(3, 0)
x2 = Poly.variable(3, 1)
x3 = Poly.variable(3, 2)


class TestConstruction:
    def test_zero_coefficients_are_pruned(self):
        p = Poly(2, {(1, 0): Fraction(0), (0, 1): 3})
        assert p.terms == {(0, 1): Fraction(3)}

    def test_int_coefficients_become_fractions(self):
        p = Poly(2, {(1, 1): 7})
        assert isinstance(p.coefficient((1, 1)), Fraction)

    def test_wrong_exponent_length_raises(self):
        with pytest.raises(DimensionMismatchError):
            Poly(2, {(1, 0, 0): 1})

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            Poly(2, {(-1, 0): 1})

    def test_dimension_below_one_raises(self):
        with pytest.raises(ValueError):
            Poly(0, {})

    def test_terms_view_is_read_only(self):
        p = Poly(2, {(1, 0): 1})
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = Fraction(2)

    def test_monomial_and_variable_helpers(self):
        assert Poly.monomial(3, (2, 0, 1), 5) == Poly(3, {(2, 0, 1): 5})
        assert Poly.variable(3, 2) == Poly(3, {(0, 0, 1): 1})
        assert Poly.constant(2, Fraction(1, 3)).degree() == 0
        assert Poly.zero(4).is_zero()


class TestCanonicalOrder:
    def test_sorted_terms_descend_by_degree_then_lex(self):
        p = Poly(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1, (1, 0): 1})
        assert [e for e, _ in p.sorted_terms()] == [
            (2, 0), (1, 1), (0, 2), (1, 0), (0, 0)]

    def test_multi_indices_enumeration(self):
        assert list(multi_indices(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(multi_indices(3, 1)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_multi_indices_upto_counts(self):
        assert len(list(multi_indices_upto(3, 4))) == 35  # comb(7, 3)


class TestArithmetic:
    def test_binomial_square(self):
        s = x1 + x2
        assert s * s == x1 * x1 + 2 * x1 * x2 + x2 * x2

    def test_subtraction_cancels_to_zero(self):
        p = 3 * x1 * x2 - x3
        assert (p - p).is_zero()
        assert p - p == Poly.zero(3)

    def test_disjoint_keys_are_stored_as_they_are(self):
        p = Poly(2, {(1, 0): Fraction(3, 2), (0, 0): Fraction(1, 3)})
        q = Poly(2, {(0, 1): Fraction(-5, 7), (0, 0): Fraction(1, 3)})
        assert (p - q).terms == {(1, 0): Fraction(3, 2), (0, 1): Fraction(5, 7)}
        assert (q - p).terms == {(1, 0): Fraction(-3, 2), (0, 1): Fraction(-5, 7)}
        assert (p + q).terms == {
            (1, 0): Fraction(3, 2), (0, 1): Fraction(-5, 7), (0, 0): Fraction(2, 3)}
        assert (p.to_float() - q.to_float()).terms == {(1, 0): 1.5, (0, 1): 5 / 7}

    def test_underflowing_float_product_is_not_stored(self):
        tiny = Poly(2, {(1, 0): 1e-200, (0, 1): -1e-200})
        square = tiny * tiny  # every product underflows to +0.0 or -0.0
        assert square.is_zero() and square == Poly.zero(2)
        mixed = Poly(2, {(1, 0): 1e-200, (0, 0): 1.0}) * Poly(2, {(1, 0): 1e-200, (0, 0): 2.0})
        assert mixed.terms == {(1, 0): 3e-200, (0, 0): 2.0}

    def test_int_coefficients_stay_ints(self):
        p = Poly._raw(2, {(2, 1): 3, (0, 2): -4})
        q = Poly._raw(2, {(1, 0): 5, (0, 2): 4})
        for result in (p + q, p - q, p * q, p.laplacian()):
            assert result.terms and all(type(c) is int for c in result.terms.values())

    def test_scalar_multiplication(self):
        assert Fraction(1, 2) * (2 * x1) == x1
        assert (x1 * 0).is_zero()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            x1 + Poly.variable(2, 0)

    def test_degree(self):
        assert Poly.zero(2).degree() is None
        assert Poly.constant(2, 5).degree() == 0
        assert (x1 * x2 * x2 + x3).degree() == 3

    def test_equal_polys_share_hash(self):
        p = x1 * x2 + x3
        q = x3 + x2 * x1
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1

    @given(dimensioned_polys_st(), st.data())
    def test_addition_commutes(self, p, data):
        q = data.draw(polys_st(p.n))
        assert p + q == q + p

    @given(dimensioned_polys_st(max_degree=3), st.data())
    def test_multiplication_distributes(self, p, data):
        q = data.draw(polys_st(p.n, max_degree=3))
        r = data.draw(polys_st(p.n, max_degree=3))
        assert p * (q + r) == p * q + p * r


def reference_product(p: Poly, q: Poly) -> dict:
    """``Poly.__mul__`` as first written, adding whole exponent tuples."""
    out: dict = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = tuple(map(operator.add, a, b))
            c = ca * cb
            s = out.get(key)
            if s is not None:
                c = s + c
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
    return out


def reference_laplacian(p: Poly) -> dict:
    """``Poly.laplacian`` as first written, slicing each key."""
    out: dict = {}
    for a, c in p.terms.items():
        for j, e in enumerate(a):
            if e >= 2:
                na = a[:j] + (e - 2,) + a[j + 1 :]
                v = c * (e * (e - 1))
                s = out.get(na)
                if s is not None:
                    v = s + v
                if v == 0:
                    out.pop(na, None)
                else:
                    out[na] = v
    return out


def bits(terms) -> list:
    """Terms in their stored order, floats by ``float.hex``, others by type and value."""
    return [(a, c.hex() if isinstance(c, float) else (type(c), c)) for a, c in terms.items()]


# Values that cancel in pairs, and products that underflow to +-0.0.
FLOATS = st.one_of(
    st.sampled_from([1.0, -1.0, 1.5, -1.5, 0.1, -0.3, 1e-200, -1e-200, 3e-170, 2.5e-160]),
    st.floats(-1e6, 1e6).filter(bool))
EXACT = st.one_of(st.integers(-4, 4).filter(bool),
                  st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)))


@st.composite
def exponents_of_kind(draw, n: int, kind: str) -> tuple:
    """A constant, a power of one variable, or a monomial in several."""
    if kind == "constant":
        return (0,) * n
    if kind == "one variable":
        alpha = [0] * n
        alpha[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
        return tuple(alpha)
    alpha = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    axes = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    for j in axes:
        alpha[j] = max(alpha[j], 1)
    return tuple(alpha)


def polys_of(n: int, exponents: st.SearchStrategy, values: st.SearchStrategy,
             max_terms: int = 6) -> st.SearchStrategy:
    return st.dictionaries(exponents, values, max_size=max_terms).map(lambda d: Poly._raw(n, d))


class TestAxisShiftArithmetic:
    """The product and the Laplacian move one axis of each key instead of
    adding or slicing whole tuples; they must give the first versions'
    terms, in the same order, to the bit."""

    @pytest.mark.parametrize("values", [FLOATS, EXACT], ids=["float", "exact"])
    @pytest.mark.parametrize("kind", ["constant", "one variable", "several variables", "mixed"])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_product_matches_the_reference(self, kind, values, data):
        n = data.draw(st.integers(2, 4))
        kinds = ["constant", "one variable", "several variables"] if kind == "mixed" else [kind]
        outer = data.draw(polys_of(
            n, st.one_of(*[exponents_of_kind(n, k) for k in kinds]), values, max_terms=4))
        inner = data.draw(polys_of(n, st.lists(st.integers(0, 4), min_size=n, max_size=n)
                                   .map(tuple), values))
        assert bits((outer * inner).terms) == bits(reference_product(outer, inner))

    @pytest.mark.parametrize("values", [FLOATS, EXACT], ids=["float", "exact"])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_laplacian_matches_the_reference(self, values, data):
        n = data.draw(st.integers(1, 4))
        p = data.draw(polys_of(n, st.lists(st.integers(0, 5), min_size=n, max_size=n)
                               .map(tuple), values, max_terms=8))
        assert bits(p.laplacian().terms) == bits(reference_laplacian(p))

    @pytest.mark.parametrize("outer", [
        Poly._raw(3, {(0, 0, 0): 1e-200}),
        Poly._raw(3, {(0, 2, 0): 1e-200}),
        Poly._raw(3, {(1, 1, 0): 1e-200}),
    ], ids=["constant", "one variable", "several variables"])
    def test_underflowing_products_are_not_stored(self, outer):
        inner = Poly._raw(3, {(1, 0, 0): 1e-200, (0, 0, 1): 2.0})
        product = outer * inner
        assert bits(product.terms) == bits(reference_product(outer, inner))
        assert len(product.terms) == 1 and list(product.terms.values()) == [2e-200]

    @pytest.mark.parametrize("scalar", [float, Fraction])
    def test_cancelling_sums_are_not_stored(self, scalar):
        # (x1 + x2) * (x1 - x2) and (x1^2 + x2^2 + 1) * (x1^2 - x2^2): the
        # mixed terms cancel, the second product's constant ones too.
        one = scalar(1)
        plus = Poly._raw(2, {(1, 0): one, (0, 1): one})
        minus = Poly._raw(2, {(1, 0): one, (0, 1): -one})
        assert (plus * minus).terms == {(2, 0): one, (0, 2): -one}
        squares = Poly._raw(2, {(2, 0): one, (0, 2): one, (0, 0): one})
        difference = Poly._raw(2, {(2, 0): one, (0, 2): -one})
        expected = {(4, 0): one, (0, 4): -one, (2, 0): one, (0, 2): -one}
        assert (squares * difference).terms == expected
        assert bits((squares * difference).terms) == bits(reference_product(squares, difference))
        # x1^2 - x2^2 + x1*x2 is harmonic: its Laplacian's two terms cancel.
        harmonic = Poly._raw(2, {(2, 0): one, (0, 2): -one, (1, 1): one})
        assert harmonic.laplacian().terms == {} == reference_laplacian(harmonic)


class TestDifferentiation:
    def test_partial_basic(self):
        p = x1 * x1 * x1 * x2  # x1^3 x2
        assert p.partial(0) == 3 * x1 * x1 * x2
        assert p.partial(2).is_zero()

    def test_partial_axis_out_of_range(self):
        with pytest.raises(ValueError):
            x1.partial(3)

    def test_laplacian_of_known_harmonics(self):
        assert (x1 * x2).laplacian().is_zero()
        assert (x1 * x1 - x2 * x2).laplacian().is_zero()
        assert (x1 * x1).laplacian() == Poly.constant(3, 2)

    def test_laplacian_high_degree_monomial(self):
        p = Poly.monomial(2, (20, 7))
        expected = Poly(2, {(20, 5): 42, (18, 7): 380})
        assert p.laplacian() == expected

    def test_d_alpha_with_falling_factorials(self):
        p = Poly.monomial(2, (4, 2))
        # D^(2,1) x1^4 x2^2 = 4*3 * 2 * x1^2 x2
        assert p.d_alpha((2, 1)) == Poly(2, {(2, 1): 24})
        assert p.d_alpha((5, 0)).is_zero()

    @given(dimensioned_polys_st(max_degree=5), st.data())
    def test_d_alpha_matches_repeated_partials(self, p, data):
        alpha = data.draw(
            st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n).map(tuple))
        direct = p.d_alpha(alpha)
        step = p
        for axis, count in enumerate(alpha):
            for _ in range(count):
                step = step.partial(axis)
        assert direct == step

    @given(dimensioned_polys_st(), st.data())
    def test_d_alpha_is_linear(self, p, data):
        q = data.draw(polys_st(p.n))
        c = data.draw(st.integers(-5, 5))
        alpha = data.draw(
            st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n).map(tuple))
        assert (p + c * q).d_alpha(alpha) == p.d_alpha(alpha) + c * q.d_alpha(alpha)


class TestEvaluation:
    def test_evaluate_rational_point(self):
        p = x1 * x1 + 2 * x2 - x3
        assert p.evaluate((Fraction(1, 2), 1, 3)) == Fraction(1, 4) + 2 - 3

    def test_homogeneous_components_sum_back(self, rng):
        p = random_poly(rng, 3, 5, terms=8)
        total = Poly.zero(3)
        for deg, comp in p.homogeneous_components():
            assert comp.is_homogeneous()
            assert comp.degree() == deg
            total = total + comp
        assert total == p

    def test_extend_keeps_values(self):
        p = Poly(2, {(1, 1): 3})
        q = p.extend(4)
        assert q.n == 4
        assert q.coefficient((1, 1, 0, 0)) == 3
        with pytest.raises(ValueError):
            q.extend(2)


class TestFloatMode:
    def test_to_float_flags_mode(self):
        p = (x1 * x2).to_float()
        assert p.is_float()
        assert isinstance(p.coefficient((1, 1, 0)), float)

    def test_max_abs_coefficient(self):
        p = Poly(2, {(1, 0): Fraction(-7, 2), (0, 1): 1})
        assert p.max_abs_coefficient() == Fraction(7, 2)

    def test_float_arithmetic_round_trips_small_ints(self):
        p = Poly(2, {(2, 0): 3, (0, 1): -2}).to_float()
        q = p + p
        assert q.coefficient((2, 0)) == 6.0


class TestTaylorReconstruct:
    def test_round_trip_homogeneous(self, rng):
        for _ in range(20):
            n = rng.randint(2, 4)
            order = rng.randint(0, 4)
            mono = {e: random_fraction(rng) for e in multi_indices(n, order)}
            g = Poly(n, mono)
            vals = {
                alpha: g.d_alpha(alpha).coefficient((0,) * n)
                for alpha in multi_indices(n, order)
            }
            assert taylor_reconstruct(order, vals, n) == g

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            taylor_reconstruct(2, {(1, 0): Fraction(1)}, 2)


class TestProductDiffFormulas:
    def test_linear_factor_example(self):
        g = Poly(2, {(1, 0): 2, (0, 0): 1})         # 2 x1 + 1
        f = Poly.monomial(2, (2, 1))
        assert product_diff_linear(g, f, (1, 0)) == ((g * f).d_alpha((1, 0)))

    def test_quadratic_factor_example(self):
        q = Poly(2, {(2, 0): 3, (0, 2): 1})
        f = Poly.monomial(2, (2, 0))
        assert product_diff_quadratic(q, f, (2, 0)) == (q * f).d_alpha((2, 0))

    def test_linear_rejects_higher_degree(self):
        q = Poly(2, {(2, 0): 1})
        with pytest.raises(ValueError):
            product_diff_linear(q, q, (1, 0))

    def test_quadratic_rejects_cross_terms(self):
        q = Poly(2, {(1, 1): 1})
        with pytest.raises(ValueError):
            product_diff_quadratic(q, q, (1, 0))

    def test_quadratic_rejects_degree_three(self):
        c = Poly.monomial(2, (3, 0))
        with pytest.raises(ValueError):
            product_diff_quadratic(c, c, (1, 0))
