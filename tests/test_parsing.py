"""Expression grammar, surface documents, and JSON round-trips."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given

from quadharm import (
    InvalidQuadricError,
    NonhyperbolicQuadratic,
    ParseError,
    Poly,
    format_polynomial,
    parse_polynomial,
    parse_surface,
)
from quadharm.parsing import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING_DEPTH,
    _scalar_from_json,
    exceeds_digit_limit,
    poly_to_json_terms,
    scalar_to_json,
)
from conftest import dimensioned_polys_st


class TestExpressionGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("x1", Poly.variable(1, 0)),
        ("x1^4*x2^3", Poly.monomial(2, (4, 3))),
        ("2x1x2^3", Poly(2, {(1, 3): 2})),                 # implicit product
        ("-x1 + x2", Poly(2, {(1, 0): -1, (0, 1): 1})),
        ("3/4", Poly.constant(1, Fraction(3, 4))),
        ("(x1 + x2)*(x1 - x2)", Poly(2, {(2, 0): 1, (0, 2): -1})),
        ("1/2 x1^2 - 1", Poly(1, {(2,): Fraction(1, 2), (0,): -1})),
        ("+x2", Poly(2, {(0, 1): 1})),
        ("x1*x1^2", Poly.monomial(1, (3,))),                # repeated variable
        ("0*x1 + 1", Poly.constant(1, 1)),                  # zero term
        ("x1 - x1", Poly.zero(1)),                          # cancellation across terms
        ("2*x1*(x1 - 1/2)*x2", Poly(2, {(2, 1): 2, (1, 1): -1})),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_polynomial(text) == expected

    def test_dimension_hint_raises_ambient_space(self):
        p = parse_polynomial("x1^2", 3)
        assert p.n == 3
        assert p == Poly.monomial(3, (2, 0, 0))

    def test_hint_never_shrinks(self):
        assert parse_polynomial("x3", 2).n == 3

    @pytest.mark.parametrize("text,position", [
        ("", 1),
        ("x0", 1),            # indices start at 1
        ("x1 +", 4),          # dangling operator, reported at the '+'
        ("1/0", 3),           # zero denominator
        ("x1^-2", 4),         # exponents are unsigned
        ("x1 $ x2", 4),       # stray character
    ])
    def test_rejected_forms_carry_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 x2 )")

    def test_nesting_limit_counts_depth_not_groups(self):
        depth = MAX_NESTING_DEPTH
        assert parse_polynomial("(" * depth + "x1" + ")" * depth) == Poly.variable(1, 0)
        assert parse_polynomial(" + ".join(["(x1)"] * (3 * depth))) == 3 * depth * Poly.variable(1, 0)
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + " + "(" * (depth + 1) + "x1" + ")" * (depth + 1))
        assert err.value.position == 6 + depth

    def test_literal_limit_is_inclusive(self):
        digits = "1" * MAX_LITERAL_DIGITS
        assert parse_polynomial(digits + "x1") == int(digits) * Poly.variable(1, 0)
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + 1" + digits)
        assert err.value.position == 6

    @given(dimensioned_polys_st(max_n=4, max_degree=5))
    def test_format_parse_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p), p.n) == p

    def test_format_examples(self):
        p = Poly(2, {(2, 0): Fraction(1, 2), (0, 1): -3, (0, 0): 1})
        assert format_polynomial(p) == "1/2*x1^2 - 3*x2 + 1"
        assert format_polynomial(Poly.zero(3)) == "0"


class TestSurfaceParsing:
    def test_expression_source(self):
        q = parse_surface("2x1^2 + 3x2^2 + 4x3^2 - 1")
        assert q == NonhyperbolicQuadratic((2, 3, 4), (0, 0, 0), -1)

    def test_json_document_source(self):
        q = parse_surface('{"a": [1, 0], "c": ["-1/2", 3], "d": "5/7"}')
        assert q.a == (1, 0)
        assert q.c == (Fraction(-1, 2), 3)
        assert q.d == Fraction(5, 7)

    def test_mapping_source(self):
        q = parse_surface({"a": [1, 1], "c": [0, 0], "d": -4})
        assert q == NonhyperbolicQuadratic((1, 1), (0, 0), -4)

    def test_dimension_hint_pads_document(self):
        q = parse_surface('{"a": [1, 1], "c": [0, 0], "d": -1}', n=4)
        assert q.n == 4 and q.a == (1, 1, 0, 0)

    def test_linear_only_expression_gets_minimum_dimension(self):
        # x1^2 alone: dimension clamps up to 2 for a valid surface
        q = parse_surface("x1^2 - 1")
        assert q.n == 2

    def test_cross_term_rejected(self):
        with pytest.raises(InvalidQuadricError):
            parse_surface("x1*x2 + x3^2")

    def test_cubic_term_rejected(self):
        with pytest.raises(InvalidQuadricError):
            parse_surface("x1^3 + x2^2")

    def test_hyperbolic_expression_rejected(self):
        with pytest.raises(InvalidQuadricError):
            parse_surface("x1^2 - 3x2^2")

    def test_missing_key_reported(self):
        with pytest.raises(ParseError) as err:
            parse_surface('{"a": [1, 1], "d": 0}')
        assert "missing" in str(err.value)

    @pytest.mark.parametrize("value", ["1e100000000", "-2.5E+0001_001", "1e" + "9" * 5000])
    def test_huge_exponent_is_refused_before_it_is_computed(self, value):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=f"is past {MAX_LITERAL_DIGITS}"):
            _scalar_from_json(value)
        assert time.perf_counter() - t0 < 1.0

    def test_exponent_at_the_limit_is_read_exactly(self):
        assert _scalar_from_json(f"1e{MAX_LITERAL_DIGITS}") == 10**MAX_LITERAL_DIGITS
        assert _scalar_from_json(f"3e-00{MAX_LITERAL_DIGITS}") == Fraction(3, 10**MAX_LITERAL_DIGITS)

    def test_malformed_json_reported(self):
        with pytest.raises(ParseError):
            parse_surface('{"a": [1, 1],')


class TestJsonScalars:
    @pytest.mark.parametrize("value", [
        Fraction(0), Fraction(-7, 3), Fraction(46189), Fraction(1, 11)])
    def test_fraction_round_trip(self, value):
        encoded = scalar_to_json(value)
        assert "/" in encoded
        assert _scalar_from_json(encoded) == value
        assert isinstance(_scalar_from_json(encoded), Fraction)

    @pytest.mark.parametrize("value", [0.5, -1.25e-9, 3.0, 1e300])
    def test_float_round_trip(self, value):
        # The reader takes a float's repr as the exact decimal it spells,
        # which rounds back to the same float.
        decoded = _scalar_from_json(scalar_to_json(value))
        assert isinstance(decoded, Fraction)
        assert float(decoded) == value

    def test_terms_round_trip(self):
        p = Poly(3, {(4, 3, 0): 1, (0, 1, 4): Fraction(236464, 60434439)})
        terms = poly_to_json_terms(p)
        assert terms[0]["e"] == [4, 3, 0]  # canonical order, top degree first
        assert Poly(3, {tuple(t["e"]): _scalar_from_json(t["c"]) for t in terms}) == p


class TestDigitLimit:
    def test_agrees_with_str_at_the_limit(self):
        limit = sys.get_int_max_str_digits()
        for value in (10**limit - 1, 10**limit, -(10**limit), 2**50):
            for c in (Fraction(value), Fraction(1, abs(value))):
                p = Poly.constant(2, c)
                try:
                    format_polynomial(p)
                    poly_to_json_terms(p)
                except ValueError:
                    assert exceeds_digit_limit(p)
                else:
                    assert not exceeds_digit_limit(p)
        assert not exceeds_digit_limit(Poly.constant(2, 1e300))

    def test_no_limit_means_nothing_exceeds_it(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert not exceeds_digit_limit(Poly.constant(2, 10**(limit + 10)))
        finally:
            sys.set_int_max_str_digits(limit)
