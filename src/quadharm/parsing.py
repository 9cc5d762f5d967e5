"""Text and JSON forms of polynomials and surfaces.

Expression grammar (whitespace-insensitive, '*' optional):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := rational | variable ('^' uint)? | '(' expr ')'
    rational := uint ('/' uint)?
    variable := 'x' uint     (indices start at 1)

Coefficients are integers or integer ratios; exponents are nonnegative
integers.  ``format_polynomial`` emits this grammar back, so exact-mode
polynomials round-trip through their printed form.

Two limits keep every input a ``ParseError`` rather than a crash: a digit
run (coefficient, index or exponent) has at most ``MAX_LITERAL_DIGITS``
digits, and parentheses nest at most ``MAX_NESTING_DEPTH`` deep.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from typing import Mapping

from .polynomial import MAX_VARIABLES, Poly, Scalar
from .quadric import InvalidQuadricError, NonhyperbolicQuadratic


class ParseError(ValueError):
    """Syntax or shape error in an input expression, with 1-based position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


# A longer digit run is refused: CPython converts at most 4,300 digits of
# a string to an int.
MAX_LITERAL_DIGITS = 1000

# Deeper parentheses are refused before the parser recurses; each level
# takes two frames of the interpreter's recursion limit (1,000 by default).
MAX_NESTING_DEPTH = 300

# Whitespace matches no named group; any other character matches "bad".
_TOKEN_RE = re.compile(r"\s+|x(?P<var>\d+)|(?P<int>\d+)|(?P<op>[-+*/^()])|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value, pos = m.group(kind), m.start() + 1
        if kind == "op":
            tokens.append((kind, value, pos))
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        else:
            if len(value) > MAX_LITERAL_DIGITS:
                raise ParseError(f"a number of {len(value)} digits is past the limit "
                                 f"of {MAX_LITERAL_DIGITS} digits", pos)
            value = int(value)
            if kind == "var" and value == 0:
                raise ParseError("variable indices start at x1", pos)
            tokens.append((kind, value, pos))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], n: int):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    def end_position(self) -> int:
        return self.tokens[-1][2] if self.tokens else 1

    def parse_expr(self) -> Poly:
        """A signed sum of terms, added into one dict."""
        terms: dict[tuple[int, ...], Fraction] = {}
        negate = self.at_op("+", "-") and self.advance()[1] == "-"
        while True:
            for alpha, c in self.parse_term():
                if negate:
                    c = -c
                s = terms.get(alpha)
                if s is None:
                    terms[alpha] = c
                    continue
                s += c
                if s:
                    terms[alpha] = s
                else:
                    del terms[alpha]
            if not self.at_op("+", "-"):
                return Poly._raw(self.n, terms)
            negate = self.advance()[1] == "-"

    def parse_term(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """A product of factors, as its nonzero (exponents, coefficient)
        terms.  Rationals and powers of variables are read into one
        coefficient and one exponent list; only a parenthesised factor
        builds a Poly."""
        num, den = 1, 1
        exponents = [0] * self.n
        group: Poly | None = None
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unexpected end of input", self.end_position())
            kind, value, pos = tok
            if kind == "int":
                n, d = self.parse_rational()
                num *= n
                den *= d
            elif kind == "var":
                exponents[value - 1] += self.parse_power()
            elif kind == "op" and value == "(":
                if self.depth == MAX_NESTING_DEPTH:
                    raise ParseError("parentheses nest deeper than the limit of "
                                     f"{MAX_NESTING_DEPTH}", pos)
                self.advance()
                self.depth += 1
                inner = self.parse_expr()
                self.depth -= 1
                if not self.at_op(")"):
                    tok = self.peek()
                    raise ParseError("expected ')'", tok[2] if tok else self.end_position())
                self.advance()
                group = inner if group is None else group * inner
            else:
                raise ParseError("expected a number, variable, or '('", pos)
            if self.at_op("*"):
                self.advance()
                continue
            tok = self.peek()
            if tok is None or not (tok[0] in ("int", "var") or tok[1] == "("):
                break
        if num == 0:
            return []
        coefficient = Fraction(num, den)
        alpha = tuple(exponents)
        if group is None:
            return [(alpha, coefficient)]
        return [(tuple(map(operator.add, alpha, beta)), coefficient * c)
                for beta, c in group.terms.items()]

    def parse_rational(self) -> tuple[int, int]:
        num = self.advance()[1]
        if not self.at_op("/"):
            return num, 1
        self.advance()
        den_tok = self.peek()
        if den_tok is None or den_tok[0] != "int":
            raise ParseError(
                "expected an integer denominator after '/'",
                den_tok[2] if den_tok else self.end_position(),
            )
        self.advance()
        if den_tok[1] == 0:
            raise ParseError("zero denominator", den_tok[2])
        return num, den_tok[1]

    def parse_power(self) -> int:
        self.advance()
        if not self.at_op("^"):
            return 1
        self.advance()
        exp_tok = self.peek()
        if exp_tok is None or exp_tok[0] != "int":
            raise ParseError(
                "expected a nonnegative integer exponent after '^'",
                exp_tok[2] if exp_tok else self.end_position(),
            )
        self.advance()
        return exp_tok[1]


def parse_polynomial(text: str, n: int | None = None) -> Poly:
    """Parse an expression into an exact Poly.

    The dimension is the largest variable index present, raised to ``n``
    when that is larger.  A constant expression with no dimension hint
    parses in dimension 1.  A variable index above ``MAX_VARIABLES`` is
    refused before the parser allocates anything per variable.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 1)
    _, max_var, pos = max((t for t in tokens if t[0] == "var"),
                          key=operator.itemgetter(1), default=("var", 0, 1))
    if max_var > MAX_VARIABLES:
        raise ParseError(f"x{max_var} is past the limit of {MAX_VARIABLES} variables", pos)
    dim = max(max_var, n or 0, 1)
    parser = _Parser(tokens, dim)
    poly = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return poly


def _scalar_from_json(value) -> Fraction:
    """A rational from JSON: an int, or a string such as "-7/3", "12" or
    "1.25e-09", read exactly."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational value, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would compute 10**exponent, however large.
        exponent = re.search(r"e[-+]?([\d_]+)", value, re.IGNORECASE)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 9 or int(digits or 0) > MAX_LITERAL_DIGITS:
            raise ParseError(f"exponent in {value[:40]!r} is past {MAX_LITERAL_DIGITS}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}: {exc}") from None
    raise ParseError(f"expected an integer or 'num/den' string, got {value!r}")


def parse_surface(source: str | Mapping, n: int | None = None) -> NonhyperbolicQuadratic:
    """Read a surface from an expression or a structured document.

    A mapping (or JSON text starting with '{') must carry lists "a" and
    "c" and a value "d", with integer or "num/den" entries.  Anything else
    is parsed as a polynomial of degree <= 2 with no cross terms and
    nonnegative square coefficients.
    """
    if isinstance(source, Mapping):
        doc = source
    else:
        stripped = source.strip()
        if stripped.startswith("{"):
            # A JSON number past CPython's int conversion limit raises a
            # plain ValueError, not a JSONDecodeError.
            try:
                doc = json.loads(stripped)
            except ValueError as exc:
                raise ParseError(f"bad surface document: {exc}") from None
        else:
            poly = parse_polynomial(source, n)
            return _surface_from_polynomial(poly)
    try:
        for key in ("a", "c"):
            if not isinstance(doc[key], list):
                raise ParseError(f"surface key {key!r} must be a list, got {doc[key]!r}")
            if len(doc[key]) > MAX_VARIABLES:
                raise ParseError(f"surface key {key!r} has {len(doc[key])} entries, "
                                 f"past the limit of {MAX_VARIABLES} variables")
        a = [_scalar_from_json(v) for v in doc["a"]]
        c = [_scalar_from_json(v) for v in doc["c"]]
        d = _scalar_from_json(doc["d"])
    except KeyError as exc:
        raise ParseError(f"surface document is missing key {exc}") from None
    if n is not None and n > len(a):
        a = a + [Fraction(0)] * (n - len(a))
        c = c + [Fraction(0)] * (n - len(c))
    return NonhyperbolicQuadratic(tuple(a), tuple(c), Fraction(d))


def _surface_from_polynomial(poly: Poly) -> NonhyperbolicQuadratic:
    n = max(poly.n, 2)
    poly = poly.extend(n)
    a = [Fraction(0)] * n
    c = [Fraction(0)] * n
    d = Fraction(0)
    for alpha, coeff in poly.terms.items():
        total = sum(alpha)
        if total > 2:
            raise InvalidQuadricError(
                f"surface polynomial has degree {total} term at {alpha}"
            )
        if total == 2:
            if max(alpha) == 1:
                raise InvalidQuadricError(
                    f"surface polynomial has a cross term at {alpha}"
                )
            a[alpha.index(2)] = Fraction(coeff)
        elif total == 1:
            c[alpha.index(1)] = Fraction(coeff)
        else:
            d = Fraction(coeff)
    return NonhyperbolicQuadratic(tuple(a), tuple(c), d)


def _format_coefficient(c: Scalar) -> str:
    if isinstance(c, float):
        return repr(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Poly) -> str:
    """Canonical text form, graded-lex from the top; grammar-compatible."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for alpha, c in p.sorted_terms():
        negative = c < 0
        mag = -c if negative else c
        factors = [
            f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}"
            for j, e in enumerate(alpha)
            if e
        ]
        if not factors:
            body = _format_coefficient(mag)
        elif mag == 1 and not isinstance(mag, float):
            body = "*".join(factors)
        else:
            body = "*".join([_format_coefficient(mag)] + factors)
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


def scalar_to_json(c: Scalar) -> str:
    """Coefficient as a string: 'num/den' exact, repr for floats."""
    if isinstance(c, float):
        return repr(c)
    return f"{c.numerator}/{c.denominator}"


def exceeds_digit_limit(p: Poly) -> bool:
    """Whether printing p would raise: a numerator or denominator has more
    digits than ``sys.get_int_max_str_digits()`` (0 for no limit) allows."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before CPython 3.10.7
    if not limit or p.is_float():
        return False
    safe_bits = limit * 3321928 // 1000000  # below limit * log2(10)
    return any(v.bit_length() > safe_bits and abs(v) >= 10**limit
               for c in p.terms.values() for v in (c.numerator, c.denominator))


def poly_to_json_terms(p: Poly) -> list[dict]:
    """Term list [{"e": [...], "c": "num/den"}, ...] in canonical order."""
    return [
        {"e": list(alpha), "c": scalar_to_json(c)} for alpha, c in p.sorted_terms()
    ]
