"""Sparse multivariate polynomials with exact rational or float coefficients.

A polynomial in n variables is stored as a mapping from exponent tuples
(multi-indices) to nonzero coefficients.  Coefficients are
``fractions.Fraction`` in exact mode or ``float`` in float mode; both modes
share every code path, so the float pipeline is structurally identical to
the exact one.  Zero coefficients are never stored, which makes equality of
two Poly values plain dictionary equality.

Multi-indices are ordinary tuples of nonnegative ints, one entry per axis.
Axes are 0-based throughout the library; axis j carries the variable that
the command-line front end names x{j+1}.

The canonical term order is graded lexicographic, highest degree first,
ties broken by comparing exponent tuples.  Every serialization and every
row/column layout in the solver uses this one order, so output is
deterministic regardless of how a polynomial was built up.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[Fraction, float]


class DimensionMismatchError(ValueError):
    """Raised when operands live in different variable counts."""


def unit_index(n: int, axis: int) -> tuple[int, ...]:
    """Multi-index with a single 1 at the given 0-based axis."""
    if not 0 <= axis < n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    return tuple(1 if j == axis else 0 for j in range(n))


def canonical_key(alpha: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing graded lexicographic order (use with reverse=True)."""
    return (sum(alpha), alpha)


# The most variables a polynomial read from text, a surface document or the
# command line may have.  ``multi_indices`` recurses once per variable, and
# this many nested frames leave about 740 of CPython's default recursion
# limit of 1000 to its callers.
MAX_VARIABLES = 256


def multi_indices(n: int, order: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices of the exact given order, descending lexicographic.

    Yields math.comb(order + n - 1, order) tuples.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if order < 0:
        return
    if n == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in multi_indices(n - 1, order - first):
            yield (first,) + rest


def multi_indices_upto(n: int, order: int) -> Iterator[tuple[int, ...]]:
    """All multi-indices of order <= the bound, canonical order (highest first)."""
    for k in range(order, -1, -1):
        yield from multi_indices(n, k)


def multi_factorial(alpha: Iterable[int]) -> int:
    """Product of the factorials of the entries."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _shifted(keys: Iterable[tuple[int, ...]], a: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
    """The exponent tuples a + b for b in ``keys``, in order.

    Every term of a surface's q is a constant, x_j or x_j^2, so a product
    with q mostly adds a constant or moves one axis: a constant ``a``
    returns ``keys`` as they are, and an ``a`` in one variable raises that
    axis of each key, which is about twice as fast as adding whole tuples.
    """
    axes = [j for j, e in enumerate(a) if e]
    if not axes:
        return keys
    if len(axes) > 1:
        return [tuple(map(operator.add, a, b)) for b in keys]
    j = axes[0]
    e = a[j]
    out = []
    for b in keys:
        key = list(b)
        key[j] += e
        out.append(tuple(key))
    return out


def _coerce(c: Scalar | int) -> Scalar:
    # Bare ints are promoted so that exact division never falls back to
    # float division later on.
    return Fraction(c) if isinstance(c, int) else c


class Poly:
    """Immutable sparse polynomial.

    Do not mutate the mapping returned by ``terms``; arithmetic always
    allocates fresh dictionaries.
    """

    __slots__ = ("_n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Scalar] | Iterable = ()):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Scalar] = {}
        for alpha, c in items:
            alpha = tuple(alpha)
            if len(alpha) != n:
                raise DimensionMismatchError(
                    f"exponent tuple {alpha} has length {len(alpha)}, expected {n}"
                )
            if any(not isinstance(e, int) or e < 0 for e in alpha):
                raise ValueError(f"exponents must be nonnegative integers, got {alpha}")
            c = _coerce(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, _coerce(0)) + c
                if clean[alpha] == 0:
                    del clean[alpha]
        self._n = n
        self._terms = clean

    @classmethod
    def _raw(cls, n: int, terms: dict) -> "Poly":
        # Internal fast path: caller guarantees pruned, validated terms.
        p = object.__new__(cls)
        p._n = n
        p._terms = terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, n: int, c: Scalar | int) -> "Poly":
        c = _coerce(c)
        return cls._raw(n, {} if c == 0 else {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, axis: int) -> "Poly":
        return cls._raw(n, {unit_index(n, axis): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, alpha: Iterable[int], c: Scalar | int = 1) -> "Poly":
        return cls(n, {tuple(alpha): c})

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        return MappingProxyType(self._terms)

    def coefficient(self, alpha: Iterable[int]) -> Scalar:
        return self._terms.get(tuple(alpha), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms in canonical order, highest graded-lex first."""
        return [(a, self._terms[a]) for a in sorted(self._terms, key=canonical_key, reverse=True)]

    def is_zero(self) -> bool:
        return not self._terms

    def is_float(self) -> bool:
        """True when any coefficient is a float (float-mode polynomial)."""
        return any(isinstance(c, float) for c in self._terms.values())

    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(a) for a in self._terms)

    def _check_dim(self, other: "Poly") -> None:
        if self._n != other._n:
            raise DimensionMismatchError(
                f"operands have dimensions {self._n} and {other._n}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self):
        return hash((self._n, frozenset(self._terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._terms)
        # A key new to ``out`` takes c as it is: c is nonzero, and 0 + c
        # would cost a Fraction operation.
        for a, c in other._terms.items():
            s = out.get(a)
            if s is None:
                out[a] = c
                continue
            s = s + c
            if s == 0:
                del out[a]
            else:
                out[a] = s
        return Poly._raw(self._n, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        out = dict(self._terms)
        for a, c in other._terms.items():
            s = out.get(a)
            if s is None:
                out[a] = -c
                continue
            s = s - c
            if s == 0:
                del out[a]
            else:
                out[a] = s
        return Poly._raw(self._n, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self._n, {a: -c for a, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_dim(other)
            out: dict = {}
            keys, values = other._terms.keys(), other._terms.values()
            for a, ca in self._terms.items():
                for key, cb in zip(_shifted(keys, a), values):
                    c = ca * cb
                    s = out.get(key)
                    if s is not None:
                        c = s + c
                    # Zero after a cancelling sum, or a float product that
                    # underflowed: never stored.
                    if c == 0:
                        out.pop(key, None)
                    else:
                        out[key] = c
            return Poly._raw(self._n, out)
        if isinstance(other, (int, Fraction, float)):
            other = _coerce(other)
            if other == 0:
                return Poly.zero(self._n)
            return Poly._raw(self._n, {a: c * other for a, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, axis: int) -> "Poly":
        """Partial derivative along a 0-based axis."""
        if not 0 <= axis < self._n:
            raise ValueError(f"axis {axis} out of range for dimension {self._n}")
        out = {}
        for a, c in self._terms.items():
            k = a[axis]
            if k:
                na = a[:axis] + (k - 1,) + a[axis + 1 :]
                out[na] = c * k
        return Poly._raw(self._n, out)

    def d_alpha(self, alpha: Iterable[int]) -> "Poly":
        """Mixed partial derivative D^alpha.

        Equals the composition of single partials in any order; implemented
        directly with falling factorials, which the test suite cross-checks
        against repeated ``partial`` calls.
        """
        alpha = tuple(alpha)
        if len(alpha) != self._n:
            raise DimensionMismatchError(
                f"multi-index {alpha} has length {len(alpha)}, expected {self._n}"
            )
        if any(not isinstance(e, int) or e < 0 for e in alpha):
            raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
        out = {}
        for a, c in self._terms.items():
            if all(e >= d for e, d in zip(a, alpha)):
                mult = 1
                for e, d in zip(a, alpha):
                    for i in range(e, e - d, -1):
                        mult *= i
                out[tuple(e - d for e, d in zip(a, alpha))] = c * mult
        return Poly._raw(self._n, out)

    def laplacian(self) -> "Poly":
        out: dict = {}
        for a, c in self._terms.items():
            key = list(a)
            for j, e in enumerate(a):
                if e >= 2:
                    key[j] = e - 2
                    na = tuple(key)
                    key[j] = e
                    v = c * (e * (e - 1))
                    s = out.get(na)
                    if s is not None:
                        v = s + v
                    if v == 0:
                        out.pop(na, None)
                    else:
                        out[na] = v
        return Poly._raw(self._n, out)

    def evaluate(self, point: Iterable[Scalar]) -> Scalar:
        point = tuple(point)
        if len(point) != self._n:
            raise DimensionMismatchError(
                f"point has length {len(point)}, expected {self._n}"
            )
        total: Scalar = 0
        for a, c in self._terms.items():
            term = c
            for v, e in zip(point, a):
                if e:
                    term = term * v**e
            total = total + term
        return _coerce(total)

    def homogeneous_components(self) -> list[tuple[int, "Poly"]]:
        """List of (degree, nonzero homogeneous part), ascending degree."""
        buckets: dict[int, dict] = {}
        for a, c in self._terms.items():
            buckets.setdefault(sum(a), {})[a] = c
        return [(k, Poly._raw(self._n, buckets[k])) for k in sorted(buckets)]

    def is_homogeneous(self) -> bool:
        degrees = {sum(a) for a in self._terms}
        return len(degrees) <= 1

    def extend(self, n: int) -> "Poly":
        """Embed into a space with more variables (pads exponents with zeros)."""
        if n < self._n:
            raise ValueError(f"cannot shrink dimension {self._n} to {n}")
        if n == self._n:
            return self
        pad = (0,) * (n - self._n)
        return Poly._raw(n, {a + pad: c for a, c in self._terms.items()})

    def to_float(self) -> "Poly":
        out = {}
        for a, c in self._terms.items():
            fc = float(c)
            if fc != 0.0:
                out[a] = fc
        return Poly._raw(self._n, out)

    def max_abs_coefficient(self) -> Scalar:
        """Largest absolute coefficient, 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(abs(c) for c in self._terms.values())

    def __repr__(self) -> str:
        body = ", ".join(f"{a}: {c!s}" for a, c in self.sorted_terms())
        return f"Poly(n={self._n}, {{{body}}})"


def taylor_reconstruct(order: int, vals: Mapping[tuple[int, ...], Scalar], n: int) -> Poly:
    """Rebuild the homogeneous polynomial whose order-m derivatives are given.

    ``vals`` maps each multi-index alpha of the stated order to the constant
    value of D^alpha of the target.  The result is
    sum_alpha vals[alpha] * x^alpha / alpha!.
    """
    out = {}
    for alpha, v in vals.items():
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise DimensionMismatchError(
                f"key {alpha} has length {len(alpha)}, expected {n}"
            )
        if sum(alpha) != order:
            raise ValueError(f"key {alpha} has order {sum(alpha)}, expected {order}")
        v = _coerce(v)
        if v != 0:
            out[alpha] = v / multi_factorial(alpha)
    return Poly._raw(n, out)


def product_diff_linear(g: Poly, f: Poly, alpha: Iterable[int]) -> Poly:
    """D^alpha(g*f) for g of degree at most 1, without forming the product.

    Closed form: g*D^alpha(f) + sum_j alpha_j * (D_j g) * D^(alpha - e_j)(f),
    which is ``product_diff_quadratic`` with every D_j^2 g zero.
    """
    g._check_dim(f)
    deg = g.degree()
    if deg is not None and deg > 1:
        raise ValueError(f"first factor must have degree <= 1, got degree {deg}")
    return product_diff_quadratic(g, f, alpha)


def product_diff_quadratic(q: Poly, f: Poly, alpha: Iterable[int]) -> Poly:
    """D^alpha(q*f) for a diagonal quadratic q, without forming the product.

    q may contain squares, linear terms, and a constant, but no cross term
    x_i*x_j.  Closed form:

        q*D^alpha(f) + sum_j alpha_j * (D_j q) * D^(alpha - e_j)(f)
                     + sum_j (alpha_j*(alpha_j - 1)/2) * (D_j^2 q) * D^(alpha - 2e_j)(f)
    """
    q._check_dim(f)
    deg = q.degree()
    if deg is not None and deg > 2:
        raise ValueError(f"first factor must have degree <= 2, got degree {deg}")
    for a in q.terms:
        if sum(a) == 2 and max(a) == 1:
            raise ValueError(f"first factor contains a cross term at {a}")
    alpha = tuple(alpha)
    out = q * f.d_alpha(alpha)
    for j, aj in enumerate(alpha):
        if aj:
            shifted = alpha[:j] + (aj - 1,) + alpha[j + 1 :]
            out = out + aj * (q.partial(j) * f.d_alpha(shifted))
        if aj >= 2:
            shifted2 = alpha[:j] + (aj - 2,) + alpha[j + 1 :]
            second = q.partial(j).partial(j)
            out = out + (aj * (aj - 1) // 2) * (second * f.d_alpha(shifted2))
    return out
