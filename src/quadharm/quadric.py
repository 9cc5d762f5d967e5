"""Diagonal quadratic surfaces with nonnegative square coefficients.

A surface is the zero set of

    q(x) = sum_j a_j x_j^2 + sum_j c_j x_j + d

with every a_j >= 0 and at least one a_j > 0.  Storing the squares a_j
(rather than their square roots) keeps every coefficient rational.  This
family covers ellipsoids, elliptic cylinders, and paraboloids, and excludes
the hyperbolic surfaces on which the harmonic decomposition fails to be
unique.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .polynomial import Poly


class InvalidQuadricError(ValueError):
    """Raised when coefficients do not describe a valid surface."""


def _fractions(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


class NonhyperbolicQuadratic:
    """q(x) = sum a_j x_j^2 + sum c_j x_j + d with a_j >= 0, some a_j > 0.

    The coefficients are stored as ``Fraction``s, ``a`` and ``c`` as
    tuples.  Instances are immutable, and compare and hash by (a, c, d).
    """

    def __init__(self, a: Iterable, c: Iterable, d):
        a, c, d = _fractions(a), _fractions(c), Fraction(d)
        if len(a) != len(c):
            raise InvalidQuadricError(
                f"coefficient vectors have lengths {len(a)} and {len(c)}"
            )
        if len(a) < 2:
            raise InvalidQuadricError("surface dimension must be at least 2")
        if any(aj < 0 for aj in a):
            raise InvalidQuadricError("square coefficients must be nonnegative")
        if all(aj == 0 for aj in a):
            raise InvalidQuadricError("at least one square coefficient must be positive")
        vars(self).update(a=a, c=c, d=d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.c, self.d) == (other.a, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.c, self.d))

    def __repr__(self):
        return f"NonhyperbolicQuadratic(a={self.a!r}, c={self.c!r}, d={self.d!r})"

    @property
    def n(self) -> int:
        return len(self.a)

    def to_polynomial(self) -> Poly:
        terms: dict = {}
        n = self.n
        for j, aj in enumerate(self.a):
            if aj:
                terms[tuple(2 if k == j else 0 for k in range(n))] = aj
        for j, cj in enumerate(self.c):
            if cj:
                terms[tuple(1 if k == j else 0 for k in range(n))] = cj
        if self.d:
            terms[(0,) * n] = self.d
        return Poly(n, terms)

    def parts(self) -> tuple[Poly, Poly, Poly]:
        """Homogeneous pieces (q2, q1, q0) of degrees 2, 1, 0."""
        n = self.n
        q2 = Poly(n, {tuple(2 if k == j else 0 for k in range(n)): aj
                      for j, aj in enumerate(self.a) if aj})
        q1 = Poly(n, {tuple(1 if k == j else 0 for k in range(n)): cj
                      for j, cj in enumerate(self.c) if cj})
        q0 = Poly.constant(n, self.d)
        return q2, q1, q0

    def is_nondegenerate_zero_set(self) -> bool:
        """Sufficient check that the zero set is a genuine surface.

        True when d < sum over {j : a_j > 0} of c_j^2 / (4 a_j), or when some
        axis with a_j = 0 has c_j != 0.  A False return does not prove the
        zero set empty or degenerate; the decomposition below is unique
        either way.
        """
        for aj, cj in zip(self.a, self.c):
            if aj == 0 and cj != 0:
                return True
        bound = sum(
            (cj * cj / (4 * aj) for aj, cj in zip(self.a, self.c) if aj > 0),
            Fraction(0),
        )
        return self.d < bound

    def extend(self, n: int) -> "NonhyperbolicQuadratic":
        """Embed into a larger space; new axes get zero coefficients."""
        if n < self.n:
            raise InvalidQuadricError(f"cannot shrink dimension {self.n} to {n}")
        pad = (Fraction(0),) * (n - self.n)
        return NonhyperbolicQuadratic(self.a + pad, self.c + pad, self.d)
