"""Seeded inputs for the benchmark, built without the package under test.

Every surface is made around a rational point P: the square and linear
coefficients are chosen first and d = -(sum a_j P_j^2 + sum c_j P_j), so P
lies on the zero set.  More rational points come from the second
intersection of rational lines through P with the surface.  The checker
evaluates h and p at these points.

Polynomials are plain dicts {exponent tuple: Fraction}.  The same
(workload, seed, round) always gives the same inputs.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

# Plain tuples rather than dataclasses: the benchmark loads its own modules
# before it times the package's import, and should not pre-load for it
# what the package itself imports.
Surface = namedtuple("Surface", "a c d points")

# One boundary-surface pair and how it is to be solved.  ``command`` and
# ``text_surface`` only matter to the command-line workload.
Problem = namedtuple(
    "Problem",
    "label surface p mode command oracle text_surface",
    defaults=("exact", "solve", False, False),
)


def surface_terms(s: Surface) -> dict:
    """q as a polynomial dict."""
    n = len(s.a)
    out = {}
    for j in range(n):
        if s.a[j]:
            out[tuple(2 if k == j else 0 for k in range(n))] = s.a[j]
        if s.c[j]:
            out[tuple(1 if k == j else 0 for k in range(n))] = s.c[j]
    if s.d:
        out[(0,) * n] = s.d
    return out


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def rational(rng: random.Random) -> Fraction:
    """A coefficient +-(1..9)/(1..4)."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def exponents(n: int, m: int):
    """Every multi-index of order m in n variables."""
    if n == 1:
        yield (m,)
        return
    for e in range(m, -1, -1):
        for rest in exponents(n - 1, m - e):
            yield (e,) + rest


def dense(rng: random.Random, n: int, degrees) -> dict:
    return {alpha: rational(rng) for m in degrees for alpha in exponents(n, m)}


def monomial(rng: random.Random, n: int, m: int) -> dict:
    alpha = [0] * n
    for _ in range(m):
        alpha[rng.randrange(n)] += 1
    return {tuple(alpha): rational(rng)}


def surface_through(a, c, point, rng: random.Random) -> Surface:
    """Surface with square terms a and linear terms c through ``point``,
    with four further rational points on it."""
    a = tuple(Fraction(v) for v in a)
    c = tuple(Fraction(v) for v in c)
    point = tuple(Fraction(v) for v in point)
    n = len(a)
    d = -sum(aj * pj * pj + cj * pj for aj, cj, pj in zip(a, c, point))
    grad = [2 * aj * pj + cj for aj, cj, pj in zip(a, c, point)]
    if not any(grad):
        raise ValueError("P is a singular point of the surface")
    points = [point]
    while len(points) < 5:
        v = [rng.randint(-2, 2) for _ in range(n)]
        quad = sum(aj * vj * vj for aj, vj in zip(a, v))
        lin = sum(gj * vj for gj, vj in zip(grad, v))
        if quad == 0 or lin == 0:
            continue
        t = -lin / quad
        x = tuple(pj + t * vj for pj, vj in zip(point, v))
        if x not in points:
            points.append(x)
    return Surface(a, c, d, tuple(points))


def random_surface(rng: random.Random, n: int, paraboloid: bool) -> Surface:
    """Fresh square coefficients and a linear term.

    A paraboloid has a_n = 0 and c_n != 0; otherwise every a_j > 0 and the
    linear term shifts the ellipsoid's centre.
    """
    a = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    c = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    if paraboloid:
        a[-1] = Fraction(0)
        c[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3))
    while True:
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        if any(2 * aj * pj + cj for aj, cj, pj in zip(a, c, point)):
            return surface_through(a, c, point, rng)
