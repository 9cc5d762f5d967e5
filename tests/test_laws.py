"""Checks that share nothing with the level equations the solver derives.

Each law follows from the uniqueness of p = h + q*f with h harmonic alone:
scaling q, adding boundaries, relabelling axes, and the Dirichlet property
itself (h equals p on the surface), evaluated exactly at rational points.
"""

from fractions import Fraction

import pytest

from quadharm import NonhyperbolicQuadratic, Poly, solve_dirichlet
from conftest import all_degree

# (a, c, P0): surfaces through the rational point P0, with d chosen so that
# q(P0) = 0.  Denominators in a and c make the solver's scaling of q matter.
SURFACES = {
    "ellipsoid": ((Fraction(2, 3), Fraction(5, 2), 3), (0, 0, 0),
                  (Fraction(1, 2), Fraction(-1, 3), 1)),
    "shifted ellipsoid": ((1, Fraction(7, 4), Fraction(1, 3)), (Fraction(1, 2), -1, Fraction(2, 5)),
                          (Fraction(1, 3), Fraction(1, 2), Fraction(-2, 3))),
    "paraboloid": ((Fraction(3, 2), Fraction(2, 5), 0), (Fraction(-1, 3), 1, Fraction(-5, 6)),
                   (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))),
}


def surface(name: str) -> tuple[NonhyperbolicQuadratic, tuple[Fraction, ...]]:
    a, c, point = SURFACES[name]
    d = -sum(Fraction(aj) * x * x + Fraction(cj) * x for aj, cj, x in zip(a, c, point))
    return NonhyperbolicQuadratic(a, c, d), point


def points_on(q: NonhyperbolicQuadratic, point, rng, count: int) -> list[tuple[Fraction, ...]]:
    """Second intersections of rational lines P0 + t*v with the surface:
    q(P0 + t v) = t * (grad q(P0).v + t * q2(v)), so t = -grad q(P0).v / q2(v)."""
    out = []
    while len(out) < count:
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(q.n)]
        slope = sum(2 * aj * x * vj + cj * vj for aj, cj, x, vj in zip(q.a, q.c, point, v))
        curvature = sum(aj * vj * vj for aj, vj in zip(q.a, v))
        if curvature == 0 or slope == 0:
            continue
        t = -slope / curvature
        out.append(tuple(x + t * vj for x, vj in zip(point, v)))
    return out


def permute(poly: Poly, perm: tuple[int, ...]) -> Poly:
    """Relabel axes: variable perm[i] of ``poly`` becomes variable i."""
    return Poly(poly.n, {tuple(alpha[j] for j in perm): c for alpha, c in poly.terms.items()})


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_h_equals_p_at_rational_points_of_the_surface(rng, name):
    q, point = surface(name)
    q_poly = q.to_polynomial()
    p = all_degree(rng, 3, 7)
    dec = solve_dirichlet(p, q)
    points = points_on(q, point, rng, 6)
    assert len(set(points)) == len(points)
    for x in [point, *points]:
        assert q_poly.evaluate(x) == 0
        assert dec.h.evaluate(x) == p.evaluate(x)
    # The points tell a wrong answer apart: h plus a harmonic term that
    # does not vanish on the surface misses p somewhere.
    wrong = dec.h + Poly.monomial(3, (1, 1, 0))
    assert any(wrong.evaluate(x) != p.evaluate(x) for x in points)


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("scale", [Fraction(3, 7), Fraction(5, 2), Fraction(4)])
def test_scaling_q_divides_f(rng, name, scale):
    q, _ = surface(name)
    scaled = NonhyperbolicQuadratic(
        tuple(scale * aj for aj in q.a), tuple(scale * cj for cj in q.c), scale * q.d)
    p = all_degree(rng, 3, 6)
    dec = solve_dirichlet(p, q)
    dec_scaled = solve_dirichlet(p, scaled)
    assert dec_scaled.h == dec.h
    assert dec_scaled.f == dec.f * (1 / scale)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_solve_is_linear_in_p(rng, name):
    q, _ = surface(name)
    p1, p2 = all_degree(rng, 3, 6), all_degree(rng, 3, 5)
    s, t = Fraction(-3, 4), Fraction(7, 5)
    combined = solve_dirichlet(s * p1 + t * p2, q)
    one, two = solve_dirichlet(p1, q), solve_dirichlet(p2, q)
    assert combined.h == s * one.h + t * two.h
    assert combined.f == s * one.f + t * two.f


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 0, 1), (2, 1, 0)])
def test_solve_is_equivariant_under_axis_permutation(rng, name, perm):
    q, _ = surface(name)
    permuted_q = NonhyperbolicQuadratic(
        tuple(q.a[j] for j in perm), tuple(q.c[j] for j in perm), q.d)
    assert permuted_q.to_polynomial() == permute(q.to_polynomial(), perm)
    p = all_degree(rng, 3, 6)
    dec = solve_dirichlet(p, q)
    permuted = solve_dirichlet(permute(p, perm), permuted_q)
    assert permuted.h == permute(dec.h, perm)
    assert permuted.f == permute(dec.f, perm)
