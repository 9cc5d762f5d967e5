"""Frozen digests of the exact answers on every route, and of float bits.

Each route's answers to one fixed set of problems are hashed with sha256.
The set is built here from its own seeded generator, so that changes to
shared test helpers never move it: n = 2 to 4, homogeneous and all-degree
boundaries with fractional coefficients, on ellipsoids, paraboloids and
cylinders, with and without linear terms.  A change to the solver that
alters one coefficient of one answer on any route fails here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from quadharm import NonhyperbolicQuadratic, Poly, oracle_operator_matrix, solve_dirichlet
from quadharm.bench import full_reference_solver
from quadharm.polynomial import multi_indices
import quadharm.solver as solver

# The exact answer is unique, so the four exact routes share one digest.
EXACT_DIGEST = "4a6264f672662b671683e66d781cfc21e65b88fa909a17d51637adfbe71c8508"
FLOAT_DIGEST = "5617c1fb22703aed0078049f8a2b6d4ca6d612ab907b0fd939f44709a3150da4"


def _surface(rng: random.Random, n: int, kind: str) -> NonhyperbolicQuadratic:
    a = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    c = [Fraction(0)] * n
    if kind in ("shifted ellipsoid", "paraboloid"):
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    if kind in ("paraboloid", "cylinder"):
        j = rng.randrange(n)
        a[j] = Fraction(0)
        if kind == "paraboloid" and c[j] == 0:
            c[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    d = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return NonhyperbolicQuadratic(a, c, d)


def problems(keep: float = 0.7) -> list[tuple[Poly, NonhyperbolicQuadratic]]:
    """The digested problems; every boundary's terms come in graded-lex
    order, highest first.  An all-degree boundary keeps each monomial with
    probability ``keep``."""
    rng = random.Random("quadharm digests")
    out = []
    kinds = ("ellipsoid", "shifted ellipsoid", "paraboloid", "cylinder")
    for n, top in ((2, 11), (3, 8), (4, 6)):
        for kind in kinds:
            for homogeneous in (True, False):
                degrees = [top] if homogeneous else range(top, -1, -1)
                terms = {}
                for k in degrees:
                    for alpha in multi_indices(n, k):
                        if homogeneous or rng.random() < keep:
                            terms[alpha] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                                                    rng.randint(1, 12))
                out.append((Poly(n, terms), _surface(rng, n, kind)))
    return out


def digest(answers) -> str:
    """sha256 of the (h, f) pairs, each term as exponents, numerator and
    denominator (or ``float.hex``) in graded-lex order."""
    text = []
    for h, f in answers:
        for poly in (h, f):
            text.append(";".join(
                f"{alpha}:{c.hex()}" if isinstance(c, float)
                else f"{alpha}:{c.numerator}/{c.denominator}"
                for alpha, c in poly.sorted_terms()))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def cold_answers():
    out = []
    for p, q in problems():
        solver.clear_stores()
        dec = solve_dirichlet(p, q)
        out.append((dec.h, dec.f))
    return out


def warm_answers():
    # A class's first sighting only marks it, the second records and the
    # third replays.
    out = []
    for p, q in problems():
        for _ in range(3):
            dec = solve_dirichlet(p, q)
        out.append((dec.h, dec.f))
    return out


ROUTES = {
    "cold": cold_answers,
    "warm": warm_answers,
    "full_reference_solver": lambda: [
        (dec.h, dec.f) for dec in (solve_dirichlet(p, q, homogeneous_solver=full_reference_solver)
                                   for p, q in problems())],
    "oracle_operator_matrix": lambda: [
        (dec.h, dec.f) for dec in (oracle_operator_matrix(p, q) for p, q in problems())],
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_exact_answers_match_their_digest(route):
    answers = ROUTES[route]()
    for h, f in answers:
        assert all(type(c) is Fraction for c in (*h.terms.values(), *f.terms.values()))
    assert digest(answers) == EXACT_DIGEST


def test_float_bits_match_their_digest():
    # Dense boundaries: every carry of the descent then lists its terms in
    # graded-lex order too.
    answers = []
    for p, q in problems(keep=1.0):
        dec = solve_dirichlet(p.to_float(), q)
        answers.append((dec.h, dec.f))
    assert digest(answers) == FLOAT_DIGEST


def test_one_tampered_coefficient_changes_the_digest():
    answers = cold_answers()
    assert digest(answers) == EXACT_DIGEST
    h, f = answers[5]
    alpha = h.sorted_terms()[-1][0]
    answers[5] = (h + Poly(h.n, {alpha: Fraction(1, 10**9)}), f)
    assert digest(answers) != EXACT_DIGEST
