"""Independent checks of a decomposition p = h + q*f.

Nothing here imports the package under test.  Polynomials are plain dicts
{exponent tuple: coefficient}.  An exact answer passes when

* laplacian(h) = 0,
* p - h - q*f = 0, and
* h(X) = p(X) at every rational point X the generator put on the surface,

all in exact arithmetic.  The first two identities make h the unique
harmonic part of p, so passing them proves the answer right; the point
values are a third check that shares nothing with the solver's equations.

A float answer is judged by the same two residuals, computed exactly on the
float coefficients (every float is a rational) and taken relative to
max|p|.  Its correct relative digits are

    -log10(max(max|p - h - q*f|, max|laplacian(h)|) / max|p|)

and it fails below FLOAT_DIGITS_MIN.
"""

from __future__ import annotations

import math
from fractions import Fraction

from generate import Problem, surface_terms

# The worst float answer in any workload keeps about 8 digits (x1^40); a float
# path that loses more than two further digits is wrong, not just slower.
FLOAT_DIGITS_MIN = 6.0

# A double holds about 15.95 decimal digits.  An exactly zero residual, as
# every correct exact-mode answer has, is reported as this many rather than
# as infinity.
DIGITS_CAP = 17.0


def _add(out: dict, alpha, c) -> None:
    s = out.get(alpha, 0) + c
    if s:
        out[alpha] = s
    else:
        out.pop(alpha, None)


def laplacian(poly: dict) -> dict:
    out: dict = {}
    for alpha, c in poly.items():
        for j, e in enumerate(alpha):
            if e >= 2:
                _add(out, alpha[:j] + (e - 2,) + alpha[j + 1 :], c * (e * (e - 1)))
    return out


def residual(p: dict, h: dict, f: dict, q: dict) -> dict:
    """p - h - q*f."""
    out = dict(p)
    for alpha, c in h.items():
        _add(out, alpha, -c)
    for beta, qc in q.items():
        for alpha, c in f.items():
            _add(out, tuple(x + y for x, y in zip(alpha, beta)), -qc * c)
    return out


def evaluate(poly: dict, point) -> Fraction:
    top = max((max(alpha) for alpha in poly), default=0)
    powers = []
    for x in point:
        row = [Fraction(1)]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)
    total = Fraction(0)
    for alpha, c in poly.items():
        term = Fraction(c)
        for j, e in enumerate(alpha):
            if e:
                term *= powers[j][e]
        total += term
    return total


def check_exact(problem: Problem, h: dict, f: dict) -> str | None:
    """None when (h, f) is the decomposition of problem.p, else the reason."""
    surface = problem.surface
    if laplacian(h):
        return "laplacian(h) is not zero"
    if residual(problem.p, h, f, surface_terms(surface)):
        return "p - h - q*f is not zero"
    for x in surface.points:
        if evaluate(h, x) != evaluate(problem.p, x):
            return f"h(X) != p(X) at X = {tuple(str(v) for v in x)}"
    return None


def float_digits(problem: Problem, h: dict, f: dict) -> float:
    """Correct relative digits of a float answer (h, f) for the float image
    of problem.p, computed exactly."""
    p = {alpha: Fraction(float(c)) for alpha, c in problem.p.items()}
    h = {alpha: Fraction(c) for alpha, c in h.items()}
    f = {alpha: Fraction(c) for alpha, c in f.items()}
    worst = max(
        (abs(c) for poly in (residual(p, h, f, surface_terms(problem.surface)), laplacian(h))
         for c in poly.values()),
        default=Fraction(0),
    )
    if worst == 0:
        return DIGITS_CAP
    scale = max(abs(c) for c in p.values())
    return min(DIGITS_CAP, -math.log10(worst / scale))


def check(problem: Problem, h: dict, f: dict) -> tuple[str | None, float]:
    """(reason the answer is wrong or None, correct relative digits)."""
    n = len(problem.surface.a)
    if any(len(alpha) != n for poly in (h, f) for alpha in poly):
        return "answer has the wrong number of variables", 0.0
    if problem.mode == "exact":
        if any(isinstance(c, float) for poly in (h, f) for c in poly.values()):
            return "exact mode returned float coefficients", 0.0
        reason = check_exact(problem, h, f)
        return reason, (0.0 if reason else DIGITS_CAP)
    digits = float_digits(problem, h, f)
    if digits < FLOAT_DIGITS_MIN:
        return f"only {digits:.2f} correct digits (bound {FLOAT_DIGITS_MIN})", digits
    return None, digits


def self_test(first: tuple, second: tuple) -> list[str]:
    """Show that the checks reject wrong answers.

    ``first`` and ``second`` are (problem, h, f) triples of two solved
    problems in the same dimension whose answers passed.  Returns the
    perturbations that were wrongly accepted.
    """
    problem, h, f = first
    n = len(problem.surface.a)
    if problem.mode == "float":  # three digits, well under FLOAT_DIGITS_MIN
        bump = 1e-3 * max(abs(float(c)) for c in problem.p.values())
    else:
        bump = Fraction(1, 7)
    x1x2 = (1, 1) + (0,) * (n - 2)  # harmonic, so only the residual sees it
    x1sq = (2,) + (0,) * (n - 1)  # not harmonic
    wrong = {
        "h + c*x1*x2": (problem, {**h, x1x2: h.get(x1x2, 0) + bump}, f),
        "h + c*x1^2": (problem, {**h, x1sq: h.get(x1sq, 0) + bump}, f),
        "f of another problem": (problem, h, second[2]),
    }
    return [name for name, args in wrong.items() if check(*args)[0] is None]
