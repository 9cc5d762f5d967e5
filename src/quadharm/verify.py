"""Independent checks for computed decompositions.

* ``oracle_full_system`` solves the level equations over all multi-indices
  of one order as one matrix, skipping the parity partition.
* ``oracle_operator_matrix`` never differentiates products: it solves the
  matrix of f -> laplacian(q * f) on the monomials of degree <= deg(p) - 2,
  built column by column from polynomial products.  Agreement with the
  solver is strong evidence against a shared derivation bug.

Both oracles and the kernel probe ``operator_kernel`` eliminate with the
solver's own exact routines; the exact answer does not depend on how it is
eliminated, so an oracle's independence lies in its matrix.  Both oracles,
like the level solve, give ``_solve_int`` int rows and int right-hand
sides, and form ``Fraction``s only for their answers.
``verify_solution`` eliminates nothing: the split is unique, so
laplacian(h) = 0 and p - h - q*f = 0 certify an exact answer.  It checks
them on int numerators over one denominator.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping

from .elimination import _back_substitute, _forward_eliminate, _solve_int
from .polynomial import (
    DimensionMismatchError,
    Poly,
    multi_indices,
    multi_indices_upto,
    taylor_reconstruct,
)
from .quadric import NonhyperbolicQuadratic
from .solver import HarmonicDecomposition, _level_order, level_rows

# Float checks allow this many units of rounding per coefficient, times
# (deg(p) + 1)^2 and the largest coefficient of p: a Laplacian multiplies a
# degree-d coefficient by up to d(d - 1), and the level systems grow with
# the degree.  On correct solves of degree 10 to 40 the error measured 0.2
# to 0.4 units per unit of max(|h|, |q*f|) / |p|, so answers up to about
# 150 times the size of p pass and larger ones are reported ill-conditioned.
FLOAT_TOL_ULPS = 64

# ``quadharm verify --oracle`` refuses a boundary whose operator matrix has
# more unknowns than this, comb(deg(p) - 2 + n, n), before it solves.  The
# largest accepted inputs took 1.1 to 3.2 s for the whole command on 2 cores
# (CPython 3.11): dense and all-degree boundaries on a surface with linear
# terms, n = 2 to 6; the slowest was all degrees up to 26 in n = 3, 2,925
# unknowns.  At that size bignum arithmetic, not the row scans, takes most
# of the oracle's time.
ORACLE_MAX_UNKNOWNS = 3000


def _numerators(poly: Poly) -> tuple[Poly, int]:
    """Integer numerators of the exact polynomial poly, over the lcm of the
    denominators of its coefficients."""
    coefficients = poly.terms.values()
    den = math.lcm(*[c.denominator for c in coefficients])
    nums = [c.numerator * (den // c.denominator) for c in coefficients]
    return Poly._raw(poly.n, dict(zip(poly.terms, nums))), den


def _times(poly: Poly, m: int) -> Poly:
    """poly * m for an int m; int coefficients stay ints."""
    if m == 1:
        return poly
    return Poly._raw(poly.n, {a: c * m for a, c in poly.terms.items()})


def _fractions(terms: Mapping[tuple[int, ...], int], den: int) -> dict[tuple[int, ...], Fraction]:
    """The int numerators ``terms`` over den, one ``Fraction`` each."""
    return {a: Fraction(c, den) for a, c in terms.items()}


class VerificationReport:
    """What ``verify_solution`` found; compared and shown field by field."""

    __slots__ = ("harmonic_ok", "residual_ok", "residual", "surface_nondegenerate",
                 "oracle_match", "notes", "ill_conditioned")

    def __init__(
        self,
        harmonic_ok: bool,
        residual_ok: bool,
        residual: Poly,
        surface_nondegenerate: bool,
        oracle_match: bool | None = None,
        notes: list[str] | None = None,
        ill_conditioned: bool = False,
    ):
        self.harmonic_ok = harmonic_ok
        self.residual_ok = residual_ok
        self.residual = residual
        self.surface_nondegenerate = surface_nondegenerate
        self.oracle_match = oracle_match
        self.notes = [] if notes is None else notes
        self.ill_conditioned = ill_conditioned

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, k) for k in self.__slots__]
                == [getattr(other, k) for k in self.__slots__])

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"VerificationReport({fields})"

    def ok(self) -> bool:
        return self.harmonic_ok and self.residual_ok and self.oracle_match is not False


def _kernel_basis(rows: list[dict[int, int]]) -> list[list[Fraction]]:
    """Null space basis of sparse int rows, eliminated in place: per free
    column, in order, that unknown set to 1, the other free unknowns to 0,
    and the pivot unknowns back-substituted."""
    size = len(rows)
    zeros = [0] * size
    pivots, _ = _forward_eliminate(rows, zeros)
    basis = []
    for col in sorted(set(range(size)).difference(pivots)):
        unit = [(int(c == col), 1) for c in range(size)]
        basis.append([Fraction(*x) for x in _back_substitute(rows, zeros, pivots, unit)])
    return basis


def oracle_full_system(ph: Poly, q2: Poly, order: int) -> Poly:
    """Level solve without the parity partition (same equations, one matrix).

    Solves for all constants D^alpha f, |alpha| = order, in a single
    system and rebuilds f.  Drop-in replacement for the exact homogeneous
    solver, used to check that partitioning changes nothing.  It raises
    first as ``_level_order`` does, and solves on ph's int numerators.
    """
    level = _level_order(ph, q2)
    if ph.is_float() or q2.is_float():
        raise ValueError("the full-system oracle runs in exact mode only")
    if level is None:
        return Poly.zero(ph.n)
    if order != level:
        raise ValueError(f"order {order} does not match boundary degree {level + 2}")
    ph_num, den = _numerators(ph)
    members = list(multi_indices(ph.n, order))
    rows, rhs = level_rows(ph_num.laplacian(), q2, members)
    values = [Fraction(num, d * den) for num, d in _solve_int(rows, rhs)[0]]
    return taylor_reconstruct(order, dict(zip(members, values)), ph.n)


def _operator_matrix(q_num: Poly, order: int) -> tuple[list[dict[int, int]], list[tuple[int, ...]]]:
    """Matrix of f -> laplacian(q_num * f) on the monomial basis of P_order.

    ``q_num`` has int coefficients (see ``_numerators``), so the entries
    are ints.  The basis is every monomial of degree <= order, lowest
    degree first (canonical order reversed).  Column j holds the expansion
    of laplacian(q_num * basis_j), stored straight into sparse rows
    ``{column: nonzero int}``.  A column of degree k reaches only rows
    of degree k, k - 1 and k - 2, which this order puts at or above the
    degree-k block: the matrix is block upper-triangular, and where the
    operator is bijective elimination combines only rows of one degree.
    """
    n = q_num.n
    basis = list(multi_indices_upto(n, order))[::-1]
    index = {alpha: i for i, alpha in enumerate(basis)}
    rows: list[dict[int, int]] = [{} for _ in basis]
    for j, alpha in enumerate(basis):
        image = (q_num * Poly._raw(n, {alpha: 1})).laplacian()
        for beta, c in image.terms.items():
            rows[index[beta]][j] = c
    return rows, basis


def oracle_operator_matrix(p: Poly, quadric: NonhyperbolicQuadratic) -> HarmonicDecomposition:
    """Decompose p by inverting the map f -> laplacian(q*f) directly.

    Exact mode only.  The multiplier f is the unique solution of
    laplacian(q*f) = laplacian(p) in the space of polynomials of degree
    <= deg(p) - 2, and h = p - q*f.  With q = q_num / q_den and p = p_num /
    p_den, p_den * f solves laplacian(q_num * g) = q_den * laplacian(p_num),
    int rows and an int right-hand side.  f and h are formed as int
    numerators, and their ``Fraction``s once.
    """
    if p.n != quadric.n:
        raise DimensionMismatchError(f"operands have dimensions {p.n} and {quadric.n}")
    if p.is_float():
        raise ValueError("the operator-matrix oracle runs in exact mode only")
    n = p.n
    deg = p.degree()
    if deg is None or deg < 2:
        return HarmonicDecomposition(h=p, f=Poly.zero(n), p=p, q=quadric)
    q_num, q_den = _numerators(quadric.to_polynomial())
    p_num, p_den = _numerators(p)
    rows, basis = _operator_matrix(q_num, deg - 2)
    lap = p_num.laplacian()
    values, _ = _solve_int(rows, [q_den * lap.coefficient(alpha) for alpha in basis])
    pairs = [(alpha, num, d) for alpha, (num, d) in zip(basis, values) if num]
    lcm = math.lcm(*[d for _, _, d in pairs])
    f_num = Poly._raw(n, {alpha: num * (lcm // d) for alpha, num, d in pairs})
    f_den = lcm * p_den
    h_den = math.lcm(p_den, q_den * f_den)
    h_num = _times(p_num, h_den // p_den) - _times(q_num, h_den // (q_den * f_den)) * f_num
    return HarmonicDecomposition(h=Poly._raw(n, _fractions(h_num.terms, h_den)),
                                 f=Poly._raw(n, _fractions(f_num.terms, f_den)), p=p, q=quadric)


def operator_kernel(q: NonhyperbolicQuadratic | Poly, order: int) -> list[Poly]:
    """Basis of the kernel of f -> laplacian(q*f) on P_order.

    Empty for every valid surface; nonhyperbolicity is exactly what makes
    the map bijective.  Accepts a raw Poly so that hyperbolic
    counterexamples can be probed in tests.  Scaling q to int numerators
    keeps the kernel.
    """
    q_poly = q.to_polynomial() if isinstance(q, NonhyperbolicQuadratic) else q
    # Float coefficients are read as the rationals they are.
    exact = Poly._raw(q_poly.n, {a: Fraction(c) for a, c in q_poly.terms.items()})
    rows, basis = _operator_matrix(_numerators(exact)[0], order)
    return [
        Poly(q_poly.n, {alpha: v for alpha, v in zip(basis, vec) if v != 0})
        for vec in _kernel_basis(rows)
    ]


def operator_is_bijective(q: NonhyperbolicQuadratic | Poly, order: int) -> bool:
    """Whether f -> laplacian(q*f) is a bijection of P_order onto itself."""
    return not operator_kernel(q, order)


def float_tolerance(degree: int, scale: float) -> float:
    """Rounding error allowed in a coefficient of a float check of degree
    ``degree`` whose terms are at most ``scale`` in size."""
    return FLOAT_TOL_ULPS * sys.float_info.epsilon * (degree + 1) ** 2 * scale


def verify_solution(
    p: Poly,
    quadric: NonhyperbolicQuadratic,
    dec: HarmonicDecomposition,
    *,
    check_oracle: bool = False,
) -> VerificationReport:
    """Check a decomposition against its defining equations.

    Exact mode demands exact zeros.  It checks int numerators over one
    denominator and forms the residual's ``Fraction``s once.  Float mode
    compares the largest absolute coefficient of laplacian(h) and of the
    residual p - h - q*f with ``float_tolerance`` at the size of p, and
    records the measured values and the tolerance in the notes.  A float h
    or q*f far larger than p carries rounding of its own size, which that
    tolerance does not allow; when a failed check is within rounding at
    that size, the report is marked ill-conditioned: float mode cannot tell
    such an answer from a wrong one.
    """
    q_poly = quadric.to_polynomial()
    float_mode = p.is_float() or dec.h.is_float() or dec.f.is_float()
    notes: list[str] = []
    ill_conditioned = False
    if float_mode:
        qf = q_poly.to_float() * dec.f
        residual = p - dec.h - qf
        degree = p.degree() or 0
        p_max = float(p.max_abs_coefficient())
        tol = float_tolerance(degree, p_max)
        lap_max = float(dec.h.laplacian().max_abs_coefficient())
        res_max = float(residual.max_abs_coefficient())
        harmonic_ok = lap_max <= tol
        residual_ok = res_max <= tol
        notes.append(f"float mode: max |laplacian(h)| coefficient = {lap_max:.3e}")
        notes.append(f"float mode: max |residual| coefficient = {res_max:.3e}")
        notes.append(f"float mode: tolerance = {tol:.3e}")
        solution_max = max(float(dec.h.max_abs_coefficient()), float(qf.max_abs_coefficient()))
        if (not (harmonic_ok and residual_ok)
                and max(lap_max, res_max) <= float_tolerance(degree, solution_max)):
            ill_conditioned = True
            notes.append(
                f"ill-conditioned: h and q*f reach {solution_max:.3e} against "
                f"{p_max:.3e} in p, so float rounding alone can exceed the "
                "tolerance; solve in exact mode")
    else:
        p_num, p_den = _numerators(p)
        h_num, h_den = _numerators(dec.h)
        f_num, f_den = _numerators(dec.f)
        q_num, q_den = _numerators(q_poly)
        den = math.lcm(p_den, h_den, q_den * f_den)
        res_num = (_times(p_num, den // p_den) - _times(h_num, den // h_den)
                   - _times(q_num, den // (q_den * f_den)) * f_num)
        residual = Poly._raw(p.n, _fractions(res_num.terms, den))
        harmonic_ok = h_num.laplacian().is_zero()
        residual_ok = res_num.is_zero()
    nondeg = quadric.is_nondegenerate_zero_set()
    if not nondeg:
        notes.append(
            "surface zero set may be empty or degenerate; "
            "the decomposition is still unique"
        )
    oracle_match: bool | None = None
    if check_oracle:
        if float_mode:
            raise ValueError("oracle comparison runs in exact mode only")
        reference = oracle_operator_matrix(p, quadric)
        oracle_match = reference.h == dec.h and reference.f == dec.f
        if not oracle_match:
            notes.append("operator-matrix oracle disagrees with the solver")
    return VerificationReport(
        harmonic_ok=harmonic_ok,
        residual_ok=residual_ok,
        residual=residual,
        surface_nondegenerate=nondeg,
        oracle_match=oracle_match,
        notes=notes,
        ill_conditioned=ill_conditioned,
    )
