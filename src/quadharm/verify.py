"""Independent checks for computed decompositions.

Two cross-check routes exist beside the production solver:

* ``oracle_full_system`` assembles the level system over all multi-indices
  of one order as a single matrix, skipping the parity partition, so it
  exercises the same row equations through a different layout.
* ``oracle_operator_matrix`` never differentiates products at all: it
  builds the matrix of the map f -> laplacian(q * f) on the full monomial
  basis of degree <= deg(p) - 2, column by column from plain polynomial
  products, and solves that.  Agreement with the production path is strong
  evidence against a shared derivation bug.

Both oracles and the kernel probe ``operator_kernel`` share one textbook
elimination (first nonzero pivot, free columns kept free, then
back-substitution) rather than the solver's tuned routine.  It works on
sparse rows ``{column: nonzero Fraction}`` and touches only stored
entries; the operator matrix has about ten nonzeros per column.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .polynomial import (
    DimensionMismatchError,
    Poly,
    Scalar,
    multi_indices,
    multi_indices_upto,
    taylor_reconstruct,
)
from .quadric import NonhyperbolicQuadratic
from .solver import HarmonicDecomposition, SingularSystemError, level_rows

# Float checks allow this many units of rounding per coefficient, times
# (deg(p) + 1)^2 and the largest coefficient of p: a Laplacian multiplies a
# degree-d coefficient by up to d(d - 1), and the level systems grow with
# the degree.  On correct solves of degree 10 to 40 the error measured 0.2
# to 0.4 units per unit of max(|h|, |q*f|) / |p|, so answers up to about
# 150 times the size of p pass and larger ones are reported ill-conditioned.
FLOAT_TOL_ULPS = 64


@dataclass
class VerificationReport:
    harmonic_ok: bool
    residual_ok: bool
    residual: Poly
    surface_nondegenerate: bool
    oracle_match: bool | None = None
    notes: list[str] = field(default_factory=list)
    ill_conditioned: bool = False

    def ok(self) -> bool:
        return self.harmonic_ok and self.residual_ok and self.oracle_match is not False


def _forward_eliminate(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[int]:
    """Plain textbook elimination in place, first nonzero pivot; independent
    of the production solver's pivot strategy on purpose.

    Rows are sparse, ``{column: nonzero Fraction}``.  The pivot row's tail
    is listed once per pivot and subtracted from each later row that stores
    the pivot column; an entry that cancels to exactly 0 is deleted.  A
    column with no stored entry at or below the next pivot row stays free.
    Returns the pivot columns: row i holds its pivot in column pivots[i]
    and no entry left of it.
    """
    size = len(rows)
    pivots: list[int] = []
    for col in range(size):
        top = len(pivots)
        pivot_row = next((r for r in range(top, size) if col in rows[r]), -1)
        if pivot_row < 0:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            rhs[top], rhs[pivot_row] = rhs[pivot_row], rhs[top]
        prow = rows[top]
        pivot = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        top_rhs = rhs[top]
        for r in range(top + 1, size):
            row = rows[r]
            v = row.pop(col, None)
            if v is None:
                continue
            factor = v / pivot
            for c, pv in tail:
                new = row.get(c, 0) - factor * pv
                if new:
                    row[c] = new
                else:
                    del row[c]
            if top_rhs:
                rhs[r] -= factor * top_rhs
        pivots.append(col)
    return pivots


def _back_substitute(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], pivots: list[int], out: list[Fraction]
) -> list[Fraction]:
    """Fill the pivot unknowns of ``out`` bottom up; free unknowns keep their value."""
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = rhs[r]
        for c, v in rows[r].items():
            if c != col and out[c]:
                acc -= v * out[c]
        out[col] = acc / rows[r][col]
    return out


def _dense_solve_exact(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve the whole system at once (no partition) on sparse rows."""
    pivots = _forward_eliminate(rows, rhs)
    if len(pivots) < len(rhs):
        col = min(set(range(len(rhs))).difference(pivots))
        raise SingularSystemError(
            f"oracle system singular at column {col}; the operator should be bijective",
            column=col,
        )
    return _back_substitute(rows, rhs, pivots, [Fraction(0)] * len(rhs))


def _kernel_basis(rows: list[dict[int, Fraction]]) -> list[list[Fraction]]:
    """Null space basis of sparse rows: per free column, in order, that
    unknown set to 1, the other free unknowns to 0, and the pivot unknowns
    back-substituted."""
    size = len(rows)
    zeros = [Fraction(0)] * size
    pivots = _forward_eliminate(rows, zeros)
    basis = []
    for col in sorted(set(range(size)).difference(pivots)):
        unit = [Fraction(c == col) for c in range(size)]
        basis.append(_back_substitute(rows, zeros, pivots, unit))
    return basis


def assemble_full_system(
    rhs_source: Poly, q2: Poly, order: int
) -> tuple[list[tuple[int, ...]], list[dict[int, Scalar]], list[Scalar]]:
    """One system over all order-m multi-indices, no parity partition.

    Returns (members, rows, rhs): sparse rows ``{column: nonzero entry}``
    from ``level_rows``, in canonical member order.  Shared by the
    full-system oracle and by the benchmark's unpartitioned reference path,
    which differ only in how they eliminate.  Exact entries and right-hand
    sides come back as ``Fraction`` (``level_rows`` may give ints), so both
    eliminations divide exactly.
    """
    members = list(multi_indices(rhs_source.n, order))
    rows, rhs = level_rows(rhs_source, q2, members)
    if not q2.is_float():
        rows = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        rhs = [Fraction(v) for v in rhs]
    return members, rows, rhs


def oracle_full_system(ph: Poly, q2: Poly, order: int) -> Poly:
    """Level solve without the parity partition (same equations, one matrix).

    Solves for all constants D^alpha f, |alpha| = order, in a single
    system by the textbook elimination and rebuilds f.  Drop-in replacement
    for the homogeneous solver, used to check that partitioning changes
    nothing.
    """
    if ph.n != q2.n:
        raise DimensionMismatchError(f"operands have dimensions {ph.n} and {q2.n}")
    n = ph.n
    deg = ph.degree()
    if deg is None or deg < 2:
        return Poly.zero(n)
    if order != deg - 2:
        raise ValueError(f"order {order} does not match boundary degree {deg}")
    members, rows, rhs = assemble_full_system(ph.laplacian(), q2, order)
    values = _dense_solve_exact(rows, rhs)
    return taylor_reconstruct(order, dict(zip(members, values)), n)


def _operator_matrix(q_poly: Poly, order: int) -> tuple[list[dict[int, Fraction]], list[tuple[int, ...]]]:
    """Matrix of f -> laplacian(q_poly * f) on the monomial basis of P_order.

    The basis is every monomial of degree <= order, lowest degree first
    (canonical order reversed).  Column j holds the expansion of
    laplacian(q_poly * basis_j), stored straight into sparse rows
    ``{column: nonzero Fraction}``.  A column of degree k reaches only rows
    of degree k, k - 1 and k - 2, which this order puts at or above the
    degree-k block: the matrix is block upper-triangular, and where the
    operator is bijective elimination combines only rows of one degree.
    """
    n = q_poly.n
    basis = list(multi_indices_upto(n, order))[::-1]
    index = {alpha: i for i, alpha in enumerate(basis)}
    rows: list[dict[int, Fraction]] = [{} for _ in basis]
    for j, alpha in enumerate(basis):
        image = (q_poly * Poly.monomial(n, alpha)).laplacian()
        for beta, c in image.terms.items():
            rows[index[beta]][j] = Fraction(c)
    return rows, basis


def oracle_operator_matrix(p: Poly, quadric: NonhyperbolicQuadratic) -> HarmonicDecomposition:
    """Decompose p by inverting the map f -> laplacian(q*f) directly.

    Exact mode only.  The multiplier f is the unique solution of
    laplacian(q*f) = laplacian(p) in the space of polynomials of degree
    <= deg(p) - 2, and h = p - q*f.
    """
    if p.n != quadric.n:
        raise DimensionMismatchError(f"operands have dimensions {p.n} and {quadric.n}")
    if p.is_float():
        raise ValueError("the operator-matrix oracle runs in exact mode only")
    n = p.n
    deg = p.degree()
    if deg is None or deg < 2:
        return HarmonicDecomposition(h=p, f=Poly.zero(n), p=p, q=quadric)
    order = deg - 2
    q_poly = quadric.to_polynomial()
    rows, basis = _operator_matrix(q_poly, order)
    lap = p.laplacian()
    rhs = [Fraction(lap.coefficient(alpha)) for alpha in basis]
    values = _dense_solve_exact(rows, rhs)
    f = Poly(n, {alpha: v for alpha, v in zip(basis, values) if v != 0})
    return HarmonicDecomposition(h=p - q_poly * f, f=f, p=p, q=quadric)


def operator_kernel(q: NonhyperbolicQuadratic | Poly, order: int) -> list[Poly]:
    """Basis of the kernel of f -> laplacian(q*f) on P_order.

    Empty for every valid surface; nonhyperbolicity is exactly what makes
    the map bijective.  Accepts a raw Poly so that hyperbolic
    counterexamples can be probed in tests.
    """
    q_poly = q.to_polynomial() if isinstance(q, NonhyperbolicQuadratic) else q
    rows, basis = _operator_matrix(q_poly, order)
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

    Exact mode demands exact zeros.  Float mode compares the largest
    absolute coefficient of laplacian(h) and of the residual p - h - q*f
    with ``float_tolerance`` at the size of p, and records the measured
    values and the tolerance in the notes.  A float h or q*f far larger
    than p carries rounding of its own size, which that tolerance does not
    allow; when a failed check is within rounding at that size, the report
    is marked ill-conditioned: float mode cannot tell such an answer from
    a wrong one.
    """
    q_poly = quadric.to_polynomial()
    float_mode = p.is_float() or dec.h.is_float() or dec.f.is_float()
    if float_mode:
        q_poly = q_poly.to_float()
    qf = q_poly * dec.f
    residual = p - dec.h - qf
    lap_h = dec.h.laplacian()
    notes: list[str] = []
    ill_conditioned = False
    if float_mode:
        degree = p.degree() or 0
        p_max = float(p.max_abs_coefficient())
        tol = float_tolerance(degree, p_max)
        lap_max = float(lap_h.max_abs_coefficient())
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
        harmonic_ok = lap_h.is_zero()
        residual_ok = residual.is_zero()
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
