"""Exact solver for polynomial Dirichlet problems on quadric surfaces.

For a polynomial p and a surface q(x) = sum a_j x_j^2 + sum c_j x_j + d
(a_j >= 0, not all zero), there is exactly one polynomial h with
laplacian(h) = 0 and p = h + q*f for some polynomial f.  On the zero set
of q the harmonic h agrees with p, so it solves the Dirichlet problem with
boundary data p.  This package computes (h, f) in exact rational
arithmetic, or in floats for speed.
"""

from .elimination import SingularSystemError
from .polynomial import (
    DimensionMismatchError,
    Poly,
    multi_indices,
    multi_indices_upto,
    product_diff_linear,
    product_diff_quadratic,
    taylor_reconstruct,
)
from .quadric import InvalidQuadricError, NonhyperbolicQuadratic
from .solver import (
    ClassSystem,
    HarmonicDecomposition,
    IllConditionedSystemError,
    SolveStats,
    assemble_class_systems,
    parity_class,
    solve_class,
    solve_dirichlet,
    solve_homogeneous,
)
from .verify import (
    VerificationReport,
    operator_is_bijective,
    operator_kernel,
    oracle_full_system,
    oracle_operator_matrix,
    verify_solution,
)
from .parsing import (
    ParseError,
    format_polynomial,
    parse_polynomial,
    parse_surface,
)

__version__ = "0.1.0"

__all__ = [
    "ClassSystem",
    "DimensionMismatchError",
    "HarmonicDecomposition",
    "IllConditionedSystemError",
    "InvalidQuadricError",
    "NonhyperbolicQuadratic",
    "ParseError",
    "Poly",
    "SingularSystemError",
    "SolveStats",
    "VerificationReport",
    "assemble_class_systems",
    "format_polynomial",
    "multi_indices",
    "multi_indices_upto",
    "operator_is_bijective",
    "operator_kernel",
    "oracle_full_system",
    "oracle_operator_matrix",
    "parity_class",
    "parse_polynomial",
    "parse_surface",
    "product_diff_linear",
    "product_diff_quadratic",
    "solve_class",
    "solve_dirichlet",
    "solve_homogeneous",
    "taylor_reconstruct",
    "verify_solution",
]
