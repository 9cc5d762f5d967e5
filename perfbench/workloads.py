"""The four workloads: what one round of problems holds, and how a problem
is handed to the package and its answer read back.

A run repeats whole rounds.  Round r of a workload is built from
(workload, seed, r) alone, so the same seed gives the same problems, and
every round holds the same mix of sizes, so every run does the same mix.
Fixed surfaces come from their own generator and do not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from generate import (
    Problem,
    dense,
    monomial,
    random_surface,
    rational,
    round_rng,
    surface_terms,
    surface_through,
)

# json, io and contextlib are imported where they are used: the package
# imports some of them too, and its timed import should pay for them.

_FIXED = random.Random("fixed surfaces")
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
ELLIPSOID3 = surface_through((2, 3, 4), (0, 0, 0), (THIRD,) * 3, _FIXED)  # d = -1
SPHERE3 = surface_through((1, 1, 1), (0, 0, 0), (Fraction(2, 3), THIRD, Fraction(2, 3)), _FIXED)
ELLIPSOID3B = surface_through((1, 2, 5), (0, 0, 0), (HALF,) * 3, _FIXED)
SPHERE4 = surface_through((1, 1, 1, 1), (0,) * 4, (HALF,) * 4, _FIXED)
ELLIPSOID4 = surface_through((1, 2, 3, 4), (0,) * 4, (HALF,) * 4, _FIXED)
SHIFTED3 = surface_through((1, 2, 3), (1, -1, HALF), (HALF, THIRD, -THIRD), _FIXED)

# A correct float solve that `verify` rejects: its check is an absolute
# 1e-9 on |laplacian(h)|, which a boundary this large exceeds by rounding
# alone.  The input does not depend on the seed, so it fails in every round.
_FAULT_RNG = random.Random("scaled float verify")
SCALED_DENSE12 = {alpha: c * 10**6 for alpha, c in dense(_FAULT_RNG, 3, [12]).items()}


def exact_homogeneous(seed: int, index: int) -> list[Problem]:
    # Six of the 33 boundaries are monomials.  The counts per degree put a
    # group of about nine like-sized problems (n=3 degree 12, n=4 degree 8,
    # one monomial of degree 16) around the median and a group of six
    # (n=3 degree 16, n=4 degree 10) around the 90th percentile, so that
    # neither percentile falls into a gap between sizes.
    rng = round_rng("exact-homogeneous", seed, index)
    e3, s3, b3 = ELLIPSOID3, SPHERE3, ELLIPSOID3B
    dense_cells = [(s, m) for m in (8, 10, 12, 12, 14, 16) for s in (e3, s3, b3)]
    dense_cells += [(e3, 14), (s3, 14), (e3, 16)]
    dense_cells += [(s, m) for m in (6, 8, 10) for s in (SPHERE4, ELLIPSOID4)]
    monomial_cells = [(e3, 8), (s3, 12), (b3, 14), (b3, 16), (e3, 16), (ELLIPSOID4, 10)]
    out = [Problem(f"dense n={len(s.a)} m={m}", s, dense(rng, len(s.a), [m]))
           for s, m in dense_cells]
    out += [Problem(f"monomial n={len(s.a)} m={m}", s, monomial(rng, len(s.a), m))
            for s, m in monomial_cells]
    return out


def exact_all_degree(seed: int, index: int) -> list[Problem]:
    # Paraboloids and shifted ellipsoids alternate, except at M = 9, the
    # median of the mix, and at M = 12, its 90th percentile: there a group of
    # one kind keeps each percentile inside a group rather than between the
    # cheaper paraboloids and the dearer ellipsoids.
    rng = round_rng("exact-all-degree", seed, index)
    both = (True, False)
    cells = [(3, 4, True)]
    cells += [(3, top, par) for top in (5, 6, 7, 8) for par in both]
    cells += [(3, 9, False), (3, 9, False)]
    cells += [(3, top, par) for top in (10, 11) for par in both]
    cells += [(4, 8, par) for par in both]
    cells += [(3, 12, False)] * 3
    out = []
    for n, top, paraboloid in cells:
        kind = "paraboloid" if paraboloid else "shifted ellipsoid"
        out.append(Problem(f"all-degree n={n} M={top} {kind}",
                           random_surface(rng, n, paraboloid),
                           dense(rng, n, range(top + 1))))
    return out


def float_high_degree(seed: int, index: int) -> list[Problem]:
    # Two problems each at the middle and the top of the size range, so that
    # the median and the 90th percentile fall inside a group, not in a gap.
    rng = round_rng("float-high-degree", seed, index)
    out = [Problem(f"float dense n=3 m={m}", s, dense(rng, 3, [m]), "float")
           for m, s in ((16, ELLIPSOID3), (20, ELLIPSOID3), (24, ELLIPSOID3), (24, SPHERE3),
                        (30, ELLIPSOID3), (30, SPHERE3))]
    out.append(Problem("float dense n=3 m=20 linear term", SHIFTED3, dense(rng, 3, [20]), "float"))
    out.append(Problem("float monomial n=3 m=30", SPHERE3, monomial(rng, 3, 30), "float"))
    out.append(Problem("float x1^40", ELLIPSOID3, {(40, 0, 0): rational(rng)}, "float"))
    out.append(Problem("float dense n=4 m=14", SPHERE4, dense(rng, 4, [14]), "float"))
    return out


def cli_verify(seed: int, index: int) -> list[Problem]:
    rng = round_rng("cli-verify", seed, index)
    return [
        Problem("solve n=3 m=6", random_surface(rng, 3, False), dense(rng, 3, [6]),
                command="solve"),
        Problem("decompose all-degree n=3 M=6", random_surface(rng, 3, True),
                dense(rng, 3, range(7)), command="decompose", text_surface=True),
        Problem("verify n=3 m=8", ELLIPSOID3, dense(rng, 3, [8]), command="verify"),
        Problem("verify --oracle n=3 m=8", random_surface(rng, 3, False), dense(rng, 3, [8]),
                command="verify", oracle=True),
        Problem("verify --oracle monomial m=12", SPHERE3, monomial(rng, 3, 12),
                command="verify", oracle=True),
        Problem("verify --oracle monomial m=12", ELLIPSOID3, monomial(rng, 3, 12),
                command="verify", oracle=True),
        Problem("decompose n=4 m=6", SPHERE4, dense(rng, 4, [6]), command="decompose",
                text_surface=True),
        Problem("solve float n=3 m=10", ELLIPSOID3, dense(rng, 3, [10]), "float",
                command="solve"),
        # A fixed surface: on some random ones the same absolute 1e-9 check
        # rejects a correct unscaled solve, which would make failures depend
        # on the seed.
        Problem("verify float n=3 m=10", SHIFTED3, dense(rng, 3, [10]), "float",
                command="verify", text_surface=True),
        Problem("verify float scaled 1e6 n=3 m=12", ELLIPSOID3, SCALED_DENSE12, "float",
                command="verify"),
    ]


def _rational_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(poly: dict) -> str:
    """An expression in the command line's grammar, e.g. ``3/2*x1^2*x3 - 5``."""
    chunks = []
    for alpha, c in sorted(poly.items(), reverse=True):
        factors = [_rational_text(abs(c))]
        factors += [f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}" for j, e in enumerate(alpha) if e]
        chunks.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(chunks) if chunks else "0"


def surface_argument(problem: Problem) -> str:
    import json

    s = problem.surface
    if problem.text_surface:
        return poly_text(surface_terms(s))
    return json.dumps({key: [_rational_text(v) for v in getattr(s, key)] for key in "ac"}
                      | {"d": _rational_text(s.d)})


class Workload:
    def __init__(self, rounds):
        self.rounds = rounds  # (seed, index) -> list[Problem]


class ApiWorkload(Workload):
    """Problems go to ``quadharm.solver.solve_dirichlet``."""

    entry = "quadharm"

    def prepare(self, problem: Problem, qh):
        """Build the package's inputs (untimed); return the timed call."""
        s = problem.surface
        terms = problem.p
        if problem.mode == "float":
            terms = {alpha: float(c) for alpha, c in terms.items()}
        p = qh.Poly(len(s.a), terms)
        quadric = qh.NonhyperbolicQuadratic(s.a, s.c, s.d)
        solver = qh.solver
        return lambda: solver.solve_dirichlet(p, quadric)

    @staticmethod
    def read(problem: Problem, result):
        """(h, f, the program reported a failure)."""
        return dict(result.h.terms), dict(result.f.terms), False


class CliWorkload(Workload):
    """Problems go to ``quadharm.cli.main`` in this process, stdout captured."""

    entry = "quadharm.cli"

    def prepare(self, problem: Problem, qh):
        import contextlib
        import io

        argv = [problem.command, "--boundary", poly_text(problem.p),
                "--surface", surface_argument(problem), "--format", "json",
                "--mode", problem.mode]
        if problem.oracle:
            argv.append("--oracle")
        cli = qh.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        return call

    @staticmethod
    def read(problem: Problem, result):
        import json

        code, text = result
        try:
            doc = json.loads(text)
            terms = doc["h"], doc["f"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return None, None, True
        value = float if problem.mode == "float" else Fraction
        h, f = ({tuple(t["e"]): value(t["c"]) for t in poly} for poly in terms)
        return h, f, code != 0


WORKLOADS = {
    "exact-homogeneous": ApiWorkload(exact_homogeneous),
    "exact-all-degree": ApiWorkload(exact_all_degree),
    "float-high-degree": ApiWorkload(float_high_degree),
    "cli-verify": CliWorkload(cli_verify),
}
