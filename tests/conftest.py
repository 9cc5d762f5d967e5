"""Shared fixtures, random generators, and hypothesis strategies."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
import hypothesis.strategies as st

from quadharm import NonhyperbolicQuadratic, Poly, multi_indices_upto

# Hypothesis seeds its draws with literals from the package modules that are
# loaded.  `import quadharm` leaves out these two, which the full suite loads,
# so without them a run of one file would draw other examples than the suite.
import quadharm.bench  # noqa: F401
import quadharm.cli  # noqa: F401
import quadharm.solver

SEED = 20260815

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def fresh_stores():
    """Every test starts with the solver's stores empty, as in a fresh
    process, so that none depends on what an earlier test stored."""
    quadharm.solver.clear_stores()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def random_fraction(rng: random.Random, max_num: int = 30, max_den: int = 10) -> Fraction:
    num = rng.randint(-max_num, max_num)
    while num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_exponent(rng: random.Random, n: int, max_degree: int) -> tuple:
    # split a random total degree into n parts
    total = rng.randint(0, max_degree)
    alpha = [0] * n
    for _ in range(total):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def random_poly(
    rng: random.Random,
    n: int,
    max_degree: int,
    terms: int = 4,
) -> Poly:
    """Random nonzero polynomial with small rational coefficients."""
    built: dict[tuple, Fraction] = {}
    for _ in range(terms):
        built[random_exponent(rng, n, max_degree)] = random_fraction(rng)
    return Poly(n, built)


def all_degree(rng: random.Random, n: int, top: int) -> Poly:
    """Every monomial of degree 0..top, with random rational coefficients."""
    return Poly(n, {alpha: random_fraction(rng) for alpha in multi_indices_upto(n, top)})


def random_quadric(rng: random.Random, n: int, kind: str | None = None) -> NonhyperbolicQuadratic:
    """Random valid surface; kind in {ellipsoid, cylinder, paraboloid} or None."""
    if kind is None:
        kind = rng.choice(["ellipsoid", "ellipsoid", "cylinder", "paraboloid"])
    a = [Fraction(rng.randint(1, 6)) for _ in range(n)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    if kind == "cylinder":
        a[rng.randrange(n)] = Fraction(0)
        c = [Fraction(0)] * n
    elif kind == "paraboloid":
        j = rng.randrange(n)
        a[j] = Fraction(0)
        c[j] = Fraction(rng.choice([-2, -1, 1, 2]))
    d = Fraction(rng.randint(-3, 3))
    return NonhyperbolicQuadratic(tuple(a), tuple(c), d)


# ---------------------------------------------------------------- hypothesis

def fractions_st(max_num: int = 20, max_den: int = 8) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def exponents_st(n: int, max_degree: int) -> st.SearchStrategy:
    return (
        st.lists(st.integers(0, max_degree), min_size=n, max_size=n)
        .map(tuple)
        .filter(lambda e: sum(e) <= max_degree)
    )


def polys_st(n: int, max_degree: int = 4, max_terms: int = 5) -> st.SearchStrategy:
    return st.dictionaries(
        exponents_st(n, max_degree),
        fractions_st(),
        min_size=0,
        max_size=max_terms,
    ).map(lambda d: Poly(n, d))


def dimensioned_polys_st(max_n: int = 3, max_degree: int = 4) -> st.SearchStrategy:
    return st.integers(2, max_n).flatmap(lambda n: polys_st(n, max_degree))


def column_steps(steps: list[int]) -> list[int]:
    """The number of steps the recording elimination wrote for each column."""
    counts, i = [], 0
    while i < len(steps):
        k = steps[i + 1]
        counts.append(3 + 3 * k + 2 * steps[i + 2 + 3 * k])
        i += counts[-1]
    return counts


# ------------------------------------------------------- acceptance summary

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid or "::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            parts = name.split("_")
            number, description = parts[2], " ".join(parts[3:])
            key = f"criterion {number} ({description})"
            if outcomes.get(key) != "FAIL":
                outcomes[key] = label
    if outcomes:
        terminalreporter.section("acceptance criteria")
        for key in sorted(outcomes):
            terminalreporter.write_line(f"{key}: {outcomes[key]}")
