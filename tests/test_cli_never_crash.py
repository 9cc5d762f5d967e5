"""Random command lines: every one exits 0, 2, 3 or 4, and none raises.

Boundaries are drawn from the README grammar, with literals, exponents and
variable indices that sometimes pass a limit; surfaces are expressions or
JSON documents holding values of every JSON type; flags are combined at
random.  The size limits are lowered so that every accepted draw solves in
milliseconds and many draws are over one.  A draw over a limit must be
refused before it is solved: the solver and the oracle are wrapped with
checks that fail the test if they are handed such a problem.  `bench`
draws also carry its retired timing flags, which must exit 2, and no
`bench` command may reach the timed comparison.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quadharm import bench, cli
from quadharm.parsing import MAX_LITERAL_DIGITS
from quadharm.layout import descent_unknowns, largest_class_work

LIMITS = {
    "SOLVE_MAX_UNKNOWNS": {"exact": 40, "float": 40},
    "SOLVE_MAX_CLASS_WORK": 300,
    "ORACLE_MAX_UNKNOWNS": 40,
}

BIG = [10**11, int("9" * (MAX_LITERAL_DIGITS + 1))]
UINTS = st.one_of(st.integers(0, 3), st.sampled_from([12, *BIG]))


@st.composite
def expressions(draw, depth=2):
    """An expression of the README grammar, its parentheses at most
    ``depth`` deep."""
    rational = st.builds(lambda a, b: f"{a}/{b}" if b is not None else f"{a}",
                         UINTS, st.none() | UINTS)
    variable = st.builds(lambda i, e: f"x{i}" if e is None else f"x{i}^{e}",
                         st.sampled_from([1, 2, 3, 1, 2, 300, 10**20]), st.none() | UINTS)
    factors = [rational, variable]
    if depth > 0:
        factors.append(expressions(depth - 1).map(lambda e: f"({e})"))
    factor = st.one_of(*factors)
    term = st.lists(factor, min_size=1, max_size=2).flatmap(
        lambda fs: st.sampled_from(["*", "", " * "]).map(lambda join: join.join(fs)))
    terms = draw(st.lists(term, min_size=1, max_size=3))
    signs = draw(st.lists(st.sampled_from(["+", "-", " + ", " - "]),
                          min_size=len(terms), max_size=len(terms)))
    first = draw(st.sampled_from(["", "-", "+"]))
    return first + terms[0] + "".join(s + t for s, t in zip(signs[1:], terms[1:]))


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(BIG),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["1/2", "-3", "0", "2/0", "1.25e-09", "1e100000000", "-1e-999999",
                     "nan", "inf", "x", "", "1/" + "9" * 5000]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=6,
)
SURFACE_ENTRIES = st.one_of(st.integers(0, 3), st.sampled_from(["1/2", "-1", "3/4"]), JSON_VALUES)


@st.composite
def surface_documents(draw):
    n = draw(st.integers(0, 4))
    doc = {
        "a": draw(st.lists(SURFACE_ENTRIES, min_size=n, max_size=n) | JSON_VALUES),
        "c": draw(st.lists(SURFACE_ENTRIES, min_size=n, max_size=n) | JSON_VALUES),
        "d": draw(SURFACE_ENTRIES),
    }
    for key in draw(st.sets(st.sampled_from(["a", "c", "d"]), max_size=1)):
        del doc[key]
    return json.dumps(doc)


@st.composite
def surface_expressions(draw):
    n = draw(st.integers(1, 4))
    parts = [f"{draw(st.integers(0, 3))}*x{j}^2" for j in range(1, n + 1)]
    parts += [f"{draw(st.integers(-2, 2))}*x{j}" for j in draw(st.sets(st.integers(1, n)))]
    parts.append(str(draw(st.integers(-2, 1))))
    return " + ".join(parts).replace("+ -", "- ")


SURFACES = st.one_of(surface_expressions(), surface_documents(), expressions(1),
                     JSON_VALUES.map(json.dumps))


@st.composite
def solve_argv(draw):
    argv = [draw(st.sampled_from(["solve", "decompose", "verify"])),
            "--boundary", draw(expressions()), "--surface", draw(SURFACES)]
    for flag in draw(st.sets(st.sampled_from(["--show-f", "--verify", "--oracle"]))):
        argv.append(flag)
    for option, values in (("--mode", ["exact", "float"]), ("--format", ["text", "json"]),
                           ("--dim", ["-1", "0", "2", "3", "4", "300"])):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [option, value]
    return argv


RETIRED_BENCH_OPTIONS = ("--time", "--compare-full", "--mode", "--format", "--boundary-kind",
                         "--reps", "--surface")


@st.composite
def bench_argv(draw):
    argv = ["bench", "--dim", draw(st.sampled_from(["1", "2", "3", "4", "12", "300"])),
            "--degree", str(draw(st.integers(-1, 8) | st.sampled_from(BIG)))]
    for flag in draw(st.sets(st.sampled_from(["--time", "--compare-full"]))):
        argv.append(flag)
    for option, values in (("--mode", ["exact", "float"]), ("--format", ["text", "csv"]),
                           ("--boundary-kind", ["monomial", "dense"]),
                           ("--reps", ["0", "1", "2"])):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [option, value]
    surface = draw(st.none() | SURFACES)
    if surface is not None:
        argv += ["--surface", surface]
    return argv


def within_solve_limits(p, surface) -> bool:
    mode = "float" if p.is_float() else "exact"
    limit = cli.SOLVE_MAX_UNKNOWNS[mode]
    return (descent_unknowns(p, surface, limit) <= limit
            and largest_class_work(p.n, (p.degree() or 0) - 2) <= cli.SOLVE_MAX_CLASS_WORK)


def run_checked(argv: list[str]) -> tuple[int, str, str]:
    solve, verify = cli.solve_dirichlet, cli.verify_solution

    def checked_solve(p, surface, **kwargs):
        assert within_solve_limits(p, surface), "solved a problem over a limit"
        return solve(p, surface, **kwargs)

    def checked_verify(p, surface, dec, *, check_oracle=False):
        degree = p.degree() or 0
        unknowns = math.comb(degree - 2 + p.n, p.n) if degree >= 2 else 0
        assert not check_oracle or unknowns <= cli.ORACLE_MAX_UNKNOWNS
        return verify(p, surface, dec, check_oracle=check_oracle)

    def forbidden_compare(*args, **kwargs):
        raise AssertionError("a command reached the timed comparison")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in LIMITS.items():
            mp.setattr(cli, name, value)
        mp.setattr(cli, "solve_dirichlet", checked_solve)
        mp.setattr(cli, "verify_solution", checked_verify)
        mp.setattr(bench, "run_comparison", forbidden_compare)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code: int, out: str, err: str) -> None:
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_VERIFY, cli.EXIT_ILL_CONDITIONED)
    assert "Traceback" not in err
    if code == cli.EXIT_OK:
        assert out and not err
    elif code == cli.EXIT_INPUT:
        assert err


@settings(max_examples=300)
@given(solve_argv())
def test_solve_decompose_verify_never_crash(argv):
    check_exit(*run_checked(argv))


@settings(max_examples=100)
@given(bench_argv())
def test_bench_never_crashes(argv):
    code, out, err = run_checked(argv)
    check_exit(code, out, err)
    if any(option in argv for option in RETIRED_BENCH_OPTIONS):
        assert code == cli.EXIT_INPUT and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--boundary", "x1^12", "--surface", "x1^2+x2^2+x3^2+x1-1"],
    ["solve", "--boundary", "x1^12", "--surface", "x1^2+x2^2+x3^2"],
    ["verify", "--oracle", "--boundary", "x1^12", "--surface", "x1^2+x2^2+x3^2-1"],
])
def test_draws_over_the_lowered_limits_are_refused(argv):
    # The lowered limits refuse each of these, so the wrapped solver never runs.
    code, out, err = run_checked(argv)
    assert (code, out) == (cli.EXIT_INPUT, "") and "limit" in err
