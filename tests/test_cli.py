"""Command-line behaviour, exit codes, and output schemas."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadharm import HarmonicDecomposition, Poly, VerificationReport
from quadharm.cli import (
    EXIT_ILL_CONDITIONED,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    SOLVE_MAX_CLASS_WORK,
    SOLVE_MAX_UNKNOWNS,
    build_parser,
    main,
)
from quadharm.parsing import MAX_LITERAL_DIGITS, MAX_NESTING_DEPTH
from quadharm.polynomial import MAX_VARIABLES
from quadharm.solver import IllConditionedSystemError
from quadharm.verify import ORACLE_MAX_UNKNOWNS

ELLIPSOID = "2x1^2 + 3x2^2 + 4x3^2 - 1"
README = Path(__file__).resolve().parents[1] / "README.md"

# h and f of ``test_oracle_json_document_is_pinned``, in the order printed.
GOLDEN_H = [
    ((3, 1, 0), "15/26"), ((1, 3, 0), "-3/13"), ((1, 1, 2), "-27/26"),
    ((2, 1, 0), "-9/143"), ((2, 0, 1), "2/61"), ((1, 1, 1), "27/104"),
    ((0, 3, 0), "6/715"), ((0, 2, 1), "-38/61"), ((0, 1, 2), "27/715"),
    ((0, 0, 3), "12/61"), ((2, 0, 0), "-33/610"), ((1, 1, 0), "17361/14300"),
    ((1, 0, 1), "4/305"), ((0, 2, 0), "-22/305"), ((0, 1, 1), "-27/2860"),
    ((0, 0, 2), "77/610"), ((1, 0, 0), "-33/1525"), ((0, 1, 0), "-63/1430"),
    ((0, 0, 1), "-181/1220"), ((0, 0, 0), "-2819/610"),
]
GOLDEN_F = [
    ((1, 1, 0), "9/26"), ((0, 1, 0), "-9/715"), ((0, 0, 1), "-4/61"),
    ((0, 0, 0), "33/305"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_text_output(self, capsys):
        code, out, err = run(
            capsys, "solve", "--boundary", "x1^2", "--surface", "x1^2+x2^2-1")
        assert code == EXIT_OK
        assert out.strip() == "h = 1/2*x1^2 - 1/2*x2^2 + 1/2"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--boundary", "x1^4*x2^3", "--surface", ELLIPSOID,
            "--format", "json", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"n", "mode", "h", "f", "verify", "timing_ms"}
        assert doc["n"] == 3 and doc["mode"] == "exact"
        # Without --oracle there is no oracle_match key.
        assert doc["verify"] == {"harmonic": True, "residual_zero": True,
                                 "surface_nondegenerate": True, "notes": []}
        f = {tuple(t["e"]): t["c"] for t in doc["f"]}
        assert f[(0, 5, 0)] == "-97950/20144813"

    def test_json_without_verify_omits_key(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--boundary", "x1^2", "--surface",
            "x1^2+x2^2-1", "--format", "json")
        doc = json.loads(out)
        assert code == EXIT_OK
        assert "verify" not in doc

    def test_dim_flag_raises_ambient_space(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--boundary", "x1^2", "--surface",
            "x1^2+x2^2-1", "--dim", "4", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 4

    def test_float_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--boundary", "x1^2", "--surface",
            "x1^2+x2^2-1", "--mode", "float", "--format", "json", "--verify")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "float"
        coeffs = {tuple(t["e"]): float(t["c"]) for t in doc["h"]}
        assert coeffs[(2, 0)] == pytest.approx(0.5)

    def test_float_verify_too_large_a_solution_is_ill_conditioned(self, capsys):
        # On this paraboloid h reaches about 3e6 times the boundary.
        code, out, err = run(
            capsys, "verify", "--boundary", "x3^10", "--surface",
            "x1^2+x2^2+x3", "--mode", "float")
        assert code == EXIT_ILL_CONDITIONED
        assert "note: ill-conditioned" in out and "exact mode" in err

    def test_surface_file_argument(self, capsys, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text('{"a": [1, 1], "c": [0, 0], "d": -1}')
        code, out, _ = run(
            capsys, "solve", "--boundary", "x1^2", "--surface", str(path))
        assert code == EXIT_OK and "h =" in out


class TestDecomposeAndVerify:
    def test_decompose_prints_both_parts(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--boundary", "x1^2", "--surface", "x1^2+x2^2-1")
        assert code == EXIT_OK
        assert "h = " in out and "f = " in out
        assert "f = 1/2" in out

    def test_verify_command_reports_checks(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--boundary", "x1^4*x2^3", "--surface", ELLIPSOID,
            "--oracle")
        assert code == EXIT_OK
        assert "harmonic" in out.lower()

    def test_oracle_json_document_is_pinned(self, capsys):
        # Fractional p and q, on a surface with linear terms: every printed
        # coefficient and check is pinned.
        code, out, _ = run(
            capsys, "verify", "--boundary", "3/4*x1^3*x2 - 2/3*x2^2*x3 + 1/2*x3^2 - 5",
            "--surface", "1/2*x1^2 + 2/3*x2^2 + 3*x3^2 + 1/5*x1 - 3/4*x3 - 7/2",
            "--oracle", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"n", "mode", "h", "f", "verify", "timing_ms"}
        del doc["timing_ms"]
        assert doc == {
            "n": 3, "mode": "exact",
            "h": [{"e": list(e), "c": c} for e, c in GOLDEN_H],
            "f": [{"e": list(e), "c": c} for e, c in GOLDEN_F],
            "verify": {"harmonic": True, "residual_zero": True, "surface_nondegenerate": True,
                       "oracle_match": True, "notes": []},
        }

    @pytest.mark.parametrize("command", ["solve", "decompose"])
    def test_oracle_flag_runs_the_verification(self, capsys, command):
        code, out, _ = run(
            capsys, command, "--boundary", "x1^4", "--surface", "x1^2+2x2^2-1",
            "--oracle")
        assert code == EXIT_OK
        assert "verify: harmonic=true residual_zero=true" in out
        assert "oracle_match=true" in out

    @pytest.mark.parametrize("command", ["solve", "decompose"])
    def test_oracle_mismatch_exits_three(self, capsys, monkeypatch, command):
        def wrong_oracle(p, quadric):
            return HarmonicDecomposition(h=p, f=Poly.zero(p.n), p=p, q=quadric)

        monkeypatch.setattr("quadharm.verify.oracle_operator_matrix", wrong_oracle)
        code, out, _ = run(
            capsys, command, "--boundary", "x1^4", "--surface", "x1^2+2x2^2-1",
            "--oracle", "--format", "json")
        assert code == EXIT_VERIFY
        doc = json.loads(out)
        assert doc["verify"]["oracle_match"] is False
        assert "operator-matrix oracle disagrees with the solver" in doc["verify"]["notes"]

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        def fake_verify(p, quadric, dec, **kwargs):
            return VerificationReport(
                harmonic_ok=False, residual_ok=True,
                residual=Poly.zero(p.n), surface_nondegenerate=True)

        monkeypatch.setattr("quadharm.cli.verify_solution", fake_verify)
        code, _, err = run(
            capsys, "verify", "--boundary", "x1^2", "--surface", "x1^2+x2^2-1")
        assert code == EXIT_VERIFY


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("solve", "--boundary", "x0", "--surface", "x1^2+x2^2-1"),
        ("solve", "--boundary", "x1 +", "--surface", "x1^2+x2^2-1"),
        ("solve", "--boundary", "x1^2", "--surface", "x1^2-x2^2-1"),
        ("solve", "--boundary", "x1^2", "--surface", "x1*x2-1"),
        ("solve", "--boundary", "x1^2", "--surface", "x1^2+x2^2-1",
         "--mode", "float", "--oracle"),
        # "a" must be a list: a string would be read one character at a
        # time, an object as its keys.
        ("solve", "--boundary", "x1^2", "--surface", '{"a": 1, "c": [0, 0], "d": -1}'),
        ("solve", "--boundary", "x1^2", "--surface", '{"a": null, "c": [0, 0], "d": -1}'),
        ("solve", "--boundary", "x1^2", "--surface", '{"a": "11", "c": [0, 0], "d": -1}'),
        ("solve", "--boundary", "x1^2", "--surface",
         '{"a": {"1": 1, "2": 1}, "c": [0, 0], "d": -1}'),
    ])
    def test_input_errors_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert err.strip()

    def test_oracle_over_the_limit_exits_two_before_any_work(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an input over the limit")

        monkeypatch.setattr("quadharm.verify._operator_matrix", forbidden)
        monkeypatch.setattr("quadharm.cli.solve_dirichlet", forbidden)
        code, out, err = run(
            capsys, "verify", "--boundary", "x1^400", "--surface", ELLIPSOID, "--oracle")
        assert (code, out) == (EXIT_INPUT, "")
        assert "--oracle" in err and f"the limit is {ORACLE_MAX_UNKNOWNS}" in err

    def test_oracle_limit_counts_the_operator_matrix(self, capsys, monkeypatch):
        # x1^6 in 3 variables: f has degree <= 4, comb(4 + 3, 3) = 35 unknowns.
        monkeypatch.setattr("quadharm.cli.ORACLE_MAX_UNKNOWNS", 35)
        argv = ("verify", "--surface", ELLIPSOID, "--oracle")
        assert run(capsys, *argv, "--boundary", "x1^6")[0] == EXIT_OK
        code, _, err = run(capsys, *argv, "--boundary", "x1^7")
        assert code == EXIT_INPUT and "needs 56 unknowns" in err
        assert run(capsys, *argv[:-1], "--boundary", "x1^7")[0] == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("--boundary", "x99999999999999999999^2", "--surface", "x1^2 + x2^2 + x3^2 - 1"),
        ("--boundary", "x1200^2", "--surface", "x1^2 + x2^2 + x3^2 - 1"),
        ("--boundary", "x1^4", "--surface", "x1^2 + x2^2 + x3^2 - 1", "--dim", "1200"),
        ("--boundary", "x1^2", "--surface", json.dumps({"a": [1] * 1200, "c": [0] * 1200, "d": -1})),
    ])
    def test_too_many_variables_exit_two_before_any_work(self, capsys, monkeypatch, argv):
        import quadharm.parsing

        parser = quadharm.parsing._Parser

        def small_parser(tokens, n):
            assert n <= MAX_VARIABLES, "the parser allocated per variable"
            return parser(tokens, n)

        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an input over the limit")

        monkeypatch.setattr("quadharm.parsing._Parser", small_parser)
        monkeypatch.setattr("quadharm.cli.solve_dirichlet", forbidden)
        code, out, err = run(capsys, "solve", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"past the limit of {MAX_VARIABLES} variables" in err

    def refused_before_solving(self, capsys, monkeypatch, mode, *argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an input over the limit")

        monkeypatch.setattr("quadharm.cli.solve_dirichlet", forbidden)
        code, out, err = run(capsys, "solve", "--mode", mode, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"unknowns over its levels in {mode} mode; the limit is {SOLVE_MAX_UNKNOWNS[mode]}" in err

    def test_huge_exponent_exits_two_before_any_work(self, capsys, monkeypatch):
        # Its top level alone has comb(99999999998, 2) unknowns.
        self.refused_before_solving(capsys, monkeypatch, "float", "--boundary", "x1^99999999999",
                                    "--surface", "x1^2+x2^2+x3^2-1")

    def test_small_degree_in_many_variables_exits_two_before_any_work(self, capsys, monkeypatch):
        # Its top level alone has comb(259, 4) = 183,181,376 unknowns.
        self.refused_before_solving(capsys, monkeypatch, "exact", "--boundary", "x1^6",
                                    "--dim", "256", "--surface", "x1^2+x2^2+x3^2-1")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_unknown_limit_is_inclusive(self, capsys, monkeypatch, mode):
        # x1^6 on a surface with a linear part runs every level from 6 down
        # to 2: comb(6 - 2 + 3, 3) = 35 unknowns.
        argv = ("--boundary", "x1^6", "--surface", "x1^2+x2^2+x3^2+x1-1")
        monkeypatch.setitem(SOLVE_MAX_UNKNOWNS, mode, 35)
        assert run(capsys, "solve", "--mode", mode, *argv)[0] == EXIT_OK
        monkeypatch.setitem(SOLVE_MAX_UNKNOWNS, mode, 34)
        self.refused_before_solving(capsys, monkeypatch, mode, *argv)

    @pytest.mark.parametrize("surface", [
        "x1^2 + x2^2 + x3^2 - 1",
        '{"a": [1, 1, 1], "c": [0, 0, 0], "d": -1}',
    ], ids=["text surface", "json surface"])
    def test_long_variable_index_exits_two(self, capsys, surface):
        code, out, err = run(capsys, "solve", "--boundary", "x" + "9" * 5000,
                             "--surface", surface)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"past the limit of {MAX_LITERAL_DIGITS} digits" in err

    @pytest.mark.parametrize("boundary", ["9" * 5000 + "x1^2", "x1^" + "9" * 5000,
                                          "x1^2/" + "7" * 5000],
                             ids=["coefficient", "exponent", "denominator"])
    def test_long_coefficient_exits_two(self, capsys, boundary):
        code, out, err = run(capsys, "solve", "--boundary", boundary,
                             "--surface", "x1^2 + x2^2 + x3^2 - 1")
        assert (code, out) == (EXIT_INPUT, "")
        assert f"past the limit of {MAX_LITERAL_DIGITS} digits" in err

    def test_largest_class_over_the_limit_exits_two_before_any_work(self, capsys, monkeypatch):
        # One level runs, 199,396 unknowns, under the float limit; its
        # largest class of 50,086 would need 2.5e9 float working entries.
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an input over the limit")

        monkeypatch.setattr("quadharm.cli.solve_dirichlet", forbidden)
        code, out, err = run(capsys, "solve", "--mode", "float", "--boundary", "x1^632",
                             "--surface", "x1^2+x2^2+x3^2")
        assert (code, out) == (EXIT_INPUT, "")
        assert f"has a parity class of work 5001387616; the limit is {SOLVE_MAX_CLASS_WORK}" in err

    def test_class_work_limit_is_inclusive(self, capsys, monkeypatch):
        # Order 4 in 3 variables: a class of 6 with bandwidth 3, work 6 * 9.
        argv = ("solve", "--boundary", "x1^6", "--surface", "x1^2+x2^2+x3^2-1")
        monkeypatch.setattr("quadharm.cli.SOLVE_MAX_CLASS_WORK", 54)
        assert run(capsys, *argv)[0] == EXIT_OK
        monkeypatch.setattr("quadharm.cli.SOLVE_MAX_CLASS_WORK", 53)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "") and "parity class of work 54" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_answer_past_the_digit_limit_exits_two(self, capsys, fmt):
        big = "7" * MAX_LITERAL_DIGITS
        code, out, err = run(capsys, "solve", "--boundary", "*".join([big] * 5) + "*x1^2",
                             "--surface", "x1^2+x2^2+x3^2-1", "--format", fmt)
        assert (code, out) == (EXIT_INPUT, "")
        assert f"more than {sys.get_int_max_str_digits()} digits" in err
        # Below the limit the answer prints.
        code, out, _ = run(capsys, "solve", "--boundary", "*".join([big] * 4) + "*x1^2",
                           "--surface", "x1^2+x2^2+x3^2-1", "--format", fmt)
        assert code == EXIT_OK and len(out) > 4 * MAX_LITERAL_DIGITS

    @pytest.mark.parametrize("flags, code", [((), EXIT_OK), (("--show-f",), EXIT_INPUT),
                                             (("--format", "json"), EXIT_INPUT)])
    def test_multiplier_past_the_digit_limit_exits_two_only_when_printed(self, capsys, flags,
                                                                        code):
        # p = N^5 * q on the unit sphere: h = 0 and f = N^5, past 4,300 digits.
        big = "*".join(["7" * MAX_LITERAL_DIGITS] * 5)
        result = run(capsys, "solve", "--boundary", f"{big}*(x1^2+x2^2+x3^2-1)",
                     "--surface", "x1^2+x2^2+x3^2-1", *flags)
        assert result[0] == code
        assert result[1] == ("h = 0\n" if code == EXIT_OK else "")

    def test_float_order_past_the_factorials_exits_four(self, capsys):
        # A tiny coefficient keeps order 170 in range: D^alpha f is about
        # 170! / 10^300.
        tiny = "1/1" + "0" * 300
        argv = ("solve", "--mode", "float", "--surface", "x1^2+x2^2", "--boundary")
        assert run(capsys, *argv, f"{tiny}*x1^172")[0] == EXIT_OK
        code, out, err = run(capsys, *argv, f"{tiny}*x1^173")
        assert (code, out) == (EXIT_ILL_CONDITIONED, "")
        assert "order 171 is past 170, where alpha! overflows a float" in err

    @pytest.mark.parametrize("surface, code", [
        ("1000*x1^2+x2^2-1", EXIT_OK),
        ("1000000*x1^2+x2^2-1", EXIT_OK),
        ("x1^2+1000000*x2^2-1", EXIT_ILL_CONDITIONED),
    ], ids=["a1-1e3", "a1-1e6", "a2-1e6"])
    def test_float_verify_of_x1_170_across_the_weight_range(self, capsys, surface, code):
        # The Fischer weights of the top classes span about 10^252 on the
        # first surface and are scaled to fit; on the other two they span
        # about 10^504 and those classes are factored with row pivoting.
        result = run(capsys, "verify", "--mode", "float", "--boundary", "x1^170",
                     "--surface", surface)
        assert result[0] == code
        assert "Traceback" not in result[2]

    @pytest.mark.parametrize("argv", [
        ("--boundary", "%s*%s*x1^2" % ("9" * 200, "9" * 200), "--surface", "x1^2+x2^2-1"),
        ("--boundary", "x1^2", "--surface", "%s*%s*x1^2+x2^2-1" % ("9" * 200, "9" * 200)),
    ], ids=["boundary", "surface"])
    def test_coefficient_past_the_float_range_exits_two(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started on an input float mode cannot hold")

        monkeypatch.setattr("quadharm.cli.solve_dirichlet", forbidden)
        code, out, err = run(capsys, "solve", "--mode", "float", *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert "too large for float mode" in err

    def test_long_number_in_a_surface_document_exits_two(self, capsys):
        surface = '{"a": [1, %s], "c": [0, 0], "d": -1}' % ("9" * 5000)
        code, out, err = run(capsys, "solve", "--boundary", "x1^2", "--surface", surface)
        assert (code, out) == (EXIT_INPUT, "")
        assert "bad surface document" in err

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH + 1, 1000])
    def test_deep_parentheses_exit_two(self, capsys, depth):
        code, out, err = run(capsys, "solve", "--boundary", "(" * depth + "x1" + ")" * depth,
                             "--surface", "x1^2 + x2^2 - 1")
        assert (code, out) == (EXIT_INPUT, "")
        assert f"deeper than the limit of {MAX_NESTING_DEPTH}" in err

    def test_parentheses_300_deep_still_solve(self, capsys):
        depth = 300
        assert depth <= MAX_NESTING_DEPTH
        code, out, _ = run(capsys, "solve", "--boundary", "(" * depth + "x1^2" + ")" * depth,
                           "--surface", "x1^2 + x2^2 - 1")
        assert (code, out.strip()) == (EXIT_OK, "h = 1/2*x1^2 - 1/2*x2^2 + 1/2")

    def test_ill_conditioned_exits_four(self, capsys, monkeypatch):
        def fake_solve(*args, **kwargs):
            raise IllConditionedSystemError("synthetic")

        monkeypatch.setattr("quadharm.cli.solve_dirichlet", fake_solve)
        code, _, err = run(
            capsys, "solve", "--boundary", "x1^2", "--surface",
            "x1^2+x2^2-1", "--mode", "float")
        assert code == EXIT_ILL_CONDITIONED


class TestBench:
    def test_census_report_text(self, capsys):
        # The census builds no boundary and solves nothing, so it prints
        # neither a boundary kind nor right-hand-side counts.
        code, out, err = run(capsys, "bench", "--dim", "3", "--degree", "4")
        assert (code, err) == (EXIT_OK, "")
        assert out == (
            "dimension n = 3, top system order m = 4\n"
            "inhabited parity classes: 4 with sizes [3, 3, 3, 6]\n"
            "predicted ops: full = 2250, partitioned = 140.6, ratio = 16\n")

    def test_census_builds_nothing_and_refuses_too_many_classes(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("census-only bench built or solved a problem")

        for name in ("monomial_boundary", "dense_boundary", "run_comparison"):
            monkeypatch.setattr(f"quadharm.bench.{name}", forbidden)
        assert run(capsys, "bench", "--dim", "3", "--degree", "4")[0] == EXIT_OK
        # 2^39 classes: refused before the census is formed.
        monkeypatch.setattr("quadharm.bench.class_census", forbidden)
        code, out, err = run(capsys, "bench", "--dim", "40", "--degree", "40")
        assert (code, out) == (EXIT_INPUT, "") and "parity classes" in err

    @pytest.mark.parametrize("flag", [
        ["--time"], ["--compare-full"], ["--reps", "2"], ["--mode", "float"],
        ["--surface", "x1^2+x2^2+x3^2-1"], ["--boundary-kind", "dense"], ["--format", "csv"],
    ], ids=lambda flag: flag[0])
    def test_retired_timing_flags_exit_two(self, capsys, flag):
        code, out, err = run(capsys, "bench", "--dim", "3", "--degree", "4", *flag)
        assert (code, out) == (EXIT_INPUT, "") and "unrecognized arguments" in err

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_two(self, capsys, reps):
        # --reps is retired, so a count below one is refused as an unknown flag.
        code, out, err = run(capsys, "bench", "--dim", "3", "--degree", "2", "--reps", reps)
        assert (code, out) == (EXIT_INPUT, "") and "unrecognized arguments" in err


def readme_commands() -> list[list[str]]:
    """The arguments of each `quadharm` command in a fenced block of the
    README, continuation lines joined and any pipe cut off."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("quadharm "):
                commands.append(shlex.split(line.split("|")[0])[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 4
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: quadharm {shlex.join(argv)}")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "quadharm", "solve",
         "--boundary", "x1^2", "--surface", "x1^2+x2^2-1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "1/2*x1^2" in proc.stdout


def test_cli_import_loads_no_tooling_modules():
    # Every `quadharm` command pays for what `import quadharm.cli` loads;
    # these modules cost start-up time and memory that only `bench`, or
    # nothing at all, needs.
    # `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize` with it.
    import quadharm

    unwanted = ["quadharm.bench", "logging", "concurrent.futures", "numpy",
                "dataclasses", "inspect"]
    src = os.path.dirname(os.path.dirname(quadharm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("quadharm", "quadharm.cli"):
        code = f"import sys, {module}; print([m for m in {unwanted!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (module, proc.stdout.strip()) == (module, "[]")
