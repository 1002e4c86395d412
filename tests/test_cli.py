import math
import os
import re
import subprocess
import sys

import pytest

from concap import genfun, maxent, spectrum
from concap.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_INVALID, EXIT_OK, build_parser, main

SBIN = "sym 0=1 1=1;\nexpr: (0|1)*\n"
PITFALL_PMF = "0 1 0.4142135623731\n1 1 0.4142135623731\n01 2 0.1715728752538\n"


@pytest.fixture
def sbin_file(tmp_path):
    path = tmp_path / "sbin.cs"
    path.write_text(SBIN)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_jk22(capsys):
    code, out, _ = run(capsys, ["capacity", "--jk", "2", "2"])
    assert code == EXIT_OK
    assert "capacity    0.481211825060 nats" in out


def test_capacity_jk22_bits(capsys):
    code, out, _ = run(capsys, ["capacity", "--jk", "2", "2", "--units", "bits"])
    assert code == EXIT_OK
    assert "0.694241913631 bits" in out


def test_capacity_system_file(capsys, sbin_file):
    code, out, _ = run(capsys, ["capacity", "--system", sbin_file])
    assert code == EXIT_OK
    assert "capacity    0.693147180560 nats" in out


def test_capacity_jk11_zero(capsys):
    code, out, _ = run(capsys, ["capacity", "--jk", "1", "1"])
    assert code == EXIT_OK
    assert "capacity    0.000000000000 nats" in out


def test_capacity_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.cs"
    bad.write_text("sym a=1;\nexpr: b*\n")
    code, _, err = run(capsys, ["capacity", "--system", str(bad)])
    assert code == EXIT_ERROR
    assert "undeclared" in err


def test_spectrum_writes_file_and_estimates(capsys, sbin_file, tmp_path):
    out_path = tmp_path / "spec.txt"
    code, out, _ = run(
        capsys,
        ["spectrum", "--system", sbin_file, "--max-weight", "12",
         "--output", str(out_path)],
    )
    assert code == EXIT_OK
    assert "c0_estimate           0.693147 nats" in out
    assert "density_check" in out and "satisfied" in out
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].split() == ["1", "2", "2"]
    assert rows[-1].split() == ["12", "4096", "8190"]


def test_spectrum_budget_exit_code(capsys, sbin_file):
    code, out, _ = run(
        capsys,
        ["spectrum", "--system", sbin_file, "--max-weight", "30",
         "--max-strings", "1000"],
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in out


def test_crosscheck_ambiguous_flagged(capsys, tmp_path):
    amb = tmp_path / "amb.cs"
    amb.write_text("sym a=1;\nexpr: (a|a)*\n")
    code, out, _ = run(
        capsys,
        ["crosscheck", "--system", str(amb), "--s", "1.0", "--max-weight", "12"],
    )
    assert code == EXIT_INVALID
    assert "ambiguous    yes" in out


def test_crosscheck_clean_system(capsys, sbin_file):
    code, out, _ = run(
        capsys,
        ["crosscheck", "--system", sbin_file, "--s", "1.0", "--max-weight", "12"],
    )
    assert code == EXIT_OK
    assert "ambiguous    no" in out


def test_maxent_pitfall_rate(capsys, tmp_path):
    sup = tmp_path / "pitfall.sup"
    sup.write_text("0 1\n1 1\n01 2\n")
    code, out, _ = run(capsys, ["maxent", "--support", str(sup)])
    assert code == EXIT_OK
    rate = float(next(l.split()[1] for l in out.splitlines() if l.startswith("rate")))
    assert rate == pytest.approx(0.881373587, abs=1e-9)
    assert "01 2 0.171572875254" in out


def test_validate_pitfall_invalid(capsys, sbin_file, tmp_path):
    pmf = tmp_path / "pitfall.pmf"
    pmf.write_text(PITFALL_PMF)
    code, out, _ = run(
        capsys,
        ["validate", "--system", sbin_file, "--support", str(pmf), "--depth", "2"],
    )
    assert code == EXIT_INVALID
    assert "verdict INVALID" in out
    assert "witness 01" in out


def test_validate_fixed_pmf_valid(capsys, sbin_file, tmp_path):
    pmf = tmp_path / "fixed.pmf"
    pmf.write_text("0 1 0.5\n1 1 0.5\n01 2 0\n")
    code, out, _ = run(
        capsys,
        ["validate", "--system", sbin_file, "--support", str(pmf), "--depth", "4"],
    )
    assert code == EXIT_OK
    assert "verdict VALID" in out


@pytest.mark.parametrize("depth", ["2", "3"])
def test_validate_pitfall_output(capsys, sbin_file, tmp_path, depth):
    sup = tmp_path / "pitfall.sup"
    sup.write_text("0 1\n1 1\n01 2\n")
    argv = ["validate", "--system", sbin_file, "--support", str(sup), "--depth", depth]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_INVALID
    assert out == (
        f"verdict INVALID depth={depth}\n"
        "witness 01\n"
        "reason  string '01' appears in supports 1 and 2\n"
    )


@pytest.mark.parametrize(
    "depth,code,out",
    [
        ("1", EXIT_OK, "verdict VALID depth=1\n"),
        (
            "2",
            EXIT_INVALID,
            "verdict INVALID depth=2\n"
            "witness aba\n"
            "reason  string 'aba' appears twice in support 2, as a·ba and ab·a\n",
        ),
    ],
)
def test_validate_collision_within_one_depth(capsys, tmp_path, depth, code, out):
    # D5: a·ba = ab·a
    system = tmp_path / "ab.cs"
    system.write_text("sym a=1 b=1;\nexpr: (a|b)*\n")
    sup = tmp_path / "d5.sup"
    sup.write_text("a 1\nab 2\nba 2\n")
    argv = ["validate", "--system", str(system), "--support", str(sup), "--depth", depth]
    assert run(capsys, argv)[:2] == (code, out)


def test_validate_has_no_tuple_budget(capsys, sbin_file, tmp_path):
    sup = tmp_path / "pitfall.sup"
    sup.write_text("0 1\n1 1\n01 2\n")
    argv = ["validate", "--system", sbin_file, "--support", str(sup), "--max-tuples", "50"]
    code, _, err = run(capsys, argv)
    assert code == EXIT_ERROR
    assert "unrecognized arguments: --max-tuples" in err


def test_validate_empty_support_is_error(capsys, sbin_file, tmp_path):
    empty = tmp_path / "empty.sup"
    empty.write_text("\n")
    code, _, err = run(
        capsys,
        ["validate", "--system", sbin_file, "--support", str(empty)],
    )
    assert code == EXIT_ERROR
    assert "nonempty" in err


def test_validate_counts_a_block_whose_maxentropic_prob_underflows(capsys, tmp_path):
    # p(ab) = exp(-1000 R) is 0.0 in floats, yet ab is listed: a·b = ab
    system = tmp_path / "abc.cs"
    system.write_text("sym a=1 b=1 c=1;\nexpr: (a|b|c)*\n")
    sup = tmp_path / "heavy.sup"
    sup.write_text("a 1\nb 1\nc 1\nab 1000\n")
    argv = ["validate", "--system", str(system), "--support", str(sup), "--depth", "2"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_INVALID
    assert "witness ab\n" in out


def test_validate_needs_no_rate(capsys, tmp_path):
    # no float bracket holds the root of 2 exp(-1e-30 s) = 1
    system = tmp_path / "ab.cs"
    system.write_text("sym a=1 b=1;\nexpr: (a|b)*\n")
    sup = tmp_path / "light.sup"
    sup.write_text("a 1e-30\nb 1e-30\n")
    argv = ["validate", "--system", str(system), "--support", str(sup), "--depth", "3"]
    assert run(capsys, argv)[:2] == (EXIT_OK, "verdict VALID depth=3\n")


@pytest.mark.parametrize("text, code", [
    ("a 1\nb 1\n", EXIT_OK),
    ("a 1\nab 2\nba 2\n", EXIT_INVALID),  # D5: a·ba = ab·a
], ids=["valid", "d5"])
def test_validate_runs_no_root_search(capsys, tmp_path, monkeypatch, text, code):
    # without probabilities the verdict reads only the listed blocks
    def no_root_search(*args, **kwargs):
        raise AssertionError("root search in validate")

    monkeypatch.setattr(maxent, "solve_rate", no_root_search)
    system = tmp_path / "ab.cs"
    system.write_text("sym a=1 b=1;\nexpr: (a|b)*\n")
    sup = tmp_path / "blocks.sup"
    sup.write_text(text)
    argv = ["validate", "--system", str(system), "--support", str(sup), "--depth", "3"]
    assert run(capsys, argv)[0] == code


def test_simulate_jk_process(capsys):
    code, out, _ = run(
        capsys, ["simulate", "--jk", "2", "2", "--blocks", "20000", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert "accepted         yes" in out
    rate = float(next(l.split()[1] for l in out.splitlines()
                      if l.startswith("empirical_rate")))
    assert rate == pytest.approx(0.4812, abs=0.02)


def test_simulate_reproducible(capsys, tmp_path):
    argv = ["simulate", "--jk", "1", "2", "--blocks", "500", "--seed", "9",
            "--output", str(tmp_path / "x.txt")]
    code, out1, _ = run(capsys, argv)
    text1 = (tmp_path / "x.txt").read_text()
    code, out2, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out1 == out2
    assert (tmp_path / "x.txt").read_text() == text1


@pytest.mark.parametrize("text", ["a 1\n", "a 1 1\nb 1 0\n"])
def test_simulate_one_point_process_prints_positive_zero_rates(capsys, tmp_path, text):
    path = tmp_path / "one.sup"
    path.write_text(text)
    code, out, _ = run(capsys, ["simulate", "--support", str(path), "--blocks", "10"])
    assert code == EXIT_OK
    assert out.splitlines()[1:3] == [
        "exact_rate       0.000000000 nats",
        "empirical_rate   0.000000000 nats",
    ]


def test_jk_table_symmetric_row(capsys):
    code, out, _ = run(capsys, ["jk-table", "--jmax", "3", "--kmax", "3"])
    assert code == EXIT_OK
    rows = [l.split() for l in out.splitlines()[1:]]
    grid = [[float(v) for v in row[1:]] for row in rows]
    assert grid[0][0] == pytest.approx(0.0, abs=1e-9)
    for a in range(3):
        for b in range(3):
            assert grid[a][b] == pytest.approx(grid[b][a], abs=1e-9)
            assert grid[a][b] <= math.log(2) + 1e-9


def test_jk_table_bounds_capped(capsys):
    code, out, err = run(capsys, ["jk-table", "--jmax", "65"])
    assert code == EXIT_ERROR
    assert (out, err) == ("", "error: table bounds must be <= 64\n")


def test_simulate_without_support_is_error(capsys):
    code, out, err = run(capsys, ["simulate", "--blocks", "2"])
    assert code == EXIT_ERROR
    assert (out, err) == ("", "error: --support is required unless --jk is given\n")


@pytest.mark.parametrize("argv", [
    ["capacity", "--jk", "2", "2", "--tol", "0"],
    ["jk-table", "--tol", "0"],
    ["capacity", "--jk", "0", "3"],
    # nan passes a `<= 0` guard: it must not give a capacity, rate or spectrum
    ["capacity", "--jk", "2", "2", "--tol", "nan"],
    ["maxent", "--support", "PITFALL", "--tol", "nan"],
    ["jk-table", "--tol", "nan"],
    ["spectrum", "--jk", "2", "2", "--max-weight", "nan"],
    ["spectrum", "--jk", "2", "2", "--max-weight", "4", "--density-l", "nan"],
    # a budget of no strings is a bad argument, not an exceeded budget (exit 3)
    ["spectrum", "--jk", "2", "2", "--max-weight", "4", "--max-strings", "0"],
    ["spectrum", "--jk", "2", "2", "--max-weight", "4", "--max-strings", "-1"],
])
def test_bad_numeric_arguments_are_errors(capsys, tmp_path, argv):
    sup = tmp_path / "pitfall.sup"
    sup.write_text("0 1\n1 1\n01 2\n")
    code, out, err = run(capsys, [str(sup) if a == "PITFALL" else a for a in argv])
    assert code == EXIT_ERROR
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv, message", [
    (["jk-table", "--tol", "0"], "tol must be positive"),
    (["jk-table", "--tol", "nan"], "tol must be positive"),
    (["spectrum", "--jk", "2", "2", "--max-weight", "3", "--density-l", "-1"],
     "L and K must be nonnegative"),
    (["spectrum", "--jk", "2", "2", "--max-weight", "3", "--density-k", "nan"],
     "L and K must be nonnegative"),
    (["spectrum", "--jk", "2", "2", "--max-weight", "4", "--max-strings", "0"],
     "max_strings must be positive"),
    (["crosscheck", "--jk", "2", "2", "--s", "1", "--max-weight", "4", "--max-strings", "0"],
     "max_strings must be positive"),
    # an empty table used to print its header row and exit 0
    (["jk-table", "--jmax", "0"], "table bounds must be >= 1"),
    (["jk-table", "--kmax", "0"], "table bounds must be >= 1"),
    # numpy's own message named no argument
    (["simulate", "--jk", "2", "2", "--blocks", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_argument_errors_print_nothing_to_stdout(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


def test_density_error_writes_no_output_file(capsys, tmp_path):
    path = tmp_path / "spec.txt"
    argv = ["spectrum", "--jk", "2", "2", "--max-weight", "3", "--density-l", "-1"]
    code, out, _ = run(capsys, argv + ["--output", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert not path.exists()


def test_capacity_of_an_ambiguous_regex(capsys, tmp_path):
    # D1: the language of (a|a)* is a*, capacity 0, not the ln 2 of its
    # derivations; test_genfun.py covers the other rows of the table
    path = tmp_path / "twice.cs"
    path.write_text("sym a=1;\nexpr: (a|a)*\n")
    code, out, _ = run(capsys, ["capacity", "--system", str(path)])
    assert code == EXIT_OK
    q = float(next(l.split()[1] for l in out.splitlines() if l.startswith("capacity")))
    assert q == pytest.approx(0.0, abs=1e-9)


def test_crosscheck_ambiguous_just_above_regex_abscissa(capsys, tmp_path):
    # the series of (a|a)* converges only above ln 2, far above the
    # language's capacity 0; the tail bound must probe that series where it
    # converges, or no probe does and the verdict is lost
    path = tmp_path / "twice.cs"
    path.write_text("sym a=1;\nexpr: (a|a)*\n")
    code, out, _ = run(
        capsys, ["crosscheck", "--system", str(path), "--s", "0.71", "--max-weight", "1000"]
    )
    assert code == EXIT_INVALID
    assert "ambiguous    yes" in out
    tail = float(next(l.split()[1] for l in out.splitlines() if l.startswith("tail_bound")))
    assert tail < 1.0


def test_crosscheck_long_horizon(capsys, sbin_file):
    # D4: counts up to 2**1100 are beyond the float range; their terms are not
    code, out, _ = run(
        capsys,
        ["crosscheck", "--system", sbin_file, "--s", "1.0", "--max-weight", "1100",
         "--max-strings", str(2**1101)],
    )
    assert code == EXIT_OK
    assert "ambiguous    no" in out
    partial = float(next(l.split()[1] for l in out.splitlines() if l.startswith("partial_sum")))
    assert partial == pytest.approx(1.0 / (1.0 - 2.0 / math.e), abs=1e-9)


def test_crosscheck_divergent_regex_series_is_ambiguous(capsys, tmp_path):
    # (a|a|c)* diverges at s=1 (3/e > 1), though its language (a|c)* does
    # not (capacity ln 2): more derivations than strings proves ambiguity.
    # The heavy b underflows to 0.0, which must not turn inf into nan
    path = tmp_path / "heavy.cs"
    path.write_text("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b\n")
    code, out, err = run(
        capsys,
        ["crosscheck", "--system", str(path), "--s", "1.0", "--max-weight", "12"],
    )
    assert code == EXIT_INVALID
    assert out.splitlines() == [
        "partial_sum  0.000000000",
        "gf_value     inf",
        "difference   inf",
        "tail_bound   inf",
        "ambiguous    yes",
    ]
    assert err == ""


def test_crosscheck_tail_bound_with_underflowed_series(capsys, tmp_path):
    # above ln 2 the series of (a|c)* b is exp(-100000 s) / (1 - 2 exp(-s)),
    # which underflows to 0.0: the tail bound's search must not take its log
    path = tmp_path / "heavy.cs"
    path.write_text("sym a=1 c=1 b=100000;\nexpr: (a|c)* b\n")
    code, out, err = run(
        capsys,
        ["crosscheck", "--system", str(path), "--s", "1.0", "--max-weight", "10"],
    )
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "ambiguous    no"
    assert err == ""


def test_unreachable_tol_reports_tightest_bracket(capsys):
    code, out, err = run(capsys, ["capacity", "--jk", "2", "2", "--tol", "1e-300"])
    assert code == EXIT_ERROR
    assert out == ""
    assert err == (
        "error: bisection did not reach tolerance "
        "(bracket [0.4812118250596034, 0.48121182505960347])\n"
    )


def test_bad_command_line_exits_1_and_help_0(capsys):
    # argparse's own code 2 would read as an INVALID verdict
    code, out, err = run(capsys, ["capacity"])
    assert code == EXIT_ERROR
    assert "one of the arguments --system --jk is required" in err
    for argv in (["--help"], ["capacity", "--help"]):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out.startswith("usage: concap")


def test_crosscheck_ambiguous_verdict_ignores_coarse_tol(capsys, tmp_path):
    # at --tol 0.5 the bracket is [0.5, 1.0]; s=0.9 is still above the
    # capacity ln 2, so the divergent regex series still proves ambiguity
    path = tmp_path / "heavy.cs"
    path.write_text("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b\n")
    argv = ["crosscheck", "--system", str(path), "--s", "0.9", "--tol", "0.5", "--max-weight", "12"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_INVALID
    assert out.splitlines()[-1] == "ambiguous    yes"


def test_crosscheck_above_capacity_ignores_coarse_tol(capsys, sbin_file):
    # at --tol 0.5 the capacity's midpoint is 0.75 > 0.7, but 0.7 > ln 2
    argv = ["crosscheck", "--system", sbin_file, "--s", "0.7", "--tol", "0.5", "--max-weight", "12"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "ambiguous    no"


@pytest.mark.parametrize("text, code", [
    ("sym a=1 b=1 c=1;\nexpr: (a | b c)*\n", EXIT_OK),  # a prefix code: unambiguous
    ("sym a=1;\nexpr: (a|a)*\n", EXIT_INVALID),
])
def test_crosscheck_runs_no_root_search(capsys, tmp_path, monkeypatch, text, code):
    # convergence at --s is one pivot test and the tail bound one convex search
    def no_root_search(*args, **kwargs):
        raise AssertionError("root search on crosscheck's normal path")

    for name in ("bisect_root", "abscissa"):
        monkeypatch.setattr(genfun, name, no_root_search)
    assert not {"bisect_root", "abscissa"} & vars(spectrum).keys()
    path = tmp_path / "code.cs"
    path.write_text(text)
    argv = ["crosscheck", "--system", str(path), "--s", "1.0", "--max-weight", "12"]
    got, out, _ = run(capsys, argv)
    assert got == code
    tail = float(next(l.split()[1] for l in out.splitlines() if l.startswith("tail_bound")))
    assert 0.0 < tail < math.inf


def test_crosscheck_at_s_inf_sees_the_empty_string_twice(capsys, tmp_path):
    # at s = inf only the weight-0 terms remain, and the tail bound is 0:
    # the regex derives the empty string twice, the language has it once
    path = tmp_path / "eps2.cs"
    path.write_text("sym a=1;\nexpr: eps | eps | a a*\n")
    argv = ["crosscheck", "--system", str(path), "--s", "inf", "--max-weight", "4"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_INVALID
    assert "tail_bound   0\n" in out
    assert "ambiguous    yes\n" in out


def test_crosscheck_overflow_of_an_unambiguous_repetition_is_error(capsys, tmp_path):
    # (a|b){1,1100} derives each string once, but its value at s = 0.001
    # exceeds the float range: an overflow, not divergence
    path = tmp_path / "rep.cs"
    path.write_text("sym a=1 b=1;\nexpr: (a|b){1,1100}\n")
    argv = ["crosscheck", "--system", str(path), "--s", "0.001", "--max-weight", "8"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert "exceeds the float range" in err


@pytest.mark.parametrize("text", [
    "sym a=1 b=1 c=1;\nexpr: (a|b){1,1100} c*\n",
    "sym a=1 b=1 z=1000000;\nexpr: ((a|b){1,1100} z)*\n",
])
def test_crosscheck_overflow_of_a_starred_regex_is_error(capsys, tmp_path, text):
    path = tmp_path / "rep.cs"
    path.write_text(text)
    argv = ["crosscheck", "--system", str(path), "--s", "0.001", "--max-weight", "8"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_ERROR, "", "error: the series at s=0.001 exceeds the float range\n")


def test_crosscheck_starred_repetition_in_float_range(capsys, tmp_path):
    path = tmp_path / "rep.cs"
    path.write_text("sym a=1 b=1 c=1;\nexpr: (a|b){1,1100} c*\n")
    code, out, _ = run(capsys, ["crosscheck", "--system", str(path), "--s", "2", "--max-weight", "8"])
    assert code == EXIT_OK
    assert out == (
        "partial_sum  0.429188377\ngf_value     0.429209725\ndifference   2.13e-05\n"
        "tail_bound   0.00104\nambiguous    no\n"
    )


@pytest.mark.parametrize("argv", [
    ["spectrum", "--jk", "2", "2", "--max-weight", "4", "--tol", "1e-3"],
    ["crosscheck", "--jk", "2", "2", "--s", "1", "--max-weight", "4", "--units", "bits"],
])
def test_options_no_subcommand_reads_are_gone(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == EXIT_ERROR
    assert "unrecognized arguments" in err


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_importing_the_cli_leaves_numpy_unloaded():
    # only sampling needs numpy; every other subcommand starts without it
    code = "import sys, concap.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_crosscheck_at_or_below_capacity_is_error(capsys, tmp_path):
    path = tmp_path / "heavy.cs"
    path.write_text("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b\n")
    for s in ("0.5", str(math.log(2) - 1e-9), "-1000.0"):  # exp(1000) overflows
        code, out, err = run(
            capsys,
            ["crosscheck", "--system", str(path), "--s", s, "--max-weight", "12"],
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith(f"error: s={s} is inside the divergence region (Q=0.693147)")


def test_maxent_solves_rate_once(capsys, tmp_path, monkeypatch):
    from concap import maxent

    calls = []
    solve = maxent.solve_rate

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(maxent, "solve_rate", counting)
    sup = tmp_path / "pitfall.sup"
    sup.write_text("0 1\n1 1\n01 2\n")
    code, _, _ = run(capsys, ["maxent", "--support", str(sup)])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_capacity_label_clash_has_location(capsys, tmp_path):
    path = tmp_path / "clash.cs"
    path.write_text("sym a=1 ab=5 b=1;\nexpr: (a b)*\n")
    code, _, err = run(capsys, ["capacity", "--system", str(path)])
    assert code == EXIT_ERROR
    assert "prefix" in err and "(line 1, column 9)" in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_block_that_is_no_label_sequence_is_error(capsys, tmp_path, command):
    # labels {ab, c}: the blocks a and b concatenate to the label ab, but
    # neither is a label sequence on its own
    system = tmp_path / "ab.cs"
    system.write_text("sym ab=1 c=1;\nexpr: (ab|c)*\n")
    support = tmp_path / "split.sup"
    support.write_text("a 1 0.5\nb 1 0.5\n")
    argv = [command, "--system", str(system), "--support", str(support)]
    code, out, err = run(capsys, argv + (["--blocks", "2"] if command == "simulate" else []))
    assert code == EXIT_ERROR
    assert "no label starts at position 0 (character 'a')" in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("system, support, char", [
    # every positive block is read as labels before any search, so the
    # block with no label sequence is an error whichever block sorts first:
    # a rejected one (a, cc) or an accepted one (b)
    ("sym a=1 b=1;\nexpr: b*\n", "a 1\nzz 1\n", "z"),
    ("sym a=1 b=1;\nexpr: b*\n", "b 1\nzz 1\n", "z"),
    ("sym ab=1 c=1;\nexpr: (ab|c) (ab)*\n", "x 1 0.5\ncc 2 0.5\n", "x"),
], ids=["a-zz", "b-zz", "x-cc"])
def test_block_that_is_no_label_sequence_is_error_whichever_sorts_first(
    capsys, tmp_path, command, system, support, char
):
    (tmp_path / "sys.cs").write_text(system)
    (tmp_path / "blocks.sup").write_text(support)
    argv = [command, "--system", str(tmp_path / "sys.cs"), "--support", str(tmp_path / "blocks.sup")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: no label starts at position 0 (character {char!r})\n"


@pytest.mark.parametrize("command, system, support, message", [
    # with a positive weight on ab the verdict is INVALID (a·b = ab): nan must not drop it
    ("validate", "sym a=1 b=1;\nexpr: (a|b)*\n", "a 1 0.5\nab 2 nan\nb 1 0.5\n",
     "probability of 'ab' must lie in [0, 1], got nan"),
    ("simulate", None, "a 1\nb 2\nc inf\n", "weight of 'c' must be finite and positive, got inf"),
    ("maxent", None, "a 1\nb nan\n", "weight of 'b' must be finite and positive, got nan"),
    # a field that is no number names its line and field, like the file's other errors
    ("maxent", None, "a 1\nb x\n", "line 2: weight 'x' is not a number"),
    ("maxent", None, "a 1 0.5\nb 1 half\n", "line 2: probability 'half' is not a number"),
])
def test_support_value_that_is_not_finite_is_an_error(capsys, tmp_path, command, system, support, message):
    path = tmp_path / "bad.sup"
    path.write_text(support)
    argv = [command, "--support", str(path)]
    if system is not None:
        (tmp_path / "ab.cs").write_text(system)
        argv += ["--system", str(tmp_path / "ab.cs"), "--depth", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize("weight", ["inf", "1e999"])
def test_symbol_weight_of_inf_is_an_error_with_location(capsys, tmp_path, weight):
    path = tmp_path / "inflabel.cs"
    path.write_text(f"sym a=1 b={weight};\nexpr: (a|b)*\n")
    for argv in (["capacity"], ["spectrum", "--max-weight", "inf"]):
        code, out, err = run(capsys, argv + ["--system", str(path)])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: weight of 'b' must be finite and positive, got inf (line 1, column 11)\n"


def test_density_bound_beyond_the_float_range_is_satisfied(capsys):
    argv = ["spectrum", "--jk", "2", "2", "--max-weight", "10", "--density-k", "400"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "density_check         L=1 K=400: satisfied"


def _concatenation(n):
    # two labels: label checks and determinizing cost O(labels^2), not O(n^2)
    return "sym a=1 b=1;\nexpr: " + " ".join(["a", "b"] * (n // 2)) + "\n"


def _long_regex(capsys, tmp_path, text, argv):
    path = tmp_path / "long.cs"
    path.write_text(text)
    return run(capsys, argv + ["--system", str(path)])


# a regex tree is as deep as the regex is long: every walk over it keeps its own stack


def test_long_concatenation_capacity(capsys, tmp_path):
    code, out, err = _long_regex(capsys, tmp_path, _concatenation(20_000), ["capacity"])
    assert (code, err) == (EXIT_OK, "")
    assert "capacity    0.000000000000 nats" in out
    assert out.endswith("note        finite language; capacity reported as 0\n")


def test_long_concatenation_spectrum(capsys, tmp_path):
    argv = ["spectrum", "--max-weight", "inf"]
    code, out, err = _long_regex(capsys, tmp_path, _concatenation(20_000), argv)
    assert (code, err) == (EXIT_OK, "")
    assert {"# exhausted 1", "20000 1 1"} <= set(out.splitlines())


def test_long_concatenation_crosscheck(capsys, tmp_path):
    # not exhausted at weight 3: the tail bound evaluates the regex's series
    argv = ["crosscheck", "--s", "0.001", "--max-weight", "3"]
    code, out, err = _long_regex(capsys, tmp_path, _concatenation(2_000), argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == [
        "partial_sum  0.000000000", "gf_value     0.135335283", "difference   0.135",
        "tail_bound   0.135", "ambiguous    no",
    ]


def test_jk_phrase_code_as_a_regex(capsys, tmp_path):
    # the 576 phrases 0^b 1^a of the (24,24) code, a union as deep as it is wide
    words = [" ".join("0" * b + "1" * a) for b in range(1, 25) for a in range(1, 25)]
    text = f"sym 0=1 1=1;\nexpr: ({' | '.join(words)})*\n"
    code, out, err = _long_regex(capsys, tmp_path, text, ["capacity"])
    assert (code, err) == (EXIT_OK, "")
    bracket = next(line for line in out.splitlines() if line.startswith("bracket"))
    lo, hi = map(float, bracket.split(None, 1)[1].strip("[]").split(","))
    assert lo <= genfun.capacity_jk(24, 24) <= hi


def test_parentheses_nested_too_deeply_is_one_error_line(capsys, tmp_path):
    # the parser alone still recurses, on parentheses; it names where it stopped
    text = "sym a=1;\nexpr: " + "(" * 300 + "a" + ")" * 300 + "\n"
    code, out, err = _long_regex(capsys, tmp_path, text, ["capacity"])
    assert (code, out) == (EXIT_ERROR, "")
    assert re.fullmatch(r"error: parentheses nested too deeply \(line 2, column \d+\)\n", err)
