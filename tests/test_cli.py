import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from concap import automata, dsl, genfun, maxent, spectrum
from concap.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_INVALID, EXIT_OK, build_parser, main

SBIN = "sym 0=1 1=1;\nexpr: (0|1)*\n"
PITFALL_PMF = "0 1 0.4142135623731\n1 1 0.4142135623731\n01 2 0.1715728752538\n"
SPECTRUM = ["spectrum", "--jk", "2", "2", "--max-weight", "4"]
CROSSCHECK = ["crosscheck", "--jk", "2", "2", "--s", "1", "--max-weight", "4"]


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
    # every number is in the chosen unit: the nats bracket [0.48121182505929,
    # 0.4812118250602] and residual 9.09e-13, each divided by ln 2
    assert "bracket     [0.694241913630166, 0.694241913631478]\nresidual    1.31e-12\n" in out


def test_capacity_system_file(capsys, sbin_file):
    code, out, _ = run(capsys, ["capacity", "--system", sbin_file])
    assert code == EXIT_OK
    assert "capacity    0.693147180560 nats" in out


BOM = "\ufeff"  # a UTF-8 byte order mark, as some editors write at a file's start


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--system", "SYSTEM"],
        ["maxent", "--support", "SUPPORT"],
        ["validate", "--system", "SYSTEM", "--support", "SUPPORT", "--depth", "2"],
    ],
)
def test_a_leading_bom_is_no_part_of_a_file(capsys, tmp_path, argv):
    system, support = tmp_path / "sbin.cs", tmp_path / "pitfall.sup"
    argv = [{"SYSTEM": str(system), "SUPPORT": str(support)}.get(arg, arg) for arg in argv]
    outputs = []
    for bom in ("", BOM):  # the same paths, so the system's name is the same
        system.write_text(bom + SBIN, encoding="utf-8")
        support.write_text(bom + "0 1\n1 1\n01 2\n", encoding="utf-8")
        outputs.append(run(capsys, argv))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] in (EXIT_OK, EXIT_INVALID) and outputs[0][2] == ""
    assert BOM not in outputs[0][1]


def test_maxent_reads_the_first_block_after_a_bom(capsys, tmp_path):
    # a BOM read as text would make the first block '\ufeffa', printed with its BOM
    support = tmp_path / "ab.sup"
    support.write_text(BOM + "a 1\nb 2\n", encoding="utf-8")
    code, out, _ = run(capsys, ["maxent", "--support", str(support)])
    assert code == EXIT_OK
    assert [line.split()[:2] for line in out.splitlines()[2:]] == [["a", "1"], ["b", "2"]]


def test_capacity_jk11_zero(capsys):
    code, out, _ = run(capsys, ["capacity", "--jk", "1", "1"])
    assert code == EXIT_OK
    assert "capacity    0.000000000000 nats" in out


@pytest.mark.parametrize("expr", [None, "(a|a)*", "a* b*"])
@pytest.mark.parametrize("units", ["nats", "bits"])
def test_capacity_0_of_polynomial_growth_is_printed_with_no_search(capsys, tmp_path, expr, units):
    # (1,1), a* and a* b* grow polynomially: capacity 0 with a bracket of 0
    # and no pivot test, and no note, which is for finite languages
    if expr is None:
        argv = ["capacity", "--jk", "1", "1"]
    else:
        path = tmp_path / "poly.cs"
        path.write_text(f"sym a=1 b=2;\nexpr: {expr}\n")
        argv = ["capacity", "--system", str(path)]
    with mock.patch.object(genfun, "_least_pivot") as spy:
        code, out, err = run(capsys, argv + ["--units", units])
    assert (code, err, spy.call_count) == (EXIT_OK, "", 0)
    assert out.splitlines()[1:] == [
        f"capacity    0.000000000000 {units}",
        "bracket     [0, 0]",
        "residual    0",
        "iterations  0",
    ]


@pytest.mark.parametrize("j", range(1, 25))
def test_capacity_jk_prints_the_report_of_its_system_file(capsys, tmp_path, j):
    # the DFA path, which every --system file takes, is the reference: down
    # to tol 3e-14 the closed form gives its report byte for byte
    for k in range(1, 25):
        system = dsl.build_jk_system(j, k)
        path = tmp_path / f"{k}.cs"
        path.write_text(dsl.format_system(system))
        for tol in ([], ["--tol", "3e-14"], ["--tol", "1e-13"], ["--tol", "1e-9"], ["--tol", "1e-6"]):
            for units in ("nats", "bits"):
                options = [*tol, "--units", units]
                code, out, err = run(capsys, ["capacity", "--jk", str(j), str(k), *options])
                _, reference, _ = run(capsys, ["capacity", "--system", str(path), *options])
                assert (code, err) == (EXIT_OK, "")
                assert out == f"system      {system.name}\n" + reference.split("\n", 1)[1]


def test_capacity_jk_builds_no_regex_dfa_or_pivot_plan(capsys):
    with (
        mock.patch.object(dsl, "build_jk_system") as build,
        mock.patch.object(automata, "system_dfa") as dfa,
        mock.patch.object(genfun, "system_dfa") as dfa_in_genfun,
        mock.patch.object(genfun, "_least_pivot") as pivot,
    ):
        code, out, err = run(capsys, ["capacity", "--jk", "9", "15"])
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("system      S_(9,15)\ncapacity    0.69")
    assert build.call_count == dfa.call_count == dfa_in_genfun.call_count == pivot.call_count == 0


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-15"], ["--tol", "6e-17"], ["--tol", "1e-300"]])
def test_capacity_jk_report_is_symmetric_in_j_and_k(capsys, tol):
    # below the system line, and in an unreachable tol's error too
    for j in range(1, 25):
        for k in range(j, 25):
            code, out, err = run(capsys, ["capacity", "--jk", str(j), str(k), *tol])
            mirrored = run(capsys, ["capacity", "--jk", str(k), str(j), *tol])
            assert code in (EXIT_OK, EXIT_ERROR)
            assert mirrored[0] == code and mirrored[2] == err
            assert mirrored[1].split("\n", 1)[1:] == out.split("\n", 1)[1:]


@pytest.mark.parametrize(
    "j, k, capacity",
    [("1000000", "1000000", "0.693147180560"), ("99999999999999999999", "2", "0.609377863436")],
)
def test_capacity_jk_cost_does_not_grow_with_j_and_k(capsys, j, k, capacity):
    start = time.perf_counter()
    code, out, err = run(capsys, ["capacity", "--jk", j, k])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[:2] == [f"system      S_({j},{k})", f"capacity    {capacity} nats"]


@pytest.mark.parametrize(
    "argv, at",
    [
        (["capacity", "--system", "HUGE"], " (line 2, column 10)"),
        # crosscheck builds the (j,k) regex for its series
        (["crosscheck", "--jk", "99999999999999999999", "2", "--s", "1", "--max-weight", "5"], ""),
    ],
)
def test_repetition_bound_beyond_maxsize_is_an_error(capsys, tmp_path, argv, at):
    path = tmp_path / "huge.cs"
    path.write_text("sym a=1 b=1;\nexpr: (a{1,99999999999999999999} b)*\n")
    argv = [str(path) if arg == "HUGE" else arg for arg in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: repetition bound 99999999999999999999 exceeds {sys.maxsize}{at}\n"


@pytest.mark.parametrize("j, k", [("99999999999999999999", "2"), ("2", "99999999999999999999")])
def test_spectrum_jk_of_a_bound_beyond_maxsize_is_its_spectrum(capsys, j, k):
    # the (j,k) recurrence builds no regex: a run bound past any string
    # length is no bound, and the rows are those of (inf, 2)
    code, out, err = run(capsys, ["spectrum", "--jk", j, k, "--max-weight", "5"])
    assert (code, err) == (EXIT_OK, "")
    assert "1 2 2\n2 4 6\n3 7 13\n4 13 26\n5 24 50\n" in out


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


@pytest.mark.parametrize("j", range(1, 13))
def test_spectrum_jk_prints_the_report_of_its_system_file(capsys, tmp_path, j):
    # the DFA path, which every --system file takes, is the reference
    for k in range(1, 13):
        path = tmp_path / f"{k}.cs"
        path.write_text(dsl.format_system(dsl.build_jk_system(j, k)))
        for units in ("nats", "bits"):
            for limits, codes in (
                (["--max-weight", "40"], (EXIT_OK, EXIT_BUDGET)),
                (["--max-weight", "inf", "--max-strings", "5000"], (EXIT_BUDGET,)),
            ):
                options = [*limits, "--units", units]
                report = run(capsys, ["spectrum", "--jk", str(j), str(k), *options])
                assert report == run(capsys, ["spectrum", "--system", str(path), *options])
                assert report[0] in codes and report[2] == ""


def test_crosscheck_jk_prints_the_report_of_its_system_file(capsys, tmp_path):
    path = tmp_path / "jk22.cs"
    path.write_text(dsl.format_system(dsl.build_jk_system(2, 2)))
    report = run(capsys, CROSSCHECK)
    assert report == run(capsys, ["crosscheck", "--system", str(path), *CROSSCHECK[4:]])
    assert report[0] == EXIT_OK and "ambiguous    no\n" in report[1]


def test_spectrum_jk_builds_no_regex_or_dfa(capsys):
    with (
        mock.patch.object(dsl, "build_jk_system") as build,
        mock.patch.object(automata, "system_dfa") as dfa,
        mock.patch.object(spectrum, "system_dfa") as dfa_in_spectrum,
        mock.patch.object(spectrum, "enumerate_spectrum") as search,
    ):
        code, out, err = run(capsys, SPECTRUM)
    assert (code, err) == (EXIT_OK, "")
    assert "1 2 2\n2 4 6\n3 6 12\n4 10 22\n" in out
    assert build.call_count == dfa.call_count == dfa_in_spectrum.call_count == search.call_count == 0


def test_spectrum_budget_exit_code(capsys, sbin_file):
    code, out, _ = run(
        capsys,
        ["spectrum", "--system", sbin_file, "--max-weight", "30",
         "--max-strings", "1000"],
    )
    assert code == EXIT_BUDGET
    assert "budget exceeded" in out


def test_rows_that_round_to_one_float_are_printed(capsys, tmp_path):
    # 0.2 * 6 and 0.2 + 0.3333333333333333 * 3 are two decimals, two rows, one printed weight
    path = tmp_path / "third.cs"
    path.write_text("sym a=0.3333333333333333 b=0.2;\nexpr: (a|b)*\n")
    code, out, err = run(capsys, ["spectrum", "--system", str(path), "--max-weight", "2"])
    assert (code, err) == (EXIT_OK, "")
    rows = out.splitlines()
    assert rows.index("1.2 1 36") == rows.index("1.2 4 35") + 1


def test_a_tiny_label_prints_rows_that_share_a_float(capsys, tmp_path):
    # the rows 1, 1 + 1e-17, ... print as 1, and growth_rate_estimate divides by their exact gap
    path = tmp_path / "light.cs"
    path.write_text("sym a=1 b=1e-17;\nexpr: a b*\n")
    argv = ["spectrum", "--system", str(path), "--max-weight", "2", "--max-strings", "4"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (EXIT_BUDGET, "")
    lines = out.splitlines()
    assert lines[4:8] == ["1 1 1", "1 1 2", "1 1 3", "1 1 4"]
    growth = next(line for line in lines if line.startswith("growth_rate_estimate"))
    assert math.isfinite(float(growth.split()[1]))


def test_crosscheck_of_a_tiny_label_stops_at_the_budget(capsys, tmp_path):
    # the budget is passed: at the default one the count runs to 10^7 rows first
    path = tmp_path / "light.cs"
    path.write_text("sym a=1 b=1e-17;\nexpr: a b*\n")
    argv = ["crosscheck", "--system", str(path), "--s", "60", "--max-weight", "2", "--max-strings", "4"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_BUDGET, "budget exceeded: spectrum truncated at weight 1\n", "")


def test_spectrum_rows_are_the_decimals_written(capsys, tmp_path):
    # 1 and 1.0000000001 are two rows, and the header has no weight epsilon
    path = tmp_path / "near.cs"
    path.write_text("sym a=1 b=1.0000000001;\nexpr: (a|b)*\n")
    code, out, err = run(capsys, ["spectrum", "--system", str(path), "--max-weight", "2"])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[:7] == [
        "# max_weight 2", "# complete 1", "# exhausted 0", "# includes_empty 1",
        "1 1 1", "1.0000000001 1 2", "2 1 3",
    ]


def test_spectrum_of_a_row_past_the_float_range_in_units(capsys, tmp_path):
    # b sets the unit to 1/2e323, so the row 1 is 2e323 units: no float holds it
    path = tmp_path / "tiny.cs"
    path.write_text("sym a=1 b=5e-324;\nexpr: a\n")
    code, out, err = run(capsys, ["spectrum", "--system", str(path), "--max-weight", "2"])
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[4:] == ["1 1 1", "density_check         L=1 K=2: satisfied"]


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


def test_maxent_of_weights_whose_terms_all_underflow_is_an_error(capsys, tmp_path):
    sup = tmp_path / "big.sup"
    sup.write_text("a 1e30\nb 1e30\n")
    for argv in (["maxent", "--support", str(sup)], ["simulate", "--support", str(sup), "--blocks", "10"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: every exp(-w*R) underflows to 0 at R=4.547473508864641e-13\n"


@pytest.mark.parametrize("command, option, text", [
    ("capacity", "--system", "sym a=1e-30 b=1e-30;\nexpr: (a|b)*\n"),
    ("maxent", "--support", "0 1e-30\n1 1e-30\n"),
])
def test_a_root_near_1e30_is_bracketed_to_the_float_spacing(capsys, tmp_path, command, option, text):
    # capacity scales as 1/weight: the root ln 2 * 1e30 lies past 2^99, where
    # floats are 2^47 apart, so the default tol is out of reach and 1e16 is not
    path = tmp_path / "tiny"
    path.write_text(text)
    code, out, err = run(capsys, [command, option, str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == (
        "error: bisection did not reach tolerance "
        "(bracket [6.931471805599452e+29, 6.931471805599453e+29])\n"
    )
    code, out, err = run(capsys, [command, option, str(path), "--tol", "1e16"])
    assert (code, err) == (EXIT_OK, "")
    if command == "capacity":
        assert "bracket     [6.93147180559944e+29, 6.93147180559953e+29]\n" in out
        lo, hi = (float(x) for x in re.search(r"bracket +\[(.*), (.*)\]", out).groups())
        assert lo <= math.log(2) * 1e30 <= hi
    else:
        assert out.endswith("0 1e-30 0.5\n1 1e-30 0.5\n")


def test_a_root_beyond_2_to_1023_has_no_point_above_it(capsys, tmp_path):
    path = tmp_path / "subnormal.cs"
    path.write_text("sym a=5e-324 b=5e-324;\nexpr: (a|b)*\n")
    code, out, err = run(capsys, ["capacity", "--system", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: no point above the root found (bracket [8.98846567431158e+307, inf])\n"


def test_out_of_memory_is_an_error_line(capsys, monkeypatch):
    # a MemoryError's message is empty; a long (j,k) chain under an
    # address-space cap raises one while the spectrum is built
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spectrum, "jk_spectrum", exhausted)
    code, out, err = run(capsys, SPECTRUM)
    assert (code, out, err) == (EXIT_ERROR, "", "error: out of memory\n")


def test_an_error_in_a_crlf_file_is_placed_on_its_line(capsys, tmp_path):
    # comments and CRLF line ends: the error's line and column are those of
    # the file's text, as its lines read in a text editor
    path = tmp_path / "crlf.cs"
    path.write_bytes(b"sym a=1; # one label\r\n# comment line\r\nexpr: (a a\r\n  | a b)*\r\n")
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
        code, out, err = run(capsys, ["capacity", "--system", str(path)])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: undeclared symbol 'b' (line 4, column 7)\n"


def _stdout_writes(monkeypatch):
    """The list that each later ``sys.stdout.write`` call appends its text to."""
    writes = []
    real_write = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
    return writes


def test_capacity_report_is_written_in_one_piece(capsys, tmp_path, monkeypatch):
    path = tmp_path / "finite.cs"
    path.write_text("sym a=1 b=2;\nexpr: a b a | b\n")
    writes = _stdout_writes(monkeypatch)
    code = main(["capacity", "--system", str(path)])
    assert code == EXIT_OK
    assert writes == [
        f"system      {path}\n"
        "capacity    0.000000000000 nats\n"
        "bracket     [0, 0]\n"
        "residual    0\n"
        "iterations  0\n"
        "note        finite language; capacity reported as 0\n"
    ]


@pytest.mark.parametrize("argv, expected", [
    (["capacity", "--jk", "2", "2"], EXIT_OK),
    (SPECTRUM, EXIT_OK),
    (SPECTRUM + ["--max-strings", "3"], EXIT_BUDGET),
    (SPECTRUM + ["--output", "SPEC"], EXIT_OK),
    (CROSSCHECK, EXIT_OK),
    (CROSSCHECK + ["--max-strings", "3"], EXIT_BUDGET),
    (["crosscheck", "--system", "AMB", "--s", "1", "--max-weight", "12"], EXIT_INVALID),
    (["maxent", "--support", "PITFALL"], EXIT_OK),
    (["validate", "--system", "SBIN", "--support", "PITFALL", "--depth", "2"], EXIT_INVALID),
    (["validate", "--system", "SBIN", "--support", "BITS"], EXIT_OK),
    (["simulate", "--jk", "2", "2", "--blocks", "50", "--output", "SIM"], EXIT_OK),
    (["simulate", "--jk", "1", "1", "--support", "PITFALL", "--blocks", "50"], EXIT_INVALID),
    (["jk-table", "--jmax", "3", "--kmax", "4"], EXIT_OK),
])
def test_every_report_is_written_in_one_piece(capsys, tmp_path, monkeypatch, argv, expected):
    # one write of the whole report, after the command has finished: the
    # same text as the report the command returned
    files = {
        "AMB": ("amb.cs", "sym a=1 b=1;\nexpr: (a|b)* (a|b)*\n"),
        "SBIN": ("sbin.cs", SBIN),
        "PITFALL": ("pitfall.sup", "0 1\n1 1\n01 2\n"),
        "BITS": ("bits.sup", "0 1\n1 1\n"),
        "SPEC": ("spec.txt", None),
        "SIM": ("sim.txt", None),
    }
    for name, text in files.values():
        if text is not None:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / files[a][0]) if a in files else a for a in argv]
    args = build_parser().parse_args(argv)
    returned = args.func(args)
    writes = _stdout_writes(monkeypatch)
    assert main(argv) == expected
    assert writes == [returned[1]] and returned[0] == expected
    assert writes[0].endswith("\n") and capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    # the report is complete when the file cannot be written: none of it is printed
    (["simulate", "--jk", "2", "2", "--blocks", "100", "--seed", "0", "--output", "MISSING/x.txt"],
     "[Errno 2] No such file or directory: 'MISSING/x.txt'"),
    (["spectrum", "--jk", "2", "2", "--max-weight", "6", "--output", "MISSING/s.txt"],
     "[Errno 2] No such file or directory: 'MISSING/s.txt'"),
    (["maxent", "--support", "DIR"], "[Errno 21] Is a directory: 'DIR'"),
    (["validate", "--jk", "2", "2", "--support", "DIR"], "[Errno 21] Is a directory: 'DIR'"),
    (["simulate", "--jk", "2", "2", "--support", "DIR"], "[Errno 21] Is a directory: 'DIR'"),
])
def test_a_late_error_leaves_stdout_empty(capsys, tmp_path, monkeypatch, argv, message):
    paths = {"MISSING": str(tmp_path / "missing"), "DIR": str(tmp_path)}
    argv = [re.sub("MISSING|DIR", lambda m: paths[m[0]], a) for a in argv]
    writes = _stdout_writes(monkeypatch)
    code, out, err = run(capsys, argv)
    assert (code, out, writes) == (EXIT_ERROR, "", [])
    assert err == "error: " + re.sub("MISSING|DIR", lambda m: paths[m[0]], message) + "\n"
    assert not (tmp_path / "missing").exists()


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
            assert grid[a][b] == grid[b][a]
            assert grid[a][b] <= math.log(2) + 1e-9


@pytest.mark.parametrize("jmax, kmax, solves", [(8, 8, 36), (3, 8, 21), (8, 3, 21), (1, 1, 1)])
def test_jk_table_solves_each_unordered_pair_once(capsys, jmax, kmax, solves):
    with mock.patch.object(genfun, "capacity_jk", wraps=genfun.capacity_jk) as spy:
        code, out, _ = run(capsys, ["jk-table", "--jmax", str(jmax), "--kmax", str(kmax)])
    assert code == EXIT_OK and len(out.splitlines()) == jmax + 1
    pairs = [tuple(call.args) for call in spy.call_args_list]
    assert len(pairs) == solves
    assert len(set(pairs)) == solves and all(j <= k for j, k in pairs)


@pytest.mark.parametrize("units", ["nats", "bits"])
def test_jk_table_is_each_cell_formatted_on_its_own(capsys, units):
    # the mirrored table against one unmirrored capacity_jk per cell
    code, out, _ = run(capsys, ["jk-table", "--jmax", "64", "--kmax", "64", "--units", units])
    assert code == EXIT_OK
    cells = [[genfun.capacity_jk(j, k) for k in range(1, 65)] for j in range(1, 65)]
    expected = ["j\\k " + " ".join(f"{k:>8d}" for k in range(1, 65))] + [
        f"{j:<4d}" + " ".join(f"{q / math.log(2) if units == 'bits' else q:8.5f}" for q in row)
        for j, row in enumerate(cells, start=1)
    ]
    assert out.splitlines() == expected



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
    ["jk-table", "--kmax", "65"],
    ["capacity", "--jk", "0", "3"],
    # nan passes a `<= 0` guard: it must not give a capacity, rate, spectrum or check
    ["capacity", "--jk", "2", "2", "--tol", "nan"],
    ["maxent", "--support", "PITFALL", "--tol", "nan"],
    ["crosscheck", "--jk", "2", "2", "--s", "nan", "--max-weight", "4"],
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
    (["jk-table", "--kmax", "65"], "table bounds must be <= 64"),
    (["jk-table", "--jmax", "0", "--kmax", "65"], "table bounds must be <= 64"),
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
    # nan has no place relative to the capacity: no divergence region is claimed
    (["crosscheck", "--jk", "2", "2", "--s", "nan", "--max-weight", "4"],
     "s must be a number, got nan"),
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


@pytest.mark.parametrize(
    "expr, ambiguous", [("a*", False), ("a* b*", False), ("(a b)*", False), ("(a|a)*", True)]
)
def test_crosscheck_of_polynomial_growth_just_above_zero(capsys, tmp_path, expr, ambiguous):
    # each language converges at every s > 0, but exp(-1e-300) is 1 in
    # floats, so every star of a reads divergent there, ambiguous or not:
    # that proves nothing and is refused; at 1e-15 the verdict is sound
    path = tmp_path / "poly.cs"
    path.write_text(f"sym a=1 b=2;\nexpr: {expr}\n")
    argv = ["crosscheck", "--system", str(path), "--max-weight", "12"]
    code, out, err = run(capsys, argv + ["--s", "1e-300"])
    message = "the series at s=1e-300 is beyond float precision: a term is 1"
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")
    code, out, err = run(capsys, argv + ["--s", "1e-15"])
    assert (code, err) == (EXIT_INVALID if ambiguous else EXIT_OK, "")
    assert out.splitlines()[-1] == f"ambiguous    {'yes' if ambiguous else 'no'}"
    code, out, err = run(capsys, argv + ["--s", "0"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: s=0.0 is inside the divergence region (Q=0.000000)\n"


def test_crosscheck_of_an_exhausted_language_certifies_at_a_term_of_1(capsys, tmp_path):
    # a finite language's regex diverges only on a star of the empty
    # string, which is real divergence even where exp(-w*s) is 1
    path = tmp_path / "epsstar.cs"
    path.write_text("sym a=1;\nexpr: a eps*\n")
    argv = ["crosscheck", "--system", str(path), "--max-weight", "3", "--s", "1e-300"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (EXIT_INVALID, "")
    assert out.splitlines()[1:] == [
        "gf_value     inf",
        "difference   inf",
        "tail_bound   inf",
        "ambiguous    yes",
    ]


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


def test_crosscheck_ambiguous_verdict_above_capacity(capsys, tmp_path):
    # s=0.9 is above the capacity ln 2, and the regex series diverges
    # there, which proves ambiguity
    path = tmp_path / "heavy.cs"
    path.write_text("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b\n")
    argv = ["crosscheck", "--system", str(path), "--s", "0.9", "--max-weight", "12"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_INVALID
    assert out.splitlines()[-1] == "ambiguous    yes"


def test_crosscheck_just_above_capacity(capsys, sbin_file):
    # 0.7 is above the capacity ln 2 = 0.693..., though not by much
    argv = ["crosscheck", "--system", sbin_file, "--s", "0.7", "--max-weight", "12"]
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
    # the capacity in crosscheck's error and jk-table's 5 decimals are exact at the default
    ["crosscheck", "--jk", "2", "2", "--s", "1", "--max-weight", "4", "--tol", "1e-6"],
    ["jk-table", "--tol", "0"],
    ["jk-table", "--tol", "nan"],
])
def test_options_no_subcommand_reads_are_gone(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert "unrecognized arguments" in err


def test_parser_built_once():
    assert build_parser() is build_parser()


# modules that only some commands run, and so only those commands load
DEFERRED_MODULES = ("numpy", "concap.maxent", "concap.spectrum", "decimal")


@pytest.mark.parametrize("module", DEFERRED_MODULES)
def test_importing_the_cli_leaves_unloaded(module):
    code = f"import sys, concap.cli; sys.exit({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    system, support = tmp_path / "sbin.cs", tmp_path / "pitfall.pmf"
    system.write_text(SBIN)
    support.write_text(PITFALL_PMF)
    commands = [
        ["capacity", "--jk", "2", "2"],
        ["jk-table", "--jmax", "2", "--kmax", "2"],
        ["spectrum", "--jk", "2", "2", "--max-weight", "4"],
        ["crosscheck", "--jk", "2", "2", "--s", "1", "--max-weight", "4"],
        ["maxent", "--support", str(support)],
        ["validate", "--system", str(system), "--support", str(support), "--depth", "2"],
        ["simulate", "--jk", "2", "2", "--blocks", "10"],
    ]
    # one process runs the commands in turn and, after each, prints its exit
    # code and which deferred modules are loaded by then
    code = (
        "import contextlib, io, json, sys\n"
        "from concap.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        exit_code = main(argv)\n"
        f"    print(exit_code, *(m for m in {DEFERRED_MODULES!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "0",  # capacity
        "0",  # jk-table
        "0 concap.spectrum decimal",  # spectrum
        "0 concap.spectrum decimal",  # crosscheck
        "0 concap.maxent concap.spectrum decimal",  # maxent
        "2 concap.maxent concap.spectrum decimal",  # validate: 0·1 = 01
        "0 numpy concap.maxent concap.spectrum decimal",  # simulate
    ]


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


def test_crosscheck_of_a_finite_language_at_or_below_zero(capsys, tmp_path):
    # a finite language converges at every s, so s <= 0 is no divergence
    path = tmp_path / "finite.cs"
    path.write_text("sym a=1 b=2;\nexpr: a b a | b\n")
    argv = ["crosscheck", "--system", str(path), "--max-weight", "5", "--s"]
    code, out, err = run(capsys, [*argv, "0"])
    assert (code, err) == (EXIT_OK, "")
    assert "partial_sum  2.000000000" in out and "ambiguous    no" in out
    code, out, err = run(capsys, [*argv, "-1000"])  # exp(1000) overflows
    assert (code, out, err) == (EXIT_ERROR, "", "error: the series at s=-1000.0 exceeds the float range\n")


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


def test_a_negative_weight_is_named_in_its_error(capsys, tmp_path):
    # the sign is part of the weight's token, not a token of its own
    path = tmp_path / "negative.cs"
    path.write_text("sym a=-1;\nexpr: a*\n")
    code, out, err = run(capsys, ["capacity", "--system", str(path)])
    message = "weight of 'a' must be finite and positive, got -1.0 (line 1, column 7)"
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


def test_parentheses_nested_deeply_give_a_result(capsys, tmp_path):
    text = "sym a=1;\nexpr: " + "(" * 10_000 + "a" + ")" * 10_000 + "\n"
    code, out, err = _long_regex(capsys, tmp_path, text, ["capacity"])
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("note        finite language; capacity reported as 0\n")


def test_duplicate_expr_clause_is_named(capsys, tmp_path):
    path = tmp_path / "dup.cs"
    path.write_text("sym a=1;\nexpr: a\nexpr: b\n")
    code, out, err = run(capsys, ["capacity", "--system", str(path)])
    assert (code, out, err) == (
        EXIT_ERROR, "", "error: duplicate 'expr:' clause (line 3, column 1)\n"
    )


# --- one parse per command line, with the same messages as the top-level parse ---


def reference_main(argv=None):
    """``main`` as it was when the top-level parser read every command line
    and handed the rest to the command's parser; the command's report is
    written as ``main`` writes it."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        code, report = args.func(args)
    except (ValueError, genfun.SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(report)
    return code


README = Path(__file__).resolve().parent.parent / "README.md"
README_FILES = {
    "sbin.cs": SBIN,
    "amb.cs": "sym a=1 b=1;\nexpr: (a|b)* (a|b)*\n",
    "phrases.sup": "01 2\n011 3\n001 3\n0011 4\n",
    "pitfall.pmf": PITFALL_PMF,
}


def readme_command_lines():
    """The command lines of the ``sh`` block of the README's CLI section,
    without ``concap``."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(line[0] == "concap" for line in lines)
    return [line[1:] for line in lines]


COMMANDS = ["capacity", "spectrum", "crosscheck", "maxent", "validate", "simulate", "jk-table"]
COMMAND_LINES = (
    [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--jk", "2", "2"], ["-x"]]
    + [[command, "--help"] for command in COMMANDS]
    + [["capacity", "--jk", "2", "2", "-h"], ["jk-table", "-h", "--tol", "1"]]
    # missing required options, a short --jk, bad types and choices
    + [["capacity"], ["spectrum", "--jk", "2", "2"], ["maxent"], ["validate", "--jk", "2", "2"]]
    + [["capacity", "--jk", "2"], ["capacity", "--jk", "2", "x"], ["jk-table", "--jmax", "two"]]
    + [["capacity", "--jk", "2", "2", "--units", "furlongs"]]
    + [["capacity", "--jk", "2", "2", "--system", "sbin.cs"]]
    # abbreviated options, and an option given twice
    + [["capacity", "--j", "2", "2"], ["maxent", "--supp", "phrases.sup"]]
    + [["capacity", "--jk", "2", "2", "--u", "bits"], ["capacity", "--jk", "1", "1", "--jk", "2", "2"]]
    # arguments left over, before or after the command
    + [["jk-table", "--tol", "1"], CROSSCHECK + ["--units", "bits"], ["capacity", "--jk", "2", "2", "pos"]]
    + [SPECTRUM + ["--tol", "1e-3"], ["jk-table", "--", "x"], ["--jk", "2", "2", "capacity"]]
    + [["capacity", "--jk", "2", "2", "--", "extra"], ["capacity", "capacity", "--jk", "2", "2"]]
    # errors after a clean parse, and the `--x=v` spelling
    + [["jk-table", "--kmax", "65"], CROSSCHECK[:5] + ["--s=nan", "--max-weight", "4"]]
)


def _run_in(capsys, directory, entry, argv):
    """(exit code, stdout, stderr, files written) of ``entry(argv)`` run in
    ``directory``, the README's input files in place."""
    for name, text in README_FILES.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = entry(argv)
    finally:
        os.chdir(cwd)
    out = capsys.readouterr()
    written = {p.name: p.read_text() for p in directory.iterdir() if p.name not in README_FILES}
    return code, out.out, out.err, written


def assert_main_answers_as_the_top_level_parse(capsys, tmp_path, argv):
    ours, theirs = tmp_path / "main", tmp_path / "reference"
    ours.mkdir()
    theirs.mkdir()
    assert _run_in(capsys, ours, main, list(argv)) == _run_in(capsys, theirs, reference_main, list(argv))


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda argv: " ".join(argv) or "nothing")
def test_main_answers_as_the_top_level_parse(capsys, tmp_path, argv):
    assert_main_answers_as_the_top_level_parse(capsys, tmp_path, argv)


README_LINES = 8  # read when the tests run, so a README edit fails them and nothing else


@pytest.mark.parametrize("index", range(README_LINES))
def test_a_readme_command_line_answers_as_the_top_level_parse(capsys, tmp_path, index):
    assert_main_answers_as_the_top_level_parse(capsys, tmp_path, readme_command_lines()[index])


def test_the_readme_command_lines_are_covered():
    lines = readme_command_lines()
    assert len(lines) == README_LINES and {line[0] for line in lines} == set(COMMANDS)


@pytest.mark.parametrize("argv", [["capacity", "--jk", "2", "2"], ["jk-table", "--tol", "1"], []])
def test_main_reads_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["concap", *argv])
    expected = (reference_main(None), *capsys.readouterr())
    assert run(capsys, None) == expected
    assert ("capacity    0.481211825060 nats" in expected[1]) == bool(argv[:1] == ["capacity"])


@pytest.mark.parametrize("argv, top_parses", [
    (["capacity", "--jk", "2", "2"], 0),
    (["capacity", "--jk", "2"], 0),  # the command's own error
    (["capacity", "--jk", "2", "2", "pos"], 1),  # reported by the top-level parser
])
def test_a_command_line_is_parsed_by_its_command(capsys, argv, top_parses):
    parser = build_parser()
    command = parser.commands["capacity"]
    with (
        mock.patch.object(parser, "parse_args", wraps=parser.parse_args) as top,
        mock.patch.object(command, "parse_known_args", wraps=command.parse_known_args) as sub,
    ):
        run(capsys, argv)
    assert (top.call_count, sub.call_count) == (top_parses, 1 + top_parses)
