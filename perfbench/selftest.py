"""Tests of the benchmark itself (not of concap).

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's default test run: it checks the benchmark's
job lists, oracles, failure accounting and tracing (about 15 s).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
from pathlib import Path

import pytest

import run  # puts ./src on sys.path
import oracles
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(tmp_path: Path) -> str:
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_the_seed(name, workdir):
    first = workloads.build(name, 7, workdir)
    assert first == workloads.build(name, 7, workdir)
    assert first != workloads.build(name, 8, workdir)
    assert len({job.id for job in first.jobs}) == len(first.jobs)
    assert len({file for file, _ in first.files}) == len(first.files)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_oracles_against_brute_force():
    assert math.isclose(oracles.jk_capacity(2, 2), 0.4812118250596034, rel_tol=1e-12)
    assert oracles.jk_capacity(1, 1) == 0.0
    for j, k in ((1, 2), (2, 3), (3, 1)):
        counts = oracles.jk_counts(j, k, 12)
        for n in range(1, 13):
            strings = ("".join(bits) for bits in itertools.product("01", repeat=n))
            ok = sum(1 for s in strings if "1" * (j + 1) not in s and "0" * (k + 1) not in s)
            assert counts[n - 1] == ok
    # (a|b)* with weights 1 and sqrt 2, against explicit strings
    wa, wb = 1.0, math.sqrt(2)
    pairs = oracles.sequence_counts((wa, wb), 6.0)
    brute: dict[float, int] = {}
    for n in range(1, 7):
        for s in itertools.product("ab", repeat=n):
            w = s.count("a") * wa + s.count("b") * wb
            if w <= 6.0:
                key = round(w, 9)
                brute[key] = brute.get(key, 0) + 1
    assert [(round(w, 9), c) for w, c in pairs] == sorted(brute.items())


def _probe_free_jobs(workdir):
    wl = workloads.build("spectrum", 1, workdir)
    workloads.write_files(wl, workdir)
    return wl


def test_injected_wrong_output_or_exit_code_is_a_failure(workdir):
    wl = _probe_free_jobs(workdir)
    job = next(j for j in wl.jobs if j.kind == "crosscheck" and j.exit_code == 0)
    assert run.run_job(run.cli, job).error is None
    wrong_code = dataclasses.replace(job, exit_code=2)
    assert "exit code 0, expected 2" in run.run_job(run.cli, wrong_code).error
    gf_value = job.expect[1]
    wrong_value = dataclasses.replace(job, expect=(job.expect[0], gf_value * (1 + 1e-6), job.expect[2]))
    assert "gf_value" in run.run_job(run.cli, wrong_value).error
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.cli.main(list(job.argv))
    good = out.getvalue()
    assert oracles.check_output(job.kind, job.expect, good) is None
    bad = re.sub(r"ambiguous +no", "ambiguous    yes", good)
    assert oracles.check_output(job.kind, job.expect, bad) is not None
    assert oracles.check_output(job.kind, job.expect, "") is not None


def test_exception_is_a_failure_and_the_run_goes_on(workdir):
    class RaisingCli:
        @staticmethod
        def main(argv):
            raise RecursionError("maximum recursion depth exceeded")

    wl = _probe_free_jobs(workdir)
    results = run.run_round(RaisingCli, wl.jobs[:3])
    assert [r.error for r in results] == ["raised RecursionError: maximum recursion depth exceeded"] * 3
    missing = dataclasses.replace(wl.jobs[0], argv=("capacity", "--system", workdir + "/missing.cs"))
    assert "exit code 1" in run.run_job(run.cli, missing).error


def test_every_metric_is_printed_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run.main(["--workload", "spectrum", "--seed", "3", "--seconds", "0.01",
                             "--trace", str(trace)]) == 0
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])


def test_self_times_account_for_traced_job_time(workdir):
    """Per-layer self times sum to the traced job time within 5%; the rest
    is the runner's own redirect and bookkeeping around cli.main."""
    wl = workloads.build("input-process", 2, workdir)
    workloads.write_files(wl, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.run_round(run.cli, wl.jobs, tracer)
    finally:
        tracer.uninstall()
    assert all(r.error is None for r in results)
    self_times = tracer.self_times()
    assert min(self_times.values()) >= 0
    assert set(self_times) <= set(tracing.SPAN_NAMES)
    covered = sum(self_times.values()) / sum(r.wall for r in results)
    assert 0.95 <= covered <= 1.0
    assert tracer.counts["automata.matches_calls"] > 0
    assert tracer.counts["maxent.strings_validated"] > 0
    # nothing stays wrapped after a traced round
    assert all(not getattr(m, a).__qualname__.startswith("Tracer.") for m, a, _, _ in tracing.TARGETS)
