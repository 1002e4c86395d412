"""concap benchmark.

    python3 perfbench/run.py --workload {capacity,spectrum,input-process}
                             --seed N --seconds S --trace {0,1}

Run from the root of a concap checkout; concap is imported from ./src.
One client runs a closed loop in this process: each job is one
``concap.cli.main(argv)`` call with stdout captured, and the next job
starts when the previous one has returned.  Every job's exit code and
printed numbers are checked against an oracle the benchmark computes
itself (``oracles.py``).

A run writes the workload's input files, runs one untimed warm-up round
(one pass over the job list), then repeats whole rounds until ``--seconds``
have passed.

Job times are reported at reference speed.  On a shared 2-core x86-64
Linux host, speed was measured to drift by up to 40% over minutes, CPU time
included.  So a fixed pure-Python reference loop runs between consecutive jobs,
outside their timing, and each job's time is scaled by REF_SECONDS over the
mean of the reference times just before and after it.  A job time in ms is
thus "ms on a host where the reference loop takes REF_SECONDS".  The raw
figures are printed too, marked raw.  setup_s is raw wall time: interpreter
start-up and imports do not track the reference loop.

--trace 0 reports the end-to-end metrics, runs the ROADMAP defect probes
D1-D5 once after the loop, and prints failed_frac over timed jobs and
probes together.  --trace 1 alternates plain and traced rounds and reports
per-layer self times and sizes, summed over one round, with the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 7
REF_SECONDS = 1e-3  # the time unit: one reference() call at reference speed

sys.path.insert(0, str(SRC))  # concap comes from this checkout
import oracles  # noqa: E402
import workloads  # noqa: E402

try:
    import tracing
    from concap import cli
except ImportError as exc:  # no concap sources here
    cli = tracing = None
    IMPORT_ERROR = exc
else:
    if not Path(cli.__file__).resolve().is_relative_to(SRC):  # an installed copy
        IMPORT_ERROR = ImportError(f"concap imported from {cli.__file__}")
        cli = tracing = None

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def reference() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed loop of dict updates, float and integer
    arithmetic: the interpreter work concap's layers are made of."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    table: dict[int, int] = {}
    x, n = 0.0, 1
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
        x += math.exp(-i * 1e-3)
        n = (n * 3 + i) % 1_000_003
    return time.perf_counter() - wall0, time.process_time() - cpu0


@dataclass(frozen=True)
class Result:
    job: str
    wall: float  # seconds
    cpu: float
    error: str | None  # None when exit code and output match the oracle
    ref_wall: float = REF_SECONDS  # reference() times around the job
    ref_cpu: float = REF_SECONDS

    @property
    def ref_speed_wall(self) -> float:
        return self.wall * REF_SECONDS / self.ref_wall

    @property
    def ref_speed_cpu(self) -> float:
        return self.cpu * REF_SECONDS / self.ref_cpu


def run_job(cli, job, tracer=None) -> Result:
    """One closed-loop request: time cli.main, then check its output."""
    out = io.StringIO()
    error = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                code = cli.main(list(job.argv))
            else:
                span = tracer.open(tracing.ROOT_SPAN)
                try:
                    code = cli.main(list(job.argv))
                finally:
                    tracer.close(span)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception as exc:  # the job fails; the run goes on
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.finish_job()
    if error is None and code != job.exit_code:
        error = f"exit code {code}, expected {job.exit_code}"
    if error is None:
        error = oracles.check_output(job.kind, job.expect, out.getvalue())
    return Result(job.id, wall, cpu, error)


def run_round(cli, jobs, tracer=None) -> list[Result]:
    """One pass over the jobs, with a reference() between consecutive jobs."""
    results = []
    before = reference()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        result = run_job(cli, job, tracer)
        after = reference()
        results.append(dataclasses.replace(
            result, ref_wall=(before[0] + after[0]) / 2, ref_cpu=(before[1] + after[1]) / 2))
        before = after
    return results


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import concap.cli, after
    one discarded start that may still compile bytecode."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import concap.cli"]
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def measure(cli, jobs, seconds: float) -> list[Result]:
    run_round(cli, jobs)  # warm-up: caches fill, bytecode specialises
    results: list[Result] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results += run_round(cli, jobs)
    return results


def end_to_end(results: list[Result], n_jobs: int, setup_s: float, raw: bool = False) -> dict[str, float]:
    """Latency percentiles over every timed job.  Throughput and CPU use each
    job's median over the rounds, so a burst of load from elsewhere on the
    machine during one round does not move them."""
    wall = (lambda r: r.wall) if raw else (lambda r: r.ref_speed_wall)
    cpu = (lambda r: r.cpu) if raw else (lambda r: r.ref_speed_cpu)
    deciles = statistics.quantiles(map(wall, results), n=10, method="inclusive")
    per_job = [results[i::n_jobs] for i in range(n_jobs)]
    return {
        "jobs_per_s": n_jobs / sum(statistics.median(map(wall, runs)) for runs in per_job),
        "job_ms_p50": 1e3 * deciles[4],
        "job_ms_p90": 1e3 * deciles[8],
        "cpu_ms_per_job": 1e3 * sum(statistics.median(map(cpu, runs)) for runs in per_job) / n_jobs,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(cli, jobs, seconds: float) -> tuple[list[Result], dict[str, tuple[float, str]]]:
    """Alternate plain and traced rounds.  Per-layer figures are per round;
    self times are scaled to reference speed like the end-to-end times."""
    run_round(cli, jobs)
    plain: list[Result] = []
    traced: list[Result] = []
    self_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain += run_round(cli, jobs)
        tracer = tracing.Tracer()
        misses = tracing.char_dfa_misses()
        tracer.install()
        try:
            results = run_round(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        traced += results
        tracer.counts["automata.char_dfa_misses"] += tracing.char_dfa_misses() - misses
        scale = sum(r.ref_speed_wall for r in results) / sum(r.wall for r in results)
        for name, seconds_ in tracer.self_times().items():
            self_s[name] += seconds_ * scale
        for name, n in tracer.counts.items():
            counts[name] += n
        rounds += 1
    traced_s = sum(r.ref_speed_wall for r in traced)
    metrics = {}
    for name, total in self_s.items():
        key = "cli.self_ms" if name == tracing.ROOT_SPAN else f"{name}_ms"
        metrics[key] = (1e3 * total / rounds, "ms")
    for name, total in counts.items():
        metrics[name] = (total / rounds, "count")
    metrics["trace.overhead_frac"] = (traced_s / sum(r.ref_speed_wall for r in plain) - 1.0, "frac")
    metrics["trace.coverage_frac"] = (sum(self_s.values()) / traced_s, "frac")
    return plain + traced, metrics


def report_failures(results: list[Result], probes: list[tuple[object, Result]]) -> None:
    failed = {}
    for r in results:
        if r.error is not None:
            failed.setdefault(r.job, r.error)
    for job, error in failed.items():
        print(f"FAIL {job}: {error}")
    for probe, r in probes:
        status = "ok" if r.error is None else f"FAIL: {r.error}"
        print(f"probe {probe.defect} {probe.id} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if cli is None:
        print(f"error: cannot import concap from {SRC} ({IMPORT_ERROR}); "
              "run from the root of a concap checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workloads.write_files(workload, workdir)
        n_jobs = len(workload.jobs)
        print(f"workload {workload.name} seed {args.seed}: {n_jobs} jobs per round, "
              "closed loop, 1 client")
        if args.trace:
            results, metrics = trace(cli, workload.jobs, args.seconds)
            probes = []
        else:
            setup_s = setup_seconds()
            results = measure(cli, workload.jobs, args.seconds)
            raw = end_to_end(results, n_jobs, setup_s, raw=True)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(results, n_jobs, setup_s).items()}
            probes = [(p, run_job(cli, p)) for p in workload.probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.error is not None for r in results)
    print(f"samples {len(results)} ({len(results) // n_jobs} rounds); reference loop median "
          f"{1e3 * statistics.median(r.ref_wall for r in results):.4g} ms, "
          f"nominal {1e3 * REF_SECONDS:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    if not args.trace:
        for name, value in raw.items():
            if name in ("setup_s", "peak_rss_mb"):
                continue
            print(f"{'raw.' + name:28s} {value:.6g} {END_TO_END_UNITS[name]}")
        probe_failed = sum(r.error is not None for _, r in probes)
        attempted = len(results) + len(probes)
        print(f"{'failed_frac':28s} {(failed + probe_failed) / attempted:.6g} frac "
              f"({failed} timed jobs and {probe_failed} defect probes of {attempted})")
    report_failures(results, probes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
