"""Seeded job lists for the three workloads.

A job is one ``concap`` command line, its expected exit code, and an
expectation computed here by the oracles in ``oracles.py``.  The job list
of a workload is a pure function of (workload, seed, work directory).  The
seed picks pairings, orientations, weights and codes; the parameters that
set a job's cost (repetition bound, j+k, horizon, bucket target, support
size, validation depth) sit on fixed stratified grids, so every seed gives
the same amount of work.

Every round has 55 jobs.  With a count ending in 5, the median and the
90th percentile of the pooled job times fall halfway between two jobs'
blocks of samples rather than on the edge of one, and the families are
sized so both percentiles land among jobs whose cost the seed does not
change: (j,k) and repetition jobs for the median of `capacity`, spectra for
`spectrum`, maxent solves for `input-process`; the heaviest family for the
90th percentile.

Each workload also carries the ROADMAP defect probes D1-D5.  They run
once, untimed, after the measured loop, with the true answer as oracle.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import oracles

SQRT_PRIMES = tuple(math.sqrt(p) for p in (2, 3, 5, 7, 11, 13))
# argparse takes an int of any size; the spectra here stay far below it
NO_STRING_LIMIT = "1" + "0" * 400


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    exit_code: int
    kind: str  # key of oracles.CHECKS
    expect: tuple
    defect: str = ""  # ROADMAP defect id, for probes


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]  # one round of the measured loop
    probes: tuple[Job, ...]
    files: tuple[tuple[str, str], ...]  # (file name, text), written before timing


def grid(lo: float, hi: float, n: int) -> list[float]:
    """n stratum midpoints of [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def int_grid(lo: int, hi: int, n: int) -> list[int]:
    return [round(v) for v in grid(lo, hi, n)]


class _Builder:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.probes: list[Job] = []
        self.files: dict[str, str] = {}

    def file(self, name: str, text: str) -> str:
        self.files[name] = text
        return os.path.join(self.workdir, name)

    def add(self, family: str, argv, exit_code: int, kind: str, expect: tuple) -> None:
        job_id = f"{family}-{sum(j.id.startswith(family + '-') for j in self.jobs):03d}"
        self.jobs.append(Job(job_id, tuple(argv), exit_code, kind, expect))

    def probe(self, defect: str, argv, exit_code: int, kind: str, expect: tuple) -> None:
        job_id = f"probe-{defect}-{sum(p.defect == defect for p in self.probes)}"
        self.probes.append(Job(job_id, tuple(argv), exit_code, kind, expect, defect))

    def finish(self) -> Workload:
        self.rng.shuffle(self.jobs)
        return Workload(self.name, tuple(self.jobs), tuple(self.probes), tuple(self.files.items()))


# ---------------------------------------------------------------------------
# Shared pieces


def _code(rng: random.Random, m: int) -> list[str]:
    """m distinct prefix-free words of length 1-3 over {a, b, c}."""
    while True:
        words: list[str] = []
        for _ in range(100):
            w = "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
            if all(not (w.startswith(v) or v.startswith(w)) for v in words):
                words.append(w)
                if len(words) == m:
                    return words


def _rotated_pairs(rng: random.Random, values: list[int]) -> list[tuple[int, int]]:
    """Pair each value with the one a third of the list further on, so the
    multiset of pairs (and so the work) is the same for every seed; the seed
    only picks each pair's orientation."""
    shift = len(values) // 3
    pairs = zip(values, values[shift:] + values[:shift])
    return [(x, y) if rng.random() < 0.5 else (y, x) for x, y in pairs]


def _letters(rng: random.Random, n: int) -> dict[str, float]:
    """Letters a, b[, c] with weight 1 and square roots of distinct primes."""
    roots = rng.sample(SQRT_PRIMES, n - 1)
    return dict(zip("abc", [1.0, *roots]))


def _system_text(letters: dict[str, float], expr: str) -> str:
    decls = " ".join(f"{lab}={w!r}" for lab, w in letters.items())
    return f"sym {decls};\nexpr: {expr}\n"


def _code_expr(words: list[str]) -> str:
    return "(" + " | ".join(" ".join(w) for w in words) + ")*"


def _clear_horizon(word_weights, horizon: float) -> float:
    """Round the horizon to 4 decimals and raise it until no sequence weight
    lies within 1e-6 below it, so that float rounding cannot move a string
    across the cutoff."""
    horizon = round(horizon, 4)
    while horizon - oracles.sequence_counts(word_weights, horizon)[-1][0] < 1e-6:
        horizon = round(horizon + 1e-4, 4)
    return horizon


def _phrases(j: int, k: int) -> list[tuple[str, float]]:
    """(j,k) phrase support: 1..k zeros then 1..j ones, unit weights."""
    return [("0" * b + "1" * a, float(a + b)) for b in range(1, k + 1) for a in range(1, j + 1)]


def _support_text(items, probs=None) -> str:
    if probs is None:
        return "".join(f"{s} {w!r}\n" for s, w in items)
    return "".join(f"{s} {w!r} {p!r}\n" for (s, w), p in zip(items, probs))


def _maxent_probs(items) -> tuple[float, list[float]]:
    rate = oracles.code_capacity([w for _, w in items])
    x = math.exp(-rate)
    raw = [x**w for _, w in items]
    total = math.fsum(raw)
    return rate, [p / total for p in raw]


def _crosscheck_code(b: _Builder, family: str, words: list[str], letters: dict[str, float],
                     margin: float, horizon: float) -> None:
    ww = [sum(letters[c] for c in w) for w in words]
    q = oracles.code_capacity(ww)
    s = round(q + margin, 6)
    horizon = _clear_horizon(ww, horizon)
    path = b.file(f"{family}-{len(b.files):03d}.cs", _system_text(letters, _code_expr(words)))
    gf = 1.0 / (1.0 - math.fsum(math.exp(-s * w) for w in ww))
    partial = oracles.partial_sum(oracles.sequence_counts(ww, horizon), s, includes_empty=True)
    b.add(family, ["crosscheck", "--system", path, "--s", repr(s), "--max-weight", repr(horizon),
                   "--max-strings", NO_STRING_LIMIT], 0, "crosscheck", (False, gf, partial))


def _touch(b: _Builder) -> None:
    """One tiny job per layer, so every per-layer metric is measured on every
    workload; together well under 1% of a round's time."""
    b.add("touch", ["capacity", "--jk", "2", "3"], 0, "capacity", (oracles.jk_capacity(2, 3),))
    table = tuple(tuple(oracles.jk_capacity(j, k) for k in (1, 2)) for j in (1, 2))
    b.add("touch", ["jk-table", "--jmax", "2", "--kmax", "2"], 0, "jk_table", (table,))
    b.add("touch", ["spectrum", "--jk", "2", "2", "--max-weight", "12"], 0, "spectrum_jk", (2, 2, 12))
    _crosscheck_code(b, "touch", ["a", "ba", "bb"], {"a": 1.0, "b": math.sqrt(2)}, 0.5, 12.0)
    items = _phrases(2, 2)
    phrases = b.file("touch-phrases.sup", _support_text(items))
    rate, _ = _maxent_probs(items)
    b.add("touch", ["maxent", "--support", phrases], 0, "maxent", (rate, tuple(items)))
    b.add("touch", ["validate", "--jk", "2", "2", "--support", phrases, "--depth", "2"], 0,
          "validate", ("VALID", 2, ""))
    _simulate(b, "touch", 2, 2, 5000, 1)


def _simulate(b: _Builder, family: str, j: int, k: int, blocks: int, seed: int) -> None:
    items = _phrases(j, k)
    rate, probs = _maxent_probs(items)
    mean_weight = math.fsum(p * w for (_, w), p in zip(items, probs))
    b.add(family, ["simulate", "--jk", str(j), str(k), "--blocks", str(blocks), "--seed", str(seed)],
          0, "simulate", (blocks, rate, mean_weight))


# ---------------------------------------------------------------------------
# Workloads


def capacity(seed: int, workdir: str) -> Workload:
    """`concap capacity` on (j,k) presets, (a{1,n} b)* repetitions and
    small prefix-code systems with incommensurable weights, plus one
    8x8 jk-table."""
    b = _Builder("capacity", seed, workdir)
    rng = b.rng
    for j, k in _rotated_pairs(rng, int_grid(2, 20, 24)):
        b.add("jk", ["capacity", "--jk", str(j), str(k)], 0, "capacity", (oracles.jk_capacity(j, k),))
    wbs = [1.0, 1.5, math.e] * 4
    rng.shuffle(wbs)
    for n, wb in zip(int_grid(10, 110, 12), wbs):
        path = b.file(f"rep-{n:03d}.cs", _system_text({"a": 1.0, "b": wb}, f"(a{{1,{n}}} b)*"))
        b.add("rep", ["capacity", "--system", path], 0, "capacity",
              (oracles.repetition_capacity(n, 1.0, wb),))
    for i in range(11):
        letters = _letters(rng, 3)
        words = _code(rng, rng.randint(2, 4))
        path = b.file(f"code-{i:03d}.cs", _system_text(letters, _code_expr(words)))
        q = oracles.code_capacity([sum(letters[c] for c in w) for w in words])
        b.add("code", ["capacity", "--system", path], 0, "capacity", (q,))
    table = tuple(tuple(oracles.jk_capacity(j, k) for k in range(1, 9)) for j in range(1, 9))
    b.add("table", ["jk-table", "--jmax", "8", "--kmax", "8"], 0, "jk_table", (table,))
    _touch(b)

    ln2 = math.log(2)
    path = b.file("d1-binary.cs", "sym 0=1 1=1;\nexpr: (0|1|01)*\n")
    b.probe("D1", ["capacity", "--system", path], 0, "capacity", (ln2,))
    path = b.file("d1-twice.cs", "sym a=1;\nexpr: (a|a)*\n")
    b.probe("D1", ["capacity", "--system", path], 0, "capacity", (0.0,))
    path = b.file("d2-heavy.cs", "sym a=1 c=1 b=100000;\nexpr: (a|c)* b\n")
    b.probe("D2", ["capacity", "--system", path], 0, "capacity", (ln2,))
    path = b.file("d3-repeat.cs", "sym a=1 b=1;\nexpr: (a{1,500} b)*\n")
    b.probe("D3", ["capacity", "--system", path], 0, "capacity",
            (oracles.repetition_capacity(500, 1.0, 1.0),))
    return b.finish()


def spectrum(seed: int, workdir: str) -> Workload:
    """`concap spectrum` on (j,k) presets at horizons 200-1000 and on
    (a|b)*, (a|b|c)* with incommensurable weights at 10^3-10^4 buckets;
    `concap crosscheck` on unambiguous codes (exit 0) and ambiguous
    regexes (exit 2)."""
    b = _Builder("spectrum", seed, workdir)
    rng = b.rng
    # long horizons get small j+k, so every job costs about the same
    for horizon, total in zip(int_grid(200, 1000, 16), int_grid(4, 12, 16)[::-1]):
        j = rng.randint(2, total - 2)
        b.add("jkspec", ["spectrum", "--jk", str(j), str(total - j), "--max-weight", str(horizon),
                         "--max-strings", NO_STRING_LIMIT], 0, "spectrum_jk", (j, total - j, horizon))
    for i, target in enumerate(grid(math.log(1000), math.log(10000), 16)):
        n_letters = 2 + i % 2
        letters = _letters(rng, n_letters)
        weights = tuple(letters.values())
        volume = math.factorial(n_letters) * math.prod(weights) * math.exp(target)
        horizon = _clear_horizon(weights, volume ** (1 / n_letters))
        if oracles.min_gap([w for w, _ in oracles.sequence_counts(weights, horizon)]) < 1e-7:
            raise ValueError(f"weights {weights} give near-equal spectrum weights")
        expr = "(" + " | ".join(letters) + ")*"
        path = b.file(f"free-{i:03d}.cs", _system_text(letters, expr))
        b.add("freespec", ["spectrum", "--system", path, "--max-weight", repr(horizon),
                           "--max-strings", NO_STRING_LIMIT], 0, "spectrum_free", (weights, horizon))
    for _ in range(8):
        _crosscheck_code(b, "unamb", _code(rng, rng.randint(2, 4)), _letters(rng, 3),
                         rng.uniform(0.4, 0.8), rng.uniform(14.0, 18.0))
    for i in range(8):
        letters = _letters(rng, 2)
        extra = "".join(rng.choice("ab") for _ in range(rng.randint(2, 3)))
        words = ["a", "b", extra]  # extra is also a*b*-derivable: ambiguous
        ww = [sum(letters[c] for c in w) for w in words]
        q = oracles.code_capacity(ww)
        s = round(q + rng.uniform(0.3, 0.5), 6)
        gf = 1.0 / (1.0 - math.fsum(math.exp(-s * w) for w in ww))
        gap = gf - 1.0 / (1.0 - math.exp(-s * ww[0]) - math.exp(-s * ww[1]))
        mid = 0.5 * (q + s)
        gf_mid = 1.0 / (1.0 - math.fsum(math.exp(-mid * w) for w in ww))
        # horizon at which the tail bound at the midpoint is a tenth of the gap
        horizon = math.log(10 * gf_mid / gap) / (s - mid)
        horizon = _clear_horizon(ww[:2], horizon)
        partial = oracles.partial_sum(oracles.sequence_counts(ww[:2], horizon), s, includes_empty=True)
        path = b.file(f"amb-{i:03d}.cs", _system_text(letters, _code_expr(words)))
        b.add("amb", ["crosscheck", "--system", path, "--s", repr(s), "--max-weight", repr(horizon),
                      "--max-strings", NO_STRING_LIMIT], 2, "crosscheck", (True, gf, partial))
    _touch(b)

    path = b.file("d4-binary.cs", "sym 0=1 1=1;\nexpr: (0|1)*\n")
    partial = 1.0 + math.fsum((2 / math.e) ** n for n in range(1, 1101))
    b.probe("D4", ["crosscheck", "--system", path, "--s", "1.0", "--max-weight", "1100",
                   "--max-strings", NO_STRING_LIMIT], 0, "crosscheck",
            (False, 1.0 / (1.0 - 2 / math.e), partial))
    return b.finish()


# (j, k, depth): 800-6,200 strings checked each.  Eight heavy configurations
# of 0.4-1 s each hold the 90th percentile, five of them within 30% of each
# other around it, so that it does not sit on a jump between two jobs.
VALIDATE_CONFIGS = (
    (2, 2, 5), (3, 3, 3), (2, 3, 4), (2, 5, 3), (2, 4, 4), (3, 5, 3),
    (3, 5, 3), (4, 4, 3), (3, 3, 4), (2, 7, 3), (3, 6, 3), (2, 8, 3),
)


def input_process(seed: int, workdir: str) -> Workload:
    """`concap maxent` on (j,k) phrase supports of 36-580 items and random
    supports; `concap validate` on phrase PMFs at depths 3-5 and on the
    pitfall {0, 1, 01}; `concap simulate --jk` with 50,000 blocks."""
    b = _Builder("input-process", seed, workdir)
    rng = b.rng
    for i, (j, k) in enumerate(_rotated_pairs(rng, int_grid(2, 30, 12))):
        items = _phrases(j, k)
        rng.shuffle(items)
        path = b.file(f"phrases-{i:03d}.sup", _support_text(items))
        rate, _ = _maxent_probs(items)
        b.add("phrasemax", ["maxent", "--support", path], 0, "maxent", (rate, tuple(items)))
    for i, size in enumerate(int_grid(8, 400, 12)):
        strings: set[str] = set()
        while len(strings) < size:
            strings.add("".join(rng.choice("xyz") for _ in range(rng.randint(1, 8))))
        items = [(s, round(rng.uniform(0.5, 6.0), 6)) for s in sorted(strings)]
        rng.shuffle(items)
        path = b.file(f"random-{i:03d}.sup", _support_text(items))
        rate, _ = _maxent_probs(items)
        b.add("randmax", ["maxent", "--support", path], 0, "maxent", (rate, tuple(items)))
    for i, (j, k, depth) in enumerate(VALIDATE_CONFIGS):
        if rng.random() < 0.5:
            j, k = k, j
        items = _phrases(j, k)
        rng.shuffle(items)
        probs = _maxent_probs(items)[1] if rng.random() < 0.5 else None
        path = b.file(f"pmf-{i:03d}.sup", _support_text(items, probs))
        b.add("validate", ["validate", "--jk", str(j), str(k), "--support", path, "--depth", str(depth)],
              0, "validate", ("VALID", depth, ""))
    binary = b.file("binary.cs", "sym 0=1 1=1;\nexpr: (0|1)*\n")
    pitfall = b.file("pitfall.sup", "0 1\n1 1\n01 2\n")
    for depth in (2, 3):
        b.add("pitfall", ["validate", "--system", binary, "--support", pitfall, "--depth", str(depth)],
              2, "validate", ("INVALID", depth, "01"))
    for j, k in _rotated_pairs(rng, int_grid(2, 8, 10)):
        _simulate(b, "simulate", j, k, 50_000, rng.randrange(10**6))
    _touch(b)

    path = b.file("d5-ab.cs", "sym a=1 b=1;\nexpr: (a|b)*\n")
    support = b.file("d5.sup", "a 1\nab 2\nba 2\n")
    b.probe("D5", ["validate", "--system", path, "--support", support, "--depth", "2"], 2,
            "validate", ("INVALID", 2, None))
    return b.finish()


WORKLOADS = {"capacity": capacity, "spectrum": spectrum, "input-process": input_process}


def build(name: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[name](seed, workdir)


def write_files(workload: Workload, workdir: str) -> None:
    for name, text in workload.files:
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
