"""Independent oracles for the benchmark's jobs, and the checks that compare
a job's printed output with them.

Nothing here imports concap.  Capacities are roots of characteristic
equations in x = exp(-s), found by bisection on x; spectra come from a
run-length DP or from binomial/multinomial counts; crosscheck partial sums
come from counting codeword sequences.  Each ``check_*`` function takes the
job's captured stdout plus the expectation recorded when the job was made,
and returns None when the output is right or a one-line reason when not.
"""

from __future__ import annotations

import math

CAPACITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Roots of characteristic equations


def root_capacity(f) -> float:
    """Capacity -ln(x) for the root x in (0, 1] of f(x) = 1, where f is
    increasing on [0, 1] with f(0) = 0.  A system with f(1) <= 1 has at most
    one string per weight class that grows, so its capacity is 0."""
    if f(1.0) <= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 1.0:
            hi = mid
        else:
            lo = mid
    return -math.log(0.5 * (lo + hi))


def jk_capacity(j: int, k: int) -> float:
    """(sum_{i<=j} x^i) (sum_{i<=k} x^i) = 1."""
    return root_capacity(
        lambda x: sum(x**i for i in range(1, j + 1)) * sum(x**i for i in range(1, k + 1))
    )


def repetition_capacity(n: int, wa: float, wb: float) -> float:
    """(a{1,n} b)*: sum_{i=1..n} x^(i*wa + wb) = 1."""
    return root_capacity(lambda x: sum(x ** (i * wa + wb) for i in range(1, n + 1)))


def code_capacity(word_weights) -> float:
    """(w1|...|wm)* over a uniquely decodable code: sum x^w(word) = 1."""
    return root_capacity(lambda x: sum(x**w for w in word_weights))


# ---------------------------------------------------------------------------
# Spectra


def jk_counts(j: int, k: int, horizon: int) -> list[int]:
    """Number of binary strings of each length 1..horizon with no run of 1s
    longer than j and no run of 0s longer than k (run-length DP)."""
    end1 = [0] * (horizon + 1)  # strings ending in a run of 1s
    end0 = [0] * (horizon + 1)
    for n in range(1, horizon + 1):
        end1[n] = sum(end0[n - i] if n > i else 1 for i in range(1, min(j, n) + 1))
        end0[n] = sum(end1[n - i] if n > i else 1 for i in range(1, min(k, n) + 1))
    return [end1[n] + end0[n] for n in range(1, horizon + 1)]


def sequence_counts(word_weights, horizon: float) -> list[tuple[float, int]]:
    """(weight, count) of the nonempty sequences over a code, grouped by how
    often each word is used, for every group of weight <= horizon, sorted by
    weight.  The count of a group is its multinomial coefficient.  Over a
    uniquely decodable code (single letters included) sequences are distinct
    strings, so these are the spectrum of (w1|...|wm)* before merging equal
    weights."""
    out: list[tuple[float, int]] = []

    def extend(i: int, weight: float, used: int, count: int) -> None:
        if i == len(word_weights):
            if used:
                out.append((weight, count))
            return
        n = 0
        while weight + n * word_weights[i] <= horizon:
            extend(i + 1, weight + n * word_weights[i], used + n, count * math.comb(used + n, n))
            n += 1

    extend(0, 0.0, 0, 1)
    out.sort()
    return out


def min_gap(weights: list[float]) -> float:
    """Smallest distance between two sorted weights."""
    return min((b - a for a, b in zip(weights, weights[1:])), default=math.inf)


def partial_sum(pairs, s: float, includes_empty: bool) -> float:
    return (1.0 if includes_empty else 0.0) + math.fsum(c * math.exp(-w * s) for w, c in pairs)


def density_satisfied(weights: list[float], horizon: float, L: float = 1.0, K: float = 2.0) -> bool:
    """max_{nu_k < n} k <= L n^K for every integer n up to the horizon."""
    i = 0
    for n in range(1, int(math.ceil(horizon)) + 2):
        while i < len(weights) and weights[i] < n:
            i += 1
        if i > L * n**K:
            return False
    return True


# ---------------------------------------------------------------------------
# Output parsing


def _fields(out: str) -> dict[str, list[str]]:
    """First occurrence of each `key value...` line."""
    fields: dict[str, list[str]] = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] not in fields:
            fields[parts[0]] = parts[1:]
    return fields


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _number(fields: dict[str, list[str]], key: str) -> float:
    if key not in fields or not fields[key]:
        raise ValueError(f"no '{key}' line")
    return float(fields[key][0])


# ---------------------------------------------------------------------------
# Checks, one per job kind


def check_capacity(out: str, q: float) -> str | None:
    fields = _fields(out)
    got = _number(fields, "capacity")
    if not _close(got, q, CAPACITY_TOL):
        return f"capacity {got:.12f}, oracle {q:.12f}"
    lo, hi = (float(t.strip("[],")) for t in fields["bracket"])
    if not lo - CAPACITY_TOL <= q <= hi + CAPACITY_TOL:
        return f"bracket [{lo}, {hi}] misses oracle {q:.12f}"
    return None


def check_jk_table(out: str, table: tuple[tuple[float, ...], ...]) -> str | None:
    rows = out.splitlines()[1:]
    if len(rows) != len(table):
        return f"{len(rows)} table rows, expected {len(table)}"
    for j, (row, want) in enumerate(zip(rows, table), start=1):
        got = [float(t) for t in row.split()[1:]]
        if len(got) != len(want):
            return f"row {j} has {len(got)} entries, expected {len(want)}"
        for k, (g, w) in enumerate(zip(got, want), start=1):
            if abs(g - w) > 6e-6:
                return f"table ({j},{k}) {g}, oracle {w:.6f}"
    return None


def _check_spectrum_rows(out: str, pairs, includes_empty: bool) -> str | None:
    """Compare `nu count cumulative` rows, header flags and estimator lines
    with an oracle spectrum."""
    header = {}
    rows = []
    for line in out.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            header[key] = value
        elif line[:1].isdigit():
            rows.append(line.split())
    if header.get("complete") != "1":
        return "spectrum reported incomplete"
    if header.get("includes_empty") != str(int(includes_empty)):
        return f"includes_empty {header.get('includes_empty')}, expected {int(includes_empty)}"
    if len(rows) != len(pairs):
        return f"{len(rows)} spectrum rows, oracle has {len(pairs)}"
    cum = 0
    for row, (w, c) in zip(rows, pairs):
        cum += c
        if len(row) != 3 or not _close(float(row[0]), w, 1e-9) or int(row[1]) != c or int(row[2]) != cum:
            return f"row {' '.join(row)[:60]} != oracle weight {w:.12g}"
    fields = _fields(out)
    (w1, c1), (w2, c2) = pairs[-2], pairs[-1]
    cum1 = cum - c2
    expected = {
        "capacity_estimate": math.log(cum) / w2,
        "c0_estimate": math.log(c2) / w2,
        "growth_rate_estimate": (math.log(cum) - math.log(cum1)) / (w2 - w1),
    }
    for key, want in expected.items():
        got = _number(fields, key)
        if abs(got - want) > 1.5e-6:
            return f"{key} {got}, oracle {want:.6f}"
    satisfied = density_satisfied([w for w, _ in pairs], pairs[-1][0])
    verdict = fields.get("density_check", [])
    if ("satisfied" in verdict) != satisfied:
        return f"density_check {' '.join(verdict)}, oracle {'satisfied' if satisfied else 'violated'}"
    return None


def check_spectrum_jk(out: str, j: int, k: int, horizon: int) -> str | None:
    counts = jk_counts(j, k, horizon)
    pairs = [(float(n), c) for n, c in enumerate(counts, start=1)]
    return _check_spectrum_rows(out, pairs, includes_empty=False)


def check_spectrum_free(out: str, weights: tuple[float, ...], horizon: float) -> str | None:
    return _check_spectrum_rows(out, sequence_counts(weights, horizon), includes_empty=True)


def check_crosscheck(out: str, ambiguous: bool, gf_value: float, partial: float) -> str | None:
    fields = _fields(out)
    verdict = fields.get("ambiguous", ["?"])[0]
    if verdict != ("yes" if ambiguous else "no"):
        return f"ambiguous {verdict}, expected {'yes' if ambiguous else 'no'}"
    for key, want in (("gf_value", gf_value), ("partial_sum", partial)):
        got = _number(fields, key)
        if not _close(got, want, 2e-9):
            return f"{key} {got}, oracle {want:.9f}"
    return None


def check_maxent(out: str, rate: float, items: tuple[tuple[str, float], ...]) -> str | None:
    fields = _fields(out)
    got = _number(fields, "rate")
    if not _close(got, rate, CAPACITY_TOL):
        return f"rate {got:.12f}, oracle {rate:.12f}"
    x = math.exp(-rate)
    probs = [x**w for _, w in items]
    total = math.fsum(probs)
    rows = [row for row in map(str.split, out.splitlines()) if row[0] not in ("rate", "residual", "note")]
    if len(rows) != len(items):
        return f"{len(rows)} pmf rows, expected {len(items)}"
    for row, (s, w), p in zip(rows, items, probs):
        if row[0] != s or not _close(float(row[1]), w, 1e-11) or abs(float(row[2]) - p / total) > 1e-9:
            return f"pmf row {' '.join(row)} != oracle {s} {w} {p / total:.12g}"
    return None


def check_validate(out: str, verdict: str, depth: int, witness: str | None) -> str | None:
    """``witness`` None accepts any witness line."""
    fields = _fields(out)
    got = fields.get("verdict", [])
    if got != [verdict, f"depth={depth}"]:
        return f"verdict {' '.join(got)}, expected {verdict} depth={depth}"
    got_witness = fields.get("witness", [""])[0]
    if witness is not None and got_witness != witness:
        return f"witness {got_witness!r}, expected {witness!r}"
    return None


def check_simulate(out: str, blocks: int, rate: float, mean_weight: float) -> str | None:
    fields = _fields(out)
    if fields.get("blocks") != [str(blocks)]:
        return f"blocks {fields.get('blocks')}, expected {blocks}"
    for key, want, tol in (
        ("exact_rate", rate, 2e-9),
        ("mean_weight", mean_weight, 2e-9),
        # plug-in estimate from the sampled blocks: a statistical bound
        ("empirical_rate", rate, 0.02),
    ):
        got = _number(fields, key)
        if abs(got - want) > tol:
            return f"{key} {got}, oracle {want:.9f} (tolerance {tol})"
    if fields.get("accepted") != ["yes"]:
        return f"accepted {fields.get('accepted')}, expected yes"
    return None


CHECKS = {
    "capacity": check_capacity,
    "jk_table": check_jk_table,
    "spectrum_jk": check_spectrum_jk,
    "spectrum_free": check_spectrum_free,
    "crosscheck": check_crosscheck,
    "maxent": check_maxent,
    "validate": check_validate,
    "simulate": check_simulate,
}


def check_output(kind: str, expect: tuple, out: str) -> str | None:
    try:
        return CHECKS[kind](out, *expect)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
