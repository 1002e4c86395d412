"""Shared independent oracles for the test suite.

These deliberately avoid the library's own automata/generating-function
machinery: membership is a plain run-length predicate on literal binary
strings, and spectra come from filtering every binary string of each
length or, at horizons too long to list every string, from a dynamic
program over run lengths.
"""

import math
import re
from functools import lru_cache

import pytest


def runlength_ok(s: str, j: int, k: int) -> bool:
    """Direct predicate: no run of 1s longer than j, no run of 0s longer
    than k."""
    return not re.search("1" * (j + 1), s) and not re.search("0" * (k + 1), s)


def all_binary_strings(n: int):
    """Every binary string of length exactly n."""
    return (format(i, f"0{n}b") for i in range(2**n))


@lru_cache(maxsize=None)
def brute_force_counts(j: int, k: int, max_len: int) -> tuple[int, ...]:
    """Number of length-n strings satisfying the (j,k) predicate, for
    n = 1..max_len, by exhaustive filtering."""
    return tuple(
        sum(runlength_ok(s, j, k) for s in all_binary_strings(n))
        for n in range(1, max_len + 1)
    )


@lru_cache(maxsize=None)
def runlength_dp_counts(j: int, k: int, max_len: int) -> tuple[int, ...]:
    """The counts of ``brute_force_counts`` by dynamic programming over
    (last bit, length of the current run), for horizons where the 2**n
    strings of a length cannot be listed."""
    limit = {"1": j, "0": k}
    runs: dict[tuple[str, int], int] = {("", 0): 1}  # the empty string
    counts = []
    for _ in range(max_len):
        grown: dict[tuple[str, int], int] = {}
        for (last, run), c in runs.items():
            for bit in "01":
                state = (bit, run + 1 if bit == last else 1)
                if state[1] <= limit[bit]:
                    grown[state] = grown.get(state, 0) + c
        runs = grown
        counts.append(sum(runs.values()))
    return tuple(counts)


def capacity_sequence(sp) -> list[float]:
    """ln(cumulative count) / nu at every horizon of a spectrum."""
    return [math.log(c) / nu for (nu, _), c in zip(sp.entries, sp.cumulative)]


def c0_sequence(sp) -> list[float]:
    """ln(count) / nu at every horizon (Shannon-style, no cumulative sum)."""
    return [math.log(c) / nu for nu, c in sp.entries]


@pytest.fixture
def sbin():
    from concap import parse_system

    return parse_system("sym 0=1 1=1;\nexpr: (0|1)*", name="S_bin")
