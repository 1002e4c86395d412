"""Brute-force weight spectrum of a constrained system.

Enumeration runs weight-ordered over the determinized automaton of the
system, so every accepted string is counted exactly once regardless of how
many derivations the regex gives it.  The resulting spectrum (distinct
weights with distinct-string counts) feeds finite-horizon capacity
estimators and a partial-sum cross-check against the regex's own series
(one term per derivation), which doubles as the regex ambiguity detector.
"""

from __future__ import annotations

import functools
import heapq
import io
import itertools
import math
from dataclasses import dataclass

from .automata import system_dfa
from .dsl import SystemDef
from .genfun import DEFAULT_TOL, DIVERGENT, abscissa, bisect_root, eval_real

DEFAULT_WEIGHT_EPSILON = 1e-9


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSpectrum:
    """Ordered distinct weights with distinct-string counts.

    Only the provably complete part of an enumeration is stored: if the
    string budget was hit, entries stop at the last weight for which every
    string was counted, and ``complete`` is False.  ``exhausted`` means the
    whole language was enumerated (finite language below the cutoff).
    """

    entries: tuple[tuple[float, int], ...]  # (nu, count), nu strictly increasing
    weight_epsilon: float
    max_weight: float
    complete: bool
    exhausted: bool
    includes_empty: bool  # the empty string (weight 0) is in the language

    @property
    def weights(self) -> list[float]:
        return [nu for nu, _ in self.entries]

    @property
    def counts(self) -> list[int]:
        return [c for _, c in self.entries]

    @functools.cached_property
    def cumulative(self) -> tuple[int, ...]:
        """Running totals of the counts, summed once per spectrum."""
        return tuple(itertools.accumulate(c for _, c in self.entries))

    @property
    def horizon(self) -> float:
        if not self.entries:
            return 0.0
        return self.entries[-1][0]

    def partial_sum(self, s: float) -> float:
        """Truncated Dirichlet series sum N(nu) exp(-nu*s) over the spectrum,
        each term as exp(ln N - nu*s): N may exceed the float range."""
        total = 1.0 if self.includes_empty else 0.0
        return total + sum(math.exp(math.log(c) - nu * s) for nu, c in self.entries)


def enumerate_spectrum(
    system: SystemDef,
    max_weight: float,
    max_strings: int = 10_000_000,
    weight_epsilon: float = DEFAULT_WEIGHT_EPSILON,
) -> WeightSpectrum:
    """Count every distinct accepted string of weight <= ``max_weight``.

    Weight-ordered frontier search over the DFA: a bucket per distinct
    reached weight holds per-state path counts; buckets are expanded in
    weight order and weights closer than ``weight_epsilon`` are merged into
    one bin.  Counting on the DFA needs no explicit dedup.

    If more than ``max_strings`` strings are found the result is truncated
    to the last fully expanded weight and flagged incomplete.
    """
    if max_weight <= 0:
        raise SpectrumError("max_weight must be positive")
    dfa = system_dfa(system)
    weights = system.weights
    includes_empty = dfa.start in dfa.accepting

    buckets: dict[float, dict[int, int]] = {0.0: {dfa.start: 1}}
    heap = [0.0]
    entries: list[tuple[float, int]] = []
    total = 0
    complete = True
    exhausted = True
    while heap:
        w = heapq.heappop(heap)
        if w not in buckets:
            continue  # already merged into an earlier bin
        states = buckets.pop(w)
        # merge bins within the binning tolerance
        while heap and heap[0] - w <= weight_epsilon:
            w2 = heapq.heappop(heap)
            for state, n in buckets.pop(w2, {}).items():
                states[state] = states.get(state, 0) + n
        accepted = sum(n for state, n in states.items() if state in dfa.accepting)
        if w > 0 and accepted:
            if total + accepted > max_strings:
                complete = False
                exhausted = False
                break
            total += accepted
            entries.append((w, accepted))
        # expand
        for state, n in states.items():
            for label, nxt in dfa.transitions[state].items():
                w2 = w + weights[label]
                if w2 > max_weight + weight_epsilon:
                    exhausted = False
                    continue
                if w2 in buckets:
                    bucket = buckets[w2]
                else:
                    bucket = buckets[w2] = {}
                    heapq.heappush(heap, w2)
                bucket[nxt] = bucket.get(nxt, 0) + n
    return WeightSpectrum(
        entries=tuple(entries),
        weight_epsilon=weight_epsilon,
        max_weight=max_weight,
        complete=complete,
        exhausted=exhausted,
        includes_empty=includes_empty,
    )


def iter_strings(system: SystemDef, max_weight: float, max_strings: int = 1_000_000):
    """Yield the distinct accepted strings of weight <= ``max_weight`` in
    weight order, as (string, weight) pairs.  For small-scale checks; the
    spectrum itself never materializes strings."""
    dfa = system_dfa(system)
    weights = system.weights
    counter = 0
    tie = 0
    heap: list[tuple[float, int, str, int]] = [(0.0, tie, "", dfa.start)]
    while heap:
        w, _, s, state = heapq.heappop(heap)
        if state in dfa.accepting and s != "":
            yield s, w
            counter += 1
            if counter >= max_strings:
                return
        for label, nxt in dfa.transitions[state].items():
            w2 = w + weights[label]
            if w2 <= max_weight + 1e-12:
                tie += 1
                heapq.heappush(heap, (w2, tie, s + label, nxt))


def spectrum_from_counts(
    pairs: list[tuple[float, int]],
    weight_epsilon: float = DEFAULT_WEIGHT_EPSILON,
    includes_empty: bool = False,
) -> WeightSpectrum:
    """Build a spectrum from externally computed (weight, count) pairs,
    e.g. a predicate-filter oracle or a synthetic test case."""
    pairs = sorted(pairs)
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if b - a <= weight_epsilon:
            raise SpectrumError(f"weights {a} and {b} closer than epsilon")
    if any(nu <= 0 or c < 1 for nu, c in pairs):
        raise SpectrumError("weights must be positive and counts >= 1")
    return WeightSpectrum(
        entries=tuple(pairs),
        weight_epsilon=weight_epsilon,
        max_weight=pairs[-1][0] if pairs else 0.0,
        complete=True,
        exhausted=False,
        includes_empty=includes_empty,
    )


# ---------------------------------------------------------------------------
# Estimators


def _require(sp: WeightSpectrum) -> None:
    if len(sp.entries) < 2:
        raise SpectrumError("need at least 2 spectrum entries")


def capacity_estimate(sp: WeightSpectrum) -> float:
    """Finite-horizon capacity estimate: ln(total strings so far)/horizon.

    With A(H) the cumulative count at horizon H and C the capacity, the
    excess over C is exactly ln(A(H) exp(-C H))/H, which decays only like
    1/H.  It need not be positive: ``0{10,10} (0|1)*`` gives 0.381 < ln 2
    at horizon 20.  ln(cumulative/last count)/H is the gap to
    ``c0_estimate``, not the excess over the capacity."""
    _require(sp)
    return math.log(sp.cumulative[-1]) / sp.horizon


def c0_estimate(sp: WeightSpectrum) -> float:
    """Finite-horizon estimate of the per-weight log count at the horizon."""
    _require(sp)
    nu, c = sp.entries[-1]
    return math.log(c) / nu


def growth_rate_estimate(sp: WeightSpectrum) -> float:
    """Tail growth rate ln(cum_k/cum_{k-1})/(nu_k - nu_{k-1}).

    Converges to the capacity much faster than the plain estimate whenever
    counts grow geometrically (finite automata do)."""
    _require(sp)
    cum = sp.cumulative
    nus = sp.weights
    return math.log(cum[-1] / cum[-2]) / (nus[-1] - nus[-2])


@dataclass(frozen=True)
class DensityReport:
    satisfied: bool
    L: float
    K: float
    worst_n: int  # first violating integer, or the last n checked

    def __bool__(self) -> bool:
        return self.satisfied


def density_check(sp: WeightSpectrum, L: float, K: float) -> DensityReport:
    """Check the polynomial weight-density bound max_{nu_k < n} k <= L*n^K
    for every integer n up to the horizon.

    A finite-horizon check of an asymptotic property: a pass is evidence,
    not proof, and the constants are the caller's choice.
    """
    if L < 0 or K < 0:
        raise SpectrumError("L and K must be nonnegative")
    nus = sp.weights
    n_max = int(math.ceil(sp.horizon)) + 1
    k = 0
    i = 0
    for n in range(1, n_max + 1):
        while i < len(nus) and nus[i] < n:
            i += 1
        k = i  # 1-based index of the largest nu below n
        if k > L * n**K:
            return DensityReport(False, L, K, n)
    return DensityReport(True, L, K, n_max)


# ---------------------------------------------------------------------------
# Cross-check against the regex's own series


@dataclass(frozen=True)
class CrossCheck:
    difference: float  # gf_value - partial_sum
    partial_sum: float
    gf_value: float
    tail_bound: float
    ambiguous: bool


def gf_tail_bound(system: SystemDef, s: float, horizon: float) -> float:
    """Upper bound on the tail beyond ``horizon`` at ``s`` of the series of
    the system's regex: for any convergent probe point s' < s, the tail is
    at most gf(s') * exp(-horizon * (s - s')).  The probe grid searches
    (the series' own abscissa, s) for the tightest bound."""
    expr, weights = system.expr, system.weights

    def excess(x: float) -> float:
        # -1/(1+v) rises to 0 as v grows to the divergence at the abscissa;
        # -1/v would divide by a term that underflowed to 0.0
        v = eval_real(expr, weights, x)
        return 1.0 if v == DIVERGENT else -1.0 / (1.0 + v)

    lo, hi, _ = bisect_root(excess, DEFAULT_TOL)
    floor = 0.5 * (lo + hi)
    best = math.inf
    for t in range(1, 40):
        sp_ = floor + (s - floor) * t / 40.0
        v = eval_real(expr, weights, sp_)
        if v == DIVERGENT:
            continue
        best = min(best, v * math.exp(-horizon * (s - sp_)))
    return best


def cross_check_gf(sp: WeightSpectrum, system: SystemDef, s: float, rel_tol: float = 1e-6) -> CrossCheck:
    """Compare the enumerated partial sum with the value of the series of
    the system's regex.

    The enumeration counts distinct strings; the regex's series counts
    derivations.  For an unambiguous regex the function value exceeds
    the complete partial sum by at most the series tail, so a gap larger
    than the tail bound certifies that the regex is ambiguous (some string
    is derived more than once).  So does a series of the regex that
    diverges at an ``s`` above the capacity, where the string series
    converges: value, difference and tail bound then read ``inf``.  Up to
    the upper end of the capacity's bracket an unambiguous
    regex can diverge too, so there divergence is a ``SpectrumError``.
    """
    if not sp.complete:
        raise SpectrumError("cross-check needs a complete spectrum")
    gf_value = eval_real(system.expr, system.weights, s)
    if gf_value == DIVERGENT and s <= abscissa(system).bracket_hi:
        raise SpectrumError(f"the series of the regex diverges at s={s}")
    partial = sp.partial_sum(s)
    if gf_value == DIVERGENT:
        # the regex has more derivations than the language has strings
        return CrossCheck(DIVERGENT, partial, DIVERGENT, DIVERGENT, True)
    tail = 0.0 if sp.exhausted else gf_tail_bound(system, s, sp.horizon)
    diff = gf_value - partial
    ambiguous = diff > tail + rel_tol * gf_value
    return CrossCheck(diff, partial, gf_value, tail, ambiguous)


# ---------------------------------------------------------------------------
# Export format: header lines then `nu count cumulative` rows


def format_spectrum(sp: WeightSpectrum) -> str:
    out = io.StringIO()
    out.write(f"# weight_epsilon {sp.weight_epsilon:g}\n")
    out.write(f"# max_weight {sp.max_weight:g}\n")
    out.write(f"# complete {int(sp.complete)}\n")
    out.write(f"# exhausted {int(sp.exhausted)}\n")
    out.write(f"# includes_empty {int(sp.includes_empty)}\n")
    for (nu, count), cum in zip(sp.entries, sp.cumulative):
        out.write(f"{nu:.12g} {count} {cum}\n")
    return out.getvalue()

