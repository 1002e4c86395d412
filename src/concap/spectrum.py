"""Brute-force weight spectrum of a constrained system.

Enumeration runs weight-ordered over the minimal automaton of the system, so
every accepted string is counted once however many derivations the regex
gives it, and its finite positive weights add exactly, so every entry's
weight is the correctly rounded sum.  Every automaton is searched with a
heap of weight buckets, except one of a single state with loops (the full
shift, Shannon's unconstrained channel with unequal symbol weights): its
rows are a merge of shifted copies of its own row weights, which gives the
same rows at a lower cost per row.  The resulting spectrum (distinct
weights with distinct-string counts) feeds finite-horizon capacity
estimators and a partial-sum cross-check against the regex's own series
(one term per derivation), which doubles as the regex ambiguity detector.
The cross-check runs no root search: whether the string series converges
at the evaluation point is one pivot test (``genfun.converges``), and the
bound on the regex series' tail is one golden-section search.  As in
``genfun``, ``inf`` means divergence only: a sum beyond the float range
raises ``OverflowError``, a ``SpectrumError`` in the cross-check.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import sys
from dataclasses import dataclass

from .automata import system_dfa
from .dsl import SystemDef
from .genfun import DEFAULT_TOL, DIVERGENT, converges, eval_real

DEFAULT_WEIGHT_EPSILON = 1e-9
DEFAULT_MAX_STRINGS = 10_000_000  # enumeration budget of enumerate_spectrum and the CLI
REL_TOL = 1e-6  # relative slack of the cross-check's gap over the tail bound
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        each term as exp(ln N - nu*s): N may exceed the float range.  A sum
        beyond the float range (at ``s < 0``) raises ``OverflowError``."""
        total = 1.0 if self.includes_empty else 0.0
        total += sum(math.exp(math.log(c) - nu * s) for nu, c in self.entries)
        if total == math.inf:  # finite terms may add up past it, and exp(inf) is inf
            raise OverflowError("the partial sum exceeds the float range")
        return total


def enumerate_spectrum(
    system: SystemDef,
    max_weight: float,
    max_strings: int = DEFAULT_MAX_STRINGS,
) -> WeightSpectrum:
    """Count every distinct accepted string of weight <= ``max_weight``.

    Weight-ordered frontier search over the DFA: a bucket per distinct
    reached weight holds per-state path counts; buckets are expanded in
    weight order.  Counting on the DFA needs no explicit dedup.  A minimal
    DFA of one state with loops accepts every string over the loop labels
    (the full shift): there the rows are made by merging the row weights
    shifted by each loop weight, one read index per loop (Dijkstra's merge
    for Hamming numbers), with no heap or bucket.  It gives the same rows,
    flags and truncation as the bucket search, at a lower cost per row.

    Weights are exact: every label weight is an integer number of units of
    1/scale, scale being the largest denominator of the weights' binary
    fractions, so a weight reached along two paths is one bucket and a
    row's weight is the correctly rounded exact sum.  Bins closer than
    ``DEFAULT_WEIGHT_EPSILON`` are still merged into one (at the least
    weight), which joins only weights that really differ, such as
    0.1 + 0.2 and 0.3.  Every label weight is finite and positive
    (``SymbolDecl``) and every state of the minimal DFA reaches acceptance,
    so a finite language ends the search even at ``max_weight=inf``.

    If more than ``max_strings`` strings are found the result is truncated
    to the last fully expanded weight and flagged incomplete.
    """
    if not max_weight > 0:
        raise SpectrumError("max_weight must be positive")
    if not max_strings >= 1:
        raise SpectrumError("max_strings must be positive")
    dfa = system_dfa(system)
    includes_empty = dfa.start in dfa.accepting
    # the largest denominator, a power of two, so each weight is a whole number of units
    scale = max(d.weight.as_integer_ratio()[1] for d in system.alphabet)

    def units(x: float) -> int:
        p, q = x.as_integer_ratio()
        return p * scale // q  # x in units, rounded down

    weights = {d.label: units(d.weight) for d in system.alphabet}
    # each state's (weight, next state) steps in weight order, read once
    steps = [sorted((weights[label], nxt) for label, nxt in row.items()) for row in dfa.transitions]
    # ints, as every key: an int compared with a float costs the loop its gain.
    # A weight beyond the float range is past the cutoff, even at max_weight inf.
    cutoff = units(min(max_weight + DEFAULT_WEIGHT_EPSILON, sys.float_info.max))
    epsilon = units(DEFAULT_WEIGHT_EPSILON)
    total = 0
    complete = exhausted = True
    if dfa.n_states == 1 and steps[0]:  # the full shift over the loop labels
        # Each row weight plus each loop weight is one of the heap loop's
        # bins: loop j's pending bins are W[idx[j]:] + shifts[j], the least
        # being heads[j], and every bin within epsilon of the least of all
        # joins its row, as the heap loop merges them.  A loop gives a row
        # at most one bin: two would need two rows within epsilon, hence a
        # loop weight within epsilon, and then the rows step by the least
        # loop weight and each loop's bins come one per row.
        shifts = [weight for weight, _ in steps[0]]
        W, C = [0], [1]  # row weights in units and counts, the empty string first
        idx = [0] * len(shifts)
        heads = shifts[:]
        while (w := min(heads)) <= cutoff:
            top = w + epsilon if w + epsilon < cutoff else cutoff
            W.append(w)  # first: a loop that reads the row before reads this one next
            count = 0
            for j, v in enumerate(heads):
                if v <= top:
                    i = idx[j]
                    count += C[i]
                    idx[j] = i + 1
                    heads[j] = W[i + 1] + shifts[j]
            total += count
            if total > max_strings:
                complete = False
                break
            C.append(count)
        entries = [(w / scale, c) for w, c in zip(W[1:], C[1:])]
        exhausted = False  # every row has a loop: only the cutoff or the budget ends it
    else:  # the heap of buckets, one per distinct reached weight
        accepting = dfa.accepting
        heappush, heappop = heapq.heappush, heapq.heappop
        buckets: dict[int, dict[int, int]] = {0: {dfa.start: 1}}
        heap = [0]
        entries = []
        while heap:
            w = heappop(heap)
            states = buckets.pop(w)
            # merge bins within the binning tolerance
            while heap and heap[0] - w <= epsilon:
                for state, n in buckets.pop(heappop(heap)).items():
                    states[state] = states.get(state, 0) + n
            accepted = 0
            for state, n in states.items():
                if state in accepting:
                    accepted += n
            if w and accepted:
                if total + accepted > max_strings:
                    complete = exhausted = False
                    break
                total += accepted
                entries.append((w / scale, accepted))
            # expand
            for state, n in states.items():
                for weight, nxt in steps[state]:
                    w2 = w + weight
                    if w2 > cutoff:
                        exhausted = False
                        break
                    bucket = buckets.get(w2)
                    if bucket is None:
                        buckets[w2] = {nxt: n}
                        heappush(heap, w2)
                    else:
                        bucket[nxt] = bucket.get(nxt, 0) + n
    return WeightSpectrum(
        entries=tuple(entries),
        weight_epsilon=DEFAULT_WEIGHT_EPSILON,
        max_weight=max_weight,
        complete=complete,
        exhausted=exhausted,
        includes_empty=includes_empty,
    )


def spectrum_from_counts(
    pairs: list[tuple[float, int]],
    weight_epsilon: float = DEFAULT_WEIGHT_EPSILON,
    includes_empty: bool = False,
) -> WeightSpectrum:
    """Build a spectrum from externally computed (weight, count) pairs,
    e.g. a predicate-filter oracle or a synthetic test case."""
    if bad := [(nu, c) for nu, c in pairs if not (0 < nu < math.inf and c >= 1)]:  # nan fails
        raise SpectrumError(f"pair {bad[0]}: weights must be finite and positive, counts >= 1")
    pairs = sorted(pairs)
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if b - a <= weight_epsilon:
            raise SpectrumError(f"weights {a} and {b} closer than epsilon")
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
    (nu1, _), (nu2, _) = sp.entries[-2:]
    return math.log(cum[-1] / cum[-2]) / (nu2 - nu1)


@dataclass(frozen=True)
class DensityReport:
    satisfied: bool
    L: float
    K: float
    worst_n: int  # first violating integer, or ceil(horizon) + 1 if none

    def __bool__(self) -> bool:
        return self.satisfied


def density_check(sp: WeightSpectrum, L: float, K: float) -> DensityReport:
    """Check the polynomial weight-density bound max_{nu_k < n} k <= L*n^K
    for every integer n up to the horizon.  The bound grows with n and k
    steps up only at n = floor(nu) + 1, so only those n (and n = 1) can be
    the first violation, and only they are checked, up to the first n where
    the bound reaches the number of entries, which no k exceeds.

    A finite-horizon check of an asymptotic property: a pass is evidence,
    not proof, and the constants are the caller's choice.
    """
    if not (L >= 0 and K >= 0):
        raise SpectrumError("L and K must be nonnegative")
    nus = sp.weights
    n_max = int(math.ceil(sp.horizon)) + 1
    n = 1
    while n <= n_max:
        k = bisect.bisect_left(nus, n)  # 1-based index of the largest nu below n
        try:
            bound = L * n**K if L > 0 else 0.0  # not 0 * inf = nan at K = inf
        except OverflowError:  # n**K beyond the float range
            bound = math.inf
        if k > bound:
            return DensityReport(False, L, K, n)
        if bound >= len(nus):  # the bound only grows, and k never passes len(nus)
            break
        n = math.floor(nus[k]) + 1  # the next n with a larger k
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
    the system's regex: for any convergent x <= s, the tail is at most
    gf(x) * exp(-horizon * (s - x)).  The log of that bound is convex in x
    where the series converges, and every divergent x lies left of the
    optimum (gf decreases), so one golden-section search over [0, s], to
    ``DEFAULT_TOL`` (relative beyond 1), finds it; the least bound seen,
    x = s included, is returned, an x where gf leaves the float range giving
    none.  At s = inf every term beyond the horizon is 0, and so is the bound."""
    if s == math.inf:
        return 0.0
    expr, weights = system.expr, system.weights

    def log_bound(x: float) -> float:
        try:
            v = eval_real(expr, weights, x)
        except OverflowError:
            return math.inf
        return (math.log(v) if v > 0.0 else -math.inf) - horizon * (s - x)

    a, b = min(0.0, s), s  # a finite language may be checked at s < 0
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = log_bound(c), log_bound(d)
    best = min(log_bound(s), fc, fd)
    while b - a > DEFAULT_TOL * max(1.0, b):  # relative past 1: floats stay apart
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = log_bound(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = log_bound(d)
        best = min(best, fc, fd)
    return math.exp(best)


def cross_check_gf(sp: WeightSpectrum, system: SystemDef, s: float) -> CrossCheck:
    """Compare the enumerated partial sum with the value of the series of
    the system's regex.

    The enumeration counts distinct strings; the regex's series counts
    derivations.  For an unambiguous regex the function value exceeds
    the complete partial sum by at most the series tail, so a gap larger
    than the tail bound (plus ``REL_TOL`` of the value) certifies that the
    regex is ambiguous (some string is derived more than once).  So does a
    series of the regex that diverges at an ``s`` where the string series
    converges (``genfun.converges``): value, difference and tail bound then
    read ``inf``.  Where the string series diverges, every regex's series
    diverges with it, so there divergence is a ``SpectrumError``.

    A value or partial sum beyond the float range (from many derivations,
    or at ``s < 0``, where terms grow with weight) proves nothing either
    way and is a ``SpectrumError`` too.
    """
    if not sp.complete:
        raise SpectrumError("cross-check needs a complete spectrum")
    try:
        gf_value = eval_real(system.expr, system.weights, s)
        if gf_value == DIVERGENT and not converges(system, s):
            raise SpectrumError(f"the series of the regex diverges at s={s}")
        partial = sp.partial_sum(s)
        if gf_value == DIVERGENT:
            # the regex has more derivations than the language has strings
            return CrossCheck(DIVERGENT, partial, DIVERGENT, DIVERGENT, True)
        tail = 0.0 if sp.exhausted else gf_tail_bound(system, s, sp.horizon)
    except OverflowError:
        raise SpectrumError(f"the series at s={s} exceeds the float range") from None
    diff = gf_value - partial
    ambiguous = diff > tail + REL_TOL * gf_value
    return CrossCheck(diff, partial, gf_value, tail, ambiguous)


# ---------------------------------------------------------------------------
# Export format: header lines then `nu count cumulative` rows


def format_spectrum(sp: WeightSpectrum) -> str:
    head = (
        f"# weight_epsilon {sp.weight_epsilon:g}\n# max_weight {sp.max_weight:g}\n"
        f"# complete {sp.complete:d}\n# exhausted {sp.exhausted:d}\n"
        f"# includes_empty {sp.includes_empty:d}\n"
    )
    rows = zip(sp.entries, sp.cumulative)
    return "".join([head, *("%.12g %d %d\n" % (nu, count, cum) for (nu, count), cum in rows)])
