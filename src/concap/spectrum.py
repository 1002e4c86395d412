"""Brute-force weight spectrum of a constrained system.

Enumeration runs weight-ordered over the minimal automaton of the system, so
every accepted string is counted once however many derivations the regex
gives it, and its finite positive weights add exactly, so every entry's
weight is the correctly rounded sum.  Three searches give the same rows:
where every label that the automaton reads has one weight (every
unit-weight system, a (j,k) regex among them), rows are string lengths, and
the counts are pushed from each length to the next, as Shannon counts
N_q(t) = sum over p->q of N_p(t-1); a single state with one to four loops
that differ in weight (the full shift, Shannon's unconstrained channel with
unequal symbol weights) merges shifted copies of its own row weights, each
loop's read position held in local variables; every other automaton, the
full shift of five or more loops included, is searched with a heap of
weight buckets.  No search makes a Python object per row: the rows stay two
columns, weights in exact units and counts, from the search to the export,
and the export formats every row with one format string.  Each label weight
is the decimal it is written as, so a row is an exact decimal sum: 0.1 + 0.2
and 0.3 share a row, and 1 and 1.0000000001 do not, though two rows may
share a float.  The (j,k) preset itself needs no automaton:
``jk_spectrum`` counts its rows from the paper's run-length recurrence, a
row at a time, in the spectrum the level search gives its regex.  The
resulting spectrum (distinct weights with
distinct-string counts) feeds finite-horizon capacity estimators and a
partial-sum cross-check against the regex's own series (one term per
derivation), which doubles as the regex ambiguity detector.
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
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from operator import truediv

from .automata import Dfa, system_dfa
from .dsl import SystemDef
from .genfun import DEFAULT_TOL, DIVERGENT, converges, series

DEFAULT_MAX_STRINGS = 10_000_000  # enumeration budget of enumerate_spectrum and the CLI
REL_TOL = 1e-6  # relative slack of the cross-check's gap over the tail bound
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSpectrum:
    """Ordered distinct weights with distinct-string counts, kept as two
    columns: row i weighs ``units[i] / scale`` and has ``counts[i]`` strings.

    Only the provably complete part of an enumeration is stored: if the
    string budget was hit, rows stop at the last weight for which every
    string was counted, and ``complete`` is False.  ``exhausted`` means the
    whole language was enumerated (finite language below the cutoff).
    """

    units: tuple[int, ...]  # row weights in units of 1/scale, strictly increasing
    scale: int
    counts: tuple[int, ...]
    max_weight: float
    complete: bool
    exhausted: bool
    includes_empty: bool  # the empty string (weight 0) is in the language

    @functools.cached_property
    def weights(self) -> tuple[float, ...]:
        """The row weights as floats, each correctly rounded, built on first
        read: nondecreasing, as two rows may share a float."""
        return tuple(map(truediv, self.units, itertools.repeat(self.scale)))

    @functools.cached_property
    def entries(self) -> tuple[tuple[float, int], ...]:
        """The rows as (nu, count) pairs, built on first read."""
        return tuple(zip(self.weights, self.counts))

    @functools.cached_property
    def cumulative(self) -> tuple[int, ...]:
        """Running totals of the counts, summed once per spectrum."""
        return tuple(itertools.accumulate(self.counts))

    @property
    def horizon(self) -> float:
        return self.weights[-1] if self.weights else 0.0

    def partial_sum(self, s: float) -> float:
        """Truncated Dirichlet series sum N(nu) exp(-nu*s) over the spectrum,
        each term as exp(ln N - nu*s): N may exceed the float range.  A sum
        beyond the float range (at ``s < 0``) raises ``OverflowError``."""
        total = 1.0 if self.includes_empty else 0.0
        total += sum(math.exp(math.log(c) - nu * s) for nu, c in zip(self.weights, self.counts))
        if total == math.inf:  # finite terms may add up past it, and exp(inf) is inf
            raise OverflowError("the partial sum exceeds the float range")
        return total


def enumerate_spectrum(
    system: SystemDef,
    max_weight: float,
    max_strings: int = DEFAULT_MAX_STRINGS,
) -> WeightSpectrum:
    """Count every distinct accepted string of weight <= ``max_weight``.

    Counting on the minimal DFA needs no explicit dedup.  One of three
    searches makes the rows; each gives the same rows, flags and truncation
    as the heap search, and the first two need no heap or bucket:

    - ``_level_rows``, when every label the DFA reads has one weight u
      (every unit-weight system, a (j,k) regex among them; ``jk_spectrum``
      gives the (j,k) preset's rows with no DFA): the rows are the string
      lengths times u, so weight order is length order, and each length's
      per-state counts are pushed along the edges into the next length's,
      as Shannon counts N_q(t) = sum over p->q of N_p(t-1);
    - ``_merge_rows``, for a DFA of one state with one to four loops of
      unequal weights (the full shift): the rows are a merge of the row
      weights shifted by each loop weight, one read index per loop
      (Dijkstra's merge for Hamming numbers), each loop held in locals;
    - ``_heap_rows``, for every other DFA, the full shift of five or more
      loops included: a bucket per distinct reached weight holds per-state
      path counts, and buckets are expanded in weight order.

    Weights are exact decimals, read in units by ``_units``, so a weight
    reached along two paths is one row, and so are equal decimal sums such
    as 0.1 + 0.2 and 0.3, while different decimals never share a row, even
    where they share a float (``a b*`` with ``a=1`` and ``b=1e-17``).
    The cutoff is the decimal of ``max_weight`` in units, rounded down.
    Every label weight is finite and positive (``SymbolDecl``)
    and every state of the minimal DFA reaches acceptance, so a finite
    language ends the search even at ``max_weight=inf``.

    If more than ``max_strings`` strings are found the result is truncated
    to the last fully expanded weight and flagged incomplete.
    """
    units, scale = _units([d.weight for d in system.alphabet])
    cutoff = _cutoff(max_weight, max_strings, scale)
    dfa = system_dfa(system)
    weights = dict(zip([d.label for d in system.alphabet], units))
    read = {weights[label] for label in set().union(*dfa.transitions)}  # the weights on edges
    if len(read) == 1:  # one weight on every edge
        W, C, complete, exhausted = _level_rows(dfa, read.pop(), cutoff, max_strings)
    else:
        # each state's (weight, next state) steps in weight order, read once
        steps = [sorted((weights[label], nxt) for label, nxt in row.items()) for row in dfa.transitions]
        if dfa.n_states == 1 and 1 <= len(steps[0]) <= 4:  # the full shift of up to four loops
            search = _merge_rows
        else:
            search = _heap_rows
        W, C, complete, exhausted = search(dfa, steps, cutoff, max_strings)
    return WeightSpectrum(
        units=tuple(W),
        scale=scale,
        counts=tuple(C),
        max_weight=max_weight,
        complete=complete,
        exhausted=exhausted,
        includes_empty=dfa.start in dfa.accepting,
    )


def _units(xs: list[float]) -> tuple[tuple[int, ...], int]:
    """Each x read as the decimal of its shortest repr (the text the DSL read
    and ``format_system`` prints), in units of 1/scale, scale being the lcm
    of the decimals' reduced denominators (1 for integers, 10 for 0.1)."""
    ratios = [Decimal(repr(float(x))).as_integer_ratio() for x in xs]
    scale = math.lcm(*(q for _, q in ratios))
    return tuple(p * (scale // q) for p, q in ratios), scale


def _cutoff(max_weight: float, max_strings: int, scale: int) -> int:
    """The enumeration cutoff in units of 1/scale, once both limits are
    checked: the decimal of ``max_weight``, rounded down.  An int, as every
    key: an int compared with a float costs a search loop its gain.  A weight
    beyond the float range is past the cutoff, even at ``max_weight=inf``."""
    if not max_weight > 0:
        raise SpectrumError("max_weight must be positive")
    if not max_strings >= 1:
        raise SpectrumError("max_strings must be positive")
    (p,), q = _units([min(max_weight, sys.float_info.max)])
    return p * scale // q


def jk_spectrum(
    j: int,
    k: int,
    max_weight: float,
    max_strings: int = DEFAULT_MAX_STRINGS,
) -> WeightSpectrum:
    """``enumerate_spectrum(build_jk_system(j, k), max_weight, max_strings)``
    with no regex or DFA, from the (j,k) run-length recurrence.

    A(t) strings of length t end in a run of 1s and B(t) in a run of 0s:
    A(t) = B(t-1) + ... + B(t-j) and B(t) = A(t-1) + ... + A(t-k), where
    A(0) = B(0) = 1 stand for the empty prefix, and row t counts
    A(t) + B(t) strings, the coefficient of x^t in (J + K + 2JK)/(1 - JK),
    J = x + ... + x^j and K = x + ... + x^k.  Each window sum is kept
    running, A(t) = A(t-1) + B(t-1) - B(t-1-j), the term leaving the window
    subtracted only once t > j, so a row costs the same at any j and k, and
    nothing is sized by them.  Every symbol weighs 1, so row t weighs t
    units of scale 1; the language is infinite and has no empty string.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    cutoff = _cutoff(max_weight, max_strings, 1)
    ends1, ends0 = [1], [1]  # A(t) and B(t), from t = 0
    a = b = 0  # the window sums of row t; the empty prefix is in neither
    C = []  # row counts
    total = t = 0
    complete = True
    while t < cutoff:  # row t + 1: A(t+1) = A(t) + B(t) - B(t-j), B(t+1) likewise
        a += ends0[t]
        b += ends1[t]
        if t >= j:
            a -= ends0[t - j]
        if t >= k:
            b -= ends1[t - k]
        total += (n := a + b)
        if total > max_strings:
            complete = False
            break
        ends1.append(a)
        ends0.append(b)
        C.append(n)
        t += 1
    return WeightSpectrum(
        units=tuple(range(1, t + 1)),
        scale=1,
        counts=tuple(C),
        max_weight=max_weight,
        complete=complete,
        exhausted=False,
        includes_empty=False,
    )


# The searches of enumerate_spectrum by weight, _merge_rows and _heap_rows,
# share one signature: the DFA, each state's (weight, next state) steps in
# weight order, the cutoff in units, and the string budget.  _level_rows
# takes the one weight in place of the steps.  Each returns the row weights
# in units, the row counts, and the complete and exhausted flags.
_Steps = list[list[tuple[int, int]]]
_Rows = tuple[list[int], list[int], bool, bool]


def _level_rows(dfa: Dfa, u: int, cutoff: int, max_strings: int) -> _Rows:
    """Every label read weighs u: the rows are the lengths t times u, and
    only the edges' next states are read.  Two per-state count lists, for
    lengths t and t + 1, are reused; each state reached at length t pushes
    its count along its edges, and a state is listed as reached at t + 1 at
    its first count.  After the pushes, one pass over that list sums the
    length's accepted count; a length that reaches no accepting state has
    no row."""
    succ = [list(row.values()) for row in dfa.transitions]
    is_accepting = dfa.accepting.__contains__
    counts, pushed = [0] * dfa.n_states, [0] * dfa.n_states
    counts[dfa.start] = 1
    reached = [dfa.start]
    W, C = [], []  # row weights in units and counts
    w = total = 0
    while reached:
        w += u
        if w > cutoff:  # exhausted unless a reached state has an edge
            return W, C, True, not any(map(succ.__getitem__, reached))
        level = []
        for state in reached:
            n = counts[state]
            counts[state] = 0
            for nxt in succ[state]:
                if pushed[nxt]:
                    pushed[nxt] += n
                else:
                    pushed[nxt] = n
                    level.append(nxt)
        if accepted := sum(map(pushed.__getitem__, filter(is_accepting, level))):
            total += accepted
            if total > max_strings:
                return W, C, False, False
            W.append(w)
            C.append(accepted)
        counts, pushed, reached = pushed, counts, level
    return W, C, True, True


def _merge_rows(dfa: Dfa, steps: _Steps, cutoff: int, max_strings: int) -> _Rows:
    """One state with one to four loops.  Each row weight plus each loop
    weight is one of the heap search's bins: loop j's pending bins are
    W[ij:] + sj, the least being hj, and a loop joins the row iff its head
    equals the least head, as the heap search's bucket of that weight holds
    both.  A loop gives a row at most one bin, as its bins strictly
    increase.  Each loop's head, read index and shift are locals; an absent
    loop's shift is past the cutoff, so it never gives a bin."""
    s0, s1, s2, s3 = [weight for weight, _ in steps[0]] + [cutoff + 1] * (4 - len(steps[0]))
    h0, h1, h2, h3 = s0, s1, s2, s3
    i0 = i1 = i2 = i3 = 0
    W, C = [0], [1]  # row weights in units and counts, the empty string first
    append_w, append_c = W.append, C.append
    total = 0
    complete = True
    while True:
        w = h0
        if h1 < w:
            w = h1
        if h2 < w:
            w = h2
        if h3 < w:
            w = h3
        if w > cutoff:
            break
        append_w(w)  # first: a loop that reads the row before reads this one next
        count = 0
        if h0 == w:
            count = C[i0]
            i0 += 1
            h0 = W[i0] + s0
        if h1 == w:
            count += C[i1]
            i1 += 1
            h1 = W[i1] + s1
        if h2 == w:
            count += C[i2]
            i2 += 1
            h2 = W[i2] + s2
        if h3 == w:
            count += C[i3]
            i3 += 1
            h3 = W[i3] + s3
        total += count
        if total > max_strings:
            complete = False
            break
        append_c(count)
    # every row has a loop: only the cutoff or the budget ends it, never exhaustion
    return W[1:len(C)], C[1:], complete, False


def _heap_rows(dfa: Dfa, steps: _Steps, cutoff: int, max_strings: int) -> _Rows:
    """A heap of buckets, one per distinct reached weight, each holding
    per-state path counts."""
    accepting = dfa.accepting
    heappush, heappop = heapq.heappush, heapq.heappop
    buckets: dict[int, dict[int, int]] = {0: {dfa.start: 1}}
    heap = [0]
    W, C = [], []  # row weights in units and counts
    total = 0
    exhausted = True
    while heap:
        w = heappop(heap)
        states = buckets.pop(w)
        accepted = 0
        for state, n in states.items():
            if state in accepting:
                accepted += n
        if w and accepted:
            if total + accepted > max_strings:
                return W, C, False, False
            total += accepted
            W.append(w)
            C.append(accepted)
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
    return W, C, True, exhausted


def spectrum_from_counts(
    pairs: list[tuple[float, int]],
    includes_empty: bool = False,
) -> WeightSpectrum:
    """Build a spectrum from externally computed (weight, count) pairs,
    e.g. a predicate-filter oracle or a synthetic test case, the weights
    read in units by ``_units``, so ``weights`` are the given floats."""
    if bad := [(nu, c) for nu, c in pairs if not (0 < nu < math.inf and c >= 1)]:  # nan fails
        raise SpectrumError(f"pair {bad[0]}: weights must be finite and positive, counts >= 1")
    pairs = sorted(pairs)
    for (a, _), (b, _) in zip(pairs, pairs[1:]):
        if a == b:
            raise SpectrumError(f"weights {a} and {b} are equal")
    return WeightSpectrum(
        *_units([nu for nu, _ in pairs]),  # units and scale
        counts=tuple(c for _, c in pairs),
        max_weight=pairs[-1][0] if pairs else 0.0,
        complete=True,
        exhausted=False,
        includes_empty=includes_empty,
    )


# ---------------------------------------------------------------------------
# Estimators


def _require(sp: WeightSpectrum) -> None:
    if len(sp.weights) < 2:
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
    return math.log(sp.counts[-1]) / sp.weights[-1]


def growth_rate_estimate(sp: WeightSpectrum) -> float:
    """Tail growth rate ln(cum_k/cum_{k-1})/(nu_k - nu_{k-1}), the gap read
    exactly from the units: positive even where the rows share a float.

    Converges to the capacity much faster than the plain estimate whenever
    counts grow geometrically (finite automata do)."""
    _require(sp)
    cum = sp.cumulative
    u1, u2 = sp.units[-2:]
    return math.log(cum[-1] / cum[-2]) / ((u2 - u1) / sp.scale)


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
    the bound reaches the number of rows, which no k exceeds.  Each k is a
    bisection of the row weights.

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


def gf_tail_bound(gf: Callable[[float], float], s: float, horizon: float) -> float:
    """Upper bound on the tail beyond ``horizon`` at ``s`` of a regex's
    series ``gf``, compiled by ``genfun.series``: for any convergent x <= s,
    the tail is at most gf(x) * exp(-horizon * (s - x)).  The log of that
    bound is convex in x where the series converges, and every divergent x
    lies left of the optimum (gf decreases), so one golden-section search
    over [0, s], to ``DEFAULT_TOL`` (relative beyond 1), finds it; the least
    bound seen, x = s included, is returned, an x where gf leaves the float
    range giving none.  At s = inf every term beyond the horizon is 0, and
    so is the bound."""
    if s == math.inf:
        return 0.0

    def log_bound(x: float) -> float:
        try:
            v = gf(x)
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
    diverges with it, so there divergence is a ``SpectrumError``.  So is
    divergence at an ``s > 0`` where a term ``exp(-w*s)`` is 1 in floats
    (the unambiguous ``a*``'s at 1e-300), unless the language was
    exhausted: a finite language's regex diverges only on an empty star.

    A value or partial sum beyond the float range (from many derivations,
    or at ``s < 0``, where terms grow with weight) proves nothing either
    way and is a ``SpectrumError`` too.  The series is compiled once
    (``genfun.series``) and serves the value and the tail bound's search.
    """
    if not sp.complete:
        raise SpectrumError("cross-check needs a complete spectrum")
    try:
        gf = series(system.expr, system.weights)
        gf_value = gf(s)
        if gf_value == DIVERGENT and not converges(system, s):
            raise SpectrumError(f"the series of the regex diverges at s={s}")
        partial = sp.partial_sum(s)
        if gf_value == DIVERGENT:
            if s > 0.0 and math.exp(-min(system.weights.values()) * s) == 1.0 and not sp.exhausted:
                raise SpectrumError(f"the series at s={s} is beyond float precision: a term is 1")
            # the regex has more derivations than the language has strings
            return CrossCheck(DIVERGENT, partial, DIVERGENT, DIVERGENT, True)
        tail = 0.0 if sp.exhausted else gf_tail_bound(gf, s, sp.horizon)
    except OverflowError:
        raise SpectrumError(f"the series at s={s} exceeds the float range") from None
    diff = gf_value - partial
    ambiguous = diff > tail + REL_TOL * gf_value
    return CrossCheck(diff, partial, gf_value, tail, ambiguous)


# ---------------------------------------------------------------------------
# Export format: header lines then `nu count cumulative` rows


def format_spectrum(sp: WeightSpectrum) -> str:
    """The export text: the header lines, then a ``%.12g %d %d`` row of
    weight, count and cumulative count per row, all rows made by one
    format string applied to the three columns, interleaved by slice
    assignment into one flat list."""
    head = (
        f"# max_weight {sp.max_weight:g}\n"
        f"# complete {sp.complete:d}\n# exhausted {sp.exhausted:d}\n"
        f"# includes_empty {sp.includes_empty:d}\n"
    )
    flat = [0] * (3 * len(sp.weights))
    flat[0::3], flat[1::3], flat[2::3] = sp.weights, sp.counts, sp.cumulative
    return head + "%.12g %d %d\n" * len(sp.weights) % tuple(flat)
