"""Maximum-entropy sources and input processes for constrained systems.

Given a finite support of weighted strings, the largest achievable entropy
per average weight is the positive root R of sum(exp(-w*s)) = 1, attained
uniquely by the distribution p(z) = exp(-w(z)*R).  This module solves for R,
builds that distribution, validates candidate input sources against a
constrained system (disjoint supports, membership), validates IID block
processes (every concatenation of at most a given number of blocks accepted,
none with two factorizations into blocks: a search over DFA states and a
Sardinas-Patterson test that skips a node with an earlier one's dangling
suffix and count difference, its collisions coming later), bounds achievable
rates, and samples processes to estimate entropy rates empirically.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, mul, truediv

from .automata import Dfa, matches, system_dfa
from .dsl import SystemDef, split_labels
from .genfun import DEFAULT_TOL, bisect_root


class MaxentError(ValueError):
    pass


_FIRST, _SECOND = itemgetter(0), itemgetter(1)  # a support item's string and weight
_CHUNK = 8192  # uniforms per ``Generator.random`` call in ``_draw_indices``: 64 KiB of floats


@dataclass(frozen=True)
class WeightedSupport:
    """Finite set of distinct strings with finite positive weights."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.items:
            raise MaxentError("support must be nonempty")
        strings = self.strings
        if len(set(strings)) != len(strings):
            dup = next(s for s in strings if strings.count(s) > 1)
            raise MaxentError(f"duplicate string {dup!r} in support")
        # nan fails too; 0.0, not 0: a float against a float is the fast comparison
        if bad := [(s, w) for s, w in self.items if not 0.0 < w < math.inf]:
            raise MaxentError("weight of %r must be finite and positive, got %s" % bad[0])

    @property
    def strings(self) -> list[str]:
        return list(map(_FIRST, self.items))

    @property
    def weights(self) -> list[float]:
        return list(map(_SECOND, self.items))

    def __len__(self) -> int:
        return len(self.items)


def support_from_strings(system: SystemDef, strings: list[str]) -> WeightedSupport:
    """Build a support from strings, weighting each by the system's symbol
    weights (weights add over concatenation)."""
    return WeightedSupport(tuple((s, system.string_weight(s)) for s in strings))


@dataclass(frozen=True)
class Pmf:
    support: WeightedSupport
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.support):
            raise MaxentError("probs and support differ in length")
        # nan fails too; the loop only names the first offender
        if [p for p in self.probs if not 0.0 <= p <= 1 + 1e-12]:
            for string, p in zip(self.support.strings, self.probs):
                if not 0.0 <= p <= 1 + 1e-12:
                    raise MaxentError(f"probability of {string!r} must lie in [0, 1], got {p}")
        if not abs(sum(self.probs) - 1.0) <= 1e-9:
            raise MaxentError(f"probabilities sum to {sum(self.probs)}, not 1")


@dataclass(frozen=True)
class RateResult:
    rate: float
    residual: float  # |sum(exp(-w*R)) - 1|, 0 for the degenerate case
    iterations: int
    degenerate: bool = False  # single-item support, rate 0


def solve_rate(support: WeightedSupport, tol: float = DEFAULT_TOL) -> RateResult:
    """Positive root R of sum over the support of exp(-w*s) = 1.

    The left side strictly decreases from the support size at s=0, so for
    two or more items the root is unique and positive; a single item makes
    the maximization degenerate (one string, entropy 0) and R is 0.  The
    left side minus 1 guides ``bisect_root``; ``iterations`` counts its
    tests.  Each term is exp((-w) * s), summed in support order by C loops.
    """
    if not tol > 0:
        raise MaxentError("tol must be positive")
    if len(support) == 1:
        return RateResult(0.0, 0.0, 0, degenerate=True)
    negated = [-w for w in support.weights]

    def f(s: float) -> float:
        return sum(map(math.exp, map(mul, negated, repeat(s)))) - 1.0

    lo, hi, iterations = bisect_root(f, tol)
    rate = 0.5 * (lo + hi)
    return RateResult(rate, abs(f(rate)), iterations)


def maxentropic_pmf(support: WeightedSupport, solved: RateResult | None = None) -> Pmf:
    """The unique entropy-per-weight-maximizing distribution
    p(z) = exp(-w(z) * R).  ``solved``, the support's ``solve_rate``
    result if the caller has it, saves solving for R again.  Every item is
    computed by C loops, as exp(w * -R) divided by the sum of them all.
    Where every term underflows to 0 (weights near 1e30 and more), there is
    nothing to divide by, and a ``MaxentError`` says so."""
    result = solve_rate(support) if solved is None else solved
    # w * -R is (-w) * R exactly: negation is exact and rounding is symmetric
    probs = list(map(math.exp, map(mul, support.weights, repeat(-result.rate))))
    if not (total := sum(probs)):
        raise MaxentError(f"every exp(-w*R) underflows to 0 at R={result.rate!r}")
    # the root already puts the sum within tol of 1; renormalize the dust
    return Pmf(support, tuple(map(truediv, probs, repeat(total))))


def entropy(p: Pmf) -> float:
    """Entropy in nats; zero-probability items contribute nothing, and a
    one-point PMF has entropy +0.0."""
    return sum(-q * math.log(q) for q in p.probs if q > 0)


def mean_weight(p: Pmf) -> float:
    return sum(q * w for (_, w), q in zip(p.support.items, p.probs))


def entropy_per_weight(p: Pmf) -> float:
    """Entropy per average weight, in nats per weight unit."""
    return entropy(p) / mean_weight(p)


# ---------------------------------------------------------------------------
# Input-source and input-process validation


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    depth: int  # number of support levels, or of blocks, the verdict covers
    witness: str = ""  # offending string, if any
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


def validate_input_source(
    supports: list[WeightedSupport], system: SystemDef
) -> ValidationReport:
    """Check the input-source conditions on a finite prefix of support sets
    (``WeightedSupport`` is never empty): every string accepted by the
    system and supports pairwise disjoint, checked level by level and string
    by string in support order.  The verdict covers only the depth supplied."""
    depth = len(supports)
    seen: dict[str, int] = {}
    for level, sup in enumerate(supports, start=1):
        for s in sup.strings:
            if s in seen:
                return ValidationReport(
                    False,
                    depth,
                    witness=s,
                    reason=f"string {s!r} appears in supports {seen[s]} and {level}",
                )
            seen[s] = level
            if not matches(system, s):
                return ValidationReport(
                    False,
                    depth,
                    witness=s,
                    reason=f"string {s!r} in support {level} is not accepted",
                )
    return ValidationReport(True, depth)


def validate_input_process(p: Pmf, system: SystemDef, depth: int) -> ValidationReport:
    """Check whether an IID block distribution is a valid input process of
    the system up to ``depth``: every concatenation of at most ``depth``
    positive-probability blocks is accepted, and no string is the
    concatenation of two different sequences of at most ``depth`` blocks
    (the double-counting pitfall, within one depth or across two).

    No concatenation is built: membership is a search over DFA states
    (``_first_rejected``) and collisions a depth-bounded Sardinas-Patterson
    search (``_first_collision``), each ending at a level that reaches
    nothing new.  A string fails at the number of blocks after which it is
    rejected or has its second factorization; the witness fails at the
    lowest such number, a rejection winning a tie.  Every positive block is
    read as labels first; one with none raises ``DslError``.
    """
    if depth < 1:
        raise MaxentError("depth must be >= 1")
    blocks = sorted(s for s, q in zip(p.support.strings, p.probs) if q > 0)
    labels = [split_labels(s, system.label_re) for s in blocks]
    rejected = _first_rejected(system_dfa(system), blocks, labels, depth)
    collision = _first_collision(blocks, depth if rejected is None else len(rejected) - 1)
    if collision is not None:
        x, y = sorted(collision, key=lambda f: (len(f), f))
        s = "".join(x)
        if len(x) == len(y):
            where = f"twice in support {len(x)}, as {'·'.join(x)} and {'·'.join(y)}"
        else:
            where = f"in supports {len(x)} and {len(y)}"
        return ValidationReport(False, depth, s, f"string {s!r} appears {where}")
    if rejected is not None:
        s = "".join(rejected)
        return ValidationReport(
            False, depth, s, f"string {s!r} in support {len(rejected)} is not accepted"
        )
    return ValidationReport(True, depth)


def _unlink(pair: tuple) -> list[str]:
    """The blocks of a linked pair (path before, last block), in order."""
    found = []
    while pair:
        pair, block = pair
        found.append(block)
    return found[::-1]


def _first_rejected(
    dfa: Dfa, blocks: list[str], labels: list[list[str]], depth: int
) -> list[str] | None:
    """A shortest sequence of at most ``depth`` blocks whose concatenation
    the DFA rejects, or None; ``labels[i]`` is block i read as labels.

    Breadth-first over the DFA states that block steps reach from the
    start: every such concatenation is accepted iff every state reached
    within ``depth`` steps is accepting, no transition counting as a
    rejecting dead state.  Each state is expanded once, at the level it is
    first reached, trying the blocks in order, so each block is walked from
    each state at most once.  The search ends at a level that reaches no new
    state, by ``n_states`` levels at most.  A state carries its block path
    as a linked pair (path before, last block), never copied.
    """
    frontier: list[tuple[int, tuple]] = [(dfa.start, ())]
    seen = {dfa.start}
    for _ in range(depth):
        reached = []
        for q, path in frontier:
            for block, lab in zip(blocks, labels):
                t = dfa.walk(lab, q)
                if t not in dfa.accepting:
                    return _unlink((path, block))
                if t not in seen:
                    seen.add(t)
                    reached.append((t, (path, block)))
        if not (frontier := reached):
            break
    return None


def _first_collision(blocks: list[str], depth: int) -> tuple[list[str], list[str]] | None:
    """Two different sequences of at most ``depth`` blocks with the same
    concatenation, the longer of the two as short as possible, or None.

    A Sardinas-Patterson test (Sardinas & Patterson, 1953) bounded by
    ``depth``.  A node is a pair of block sequences whose first blocks
    differ, the one ahead spelling the one behind plus a dangling suffix
    ``d``.  A node grows by a block appended to the one behind: a block
    equal to ``d`` closes a collision (a node with nothing dangling, read
    like the others), a prefix of ``d`` leaves the rest of ``d`` dangling,
    and a block that ``d`` is a proper prefix of puts the one behind ahead.
    So a node's level, the longer count, stays or grows by 1: two lists hold
    levels k and k + 1, read in order.  A node's key is ``d`` and its count
    difference, ahead minus behind; a later node of a key has both counts
    larger by some t, so its collisions come t levels after the first's.  It
    is skipped, and the search ends when a level reaches no new key,
    whatever ``depth``.  ``blocks`` is sorted.
    """
    if depth < 2:  # a collision needs two blocks on one side
        return None
    members = set(blocks)
    lengths = sorted({len(b) for b in blocks})

    def continuations(d: str):
        for n in lengths:  # blocks that are a prefix of d, d itself included
            if n > len(d):
                break
            if d[:n] in members:
                yield d[:n]
        i = bisect_right(blocks, d)  # blocks that d is a proper prefix of
        while i < len(blocks) and blocks[i].startswith(d):
            yield blocks[i]
            i += 1

    least: dict[tuple[str, int], int] = {}  # (d, count difference): least level
    frontier = []  # level k: (d, count difference, ahead, behind), each side a linked pair
    for v in blocks:
        for u in continuations(v):  # the blocks that are a prefix of v, shortest first
            if len(u) == len(v):
                break
            if (v[len(u):], 0) not in least:
                least[v[len(u):], 0] = 1
                frontier.append((v[len(u):], 0, ((), v), ((), u)))
    k = 1
    while frontier:
        reached = []  # level k + 1
        for d, diff, ahead, behind in frontier:  # the list grows while it is read
            if not d:  # the first collision of the least level
                return _unlink(behind), _unlink(ahead)
            if least[d, diff] < k or diff <= 0 and k == depth:  # skipped, or behind is full
                continue
            # behind has k - max(diff, 0) blocks: one more keeps level k iff diff > 0
            level, nodes = (k, frontier) if diff > 0 else (k + 1, reached)
            for c in continuations(d):
                if len(c) < len(d):
                    node = (d[len(c):], diff - 1, ahead, (behind, c))
                else:  # behind goes ahead; at c == d nothing dangles: a collision
                    node = (c[len(d):], 1 - diff, (behind, c), ahead)
                if least.get(node[:2], level + 1) > level:
                    least[node[:2]] = level
                    nodes.append(node)
        frontier, k = reached, k + 1
    return None


@dataclass(frozen=True)
class RateBound:
    bound: float  # max of the per-depth rates over the checked prefix
    rates: tuple[float, ...]
    depth: int


def rate_bound(supports: list[WeightedSupport]) -> RateBound:
    """Max achievable entropy-per-weight over a validated support prefix.

    Finite stand-in for a limit superior over all depths; for a system with
    capacity Q, a genuine input source keeps this below Q.
    """
    if not supports:
        raise MaxentError("no supports given")
    rates = tuple(solve_rate(sup).rate for sup in supports)
    return RateBound(max(rates), rates, len(supports))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SampleReport:
    """What ``sample_process`` drew and measured.  ``drawn``, the sampled
    blocks' indices, and ``string``, their concatenation, are made when
    first read, from the index array the report keeps (no field compares
    or prints it)."""

    blocks: list[str]  # the support's strings
    _indices: object = field(compare=False, repr=False)  # the draws, a numpy integer array
    n_blocks: int
    entropy: float  # exact per-block entropy of the PMF, nats
    mean_weight: float  # exact per-block average weight
    rate: float  # entropy / mean_weight (exact)
    empirical_entropy: float  # plug-in from observed block frequencies
    empirical_mean_weight: float
    empirical_rate: float
    accepted: bool | None  # membership of the concatenation, if a system was given

    @cached_property
    def drawn(self) -> list[int]:
        return self._indices.tolist()

    @cached_property
    def string(self) -> str:
        return "".join([self.blocks[i] for i in self.drawn])


def sample_process(
    p: Pmf,
    n_blocks: int,
    seed: int,
    system: SystemDef | None = None,
) -> SampleReport:
    """Draw ``n_blocks`` IID blocks from the PMF and concatenate them.

    Reports the exact per-block entropy and mean weight alongside plug-in
    estimates, the same figures of the observed block frequencies (no bias
    correction).  Deterministic for a given seed: draw i is the number of
    points of the normalized cumulative probabilities at or below the i-th
    ``Generator.random`` uniform of ``numpy.random.default_rng(seed)``, the
    indices numpy's ``Generator.choice`` draws (see ``_draw_indices``).  A
    negative integer seed raises ``MaxentError``; any other seed goes to
    ``default_rng`` as it is.

    With a ``system``, every positive-probability block is read as its own
    label sequence up front (one with none raises ``DslError``).  If the
    closure of the start under block steps (``_first_rejected`` at depth
    ``n_states``) holds only accepting states, every concatenation of
    positive blocks is accepted and the draws are never walked.  The closure
    walks each block from each state at most once, so it runs only when
    that worst case, label count times states, is at most ``n_blocks``;
    otherwise, and when the closure finds a rejected concatenation, the DFA
    is walked one drawn block at a time.

    The report keeps the draws as the numpy index array: ``drawn``, their
    list, and ``string``, their concatenation, are made only when read, so
    a caller that reads neither converts no draw to a Python object.
    """
    if n_blocks < 1:
        raise MaxentError("n_blocks must be >= 1")
    import numpy as np  # only sampling needs it: importing concap stays fast

    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise MaxentError(f"seed must be >= 0, got {seed}")
    probs = np.asarray(p.probs, dtype=float)  # Pmf takes integer probabilities too
    idx = _draw_indices(np.random.default_rng(seed), probs, n_blocks)
    counts = np.bincount(idx, minlength=len(p.probs)).tolist()
    observed = Pmf(p.support, tuple(map(truediv, counts, repeat(n_blocks))))
    strings = p.support.strings
    accepted = None
    if system is not None:
        # a positive-probability block with no label sequence raises
        # DslError; zero-probability ones are never drawn
        labels = {s: split_labels(s, system.label_re) for s, q in zip(strings, p.probs) if q > 0}
        dfa = system_dfa(system)
        accepted = (
            sum(map(len, labels.values())) * dfa.n_states <= n_blocks
            and _first_rejected(dfa, list(labels), list(labels.values()), dfa.n_states) is None
        )
        if not accepted:
            # block i's end state from each state it was drawn at, each walked once
            steps: list[dict[int, int | None]] = [{} for _ in strings]
            state: int | None = dfa.start
            chunks = (idx[start:start + _CHUNK].tolist() for start in range(0, n_blocks, _CHUNK))
            for i in chain.from_iterable(chunks):
                memo = steps[i]
                if state not in memo:
                    memo[state] = dfa.walk(labels[strings[i]], state)
                state = memo[state]
                if state is None:
                    break
            accepted = state in dfa.accepting
    h, m = entropy(p), mean_weight(p)
    observed_h, observed_m = entropy(observed), mean_weight(observed)
    return SampleReport(
        blocks=strings,
        _indices=idx,
        n_blocks=n_blocks,
        entropy=h,
        mean_weight=m,
        rate=h / m,  # entropy_per_weight, from the figures above
        empirical_entropy=observed_h,
        empirical_mean_weight=observed_m,
        empirical_rate=observed_h / observed_m,
        accepted=accepted,
    )


def _draw_indices(rng, probs, n: int):
    """The ``n`` indices ``rng.choice(len(probs), size=n, p=probs)`` draws.

    numpy's rule: with ``cdf = probs.cumsum() / probs.cumsum()[-1]`` and
    ``u = rng.random(n)``, draw i is the number of points of ``cdf`` at or
    below ``u[i]``.  ``Pmf``'s checks on ``probs`` are stricter than
    ``choice``'s, which this skips.

    Rather than binary-search every draw, a guide table (Chen & Asau, 1974)
    cuts [0, 1) into 2^k equal cells: a draw in a cell with no point inside
    it takes the count at the cell's left end, and only the draws in cells
    that hold a point are searched.  The table has about 16 cells per item,
    so few of them hold a point, but at most n/4 (and at least one), so that
    building it costs little next to the draws.

    The uniforms come from the same stream ``_CHUNK`` at a time, so only the
    index array grows with ``n`` and every temporary is reused from the heap.
    """
    import numpy as np

    cdf = probs.cumsum()
    cdf /= cdf[-1]
    m = len(cdf)
    k = max(0, min((16 * m - 1).bit_length(), int(n).bit_length() - 3))  # n may be a numpy integer
    cells = 1 << k
    # scaling by a power of two is exact, so each comparison below is one
    # numpy makes; cell g is then [g, g + 1) and the floor of u its index
    cdf *= cells
    edges = np.arange(cells + 1, dtype=float)
    left = cdf.searchsorted(edges[:-1], side="right")  # points at or below g
    inside = cdf.searchsorted(edges[1:], side="left") != left  # a point in (g, g + 1)
    idx = np.empty(n, dtype=np.intp)
    for start in range(0, n, _CHUNK):
        u = rng.random(min(_CHUNK, n - start))
        u *= cells
        cell = u.astype(np.intp)
        # mode "clip" never acts on a cell index and, unlike "raise",
        # writes ``out`` in place
        out = left.take(cell, out=idx[start:start + len(u)], mode="clip")
        hit = np.flatnonzero(inside[cell])
        out[hit] = cdf.searchsorted(u[hit], side="right")
    return idx


# ---------------------------------------------------------------------------
# Presets for the (j,k) run-length constraint


def jk_phrase_support(j: int, k: int) -> WeightedSupport:
    """Phrase alphabet for the (j,k) constraint: a run of 1..k zeros followed
    by a run of 1..j ones, unit symbol weights.  Its rate equation factors
    exactly like the (j,k) characteristic equation, so its maxentropic rate
    equals the (j,k) capacity."""
    if j < 1 or k < 1:
        raise MaxentError("j and k must be >= 1")
    return WeightedSupport(
        tuple(("0" * b + "1" * a, float(a + b)) for b in range(1, k + 1) for a in range(1, j + 1))
    )


def jk_source_supports(j: int, k: int, depth: int) -> list[WeightedSupport]:
    """Depth-l concatenations of the (j,k) phrase alphabet, l = 1..depth:
    the canonical input source of the run-length system."""
    phrases = jk_phrase_support(j, k).items
    supports: list[WeightedSupport] = []
    level = {"": 0.0}
    for _ in range(depth):
        level = {s + b: w + bw for s, w in level.items() for b, bw in phrases}
        supports.append(WeightedSupport(tuple(sorted(level.items()))))
    return supports


# ---------------------------------------------------------------------------
# Interchange format: `string weight prob` per line (prob optional)


def parse_support_file(text: str) -> tuple[WeightedSupport, Pmf | None]:
    """Read the interchange format: one ``string weight [prob]`` item per
    line of ``text.splitlines()``, ``#`` starting a comment to the end of
    its line, and lines with no field skipped.  Every line has as many
    fields as the first.  A valid file is read a pass per column, in C
    loops: the fields of every line, their widths, then each numeric column
    through ``float``.  When one of these fails, a loop over the lines
    raises the error of the first bad line."""
    lines = text.splitlines()
    uncommented = map(_FIRST, map(str.partition, lines, repeat("#"))) if "#" in text else lines
    rows = list(filter(None, map(str.split, uncommented)))
    widths = set(map(len, rows))
    if widths == {2} or widths == {3}:
        strings, *columns = zip(*rows)
        try:
            weights, *probs = [tuple(map(float, column)) for column in columns]
        except ValueError:
            pass  # the loop below names the line
        else:
            support = WeightedSupport(tuple(zip(strings, weights)))
            return support, (Pmf(support, probs[0]) if probs else None)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise MaxentError(f"line {lineno}: expected 'string weight [prob]'")
        if len(parts) != len(rows[0]):  # as many columns as the first line
            raise MaxentError(f"line {lineno}: inconsistent column count")
        for field, name in zip(parts[1:], ("weight", "probability")):
            try:
                float(field)
            except ValueError:
                raise MaxentError(f"line {lineno}: {name} {field!r} is not a number") from None
    raise MaxentError("support must be nonempty")  # no line has a field


def format_pmf(p: Pmf) -> str:
    """The interchange text of a PMF: a ``%s %.12g %.12g`` line of string,
    weight and probability per item, all lines made by one format string
    applied to their fields in one flat tuple."""
    rows = zip(p.support.strings, p.support.weights, p.probs)
    return "%s %.12g %.12g\n" * len(p.probs) % tuple(chain.from_iterable(rows))
