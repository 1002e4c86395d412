"""Maximum-entropy sources and input processes for constrained systems.

Given a finite support of weighted strings, the largest achievable entropy
per average weight is the positive root R of sum(exp(-w*s)) = 1, attained
uniquely by the distribution p(z) = exp(-w(z)*R).  This module solves for
R, builds that distribution, validates candidate input sources/processes
against a constrained system (disjoint supports, membership, no string
counted twice across depths), bounds achievable rates, and samples
processes to estimate entropy rates empirically.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .automata import system_dfa
from .dsl import DslError, SystemDef, build_jk_system, split_labels
from .genfun import DEFAULT_TOL, bisect_root


class MaxentError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedSupport:
    """Finite set of distinct strings with positive weights."""

    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.items:
            raise MaxentError("support must be nonempty")
        strings = [s for s, _ in self.items]
        if len(set(strings)) != len(strings):
            dup = next(s for s in strings if strings.count(s) > 1)
            raise MaxentError(f"duplicate string {dup!r} in support")
        if any(w <= 0 for _, w in self.items):
            raise MaxentError("weights must be positive")

    @property
    def strings(self) -> list[str]:
        return [s for s, _ in self.items]

    @property
    def weights(self) -> list[float]:
        return [w for _, w in self.items]

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
        if any(p < 0 or p > 1 + 1e-12 for p in self.probs):
            raise MaxentError("probabilities must lie in [0, 1]")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise MaxentError(f"probabilities sum to {sum(self.probs)}, not 1")

    def positive_items(self) -> list[tuple[str, float, float]]:
        """(string, weight, prob) triples restricted to positive probability."""
        return [
            (s, w, p)
            for (s, w), p in zip(self.support.items, self.probs)
            if p > 0
        ]


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
    tests.
    """
    if tol <= 0:
        raise MaxentError("tol must be positive")
    weights = support.weights
    if len(weights) == 1:
        return RateResult(0.0, 0.0, 0, degenerate=True)

    def f(s: float) -> float:
        return sum(math.exp(-w * s) for w in weights) - 1.0

    lo, hi, iterations = bisect_root(f, tol)
    rate = 0.5 * (lo + hi)
    return RateResult(rate, abs(f(rate)), iterations)


def maxentropic_pmf(support: WeightedSupport, solved: RateResult | None = None) -> Pmf:
    """The unique entropy-per-weight-maximizing distribution
    p(z) = exp(-w(z) * R).  ``solved``, the support's ``solve_rate``
    result if the caller has it, saves solving for R again."""
    result = solve_rate(support) if solved is None else solved
    if result.degenerate:
        return Pmf(support, (1.0,))
    probs = [math.exp(-w * result.rate) for w in support.weights]
    total = sum(probs)
    # the root already puts the sum within tol of 1; renormalize the dust
    return Pmf(support, tuple(p / total for p in probs))


def entropy(p: Pmf) -> float:
    """Entropy in nats; zero-probability items contribute nothing."""
    return -sum(q * math.log(q) for q in p.probs if q > 0)


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
    depth: int  # number of support levels checked
    witness: str = ""  # offending string, if any
    reason: str = ""
    truncated: bool = False  # combinatorial budget hit; verdict partial

    def __bool__(self) -> bool:
        return self.valid


def validate_input_source(
    supports: list[WeightedSupport], system: SystemDef
) -> ValidationReport:
    """Check the input-source conditions on a finite prefix of support sets:
    every string accepted by the system, supports pairwise disjoint and
    nonempty.  The verdict covers only the depth supplied."""
    dfa = system_dfa(system)
    return _check_source(supports, lambda level, s: dfa.accepts(split_labels(s, system.label_re)))


def _check_source(
    supports: list[WeightedSupport], accepts: Callable[[int, str], bool]
) -> ValidationReport:
    """The input-source check behind both validators, level by level and
    string by string in support order: ``accepts(level, s)`` answers
    membership for string ``s`` of support ``level``."""
    depth = len(supports)
    seen: dict[str, int] = {}
    for level, sup in enumerate(supports, start=1):
        if len(sup) == 0:
            return ValidationReport(False, depth, reason=f"support {level} is empty")
        for s in sup.strings:
            if s in seen:
                return ValidationReport(
                    False,
                    depth,
                    witness=s,
                    reason=f"string {s!r} appears in supports {seen[s]} and {level}",
                )
            seen[s] = level
            if not accepts(level, s):
                return ValidationReport(
                    False,
                    depth,
                    witness=s,
                    reason=f"string {s!r} in support {level} is not accepted",
                )
    return ValidationReport(True, depth)


def truncated_supports(
    p: Pmf, system: SystemDef, depth: int, max_tuples: int = 1_000_000
) -> tuple[list[WeightedSupport], bool, list[dict[str, int | None]]]:
    """Materialize the depth-l concatenation supports of an IID block
    process, keeping only blocks of positive probability and deduplicating
    concatenations within a level.

    Returns (supports, truncated, states); ``truncated`` means the tuple
    budget was hit and only the completed levels are returned.  ``states``
    maps each string of each level to the state of the system's DFA it
    leads to, None if none (see ``_concatenations``).
    """
    if depth < 1:
        raise MaxentError("depth must be >= 1")
    blocks = [(s, w) for s, w, _ in p.positive_items()]
    if not blocks:
        raise MaxentError("no positive-probability blocks")
    return _concatenations(blocks, system, depth, max_tuples)


def _label_sequence(s: str, label_re: re.Pattern[str]) -> list[str] | None:
    """``s`` as its label sequence, or None if it has none."""
    try:
        return split_labels(s, label_re)
    except DslError:
        return None


def _concatenations(
    blocks: list[tuple[str, float]], system: SystemDef, depth: int, max_tuples: float
) -> tuple[list[WeightedSupport], bool, list[dict[str, int | None]]]:
    """Supports of the concatenations of 1..depth blocks, weights adding,
    one dict per level, with the DFA state each string leads to.  Each
    block is read as its label sequence once, and a string's state is its
    last block walked from its prefix's state; None (a block with no label
    sequence, or no transition) stays None.  Each block is walked from a
    state at most once.  Stops early once a level would exceed
    ``max_tuples`` block tuples."""
    dfa = system_dfa(system)
    walk = dfa.walk
    extend = [(s, w, _label_sequence(s, system.label_re), {}) for s, w in blocks]
    supports: list[WeightedSupport] = []
    states: list[dict[str, int | None]] = []
    level: dict[str, float] = dict(blocks)
    level_states = {
        s: None if labels is None else walk(labels, dfa.start) for s, _, labels, _ in extend
    }
    tuples = len(blocks)
    for _ in range(depth):
        supports.append(WeightedSupport(tuple(sorted(level.items()))))
        states.append(level_states)
        if len(supports) == depth:
            break
        tuples *= len(blocks)
        if tuples > max_tuples:
            return supports, True, states
        nxt: dict[str, float] = {}
        nxt_states: dict[str, int | None] = {}
        for s, w in level.items():
            q = level_states[s]
            for bs, bw, labels, steps in extend:
                t = s + bs
                nxt[t] = w + bw
                if q not in steps:
                    steps[q] = None if q is None or labels is None else walk(labels, q)
                nxt_states[t] = steps[q]
        level, level_states = nxt, nxt_states
    return supports, False, states


def validate_input_process(
    p: Pmf, system: SystemDef, depth: int, max_tuples: int = 1_000_000
) -> ValidationReport:
    """Check whether an IID block distribution is a valid input process of
    the system up to ``depth``: its truncated concatenation supports must
    form an input source.  In particular no concatenated string may be
    reachable at two different depths (the double-counting pitfall).

    Membership is read off the DFA states ``truncated_supports`` carries,
    so no string is split or walked from its start again."""
    supports, truncated, states = truncated_supports(p, system, depth, max_tuples)
    accepting = system_dfa(system).accepting

    def accepts(level: int, s: str) -> bool:
        if states[level - 1][s] in accepting:
            return True
        # only a block can lack a label sequence; it raises here, in
        # support order, as in validate_input_source
        split_labels(s, system.label_re)
        return False

    report = _check_source(supports, accepts)
    if truncated:
        report = ValidationReport(
            report.valid, len(supports), report.witness, report.reason, truncated=True
        )
    return report


@dataclass(frozen=True)
class RateBound:
    bound: float  # max of the per-depth rates over the checked prefix
    rates: tuple[float, ...]
    depth: int


def rate_bound(supports: list[WeightedSupport], tol: float = DEFAULT_TOL) -> RateBound:
    """Max achievable entropy-per-weight over a validated support prefix.

    Finite stand-in for a limit superior over all depths; for a system with
    capacity Q, a genuine input source keeps this below Q.
    """
    if not supports:
        raise MaxentError("no supports given")
    rates = tuple(solve_rate(sup, tol).rate for sup in supports)
    return RateBound(max(rates), rates, len(supports))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SampleReport:
    blocks: list[str]  # the support's strings
    drawn: list[int]  # the sampled blocks' indices; ``string`` joins them when read
    n_blocks: int
    entropy: float  # exact per-block entropy of the PMF, nats
    mean_weight: float  # exact per-block average weight
    rate: float  # entropy / mean_weight (exact)
    empirical_entropy: float  # plug-in from observed block frequencies
    empirical_mean_weight: float
    empirical_rate: float
    accepted: bool | None  # membership of the concatenation, if a system was given

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
    empirical estimates from the observed block frequencies (no bias
    correction).  With a ``system``, membership of the concatenation is
    decided by walking the DFA one block at a time, each block read as its
    own label sequence.  Deterministic for a given seed.
    """
    if n_blocks < 1:
        raise MaxentError("n_blocks must be >= 1")
    import numpy as np  # only sampling needs it: importing concap stays fast

    rng = np.random.default_rng(seed)
    idx = rng.choice(len(p.probs), size=n_blocks, p=np.asarray(p.probs))
    counts = np.bincount(idx, minlength=len(p.probs))
    order = idx.tolist()
    strings = p.support.strings
    weights = np.asarray(p.support.weights)
    freqs = counts / n_blocks
    pos = freqs > 0
    emp_entropy = float(-(freqs[pos] * np.log(freqs[pos])).sum())
    emp_weight = float((freqs * weights).sum())
    accepted = None
    if system is not None:
        # a positive-probability block with no label sequence raises
        # DslError; zero-probability ones are never drawn
        labels = [
            split_labels(s, system.label_re) if q > 0 else None
            for s, q in zip(strings, p.probs)
        ]
        dfa = system_dfa(system)
        # block i's end state from each state it was drawn at, each walked once
        steps: list[dict[int, int | None]] = [{} for _ in strings]
        state: int | None = dfa.start
        for i in order:
            memo = steps[i]
            if state not in memo:
                memo[state] = dfa.walk(labels[i], state)
            state = memo[state]
            if state is None:
                break
        accepted = state in dfa.accepting
    h = entropy(p)
    mw = mean_weight(p)
    return SampleReport(
        blocks=strings,
        drawn=order,
        n_blocks=n_blocks,
        entropy=h,
        mean_weight=mw,
        rate=h / mw,
        empirical_entropy=emp_entropy,
        empirical_mean_weight=emp_weight,
        empirical_rate=emp_entropy / emp_weight,
        accepted=accepted,
    )


# ---------------------------------------------------------------------------
# Presets for the (j,k) run-length constraint


def jk_phrase_support(j: int, k: int) -> WeightedSupport:
    """Phrase alphabet for the (j,k) constraint: a run of 1..k zeros followed
    by a run of 1..j ones, unit symbol weights.  Its rate equation factors
    exactly like the (j,k) characteristic equation, so its maxentropic rate
    equals the (j,k) capacity."""
    if j < 1 or k < 1:
        raise MaxentError("j and k must be >= 1")
    items = []
    for b in range(1, k + 1):
        for a in range(1, j + 1):
            items.append(("0" * b + "1" * a, float(a + b)))
    return WeightedSupport(tuple(items))


def jk_source_supports(j: int, k: int, depth: int) -> list[WeightedSupport]:
    """Depth-l concatenations of the (j,k) phrase alphabet: the canonical
    input source of the run-length system."""
    phrases = list(jk_phrase_support(j, k).items)
    return _concatenations(phrases, build_jk_system(j, k), depth, math.inf)[0]


# ---------------------------------------------------------------------------
# Interchange format: `string weight prob` per line (prob optional)


def parse_support_file(text: str) -> tuple[WeightedSupport, Pmf | None]:
    items = []
    probs = []
    has_probs = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise MaxentError(f"line {lineno}: expected 'string weight [prob]'")
        if has_probs is None:
            has_probs = len(parts) == 3
        elif has_probs != (len(parts) == 3):
            raise MaxentError(f"line {lineno}: inconsistent column count")
        items.append((parts[0], float(parts[1])))
        if len(parts) == 3:
            probs.append(float(parts[2]))
    support = WeightedSupport(tuple(items))
    return support, (Pmf(support, tuple(probs)) if has_probs else None)


def format_pmf(p: Pmf) -> str:
    return "".join(
        f"{s} {w:.12g} {q:.12g}\n" for (s, w), q in zip(p.support.items, p.probs)
    )
