"""Capacity as an abscissa of convergence, and the series of a regex.

The sum of ``exp(-w*s)`` over a system's distinct strings (of weight
``w``) converges for real ``s`` above a threshold and diverges below it;
that threshold, the abscissa of convergence, is the system's capacity.
``abscissa`` reads it off the DFA, on which every string is one path, by
bisecting on the pivot test ``converges``: Gaussian elimination on
I - A(s), planned from the DFA's shape (``_pivot_plan``) once per system
and shared, like its DFA (callers must not modify it), and run at each
trial ``s`` as one flat loop (``_least_pivot``), one step per update, over
one float per distinct kind of entry and one per entry that a step writes:
an entry never written is read from its kind's value.  The plan records
how the language grows too: a finite or polynomially growing one has
capacity 0, and takes no pivot test.  ``abscissa_jk`` solves the (j,k)
characteristic equation in closed form, at a cost per trial point
independent of j and k, with no regex or DFA, and ``capacity --jk`` prints
its result; ``capacity_jk`` is its capacity alone.  ``series`` compiles a
regex's own series, one term per derivation, to a flat program that runs
at any ``s`` (once in ``eval_real``); it equals the string series only if
the regex is unambiguous: it is the ambiguity witness of
``spectrum.cross_check_gf``.
``math.inf`` means divergence and nothing else; a finite value beyond
the float range is an ``OverflowError``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .automata import system_dfa
from .dsl import Concat, Epsilon, Regex, Star, Symbol, SymbolDecl, SystemDef, Union, preorder

DIVERGENT = math.inf


def _finite(value: float, *inputs: float) -> float:
    """``value``, or ``OverflowError`` if it is inf while no input diverged."""
    if value == DIVERGENT and DIVERGENT not in inputs:
        raise OverflowError("a finite series value exceeds the float range")
    return value


def series(expr: Regex, weights: dict[str, float]) -> Callable[[float], float]:
    """The regex's series as a function of real ``s``: a symbol of weight
    ``w`` gives exp(-w*s), union a sum, concatenation a product, star
    1/(1-v) for v < 1 (divergent for v >= 1), repetition a polynomial in v.
    ``inf`` is divergence only, and a product with a divergent factor
    diverges even where the other underflowed to 0.0.  A finite value
    beyond the float range raises ``OverflowError`` where it arises, even if
    another part diverges: in floats it cannot be told from one that a tiny
    factor would bring back into range.

    One ``preorder`` walk compiles the tree to a flat postfix program over
    value slots: one per distinct label, one holding 1.0 for every ``eps``,
    then one per operator node, whose step reads its operands' slots.  The
    returned function runs it with no tree walk and one exp per label, so a
    search at many points builds it once."""
    nodes = preorder(expr)
    labels = dict.fromkeys(node.label for node in nodes if type(node) is Symbol)
    slot = {label: t for t, label in enumerate(labels)}
    scales = [-weights[label] for label in labels]
    program: list[tuple] = []  # per operator node: (type, operand slot, right slot or counts)
    operands: list[int] = []  # per subtree, left on top: the slot of its value
    for node in reversed(nodes):
        kind = type(node)
        if kind is Symbol:
            operands.append(slot[node.label])
            continue
        if kind is Epsilon:
            operands.append(len(slot))
            continue
        if kind is Union or kind is Concat:
            program.append((kind, operands.pop(), operands.pop()))
        elif kind is Star:
            program.append((kind, operands.pop(), None))
        else:  # v^lo (1 + ... + v^(hi-lo)) by Horner: hi - lo steps adding 1, then lo adding 0
            program.append((kind, operands.pop(), (node.hi - node.lo, node.lo)))
        operands.append(len(slot) + len(program))
    root, exp = operands[0], math.exp

    def value(s: float) -> float:
        vals = [_finite(exp(scale * s)) for scale in scales]  # exp raises, but exp(inf) is inf
        vals.append(1.0)
        for kind, a, b in program:
            v = vals[a]
            if kind is Concat:
                w = vals[b]
                if v == DIVERGENT or w == DIVERGENT:
                    v = DIVERGENT
                elif (v := v * w) == DIVERGENT:
                    _finite(v)
            elif kind is Union:
                w = vals[b]
                if (v := v + w) == DIVERGENT:
                    _finite(v, vals[a], w)
            elif kind is Star:
                v = 1.0 / (1.0 - v) if v < 1.0 else DIVERGENT
            else:
                total = 1.0
                for _ in range(b[0]):
                    total = total * v + 1.0
                for _ in range(b[1]):
                    total = total * v + 0.0
                v = _finite(total, v)
            vals.append(v)
        return vals[root]

    return value


def eval_real(expr: Regex, weights: dict[str, float], s: float) -> float:
    """The regex's series at real ``s``: ``series(expr, weights)(s)``."""
    return series(expr, weights)(s)


class _PivotPlan(NamedTuple):
    """Elimination on I - A(s), every read and write located, and the
    language's growth: built by ``_plan_elimination``, run by ``_least_pivot``."""

    weights: tuple[float, ...]  # of the labels on the DFA's edges, in alphabet order
    groups: tuple[tuple[int, ...], ...]  # label indices of the entries with two or more labels
    kinds: tuple[tuple[float, int], ...]  # the distinct (base, term index) pairs of the entries
    written: int  # the entries some step writes, each stored after the scratch slot
    steps: tuple[tuple[int, int, int, int, int], ...]  # (diagonal, numerator, old, dst, src)
    growth: int  # 0 finite, 1 polynomial (capacity 0 both), 2 exponential


def _pivot_plan(system: SystemDef) -> _PivotPlan:
    """The elimination plan of the system's pivot test, planned once per
    system and shared, like its DFA: it is kept in the DFA's ``derived``,
    keyed by the (label, weight) pairs whose weights it holds.  Callers
    must not modify it."""
    dfa = system_dfa(system)
    key = ("pivot_plan", system.label_weights)
    plan = dfa.derived.get(key)
    if plan is None:
        plan = dfa.derived[key] = _plan_elimination(dfa.transitions, system.alphabet)
    return plan


def _plan_elimination(
    transitions: list[dict[str, int]], alphabet: tuple[SymbolDecl, ...]
) -> _PivotPlan:
    """Plan Gaussian elimination on I - A(s), A(s)_ij summing exp(-w*s)
    over the edges i -> j of a DFA.  This is the symbolic phase of sparse
    elimination: it reads only where the entries are, which is the same at
    every ``s``, and ``_least_pivot`` runs the numeric phase at each trial
    point.

    An initial entry's value is its base (1.0 on the diagonal, 0.0
    elsewhere) minus its term: one label's exp(-w*s), the sum of its
    labels' terms in edge order, or 0.0 (term index -1).  Few entries
    differ in that pair, so the plan keeps the distinct pairs once
    (``kinds``), and every entry gets a location as it is planned: its
    kind's index, from which it is read until a step first writes it, and
    from that write on a storage slot of its own (``written`` of them,
    numbered from ``len(kinds) + 1``).  Slot ``len(kinds)`` is the scratch
    slot, which holds 0.0: a fill-in is 0.0 until its first write, and is
    read from there.  Pivots run from the last state in the BFS order of
    ``automata._bfs_numbering`` down, and each touches only the rows with
    an entry in its column, so repetition chains stay cheap.  The steps
    are one flat run of ``(diagonal, numerator, old, dst, src)``
    locations, pivot by pivot, one per entry updated in the rows a pivot
    eliminates from: ``diagonal`` is the pivot's, the numerator that row's
    entry in the pivot column, ``dst`` its entry in column j, where
    ``old`` is read before the write (the kind at a first write, else
    ``dst``), and ``src`` the pivot row's.  A pivot that updates nothing
    gets one step whose other four locations are the scratch slot, so
    that its pivot is tested too.

    ``growth`` reruns the steps over path counts capped at 2, "many" (the
    algebraic path problem, Tarjan 1981): an entry starts at its number of
    labels, and a step adds ``numerator`` times 1 + c times ``src`` to
    ``dst``, c being the pivot's diagonal count of its state's first
    returns through the states after it (1 + c is c's star).  The smallest
    state of a strongly connected part gets c = 1 if the part is one cycle,
    2 if it holds two; so the largest c is 0 with no cycle (finite), 1 for
    polynomial growth and 2 for exponential; the run stops at the first 2.
    """
    used = {label for moves in transitions for label in moves}
    labels = [d.label for d in alphabet if d.label in used]
    index = {label: t for t, label in enumerate(labels)}
    groups: list[tuple[int, ...]] = []
    kinds: dict[tuple[float, int], int] = {}  # (base, term index) -> its index
    rows: list[dict[int, int]] = []  # column -> location
    column_rows: list[set[int]] = [set() for _ in transitions]
    for i, moves in enumerate(transitions):
        targets: dict[int, list[int]] = {i: []}
        for label, j in moves.items():
            targets.setdefault(j, []).append(index[label])
            column_rows[j].add(i)
        row = {}
        for j, terms in targets.items():
            if len(terms) > 1:
                groups.append(tuple(terms))
                terms = [len(labels) + len(groups) - 1]
            kind = (1.0 if j == i else 0.0, terms[0] if terms else -1)
            row[j] = kinds.setdefault(kind, len(kinds))
        rows.append(row)
    scratch = written = len(kinds)
    steps: list[tuple[int, int, int, int, int]] = []
    for k in range(len(rows) - 1, -1, -1):
        pivot_row, diag, updated = rows[k], rows[k][k], len(steps)
        for i in column_rows[k]:
            if i < k:  # not row k itself, nor a row already eliminated
                row = rows[i]
                numerator = row.pop(k)
                for j, src in pivot_row.items():
                    if j < k:
                        old = row.get(j, scratch)
                        if old <= scratch:  # a first write: the entry gets a slot of its own
                            written += 1
                            row[j] = written
                            if old == scratch:  # fill-in
                                column_rows[j].add(i)
                        steps.append((diag, numerator, old, row[j], src))
        if len(steps) == updated:
            steps.append((diag, scratch, scratch, scratch, scratch))
    sizes = [1] * len(labels) + [min(2, len(group)) for group in groups] + [0]  # per term index
    counts, growth = [sizes[t] for _, t in kinds] + [0] * (1 + written - scratch), 0
    cap = (0, 1) + (2,) * 9  # min(2, n) for every n a step makes, 2 + 2 * 2 * 2 at most
    for diag, numerator, old, dst, src in steps:
        if (loops := counts[diag]) > growth and (growth := loops) == 2:
            break
        counts[dst] = cap[counts[old] + counts[numerator] * (1 + loops) * counts[src]]
    return _PivotPlan(
        tuple(d.weight for d in alphabet if d.label in used),
        tuple(groups),
        tuple(kinds),
        written - scratch,
        tuple(steps),
        growth,
    )


def _least_pivot(plan: _PivotPlan, s: float) -> float:
    """The least pivot of the planned elimination on I - A(s), the numeric
    phase: one exp(-w*s) per label, one ``base - term`` per distinct kind of
    entry, then one 0.0 per written slot and the scratch slot, and one loop
    over the plan's steps that tests each step's pivot and makes its update
    ``vals[dst] = vals[old] - vals[numerator] / pivot * vals[src]``.  An
    entry no step writes is only ever read, from its kind's value.  No
    update writes a diagonal or numerator entry of its own pivot (those lie
    in the pivot column, every ``dst`` left of it), so a pivot's steps all
    read the same pivot, and every step of a row divides to the same float,
    the row's factor.  The loop assumes about one step per row, as on
    (j,k), repetition and small prefix-code systems; a row of many steps
    divides once each.  An update-less pivot's step works on the scratch
    slot, which holds 0.0, and leaves it 0.0.  Elimination stops at the
    first pivot that is not positive (nan included) and returns it.

    The sum over DFA paths of exp(-w*s) converges iff the spectral radius
    of A(s) is below 1, iff I - A(s) is a nonsingular M-matrix, iff every
    pivot is positive: iff the value is positive.  Near the capacity only
    the pivot that vanishes there comes close to 0, so the value is
    continuous there.  The DSL has no empty-set regex, so every state of
    the minimized DFA (``system_dfa``) is reachable and reaches acceptance:
    every cycle counts.  No caller tests at s <= 0: the plan's ``growth``
    answers there.
    """
    terms = [math.exp(-w * s) for w in plan.weights]
    terms += [sum([terms[t] for t in group]) for group in plan.groups]
    terms.append(0.0)
    vals = [base - terms[t] for base, t in plan.kinds]
    vals += [0.0] * (1 + plan.written)  # the scratch slot, then the written slots
    least = math.inf
    for diag, numerator, old, dst, src in plan.steps:
        pivot = vals[diag]
        if not pivot > 0.0:
            return pivot
        if pivot < least:
            least = pivot
        vals[dst] = vals[old] - vals[numerator] / pivot * vals[src]
    return least


# ---------------------------------------------------------------------------
# Abscissa of convergence


@dataclass(frozen=True)
class CapacityResult:
    """Capacity (abscissa of convergence) with root-finder diagnostics."""

    q: float
    bracket_lo: float
    bracket_hi: float
    residual: float  # final bracket width
    iterations: int
    finite_language: bool = False


class SolverError(RuntimeError):
    """Abscissa search failed; carries the last bracket."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message} (bracket [{lo}, {hi}])")
        self.bracket = (lo, hi)


DEFAULT_TOL = 1e-12
SLACK = 3  # tests allowed beyond bisection's count, to follow regula falsi


def bisect_root(excess: Callable[[float], float], tol: float) -> tuple[float, float, int]:
    """Bracket the root of a decreasing ``excess`` on [0, inf): the cell
    plain bisection of [0, max(hi, 1)] ends in, found in far fewer tests.

    ``excess(s) < 0`` means ``s`` lies above the root; 0 or more, or nan,
    at or below it (0 is taken to lie below).  First the root's binade
    [hi / 2, hi) is found, both ends tested: from 1, ``hi`` doubles while it
    lies at or below the root, up to 2^1023, or halves while ``hi / 2`` lies
    above it.  The halvings are bisection's first midpoints and count as
    tests; if they reach ``tol``, the result is (0, hi).  Bisection would
    halve n times, to a cell of the grid of multiples of h <= ``tol``.
    Every trial point in the binade is a grid point: Anderson-Bjorck regula
    falsi between the bracket ends (an end kept twice in a row has its
    value scaled down), kept within a window that leaves the bracket at
    most 2^(n + SLACK - t) cells wide after t tests.  So where the sign of
    ``excess`` is monotone on the grid, the search ends in bisection's own
    cell after at most n + SLACK tests, and near a smooth root after a few.
    Returns ``(a, a + h, iterations)``, counting the tests after the one at
    1, doublings apart.  Past 53 levels under ``hi`` grid points are not
    all floats, so ``tol`` is out of reach: ``SolverError`` carries the two
    neighbouring floats around the root, or [hi, inf] if 2^1023 lies at or
    below it.
    """
    hi, f_hi = 1.0, excess(1.0)
    halvings = tests = kept = 0
    if f_hi < 0.0:
        while hi > tol and (f_half := excess(0.5 * hi)) < 0.0:
            hi, f_hi, halvings = 0.5 * hi, f_half, halvings + 1
        tests, kept = halvings + 1, 1  # the last halving test moved the lower end
    while not f_hi < 0.0:
        if hi == 2.0**1023:
            raise SolverError("no point above the root found", hi, math.inf)
        hi, f_half, f_hi = 2.0 * hi, f_hi, excess(2.0 * hi)
    if hi <= tol:
        return 0.0, hi, halvings
    n, h = 0, hi
    while h > tol:
        h *= 0.5
        n += 1
    levels = min(n, 53)  # every grid point k * hi / 2^levels is a float: h >= 5e-324
    scale = math.frexp(hi)[1] - 1 - levels
    a, fa = 1 << (levels - 1), f_half
    b, fb = 1 << levels, f_hi
    budget = levels + SLACK + halvings
    ldexp = math.ldexp
    while b - a > 1:
        k = (a + b) // 2
        if fa != fb:
            guess = a - fa * (b - a) / (fb - fa)
            if guess - guess == 0.0:  # guess is finite
                width = 1 << (budget - tests - 1)  # after this test the bracket spans <= width cells
                low, high = b - width, a + width
                if low <= a:
                    low = a + 1
                if high >= b:
                    high = b - 1
                k = round(guess)
                if k < low:
                    k = low
                elif k > high:
                    k = high
        f = excess(ldexp(k, scale))
        tests += 1
        if f < 0.0:
            if kept == -1:  # a kept twice
                fa *= 1.0 - f / fb if f > fb else 0.5
            b, fb, kept = k, f, -1
        else:
            if kept == 1:  # b kept twice
                fb *= 1.0 - f / fa if f < fa else 0.5
            a, fa, kept = k, f, 1
    lo, hi = ldexp(a, scale), ldexp(b, scale)
    if n > levels:
        raise SolverError("bisection did not reach tolerance", lo, hi)
    return lo, hi, tests


def converges(system: SystemDef, s: float) -> bool:
    """Whether the series of the system's distinct strings converges at
    ``s``, free of any tolerance.  By the plan's ``growth``, with no test, a
    finite language does at every ``s``, one of polynomial growth at every
    s > 0, and no other at s <= 0, where no term is below 1; else the pivot
    test ``abscissa`` bisects on decides.  A nan ``s`` is a ValueError."""
    if math.isnan(s):
        raise ValueError(f"s must be a number, got {s}")
    plan = _pivot_plan(system)
    return plan.growth == 0 or s > 0.0 and (plan.growth == 1 or _least_pivot(plan, s) > 0.0)


def abscissa(system: SystemDef, tol: float = DEFAULT_TOL) -> CapacityResult:
    """Infimum of real ``s`` where the series of the system's distinct
    strings converges: ``bisect_root`` guided by minus ``_least_pivot`` on
    the system's DFA, so the bracket is plain bisection's.

    A language of capacity 0, finite or of polynomial growth (the plan's
    ``growth``), makes no pivot test: its capacity, bracket, residual and
    iterations are 0, and ``finite_language`` is set if it is finite.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    plan = _pivot_plan(system)
    if plan.growth < 2:
        return CapacityResult(0.0, 0.0, 0.0, 0.0, 0, finite_language=plan.growth == 0)
    lo, hi, iterations = bisect_root(lambda s: -_least_pivot(plan, s), tol)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def abscissa_jk(j: int, k: int, tol: float = DEFAULT_TOL) -> CapacityResult:
    """Capacity of the (j,k) run-length constraint, with ``abscissa``'s
    diagnostics, from its characteristic equation: the largest positive
    real root of

        (x + x^2 + ... + x^j) * (x + x^2 + ... + x^k) = 1,   x = exp(-s).

    The left-hand side minus 1 strictly decreases in ``s`` and guides
    ``bisect_root``.  It is evaluated in closed form,
    (1 - x^j) (1 - x^k) x^2 / (1 - x)^2 - 1, at a cost independent of j
    and k: ``bisect_root`` never tests s = 0, and (1,1), whose root is 0,
    returns ``abscissa``'s zero result before the search, so 1 - x > 0 at
    every trial point.  The product of the two j and k factors comes first,
    and a float product does not depend on its operands' order, so the
    result is symmetric in j and k bit for bit, at every ``tol``.  On (j,k)
    up to (24,24) it is ``abscissa(build_jk_system(j, k), tol)`` at the
    default tol, 1e-6, 1e-9, 1e-13 and 3e-14; from 1e-14 down, where a grid
    cell is a few float spacings wide, the two may place the root a cell or
    a few apart.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    exp = math.exp

    def lhs(s: float) -> float:
        x = exp(-s)
        return (1.0 - x**j) * (1.0 - x**k) * (x * x) / ((1.0 - x) * (1.0 - x)) - 1.0

    if j == 1 and k == 1:
        return CapacityResult(0.0, 0.0, 0.0, 0.0, 0)  # lhs(0) == 0 exactly
    lo, hi, iterations = bisect_root(lhs, tol)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def capacity_jk(j: int, k: int, tol: float = DEFAULT_TOL) -> float:
    """Capacity of the (j,k) run-length constraint: ``abscissa_jk``'s ``q``,
    so ``capacity_jk(j, k)`` equals ``capacity_jk(k, j)`` bit for bit."""
    return abscissa_jk(j, k, tol).q
