"""Capacity as an abscissa of convergence, and the series of a regex.

The sum of ``exp(-w*s)`` over a system's distinct strings (of weight
``w``) converges for real ``s`` above a threshold and diverges below it;
that threshold, the abscissa of convergence, is the system's capacity.
``abscissa`` reads it off the DFA, on which every string is one path, by
bisecting on the pivot test ``converges``.
``eval_real`` sums a regex's own series, one term per derivation, which
equals the string series only if the regex is unambiguous: it is the
ambiguity witness of ``spectrum.cross_check_gf``.  Divergence is
``math.inf``, never an error.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .automata import system_dfa
from .dsl import Concat, Epsilon, Regex, Repeat, Star, Symbol, SystemDef, Union

DIVERGENT = math.inf


def eval_real(expr: Regex, weights: dict[str, float], s: float) -> float:
    """Evaluate a regex's series at real ``s``: a symbol of weight ``w`` gives
    exp(-w*s), union a sum, concatenation a product, star 1/(1-v) for v < 1
    (divergent for v >= 1), repetition a polynomial in v.  A product with a
    divergent factor diverges even where the other underflowed to 0.0."""
    match expr:
        case Symbol(label):
            return math.exp(-weights[label] * s)
        case Epsilon():
            return 1.0
        case Union(l, r):
            return eval_real(l, weights, s) + eval_real(r, weights, s)
        case Concat(l, r):
            left, right = eval_real(l, weights, s), eval_real(r, weights, s)
            return DIVERGENT if DIVERGENT in (left, right) else left * right
        case Star(c):
            v = eval_real(c, weights, s)
            return 1.0 / (1.0 - v) if v < 1.0 else DIVERGENT
        case Repeat(c, lo, hi):
            # v^lo (1 + ... + v^(hi-lo)) by Horner: an overflow reads inf, not an error
            v = eval_real(c, weights, s)
            total = 1.0
            for k in range(hi - 1, -1, -1):
                total = total * v + (k >= lo)
            return total
    raise TypeError(f"not a regex node: {expr!r}")


def _least_pivot(edges: list[list[tuple[int, list[float]]]], s: float) -> float:
    """The least pivot of Gaussian elimination on I - A(s), A(s)_ij summing
    exp(-w*s) over the DFA's edges i -> j (``edges[i]`` lists each successor
    j of state i with the weights of its edges); elimination stops at the
    first pivot that is not positive (nan included) and returns it.

    The sum over DFA paths of exp(-w*s) converges iff the spectral radius
    of A(s) is below 1, iff I - A(s) is a nonsingular M-matrix, iff every
    pivot is positive: iff the value is positive.  Near the capacity only
    the pivot that vanishes there comes close to 0, so the value is
    continuous there.  The DSL has no empty-set regex, so every state of
    the minimized DFA (``system_dfa``) is reachable and reaches acceptance:
    every cycle counts.  Elimination runs from the last state in the BFS
    order of ``automata._bfs_numbering`` down, touching only rows with an
    entry in the pivot column: repetition chains stay cheap.
    """
    rows: list[dict[int, float]] = []
    column_rows: list[set[int]] = [set() for _ in edges]
    for i, targets in enumerate(edges):
        row = {i: 1.0}
        for j, ws in targets:
            row[j] = row.get(j, 0.0) - sum(math.exp(-w * s) for w in ws)
            column_rows[j].add(i)
        rows.append(row)
    least = math.inf
    for k in range(len(rows) - 1, -1, -1):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if not pivot > 0.0:
            return pivot
        least = min(least, pivot)
        for i in column_rows[k]:
            if i < k:  # not row k itself, nor a row already eliminated
                row = rows[i]
                factor = row.pop(k) / pivot
                for j, v in pivot_row.items():
                    if j < k:
                        row[j] = row.get(j, 0.0) - factor * v
                        column_rows[j].add(i)
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
MAX_ITERATIONS = 200
SLACK = 3  # tests allowed beyond bisection's count, to follow regula falsi


def bisect_root(excess: Callable[[float], float], tol: float) -> tuple[float, float, int]:
    """Bracket the root of a decreasing ``excess`` on [0, inf): the cell
    plain bisection ends in, found in far fewer tests.

    ``excess(s) < 0`` means ``s`` lies above the root; 0 or more, or nan,
    at or below it (0 is taken to lie below).  ``hi`` doubles from 1 until
    it lies above; bisection of [0, hi] would then halve n times, to a cell
    of the grid of multiples of h = hi / 2^n, h <= ``tol``.  Every trial
    point here is a grid point: Anderson-Bjorck regula falsi between the
    bracket ends (an end kept twice in a row has its value scaled down), or
    the midpoint while the lower end is the untested 0, kept within a window
    that leaves the bracket at most 2^(n + SLACK - t) cells wide after t
    tests.  So where the sign of ``excess`` is monotone on the grid, the
    search ends in bisection's own cell after at most n + SLACK tests, and
    near a smooth root after a few.  Returns ``(a, a + h, iterations)``,
    counting the tests made after ``hi`` was found.  If ``tol`` is out of
    reach (below the float spacing at the root, or beyond ``MAX_ITERATIONS``
    halvings), ``SolverError`` carries the tightest bracket found.
    """
    hi, f_hi = 1.0, excess(1.0)
    f_half = math.nan  # excess at hi / 2 once tested; 0 never is
    grow = 0
    while not f_hi < 0.0:
        grow += 1
        if grow > 60:
            raise SolverError("no point above the root found", 0.0, 2.0 * hi)
        hi, f_half, f_hi = 2.0 * hi, f_hi, excess(2.0 * hi)
    n, h = 0, hi
    while h > tol:
        h *= 0.5
        n += 1
    levels = min(n, MAX_ITERATIONS, 1023)  # grid points are ints k < 2^1024, at k * hi / 2^levels
    scale = math.frexp(hi)[1] - 1 - levels
    a, fa = (1 << (levels - 1), f_half) if grow and levels else (0, math.nan)
    b, fb = 1 << levels, f_hi
    budget, tests, kept = levels + SLACK, 0, 0
    while b - a > 1 and tests < MAX_ITERATIONS:
        k = (a + b) // 2
        room = budget - tests - 1  # after this test the bracket spans <= 2^room cells
        if room >= 0 and fa != fb:
            guess = a - fa * (b - a) / (fb - fa)
            low, high = max(a + 1, b - (1 << room)), min(b - 1, a + (1 << room))
            if math.isfinite(guess) and low <= high:
                k = min(max(round(guess), low), high)
        # past 2^53 cells only some grid points are floats: take the nearest
        first, last = math.ceil(math.nextafter(a, math.inf)), math.floor(math.nextafter(b, 0.0))
        if first > last:
            break  # no float lies strictly inside the bracket
        k = min(max(int(float(k)), first), last)
        f = excess(math.ldexp(k, scale))
        tests += 1
        if f < 0.0:
            if kept == -1:  # a kept twice
                fa *= 1.0 - f / fb if f > fb else 0.5
            b, fb, kept = k, f, -1
        else:
            if kept == 1:  # b kept twice
                fb *= 1.0 - f / fa if f < fa else 0.5
            a, fa, kept = k, f, 1
    lo, hi = math.ldexp(a, scale), math.ldexp(b, scale)
    if b - a > 1 or n > levels:
        raise SolverError("bisection did not reach tolerance", lo, hi)
    return lo, hi, tests


def _edges(system: SystemDef) -> list[list[tuple[int, list[float]]]]:
    """The system DFA's edges as ``_least_pivot`` reads them."""
    weights, edges = system.weights, []
    for transitions in system_dfa(system).transitions:
        targets: dict[int, list[float]] = {}
        for label, j in transitions.items():
            targets.setdefault(j, []).append(weights[label])
        edges.append(list(targets.items()))
    return edges


def converges(system: SystemDef, s: float) -> bool:
    """Whether the series of the system's distinct strings converges at
    ``s``: the pivot test ``abscissa`` bisects on, free of any tolerance."""
    return _least_pivot(_edges(system), s) > 0.0


def abscissa(system: SystemDef, tol: float = DEFAULT_TOL) -> CapacityResult:
    """Infimum of real ``s`` where the series of the system's distinct
    strings converges: ``bisect_root`` guided by minus ``_least_pivot`` on
    the system's DFA, so the bracket is plain bisection's.

    A series already convergent at 0 has finitely many terms (the DFA has
    no cycle) and is reported with ``finite_language`` set and capacity 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    edges = _edges(system)
    if _least_pivot(edges, 0.0) > 0.0:
        return CapacityResult(0.0, 0.0, 0.0, 0.0, 0, finite_language=True)
    lo, hi, iterations = bisect_root(lambda s: -_least_pivot(edges, s), tol)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def capacity_jk(j: int, k: int, tol: float = DEFAULT_TOL) -> float:
    """Capacity of the (j,k) run-length constraint from its characteristic
    equation: the largest positive real root of

        (x + x^2 + ... + x^j) * (x + x^2 + ... + x^k) = 1,   x = exp(-s).

    The left-hand side minus 1 strictly decreases in ``s`` and guides
    ``bisect_root``.  Agrees with ``abscissa(build_jk_system(j, k))``.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")

    def lhs(s: float) -> float:
        x = math.exp(-s)
        return sum(x**i for i in range(1, j + 1)) * sum(x**i for i in range(1, k + 1)) - 1.0

    if j == 1 and k == 1:
        return 0.0  # lhs(0) == 0 exactly
    lo, hi, _ = bisect_root(lhs, tol)
    return 0.5 * (lo + hi)
