"""Capacity as an abscissa of convergence, and the series of a regex.

The sum of ``exp(-w*s)`` over a system's distinct strings (of weight
``w``) converges for real ``s`` above a threshold and diverges below it;
that threshold, the abscissa of convergence, is the system's capacity.
``abscissa`` reads it off the DFA, on which every string is one path.
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


def _converges(edges: list[list[tuple[int, list[float]]]], s: float) -> bool:
    """Whether the sum over DFA paths of exp(-w*s) converges, ``edges[i]``
    listing each successor j of state i with the weights of its edges.

    With A(s)_ij the sum of exp(-w*s) over edges i -> j, it converges iff
    the spectral radius of A(s) is below 1, iff I - A(s) is a nonsingular
    M-matrix, iff Gaussian elimination without pivoting meets only positive
    pivots.  The DSL has no empty-set regex, so every state of the
    minimized DFA (``system_dfa``) is reachable and reaches acceptance:
    every cycle counts.  Elimination runs from the last state in BFS order
    down, touching only rows with an entry in the pivot column: repetition
    chains stay cheap.
    """
    rows: list[dict[int, float]] = []
    column_rows: list[set[int]] = [set() for _ in edges]
    for i, targets in enumerate(edges):
        row = {i: 1.0}
        for j, ws in targets:
            row[j] = row.get(j, 0.0) - sum(math.exp(-w * s) for w in ws)
            column_rows[j].add(i)
        rows.append(row)
    for k in range(len(rows) - 1, -1, -1):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if not pivot > 0.0:
            return False
        for i in column_rows[k]:
            if i < k:  # not row k itself, nor a row already eliminated
                row = rows[i]
                factor = row.pop(k) / pivot
                for j, v in pivot_row.items():
                    if j < k:
                        row[j] = row.get(j, 0.0) - factor * v
                        column_rows[j].add(i)
    return True


# ---------------------------------------------------------------------------
# Abscissa of convergence


@dataclass(frozen=True)
class CapacityResult:
    """Capacity (abscissa of convergence) with bisection diagnostics."""

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


def bisect_root(
    below: Callable[[float], bool], tol: float, max_iter: int = MAX_ITERATIONS
) -> tuple[float, float, int]:
    """Bracket the root of a monotone problem on [0, inf) by bisection.

    ``below(s)`` must hold for every ``s`` below the root and fail above
    it; 0 is taken to lie below.  The upper end starts at 1 and doubles
    until ``below`` fails, then the bracket is halved until it is at most
    ``tol`` wide.  Returns ``(lo, hi, iterations)``, the iterations
    counting halvings only.
    """
    lo, hi = 0.0, 1.0
    grow = 0
    while below(hi):
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise SolverError("no point above the root found", lo, hi)
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    if hi - lo > tol:
        raise SolverError("bisection did not reach tolerance", lo, hi)
    return lo, hi, iterations


def abscissa(system: SystemDef, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITERATIONS) -> CapacityResult:
    """Infimum of real ``s`` where the series of the system's distinct
    strings converges, by bisection with ``_converges`` on its DFA.

    A series already convergent at 0 has finitely many terms (the DFA has
    no cycle) and is reported with ``finite_language`` set and capacity 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    weights = system.weights
    edges = []
    for transitions in system_dfa(system).transitions:
        targets: dict[int, list[float]] = {}
        for label, j in transitions.items():
            targets.setdefault(j, []).append(weights[label])
        edges.append(list(targets.items()))
    if _converges(edges, 0.0):
        return CapacityResult(0.0, 0.0, 0.0, 0.0, 0, finite_language=True)
    lo, hi, iterations = bisect_root(lambda s: not _converges(edges, s), tol, max_iter)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def capacity_jk(j: int, k: int, tol: float = DEFAULT_TOL) -> float:
    """Capacity of the (j,k) run-length constraint from its characteristic
    equation: the largest positive real root of

        (x + x^2 + ... + x^j) * (x + x^2 + ... + x^k) = 1,   x = exp(-s).

    The left-hand side is strictly decreasing in ``s``, so bisection applies.
    Agrees with ``abscissa(build_jk_system(j, k))``.
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
    lo, hi, _ = bisect_root(lambda s: lhs(s) > 0.0, tol)
    return 0.5 * (lo + hi)
