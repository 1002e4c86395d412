"""Generating functions of constrained systems and their abscissa of
convergence.

A system's strings with weights become a general Dirichlet series: each
symbol of weight ``w`` contributes a factor ``exp(-w*s)``, union becomes a
sum, concatenation a product, and Kleene star the geometric closure
``1/(1 - f)``.  On the real axis the series has nonnegative coefficients,
so it converges for ``s`` above a threshold and diverges below it; that
threshold (the abscissa of convergence) is the combinatorial capacity of
the system.  Divergence is represented by ``math.inf``, never an error.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .dsl import Concat, Epsilon, Regex, Star, Symbol, SystemDef, Union

DIVERGENT = math.inf


# ---------------------------------------------------------------------------
# Expression tree


@dataclass(frozen=True)
class Term:
    """One exponential term exp(-weight * s); weight 0 is the empty string."""

    weight: float


@dataclass(frozen=True)
class Sum:
    children: tuple["GenExpr", ...]


@dataclass(frozen=True)
class Product:
    children: tuple["GenExpr", ...]  # order preserved from concatenation


@dataclass(frozen=True)
class StarClosure:
    child: "GenExpr"


GenExpr = Term | Sum | Product | StarClosure


def compile_gf(expr: Regex, weights: dict[str, float]) -> GenExpr:
    """Map a regex to its generating-function expression, node for node."""
    match expr:
        case Symbol(label):
            return Term(weights[label])
        case Epsilon():
            return Term(0.0)
        case Union(l, r):
            return Sum((compile_gf(l, weights), compile_gf(r, weights)))
        case Concat(l, r):
            return Product((compile_gf(l, weights), compile_gf(r, weights)))
        case Star(c):
            return StarClosure(compile_gf(c, weights))
    raise TypeError(f"not a regex node: {expr!r}")


def system_gf(system: SystemDef) -> GenExpr:
    return compile_gf(system.expr, system.weights)


def eval_real(g: GenExpr, s: float) -> float:
    """Evaluate at real ``s``; returns ``math.inf`` where the series diverges.

    The star closure is summed in closed form: 1/(1-v) for v < 1, divergent
    for v >= 1.  This is exact for series with nonnegative coefficients.
    """
    match g:
        case Term(weight):
            return math.exp(-weight * s)
        case Sum(children):
            return sum(eval_real(c, s) for c in children)
        case Product(children):
            out = 1.0
            for c in children:
                out *= eval_real(c, s)
            return out
        case StarClosure(child):
            v = eval_real(child, s)
            return 1.0 / (1.0 - v) if v < 1.0 else DIVERGENT
    raise TypeError(f"not a generating-function node: {g!r}")


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

    def in_bits(self) -> float:
        return self.q / math.log(2)


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


def abscissa(g: GenExpr, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITERATIONS) -> CapacityResult:
    """Infimum of real ``s`` where the series converges, by bisection.

    Divergence is downward-closed on the real axis (all exponents have
    nonnegative weight), so one convergent and one divergent point bracket
    the abscissa.  A series already convergent at 0 has finitely many terms
    and is reported with ``finite_language`` set and capacity 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if eval_real(g, 0.0) != DIVERGENT:
        return CapacityResult(0.0, 0.0, 0.0, 0.0, 0, finite_language=True)
    lo, hi, iterations = bisect_root(lambda s: eval_real(g, s) == DIVERGENT, tol, max_iter)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def capacity_jk(j: int, k: int, tol: float = DEFAULT_TOL) -> float:
    """Capacity of the (j,k) run-length constraint from its characteristic
    equation: the largest positive real root of

        (x + x^2 + ... + x^j) * (x + x^2 + ... + x^k) = 1,   x = exp(-s).

    The left-hand side is strictly decreasing in ``s``, so bisection applies.
    Agrees with ``abscissa(system_gf(build_jk_system(j, k)))``.
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
