"""Bounded repetition ``X{lo,hi}`` as one ``Repeat`` node.

The reference is the expansion into a balanced tree of concatenations and
``eps``-unions that the parser once produced: the same language, one
derivation per count.  The ``Repeat`` node must agree with it on the
language, on the regex's own series, and print back as written.
"""

import itertools
import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap.automata import _closure, build_nfa, system_dfa
from concap.dsl import (
    EPSILON,
    Concat,
    DslError,
    Epsilon,
    Repeat,
    Star,
    Symbol,
    SymbolDecl,
    SystemDef,
    Union,
    format_system,
    parse_system,
)
from concap.genfun import SolverError, abscissa, bisect_root, eval_real

# --- reference: the balanced expansion -----------------------------------


def repeat(node, lo, hi):
    """``node{lo,hi}`` as ``node^lo`` then ``node{0,hi-lo}``: O(hi) nodes,
    O(log hi) depth, and one derivation for each count in [lo, hi]."""
    if lo == hi:
        return _power(node, lo) if lo else EPSILON
    rest = _up_to(node, hi - lo)
    return Concat(_power(node, lo), rest) if lo else rest


def _power(node, n):
    """``node`` n >= 1 times, as a balanced concatenation."""
    if n == 1:
        return node
    half = _power(node, n // 2)
    twice = Concat(half, half)
    return Concat(twice, node) if n % 2 else twice


def _up_to(node, m):
    """``node{0,m}`` for m >= 1: ``(eps|node) (node node){0,t}`` for
    m = 2t+1, and ``eps | node node{0,m-1}`` for even m."""
    if m == 1:
        return Union(EPSILON, node)
    if m % 2:
        return Concat(Union(EPSILON, node), _up_to(Concat(node, node), m // 2))
    return Union(EPSILON, Concat(node, _up_to(node, m - 1)))


def expand(node):
    """``node`` with every ``Repeat`` replaced by its balanced expansion."""
    match node:
        case Concat(l, r):
            return Concat(expand(l), expand(r))
        case Union(l, r):
            return Union(expand(l), expand(r))
        case Star(c):
            return Star(expand(c))
        case Repeat(c, lo, hi):
            return repeat(expand(c), lo, hi)
    return node


def series_abscissa(expr, weights):
    """Where the regex's own series (one term per derivation) starts to
    converge, guided by ``eval_real``; inf if it converges nowhere."""

    def excess(s):
        v = eval_real(expr, weights, s)
        return 1.0 if v == math.inf else -1.0 / (1.0 + v)

    try:
        _, hi, _ = bisect_root(excess, 1e-9)
    except SolverError:  # a star over a nullable child: eps derived forever
        return math.inf
    return hi


# --- property: Repeat against the expansion ------------------------------

_DECLS = (SymbolDecl("0", 1.0), SymbolDecl("1", math.sqrt(2)), SymbolDecl("a", 2.5))
_LABELS = [d.label for d in _DECLS]
_WEIGHTS = {d.label: d.weight for d in _DECLS}


def _regexes():
    leaf = st.one_of(st.sampled_from([Symbol(lab) for lab in _LABELS]), st.just(Epsilon()))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            inner.map(Star),
            st.tuples(inner, st.integers(0, 2), st.integers(0, 3)).map(
                lambda t: Repeat(t[0], t[1], t[1] + t[2])
            ),
        ),
        max_leaves=8,
    )


@seed(7)
@settings(max_examples=150, deadline=None)
@given(_regexes())
def test_repeat_agrees_with_balanced_expansion(expr):
    system = SystemDef(_DECLS, expr)
    reference = SystemDef(_DECLS, expand(expr))
    dfa, ref_dfa = system_dfa(system), system_dfa(reference)
    for n in range(6):
        for word in itertools.product(_LABELS, repeat=n):
            assert dfa.accepts(word) == ref_dfa.accepts(word), word
    for s in (0.6, 1.7):
        assert math.isclose(
            eval_real(expr, _WEIGHTS, s), eval_real(reference.expr, _WEIGHTS, s), rel_tol=1e-12
        )
    assert abscissa(system).bracket_lo <= series_abscissa(expr, _WEIGHTS)
    assert parse_system(format_system(system)).expr == expr


# --- linear time, no overflow error --------------------------------------


def test_repetition_closures_do_not_grow_with_the_bound():
    # the balanced expansion nests eps-unions O(log n) deep, so its
    # closures grow with n and determinizing (a{1,n} b)* is quadratic
    def largest_closure(n):
        nfa = build_nfa(parse_system(f"sym a=1 b=1;\nexpr: (a{{1,{n}}} b)*").expr)
        return max(len(_closure(nfa, frozenset([q]))) for q in range(nfa.n_states))

    assert largest_closure(1000) == largest_closure(4000) <= 8


def test_series_abscissa_is_finite():
    # a guide that reads every point as below the root would make it inf,
    # and the property above vacuous
    system = parse_system("sym 0=1 1=1;\nexpr: (0|1)*")
    assert series_abscissa(system.expr, system.weights) == pytest.approx(math.log(2), abs=1e-9)


def test_repetition_series_overflow_raises():
    # 3^1000 derivations: a finite value beyond the float range, not divergence
    system = parse_system("sym a=1 b=1 c=1;\nexpr: (a|b|c){1,1000}")
    with pytest.raises(OverflowError):
        eval_real(system.expr, system.weights, 0.01)


def test_repetition_bounds_checked_outside_the_parser():
    # the parser rejects a{2,1} with its position; a node built in code
    # must not slip past: the chain would give a{-1,2} the language {aa}
    for lo, hi in ((2, 1), (-1, 2)):
        with pytest.raises(DslError, match="bad repetition bounds"):
            SystemDef(_DECLS, Concat(Symbol("a"), Repeat(Symbol("0"), lo, hi)))
