"""Minimization of the subset-construction DFA.

The references here are independent of ``minimize``: equivalence of states
by table filling over the completed DFA (a dead state for every missing
transition), and languages compared string by string.
"""

import dataclasses
import itertools
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import genfun, spectrum
from concap.automata import Dfa, build_nfa, determinize, minimize, system_dfa
from concap.dsl import (
    Concat,
    Epsilon,
    Repeat,
    Star,
    Symbol,
    SymbolDecl,
    SystemDef,
    Union,
    build_jk_system,
    parse_system,
)


def labels_of(system):
    return [d.label for d in system.alphabet]


def subset_dfa(system):
    return determinize(build_nfa(system.expr), labels_of(system))


def distinguishable_pairs(dfa, labels):
    """Table filling: the pairs of states (dead state ``n_states``
    included) that some label string tells apart."""
    dead = dfa.n_states

    def step(q, lab):
        return dead if q == dead else dfa.transitions[q].get(lab, dead)

    states = range(dead + 1)
    marked = {
        (p, q) for p, q in itertools.combinations(states, 2)
        if (p in dfa.accepting) != (q in dfa.accepting)
    }
    changed = True
    while changed:
        changed = False
        for p, q in itertools.combinations(states, 2):
            if (p, q) in marked:
                continue
            for lab in labels:
                a, b = sorted((step(p, lab), step(q, lab)))
                if (a, b) in marked:
                    marked.add((p, q))
                    changed = True
                    break
    return marked


def assert_minimal(dfa, labels):
    """No two states are equivalent, and none is equivalent to the dead
    state (every state reaches acceptance)."""
    marked = distinguishable_pairs(dfa, labels)
    assert set(itertools.combinations(range(dfa.n_states + 1), 2)) <= marked


def bfs_order(dfa, labels):
    order, seen = [dfa.start], {dfa.start}
    for q in order:
        for lab in labels:
            t = dfa.transitions[q].get(lab)
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    return order


SIZES = [
    (parse_system("sym a=1 b=1;\nexpr: (a|b)*"), 3, 1),
    (parse_system("sym a=1 b=1 c=1;\nexpr: (a|b|c)*"), 4, 1),
    (build_jk_system(2, 2), 13, 5),
    (build_jk_system(3, 7), 31, 11),
    (build_jk_system(10, 10), 61, 21),
    (parse_system("sym 0=1 1=1;\nexpr: (0 | 1 1* 0)*"), 5, 2),
    (parse_system("sym a=1 b=1;\nexpr: (a{1,100} b)*"), 102, 101),
]


@pytest.mark.parametrize("system, raw, minimal", SIZES)
def test_minimized_sizes(system, raw, minimal):
    assert subset_dfa(system).n_states == raw
    assert system_dfa(system).n_states == minimal


def assert_same_capacity(system, raw):
    """Capacity, both bracket ends, residual and finiteness are the same on
    the subset DFA: the printed digits cannot move.  The iteration count
    may differ, since trial points follow the pivot values."""
    capacity = genfun.abscissa(system)
    with mock.patch.object(genfun, "system_dfa", lambda _: raw):
        assert dataclasses.replace(genfun.abscissa(system), iterations=0) == dataclasses.replace(
            capacity, iterations=0
        )


@pytest.mark.parametrize("system", [s for s, _, _ in SIZES])
def test_capacity_same_as_on_subset_dfa(system):
    assert_same_capacity(system, subset_dfa(system))


@pytest.mark.parametrize("system", [s for s, _, _ in SIZES])
def test_start_is_zero_and_states_in_bfs_order(system):
    # determinize and minimize number states through one routine
    for dfa in (system_dfa(system), subset_dfa(system)):
        assert dfa.start == 0
        assert bfs_order(dfa, labels_of(system)) == list(range(dfa.n_states))


@pytest.mark.parametrize("system", [s for s, _, n in SIZES if n <= 30])
def test_no_two_states_equivalent(system):
    assert_minimal(system_dfa(system), labels_of(system))


def test_minimize_is_canonical():
    """Minimal DFAs numbered in BFS order are equal for equal languages."""
    a = parse_system("sym 0=1 1=1;\nexpr: (0|1)* | (0* 1*)*")
    b = parse_system("sym 0=1 1=1;\nexpr: ((1|0) (0|1))* (eps | 0 | 1)")
    assert system_dfa(a) == system_dfa(b) == Dfa(0, frozenset({0}), [{"0": 0, "1": 0}])
    jk = build_jk_system(3, 2)
    assert minimize(system_dfa(jk), labels_of(jk)) == system_dfa(jk)


def test_dead_state_and_its_equivalents_dropped():
    # state 3 accepts nothing, so it is equivalent to the dead state; the
    # rejecting block {3, dead} is the smaller one and splits first, and
    # only the dead state's own transitions keep the two together
    dfa = Dfa(0, frozenset({0, 1, 2}), [{"a": 1}, {"a": 2}, {"b": 3}, {"a": 3}])
    assert minimize(dfa, ["a", "b"]) == Dfa(0, frozenset({0, 1, 2}), [{"a": 1}, {"a": 2}, {}])


def repetition_chain(n):
    """The subset DFA of ``(a{1,n} b)*``, written out, so that a growth
    check times ``minimize`` alone (``test_repetition_chain_is_the_subset_dfa``
    ties the two at a small n)."""
    transitions = [{"a": 1}]
    transitions += [{"a": i + 1, "b": n + 1} for i in range(1, n)]
    transitions += [{"b": n + 1}, {"a": 1}]
    return Dfa(0, frozenset({0, n + 1}), transitions)


def test_repetition_chain_is_the_subset_dfa():
    system = parse_system("sym a=1 b=1;\nexpr: (a{1,40} b)*")
    assert minimize(repetition_chain(40), ["a", "b"]) == system_dfa(system)
    assert repetition_chain(40).n_states == subset_dfa(system).n_states


def test_long_repetition_minimizes_in_near_linear_time():
    # a quadratic refinement (Moore's, or Hopcroft's without the
    # smaller-half rule) does 16x the work on a 4x longer chain; Hopcroft's
    # about 4x.  Work is the Python lines run inside ``minimize`` and what
    # it calls, counted by a trace function, so a busy host cannot decide it
    def work(n):
        chain = repetition_chain(n)
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            dfa = minimize(chain, ["a", "b"])
        finally:
            sys.settrace(previous)
        assert (chain.n_states, dfa.n_states) == (n + 2, n + 1)
        return lines

    assert work(4000) < 8 * work(1000)


# --- property: minimizing keeps the language and every count -------------

_DECLS = (SymbolDecl("0", 1.0), SymbolDecl("1", math.sqrt(2)), SymbolDecl("a", 2.5))
_LABELS = [d.label for d in _DECLS]


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


@seed(6)
@settings(max_examples=150, deadline=None)
@given(_regexes())
def test_minimize_keeps_language_and_spectrum(expr):
    system = SystemDef(_DECLS, expr)
    raw, dfa = subset_dfa(system), system_dfa(system)
    assert dfa.n_states <= raw.n_states
    assert_minimal(dfa, _LABELS)
    for n in range(5):
        for word in itertools.product(_LABELS, repeat=n):
            assert dfa.accepts(word) == raw.accepts(word)
    minimal = spectrum.enumerate_spectrum(system, max_weight=9.0)
    with mock.patch.object(spectrum, "system_dfa", lambda _: raw):
        unminimized = spectrum.enumerate_spectrum(system, max_weight=9.0)
    assert minimal.entries == unminimized.entries
    assert minimal.includes_empty == unminimized.includes_empty
    assert_same_capacity(system, raw)
