"""Finite automata compiled from constraint regexes.

Thompson construction over symbol labels, plus a subset-construction DFA.
The DFA is what makes counting sound: every accepted string corresponds to
exactly one DFA path, so path counts are distinct-string counts even when
the source regex is ambiguous.  The same DFA answers membership.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

from .dsl import Concat, Epsilon, Regex, Star, Symbol, SystemDef, Union, split_labels


@dataclass
class Nfa:
    start: int
    accept: int
    # label edges: (state, label) -> [states]; eps edges: state -> [states]
    edges: dict[tuple[int, str], list[int]]
    eps: dict[int, list[int]]
    n_states: int


def build_nfa(expr: Regex) -> Nfa:
    edges: dict[tuple[int, str], list[int]] = {}
    eps: dict[int, list[int]] = {}
    counter = [0]

    def new_state() -> int:
        counter[0] += 1
        return counter[0] - 1

    def add_eps(a: int, b: int) -> None:
        eps.setdefault(a, []).append(b)

    def walk(node: Regex) -> tuple[int, int]:
        match node:
            case Symbol(label):
                a, b = new_state(), new_state()
                edges.setdefault((a, label), []).append(b)
                return a, b
            case Epsilon():
                a, b = new_state(), new_state()
                add_eps(a, b)
                return a, b
            case Concat(l, r):
                la, lb = walk(l)
                ra, rb = walk(r)
                add_eps(lb, ra)
                return la, rb
            case Union(l, r):
                la, lb = walk(l)
                ra, rb = walk(r)
                a, b = new_state(), new_state()
                add_eps(a, la)
                add_eps(a, ra)
                add_eps(lb, b)
                add_eps(rb, b)
                return a, b
            case Star(c):
                ca, cb = walk(c)
                a, b = new_state(), new_state()
                add_eps(a, ca)
                add_eps(a, b)
                add_eps(cb, ca)
                add_eps(cb, b)
                return a, b
        raise TypeError(f"not a regex node: {node!r}")

    start, accept = walk(expr)
    return Nfa(start, accept, edges, eps, counter[0])


def _closure(nfa: Nfa, states: frozenset[int]) -> frozenset[int]:
    stack = list(states)
    out = set(states)
    while stack:
        s = stack.pop()
        for t in nfa.eps.get(s, ()):
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


@dataclass
class Dfa:
    """Deterministic automaton over the label alphabet."""

    start: int
    accepting: frozenset[int]
    transitions: list[dict[str, int]]  # state -> {label: state}

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def walk(self, labels: Iterable[str], state: int) -> int | None:
        """The state that ``labels`` lead to from ``state``, or None once
        no transition fits."""
        transitions = self.transitions
        for lab in labels:
            state = transitions[state].get(lab)
            if state is None:
                return None
        return state

    def accepts(self, labels: Iterable[str]) -> bool:
        return self.walk(labels, self.start) in self.accepting


def determinize(nfa: Nfa, labels: list[str]) -> Dfa:
    start = _closure(nfa, frozenset([nfa.start]))
    index = {start: 0}
    order = [start]
    transitions: list[dict[str, int]] = [{}]
    pos = 0
    while pos < len(order):
        current = order[pos]
        for lab in labels:
            targets = set()
            for s in current:
                targets.update(nfa.edges.get((s, lab), ()))
            if not targets:
                continue
            nxt = _closure(nfa, frozenset(targets))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                transitions.append({})
            transitions[pos][lab] = index[nxt]
        pos += 1
    accepting = frozenset(i for st, i in index.items() if nfa.accept in st)
    return Dfa(0, accepting, transitions)


@functools.lru_cache(maxsize=256)
def system_dfa(system: SystemDef) -> Dfa:
    """The system's DFA over its labels, built once per system and shared:
    callers must not modify it."""
    return determinize(build_nfa(system.expr), [d.label for d in system.alphabet])


def matches(system: SystemDef, s: str) -> bool:
    """Membership test: is ``s`` (a concatenation of alphabet labels) in the
    language of the system?

    ``s`` is read as its only segmentation into labels (``split_labels``);
    a string with none raises ``DslError``.
    """
    return system_dfa(system).accepts(split_labels(s, system.label_re))
