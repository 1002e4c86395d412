"""Finite automata compiled from constraint regexes.

Thompson construction over symbol labels, a subset-construction DFA, and
Hopcroft minimization of that DFA.  The DFA is what makes counting sound:
every accepted string corresponds to exactly one DFA path, so path counts
are distinct-string counts even when the source regex is ambiguous.  The
same DFA answers membership.  Minimizing it changes none of this, only the
number of states every consumer works through.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

from .dsl import Concat, Epsilon, Regex, Repeat, Star, Symbol, SystemDef, children, preorder
from .dsl import Union, split_labels


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
    n_states = 0
    parts: list[tuple[int, int]] = []  # (entry, exit) per subtree, left on top

    def add_eps(a: int, b: int) -> None:
        eps.setdefault(a, []).append(b)

    def below(node: Regex) -> tuple[Regex, ...]:  # a Repeat's child once per copy
        return (node.child,) * node.hi if type(node) is Repeat else children(node)

    for node in reversed(preorder(expr, below)):
        kind = type(node)
        if kind is Concat:
            (la, lb), (ra, rb) = parts.pop(), parts.pop()
            add_eps(lb, ra)
            parts.append((la, rb))
            continue
        a, b = n_states, n_states + 1
        n_states += 2
        if kind is Symbol:
            edges.setdefault((a, node.label), []).append(b)
        elif kind is Epsilon:
            add_eps(a, b)
        elif kind is Union:
            (la, lb), (ra, rb) = parts.pop(), parts.pop()
            add_eps(a, la)
            add_eps(a, ra)
            add_eps(lb, b)
            add_eps(rb, b)
        elif kind is Star:
            ca, cb = parts.pop()
            add_eps(a, ca)
            add_eps(a, b)
            add_eps(cb, ca)
            add_eps(cb, b)
        else:
            # hi copies in a chain from a, an eps-edge to b after each count >= lo
            ends = [a]
            for _ in range(node.hi):
                ca, cb = parts.pop()
                add_eps(ends[-1], ca)
                ends.append(cb)
            for end in ends[node.lo:]:
                add_eps(end, b)
        parts.append((a, b))
    start, accept = parts.pop()
    return Nfa(start, accept, edges, eps, n_states)


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
    """Deterministic automaton over the label alphabet.  ``derived`` holds
    what other modules compute from it (``genfun``'s pivot plan), keyed by
    their other inputs, so a result is shared exactly as long as its DFA."""

    start: int
    accepting: frozenset[int]
    transitions: list[dict[str, int]]  # state -> {label: state}
    derived: dict = field(default_factory=dict, compare=False, repr=False)

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


def _bfs_numbering(start, step, labels: list[str]) -> tuple[list, list[dict[str, int]]]:
    """The states reachable from ``start``, numbered in BFS order (the
    start is 0) following ``labels`` in order, and their transition rows;
    ``step(state, label)`` is the successor, or None for no transition."""
    index = {start: 0}
    order = [start]
    transitions: list[dict[str, int]] = []
    for current in order:  # the list grows while it is read
        row: dict[str, int] = {}
        for lab in labels:
            nxt = step(current, lab)
            if nxt is None:
                continue
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row[lab] = index[nxt]
        transitions.append(row)
    return order, transitions


def determinize(nfa: Nfa, labels: list[str]) -> Dfa:
    def step(current: frozenset[int], lab: str) -> frozenset[int] | None:
        targets = set()
        for s in current:
            targets.update(nfa.edges.get((s, lab), ()))
        return _closure(nfa, frozenset(targets)) if targets else None

    order, transitions = _bfs_numbering(_closure(nfa, frozenset([nfa.start])), step, labels)
    accepting = frozenset(i for i, st in enumerate(order) if nfa.accept in st)
    return Dfa(0, accepting, transitions)


def minimize(dfa: Dfa, labels: list[str]) -> Dfa:
    """The minimal DFA of ``dfa``'s language, by Hopcroft's partition
    refinement (Hopcroft 1971).

    A missing transition goes to an implicit dead state, which is refined
    like any other and dropped from the result with every state equivalent
    to it.  States are numbered by ``_bfs_numbering``, as ``determinize``
    numbers them.
    """
    dead = dfa.n_states
    # inverse[lab][t]: the states whose ``lab`` transition leads to t; the
    # dead state (no row of its own) leads back to itself
    inverse = {lab: [[] for _ in range(dead + 1)] for lab in labels}
    for q, row in enumerate([*dfa.transitions, {}]):
        for lab in labels:
            inverse[lab][row.get(lab, dead)].append(q)
    rejecting = set(range(dead + 1)) - dfa.accepting
    blocks = [b for b in (set(dfa.accepting), rejecting) if b]
    block_of = [0] * (dead + 1)
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    smaller = min(range(len(blocks)), key=lambda i: len(blocks[i]))
    work = [(smaller, lab) for lab in labels]
    queued = set(work)
    while work:
        splitter = work.pop()
        queued.discard(splitter)
        i, lab = splitter
        sources = inverse[lab]
        hit: dict[int, list[int]] = {}
        for t in blocks[i]:
            for q in sources[t]:
                hit.setdefault(block_of[q], []).append(q)
        for j, moved in hit.items():
            block = blocks[j]
            if len(moved) == len(block):
                continue
            new = len(blocks)
            blocks.append(set(moved))
            block.difference_update(moved)
            for q in moved:
                block_of[q] = new
            for c in labels:
                # the smaller half suffices, unless (j, c) is still pending
                pair = (new, c) if (j, c) in queued or len(moved) <= len(block) else (j, c)
                work.append(pair)
                queued.add(pair)

    dead_block = block_of[dead]
    member = [min(block) for block in blocks]  # min: only {dead} has no state with a row

    def step(b: int, lab: str) -> int | None:
        t = dfa.transitions[member[b]].get(lab)
        return None if t is None or block_of[t] == dead_block else block_of[t]

    order, transitions = _bfs_numbering(block_of[dfa.start], step, labels)
    accepting = frozenset(i for i, b in enumerate(order) if member[b] in dfa.accepting)
    return Dfa(0, accepting, transitions)


@functools.lru_cache(maxsize=256)
def system_dfa(system: SystemDef) -> Dfa:
    """The system's minimal DFA over its labels, built once per system and
    shared: callers must not modify it, beyond adding to ``derived``."""
    labels = [d.label for d in system.alphabet]
    return minimize(determinize(build_nfa(system.expr), labels), labels)


def matches(system: SystemDef, s: str) -> bool:
    """Membership test: is ``s`` (a concatenation of alphabet labels) in the
    language of the system?

    ``s`` is read as its only segmentation into labels (``split_labels``);
    a string with none raises ``DslError``.
    """
    return system_dfa(system).accepts(split_labels(s, system.label_re))
