"""The walks over a regex that keep their own stack (``dsl.preorder`` and
the parser's loop) against the recursive walks they replaced.

``eval_real``, ``format_regex`` and ``build_nfa`` once recursed over the
tree, and so failed on a regex a few hundred symbols long; the parser's
recursive descent refused parentheses nested a few hundred deep.  Their
recursive forms are kept here as references: on trees and texts of
ordinary depth the walks must agree with them exactly, errors included.
``SystemDef`` compares and hashes a flat key that the same walk builds; it
must agree with comparing the trees.
"""

import copy
import math
import re

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap.automata import Nfa, build_nfa, determinize, minimize, system_dfa
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
    _Parser,
    _tokenize,
    format_regex,
    label_regex,
    preorder,
    split_labels,
)
from concap.genfun import DIVERGENT, _finite, abscissa, eval_real

from test_dsl import _regexes  # labels 0, 1 and a

DECLS = (SymbolDecl("0", 1.0), SymbolDecl("1", math.sqrt(2)), SymbolDecl("a", 2.5))
LABELS = [d.label for d in DECLS]
WEIGHTS = {d.label: d.weight for d in DECLS}

# --- references: the recursive walks -------------------------------------


def recursive_eval_real(expr, weights, s):
    match expr:
        case Symbol(label):
            return _finite(math.exp(-weights[label] * s))
        case Epsilon():
            return 1.0
        case Union(l, r):
            left, right = recursive_eval_real(l, weights, s), recursive_eval_real(r, weights, s)
            return _finite(left + right, left, right)
        case Concat(l, r):
            left, right = recursive_eval_real(l, weights, s), recursive_eval_real(r, weights, s)
            return DIVERGENT if DIVERGENT in (left, right) else _finite(left * right)
        case Star(c):
            v = recursive_eval_real(c, weights, s)
            return 1.0 / (1.0 - v) if v < 1.0 else DIVERGENT
        case Repeat(c, lo, hi):
            v = recursive_eval_real(c, weights, s)
            total = 1.0
            for k in range(hi - 1, -1, -1):
                total = total * v + (k >= lo)
            return _finite(total, v)
    raise TypeError(f"not a regex node: {expr!r}")


def recursive_format_regex(node, _prec=0):
    match node:
        case Symbol(label):
            s, prec = label, 3
        case Epsilon():
            s, prec = "eps", 3
        case Union(l, r):
            s, prec = f"{recursive_format_regex(l, 0)} | {recursive_format_regex(r, 1)}", 0
        case Concat(l, r):
            s, prec = f"{recursive_format_regex(l, 1)} {recursive_format_regex(r, 2)}", 1
        case Star(c):
            s, prec = f"{recursive_format_regex(c, 2)}*", 2
        case Repeat(c, lo, hi):
            s, prec = f"{recursive_format_regex(c, 2)}{{{lo},{hi}}}", 2
        case _:
            raise TypeError(f"not a regex node: {node!r}")
    if prec < _prec:
        s = f"({s})"
    return s


def recursive_build_nfa(expr):
    edges, eps, counter = {}, {}, [0]

    def new_state():
        counter[0] += 1
        return counter[0] - 1

    def add_eps(a, b):
        eps.setdefault(a, []).append(b)

    def walk(node):
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
            case Repeat(c, lo, hi):
                ends = [new_state()]
                for _ in range(hi):
                    ca, cb = walk(c)
                    add_eps(ends[-1], ca)
                    ends.append(cb)
                b = new_state()
                for end in ends[lo:]:
                    add_eps(end, b)
                return ends[0], b
        raise TypeError(f"not a regex node: {node!r}")

    start, accept = walk(expr)
    return Nfa(start, accept, edges, eps, counter[0])


class RecursiveParser(_Parser):
    """The parser with its regex read by recursive descent, a method per
    level of precedence: four frames per open parenthesis."""

    def _parse_union(self, labels):
        node = self._parse_concat(labels)
        while (tok := self.peek()) is not None and tok.text == "|":
            self.next()
            node = Union(node, self._parse_concat(labels))
        return node

    def _parse_concat(self, labels):
        node = self._parse_postfix(labels)
        while (tok := self.peek()) is not None and tok.text not in ("|", ")", ";", ",", "}"):
            node = Concat(node, self._parse_postfix(labels))
        return node

    def _parse_postfix(self, labels):
        node = self._parse_group_or_atom(labels)
        while (tok := self.peek()) is not None:
            if tok.text == "*":
                self.next()
                node = Star(node)
            elif tok.text == "{":
                self.next()
                node = self._parse_repeat(node)
            else:
                break
        return node

    def _parse_group_or_atom(self, labels):
        tok = self.next()
        if tok.text == "(":
            node = self._parse_union(labels)
            self.expect(")")
            return node
        if tok.text == "eps":
            return EPSILON
        word = tok.text
        if not re.fullmatch(r"[A-Za-z0-9_]+", word):
            raise DslError(f"unexpected token {word!r}", tok.line, tok.col)
        if word in labels:
            return Symbol(word)
        try:
            parts = split_labels(word, label_regex(labels))
        except DslError:
            raise DslError(f"undeclared symbol {word!r}", tok.line, tok.col) from None
        node = Symbol(parts[0])
        for lab in parts[1:]:
            node = Concat(node, Symbol(lab))
        return node


# --- the walk -------------------------------------------------------------


def test_preorder_lists_each_node_before_its_children_left_to_right():
    a, b = Symbol("a"), Symbol("b")
    left, right = Star(a), Repeat(b, 1, 2)
    expr = Union(Concat(left, right), Epsilon())
    assert preorder(expr) == [expr, expr.left, left, a, right, b, expr.right]


def _outcome(f, *args):
    """The value bit for bit (``float.hex`` tells -0.0 and inf apart), or
    the type of the exception raised."""
    try:
        return f(*args).hex()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


_POINTS = st.one_of(st.sampled_from([-800.0, -1.0, -0.0, 0.0, 1.0, 800.0]), st.floats(-60, 60))


@seed(21)
@settings(max_examples=300, deadline=None)
@given(_regexes(8), _POINTS)
def test_eval_real_equals_the_recursive_evaluation(expr, s):
    assert _outcome(eval_real, expr, WEIGHTS, s) == _outcome(recursive_eval_real, expr, WEIGHTS, s)


@seed(21)
@settings(max_examples=300, deadline=None)
@given(_regexes(12))
def test_format_regex_equals_the_recursive_printing(expr):
    assert format_regex(expr) == recursive_format_regex(expr)


@seed(21)
@settings(max_examples=150, deadline=None)
@given(_regexes(8))
def test_build_nfa_gives_the_recursive_construction_minimal_dfa(expr):
    nfa, reference = build_nfa(expr), recursive_build_nfa(expr)
    assert nfa.n_states == reference.n_states
    dfa = minimize(determinize(nfa, LABELS), LABELS)
    ref_dfa = minimize(determinize(reference, LABELS), LABELS)
    assert (dfa.transitions, dfa.accepting) == (ref_dfa.transitions, ref_dfa.accepting)


# --- the parser -----------------------------------------------------------

_HEADER = "sym a=1 b=2 c=1.5;\nexpr:"
_TOKENS = "a b ab ba c eps ( ) | * { } , 0 1 2 ; x - :".split()


def _parsed(parser, text):
    """The system a parser reads from ``text``, or its error's message,
    line and column."""
    try:
        return parser(_tokenize(text)).parse_system("")
    except DslError as exc:
        return str(exc), exc.line, exc.col


_SEPARATORS = st.sampled_from([" ", "", "\n"])
# random tokens, and printed regexes with one character replaced
_BODIES = st.one_of(
    st.lists(st.tuples(_SEPARATORS, st.sampled_from(_TOKENS)), max_size=12).map(
        lambda parts: "".join(sep + tok for sep, tok in parts)
    ),
    st.builds(
        lambda text, i, new: text[:i] + new + text[i + 1:],
        _regexes(12).map(lambda expr: format_regex(expr).replace("0", "b").replace("1", "c")),
        st.integers(0, 80),
        st.sampled_from(_TOKENS + [""]),
    ),
)


@seed(28)
@settings(max_examples=2000, deadline=None)
@given(_BODIES)
def test_parser_equals_the_recursive_descent(body):
    # mostly malformed: each reads the same tree, or fails with the same
    # first error at the same place
    text = _HEADER + body
    assert _parsed(_Parser, text) == _parsed(RecursiveParser, text)


# --- identity -------------------------------------------------------------

_ALPHABETS = st.sampled_from([
    DECLS, DECLS[::-1], (SymbolDecl("0", 1.0), SymbolDecl("1", 1.0), SymbolDecl("a", 2.5)),
])
_PARTS = st.tuples(_ALPHABETS, _regexes(6), st.sampled_from(["", "x"]))


@seed(21)
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(_PARTS, _PARTS), _PARTS.map(lambda p: (p, copy.deepcopy(p)))))
def test_systems_equal_exactly_when_their_parts_are(pair):
    x, y = (SystemDef(*parts) for parts in pair)
    assert (x == y) == (pair[0] == pair[1]) == (not x != y)
    if x == y:
        assert hash(x) == hash(y)


def test_systems_that_differ_in_one_place_are_unequal():
    a, b = Symbol("a"), Symbol("1")
    base = SystemDef(DECLS, Concat(Repeat(a, 1, 2), b), "x")
    assert base == SystemDef(DECLS, Concat(Repeat(Symbol("a"), 1, 2), Symbol("1")), "x")
    for other in (
        SystemDef(DECLS, Concat(Repeat(a, 1, 3), b), "x"),  # a bound
        SystemDef(DECLS, Concat(Repeat(a, 0, 2), b), "x"),
        SystemDef(DECLS, Concat(Repeat(b, 1, 2), b), "x"),  # a label
        SystemDef(DECLS, Union(Repeat(a, 1, 2), b), "x"),  # a node kind
        SystemDef(DECLS, Concat(b, Repeat(a, 1, 2)), "x"),  # the order of children
        SystemDef(DECLS[::-1], base.expr, "x"),  # the alphabet
        SystemDef(DECLS, base.expr),  # the name
    ):
        assert base != other and not base == other
    assert base != (DECLS, base.expr, "x")


# --- depth ----------------------------------------------------------------


def _chain(depth):
    """A regex ``depth`` levels deep, ``((a | x) b)*`` around ``x`` from
    x = b, with its series at s = 1 and its printed text, each built by the
    chain's own recurrence."""
    a, b = Symbol("a"), Symbol("b")
    node, value, text, prec = b, math.exp(-2.0), "b", 3
    for i in range(depth):
        if i % 3 == 0:
            node, value, text, prec = Union(a, node), math.exp(-1.0) + value, f"a | {text}", 0
        elif i % 3 == 1:
            text = f"({text})" if prec < 1 else text
            node, value, text, prec = Concat(node, b), value * math.exp(-2.0), f"{text} b", 1
        else:
            text = f"({text})" if prec < 2 else text
            node, value, text, prec = Star(node), 1.0 / (1.0 - value), f"{text}*", 2
    return node, value, text


def test_deep_api_built_chain():
    decls = (SymbolDecl("a", 1.0), SymbolDecl("b", 2.0))
    expr, value, text = _chain(3000)
    x, y = SystemDef(decls, expr), SystemDef(decls, _chain(3000)[0])
    assert x == y and hash(x) == hash(y) and x != SystemDef(decls, _chain(2999)[0])
    assert system_dfa(y) is system_dfa(x)
    assert system_dfa(x).transitions == system_dfa(SystemDef(decls, _chain(30)[0])).transitions
    assert abscissa(x) == abscissa(SystemDef(decls, _chain(30)[0]))
    assert eval_real(expr, x.weights, 1.0) == value
    assert format_regex(expr) == text
