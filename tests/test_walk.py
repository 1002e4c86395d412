"""The walks over a regex that keep their own stack (``dsl.preorder`` and
the parser's loop) against the recursive walks they replaced.

``eval_real``, ``format_regex`` and ``build_nfa`` once recursed over the
tree, and so failed on a regex a few hundred symbols long; the parser's
recursive descent refused parentheses nested a few hundred deep.  Their
recursive forms are kept here as references: on trees and texts of
ordinary depth the walks must agree with them exactly, errors included.
The parser reads tokens as plain strings and finds an error's line and
column only when it raises; the parser that kept a ``Token`` with its
position per token is kept here too, and every parse, error or system,
must equal its.  ``SystemDef`` compares and hashes a flat key that the same
walk builds; it must agree with comparing the trees.
"""

import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from functools import reduce

import pytest
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
    _label_clash,
    _Parser,
    build_jk_system,
    children,
    format_regex,
    label_regex,
    load_system,
    parse_system,
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
        while self.peek() == "|":
            self.next()
            node = Union(node, self._parse_concat(labels))
        return node

    def _parse_concat(self, labels):
        node = self._parse_postfix(labels)
        while (tok := self.peek()) is not None and tok not in ("|", ")", ";", ",", "}"):
            node = Concat(node, self._parse_postfix(labels))
        return node

    def _parse_postfix(self, labels):
        node = self._parse_group_or_atom(labels)
        while (tok := self.peek()) is not None:
            if tok == "*":
                self.next()
                node = Star(node)
            elif tok == "{":
                self.next()
                node = self._parse_repeat(node)
            else:
                break
        return node

    def _parse_group_or_atom(self, labels):
        word = self.next()
        if word == "(":
            node = self._parse_union(labels)
            self.expect(")")
            return node
        if word == "eps":
            return EPSILON
        if not re.fullmatch(r"[A-Za-z0-9_]+", word):
            raise self.error(f"unexpected token {word!r}")
        if word in labels:
            return Symbol(word)
        try:
            parts = split_labels(word, label_regex(labels))
        except DslError:
            raise self.error(f"undeclared symbol {word!r}") from None
        node = Symbol(parts[0])
        for lab in parts[1:]:
            node = Concat(node, Symbol(lab))
        return node


# --- reference: the parser that kept each token's position ---------------


@dataclass
class Token:
    text: str
    line: int
    col: int


def token_tokenize(text):
    toks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in re.finditer(r"[-+]?[A-Za-z0-9_.]+(?:[-+][0-9]+)?|[(){}|,*;=]|\S", line):
            toks.append(Token(m.group(), lineno, m.start() + 1))
    return toks


class TokenParser:
    """The parser as it was when every token carried its line and column:
    each error is placed by the token at hand."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else Token("", 1, 1)
            raise DslError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise DslError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def parse_system(self, name):
        decls = []
        while True:
            tok = self.peek()
            if tok is None:
                raise DslError("missing 'expr:' clause", 1, 1)
            if tok.text == "sym":
                self.next()
                self._parse_sym_block(decls)
            elif tok.text == "expr":
                self.next()
                break
            else:
                raise DslError(f"expected 'sym' or 'expr', got {tok.text!r}", tok.line, tok.col)
        colon = self.next()
        if colon.text != ":":
            raise DslError(f"expected ':' after 'expr', got {colon.text!r}", colon.line, colon.col)
        if not decls:
            raise DslError("no symbols declared", colon.line, colon.col)
        expr = self._parse_union({d.label for d in decls})
        if (trailing := self.peek()) is not None:
            raise DslError(f"unexpected token {trailing.text!r}", trailing.line, trailing.col)
        return SystemDef(alphabet=tuple(decls), expr=expr, name=name)

    def _parse_sym_block(self, decls):
        start = len(decls)
        while True:
            tok = self.next()
            if tok.text == ";":
                if len(decls) == start:
                    raise DslError("empty 'sym' declaration", tok.line, tok.col)
                return
            label = tok.text
            if not re.fullmatch(r"[A-Za-z0-9_]+", label):
                raise DslError(f"bad symbol label {label!r}", tok.line, tok.col)
            if label == "eps":
                raise DslError("'eps' is reserved for the empty string", tok.line, tok.col)
            if clash := _label_clash(label, (d.label for d in decls)):
                raise DslError(clash, tok.line, tok.col)
            self.expect("=")
            wtok = self.next()
            try:
                decls.append(SymbolDecl(label, float(wtok.text)))
            except DslError as exc:
                raise DslError(str(exc), wtok.line, wtok.col) from None
            except ValueError:
                raise DslError(f"bad weight {wtok.text!r}", wtok.line, wtok.col) from None

    def _parse_union(self, labels):
        stack = []
        union = concat = None
        while True:
            tok = self.next()
            if tok.text == "(":
                stack.append((union, concat))
                union = concat = None
                continue
            node = self._parse_atom(tok, labels)
            while True:
                while (tok := self.peek()) is not None and tok.text in ("*", "{"):
                    self.next()
                    node = Star(node) if tok.text == "*" else self._parse_repeat(node)
                concat = node if concat is None else Concat(concat, node)
                if tok is not None and tok.text not in ("|", ")", ";", ",", "}"):
                    break
                union = concat if union is None else Union(union, concat)
                if tok is not None and tok.text == "|":
                    self.next()
                    concat = None
                    break
                if not stack:
                    return union
                self.expect(")")
                node = union
                union, concat = stack.pop()

    def _parse_repeat(self, node):
        lo_tok = self.next()
        self.expect(",")
        hi_tok = self.next()
        self.expect("}")
        try:
            lo, hi = int(lo_tok.text), int(hi_tok.text)
        except ValueError:
            raise DslError("repetition bounds must be integers", lo_tok.line, lo_tok.col) from None
        if lo < 0 or hi < lo:
            raise DslError(f"bad repetition bounds {{{lo},{hi}}}", lo_tok.line, lo_tok.col)
        return Repeat(node, lo, hi)

    def _parse_atom(self, tok, labels):
        if tok.text == "eps":
            return EPSILON
        if tok.text == "expr" and getattr(self.peek(), "text", "") == ":":
            raise DslError("duplicate 'expr:' clause", tok.line, tok.col)
        word = tok.text
        if word in labels:
            return Symbol(word)
        try:
            parts = split_labels(word, label_regex(labels))
        except DslError:
            kind = "undeclared symbol" if re.fullmatch(r"[A-Za-z0-9_]+", word) else "unexpected token"
            raise DslError(f"{kind} {word!r}", tok.line, tok.col) from None
        return reduce(Concat, map(Symbol, parts))


def token_load_system(path):
    """The file read in text mode, as ``load_system`` read it before it
    read bytes, and parsed by ``TokenParser``."""
    with open(path, encoding="utf-8-sig") as fh:
        return TokenParser(token_tokenize(fh.read())).parse_system(str(path))


# --- the walk -------------------------------------------------------------


def test_preorder_lists_each_node_before_its_children_left_to_right():
    a, b = Symbol("a"), Symbol("b")
    left, right = Star(a), Repeat(b, 1, 2)
    expr = Union(Concat(left, right), Epsilon())
    assert preorder(expr) == [expr, expr.left, left, a, right, b, expr.right]


def test_children_of_a_non_node_is_a_type_error():
    with pytest.raises(TypeError, match="not a regex node: 'a'"):
        children("a")


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


def _outcome_of(parse, *args):
    """The system ``parse`` reads, or its error's message, line and column."""
    try:
        return parse(*args)
    except DslError as exc:
        return str(exc), exc.line, exc.col


def _parsed(parser, text):
    """The system a parser reads from ``text``, or its error's message,
    line and column."""
    return _outcome_of(lambda: parser(text).parse_system(""))


def _token_parsed(text):
    return _outcome_of(lambda: TokenParser(token_tokenize(text)).parse_system(""))


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
    assert _parsed(_Parser, text) == _parsed(RecursiveParser, text) == _token_parsed(text)


# the same, over several lines: line ends of every kind, tabs, comments,
# whitespace that ends a line (\f) or does not (\t), and a BOM, which is a
# token of its own in a text that did not come from a file
_LINE_SEPARATORS = st.sampled_from(
    [" ", "", "\n", "\t", "\r\n", "\r", " # a note; sym b=2\n", "#)\r\n", "\f", "\ufeff", "\t#\r"]
)
_HEADERS = st.sampled_from([
    _HEADER,
    "sym a=1\tb=2;\r\n# c too\r\nsym c=1.5;\r\nexpr:",
    "\ufeffsym a=1 b=2 c=1.5;\nexpr:",
    "# a comment\r\tsym a=1 b=2 # c=9\n c=1.5 ;\r\n\texpr\n:",
    "sym a=1 b=2 c=1.5;",  # then any tokens: mostly an error in the header
    "",
])
_TEXTS = st.tuples(
    _HEADERS,
    st.lists(st.tuples(_LINE_SEPARATORS, st.sampled_from(_TOKENS + ["sym", "expr", "=", "#"])), max_size=14),
).map(lambda t: t[0] + "".join(sep + tok for sep, tok in t[1]))


@seed(41)
@settings(max_examples=1000, deadline=None)
@given(_TEXTS)
def test_parser_over_lines_equals_the_token_parser(text):
    assert _parsed(_Parser, text) == _token_parsed(text)


def test_a_file_reads_as_the_token_parser_read_it_in_text_mode(tmp_path):
    # CRLF and CR line ends, a BOM and bytes that are no UTF-8: the same
    # system, or the same error with its line and column, or the same
    # decoding error
    rng = random.Random(41)
    path = tmp_path / "system.cs"
    bodies = [
        "sym a=1; # one label\n# comment line\nexpr: (a a\n  | a b)*\n",
        "sym a=1 b=2;\n\nexpr: (a | b a)*\n",
        "sym a=1\tb=2; # x\n\texpr:\n(a\n|\n b)*",
        "sym a=1 b=2;\nexpr: a{1,2\n",
        "\n\n",
    ]
    seen = set()
    for _ in range(300):
        text = rng.choice(bodies)
        if rng.random() < 0.5:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_TOKENS + ["\n", "#", "\t"]) + text[i:]
        data = text.replace("\n", rng.choice(["\n", "\r\n", "\r"])).encode()
        if rng.random() < 0.5:
            data = b"\xef\xbb\xbf" + data
        if rng.random() < 0.1:
            i = rng.randrange(len(data) + 1)
            data = data[:i] + b"\xff" + data[i:]
        path.write_bytes(data)
        try:
            expected = _outcome_of(token_load_system, path)
        except UnicodeDecodeError as exc:
            expected = str(exc)
        try:
            got = _outcome_of(load_system, path)
        except UnicodeDecodeError as exc:
            got = str(exc)
        assert got == expected, data
        seen.add(type(expected))
    assert seen == {SystemDef, tuple, str}


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


def test_a_parsed_system_equals_the_one_built_through_the_api():
    text = "sym a=1 b=1.5;\nexpr: (a{1,3} b)* | eps\n"
    expr = Union(Star(Concat(Repeat(Symbol("a"), 1, 3), Symbol("b"))), EPSILON)
    alphabet = (SymbolDecl("a", 1.0), SymbolDecl("b", 1.5))
    parsed, built = parse_system(text, "x"), SystemDef(alphabet, expr, "x")
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed.label_weights == built.label_weights == (("a", 1.0), ("b", 1.5))
    assert system_dfa(parsed) is system_dfa(built)
    for other in (
        SystemDef((SymbolDecl("a", 1.0), SymbolDecl("b", 2.5)), expr, "x"),  # one weight
        SystemDef((SymbolDecl("a", 1.0000000000000002), alphabet[1]), expr, "x"),
        SystemDef(alphabet, expr, "y"),  # the name
        parse_system(text),
    ):
        assert parsed != other and not parsed == other


def test_jk_systems_share_one_alphabet():
    assert build_jk_system(2, 3).alphabet is build_jk_system(5, 1).alphabet
    assert build_jk_system(2, 3) == build_jk_system(2, 3) != build_jk_system(3, 2)


def test_a_pickled_system_hashes_as_one_built_here():
    # the hash is kept, and a string hashes differently in another process
    text = "sym a=1 b=1.5;\nexpr: (a{1,3} b)*\n"
    system = parse_system(text, "x")
    assert pickle.loads(pickle.dumps(system)) == system
    assert hash(copy.deepcopy(system)) == hash(system)
    code = (
        "import pickle, sys; from concap.dsl import parse_system; "
        f"sys.stdout.buffer.write(pickle.dumps(parse_system({text!r}, 'x')))"
    )
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        other = pickle.loads(data)
        assert other == system and hash(other) == hash(system)
        assert {system: 1}[other] == 1


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
