"""Textual definition language for weighted constrained systems.

A system is declared as a symbol alphabet with finite positive real weights
plus a regular expression over those symbols::

    # at most two consecutive 0s or 1s
    sym 0=1 1=1;
    expr: (0|00)(1|11)*

Supported regex syntax: juxtaposition for concatenation, ``|`` for union,
postfix ``*`` for Kleene star, ``eps`` for the empty string, parentheses,
and bounded repetition ``a{m,n}``, one ``Repeat`` node (compiled to a chain
of n copies of ``a``, so n is at most ``sys.maxsize``; printed back as
written).  Postfix operators bind tighter than concatenation,
concatenation tighter than union.  The expression runs to the end of the
text.  Every walk over a regex tree keeps a stack of its own
(``preorder``, and ``_regex_key``'s walk, which emits its tokens as it
goes), and the parser keeps one too, a level per open parenthesis, so a
tree as deep as a long or deeply nested regex is read and walked like any
other.  The parser reads the text's tokens as plain
strings; an error finds its line and column by reading the text again, so
a text that parses pays for no position.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, reduce


class DslError(ValueError):
    """Problem in a system definition; carries a 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Symbol:
    label: str


@dataclass(frozen=True)
class Epsilon:
    pass


class _Interior:
    """Equality, hash and repr of a node with children, each by one flat
    walk of its tree (``_regex_key``, ``format_regex``): those a dataclass
    generates recurse, and a long regex is deeper than the recursion limit."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _regex_key(self) == _regex_key(other)

    def __hash__(self):
        return hash(_regex_key(self))

    def __repr__(self):
        return f"{type(self).__name__}({format_regex(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Concat(_Interior):
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True, eq=False, repr=False)
class Union(_Interior):
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True, eq=False, repr=False)
class Star(_Interior):
    child: "Regex"


@dataclass(frozen=True, eq=False, repr=False)
class Repeat(_Interior):  # child{lo,hi}: child from lo to hi times
    child: "Regex"
    lo: int
    hi: int


Regex = Symbol | Epsilon | Concat | Union | Star | Repeat

EPSILON = Epsilon()


def children(node: Regex) -> tuple[Regex, ...]:
    """A regex node's children, left to right."""
    kind = type(node)
    if kind is Symbol or kind is Epsilon:
        return ()
    if kind is Concat or kind is Union:
        return node.left, node.right
    if kind is Star or kind is Repeat:
        return (node.child,)
    raise TypeError(f"not a regex node: {node!r}")


def preorder(expr: Regex, below=children) -> list[Regex]:
    """Every node under ``expr``, each before the nodes ``below`` it lists,
    left to right, walked with a stack of its own.  Read from the end, the
    list reaches each node after its children, its leftmost child last."""
    order: list[Regex] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += below(node)[::-1]
    return order


def _regex_key(expr: Regex) -> tuple:
    """The regex as a flat tuple that stands for its tree in comparisons:
    each node's token in preorder, a symbol's label, a repetition's bounds
    (lo, hi), any other node's class, which no label or bounds equal.  Each
    kind of node has a fixed number of children, so equal keys are equal
    trees.  The tokens are emitted in one walk with a stack of its own, the
    walk of ``preorder``, with no list of the nodes between."""
    tokens: list = []
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Symbol:
            tokens.append(node.label)
        elif kind is Concat or kind is Union:
            tokens.append(kind)
            stack += (node.right, node.left)
        elif kind is Star:
            tokens.append(kind)
            stack.append(node.child)
        elif kind is Repeat:
            tokens.append((node.lo, node.hi))
            stack.append(node.child)
        elif kind is Epsilon:
            tokens.append(kind)
        else:
            raise TypeError(f"not a regex node: {node!r}")
    return tuple(tokens)


@dataclass(frozen=True)
class SymbolDecl:
    label: str
    weight: float

    def __post_init__(self):
        if not self.label:
            raise DslError("symbol label must be nonempty")
        if not 0 < self.weight < math.inf:  # nan fails too
            raise DslError(f"weight of {self.label!r} must be finite and positive, got {self.weight}")


@dataclass(frozen=True)
class SystemDef:
    """A named alphabet-plus-regex constraint definition. Immutable.

    Systems compare and hash by a flat key made in ``__post_init__``: the
    (label, weight) pairs (``label_weights``), the regex's ``_regex_key``
    tokens and the name, all plain tuples and strings, so a comparison runs
    in C and recurses nowhere, and the dataclass hashes the same key."""

    alphabet: tuple[SymbolDecl, ...] = field(compare=False)
    expr: Regex = field(compare=False)
    name: str = field(default="", compare=False)
    _key: tuple = field(init=False, repr=False)  # all that is compared: flat, never recursed
    label_weights: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alphabet:
            raise DslError("alphabet must be nonempty")
        labels = [d.label for d in self.alphabet]
        for i, label in enumerate(labels):
            if clash := _label_clash(label, labels[:i]):
                raise DslError(clash)
        # the first undeclared symbol or bad bounds from the left is the error
        declared = set(labels)
        tokens = _regex_key(self.expr)
        for token in tokens:
            kind = type(token)
            if kind is tuple:
                if bad := _bounds_error(*token):
                    raise DslError(bad)
            elif kind is not type and token not in declared:  # a label, not a node's class
                raise DslError(f"undeclared symbol {token!r}")
        label_weights = tuple((d.label, d.weight) for d in self.alphabet)
        key = (label_weights, tokens, self.name)
        object.__setattr__(self, "label_weights", label_weights)
        object.__setattr__(self, "_key", key)

    def __repr__(self) -> str:
        # the regex as the text it parses from
        return f"SystemDef(alphabet={self.alphabet!r}, expr={format_regex(self.expr)!r}, name={self.name!r})"

    @property
    def weights(self) -> dict[str, float]:
        return dict(self.label_weights)

    @cached_property
    def label_re(self) -> re.Pattern[str]:
        """The label regex of ``split_labels``, built once per system."""
        return label_regex(d.label for d in self.alphabet)

    def string_weight(self, s: str) -> float:
        """Weight of a string, summing per-symbol weights (additivity)."""
        w = self.weights
        total = 0.0
        for lab in split_labels(s, self.label_re):
            total += w[lab]
        return total


def _bounds_error(lo: int, hi: int) -> str | None:
    """The error for repetition bounds ``{lo,hi}``, if they are not
    0 <= lo <= hi, or hi exceeds ``sys.maxsize``, the most copies of a
    regex a chain can hold."""
    if not 0 <= lo <= hi:
        return f"bad repetition bounds {{{lo},{hi}}}"
    if hi > sys.maxsize:
        return f"repetition bound {hi} exceeds {sys.maxsize}"
    return None


def _label_clash(label: str, earlier: Iterable[str]) -> str | None:
    """The error for declaring ``label`` after the labels ``earlier``, if it
    repeats one of them or one of the two is a prefix of the other."""
    for other in earlier:
        if label == other:
            return f"duplicate symbol label {label!r}"
        if label.startswith(other) or other.startswith(label):
            a, b = sorted((label, other), key=len)
            return f"label {a!r} is a prefix of label {b!r}; labels must be prefix-free"
    return None


def label_regex(labels: Iterable[str]) -> re.Pattern[str]:
    """Regex matching the one of ``labels``, which are prefix-free, that
    starts at a position."""
    return re.compile("|".join(map(re.escape, labels)))


def split_labels(s: str, label_re: re.Pattern[str]) -> list[str]:
    """Segment a plain string into labels, taking at each position the
    label that ``label_re`` (from ``label_regex``) matches there.

    A ``SystemDef``'s labels are prefix-free, so at most one of them starts
    at any position and this is the string's only segmentation.  A string
    with no segmentation raises ``DslError``.
    """
    parts = label_re.findall(s)
    if "".join(parts) != s:  # findall skipped a position where no label starts
        i = 0
        for part in parts:
            if not s.startswith(part, i):
                break
            i += len(part)
        raise DslError(f"no label starts at position {i} (character {s[i]!r})")
    return parts


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"[-+]?[A-Za-z0-9_.]+(?:[-+][0-9]+)?|[(){}|,*;=]|\S")


def _tokenize(text: str) -> list[str]:
    """The text's tokens, as plain strings: line by line, each line cut at
    its first ``#``, the matches of ``_TOKEN_RE``.  No position is kept;
    ``_position`` finds a token's again, which only an error needs."""
    tokens: list[str] = []
    for line in text.splitlines():
        tokens += _TOKEN_RE.findall(line.split("#", 1)[0])
    return tokens


def _position(text: str, index: int) -> tuple[int, int]:
    """The 1-based (line, column) of token ``index`` of ``_tokenize(text)``,
    found by reading the text again as ``_tokenize`` does; (1, 1) when the
    text has no such token."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            if index == 0:
                return lineno, m.start() + 1
            index -= 1
    return 1, 1


class _Parser:
    """Reads a system off the text's tokens, ``_tokenize``'s strings.  An
    error is placed at a token by its index, and only then is the token's
    line and column looked up in the text (``error``)."""

    def __init__(self, text: str):
        self.text = text
        self.toks: list[str | None] = _tokenize(text) + [None]  # None: the end, never read past
        self.pos = 0

    def error(self, message: str, index: int | None = None) -> DslError:
        """A ``DslError`` at token ``index``, by default the last one read."""
        return DslError(message, *_position(self.text, self.pos - 1 if index is None else index))

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.toks[self.pos]
        if tok is None:  # placed at the last token, at 1:1 if there is none
            raise self.error("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, got {tok!r}")

    # --- declarations

    def parse_system(self, name: str) -> SystemDef:
        decls: list[SymbolDecl] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise DslError("missing 'expr:' clause", 1, 1)
            if tok == "sym":
                self.next()
                self._parse_sym_block(decls)
            elif tok == "expr":
                self.next()
                break
            else:
                raise self.error(f"expected 'sym' or 'expr', got {tok!r}", self.pos)
        colon = self.next()  # ':' is a token of its own (\S), and never part of a regex
        if colon != ":":
            raise self.error(f"expected ':' after 'expr', got {colon!r}")
        if not decls:
            raise self.error("no symbols declared")
        expr = self._parse_union({d.label for d in decls})
        if (trailing := self.peek()) is not None:  # the expression runs to the end
            raise self.error(f"unexpected token {trailing!r}", self.pos)
        return SystemDef(alphabet=tuple(decls), expr=expr, name=name)

    def _parse_sym_block(self, decls: list[SymbolDecl]) -> None:
        """Parse one ``sym`` block onto ``decls``, the declarations so far."""
        start = len(decls)
        while True:
            label = self.next()
            if label == ";":
                if len(decls) == start:
                    raise self.error("empty 'sym' declaration")
                return
            if not re.fullmatch(r"[A-Za-z0-9_]+", label):
                raise self.error(f"bad symbol label {label!r}")
            if label == "eps":
                raise self.error("'eps' is reserved for the empty string")
            if clash := _label_clash(label, (d.label for d in decls)):
                raise self.error(clash)
            self.expect("=")
            weight = self.next()
            try:
                decls.append(SymbolDecl(label, float(weight)))
            except DslError as exc:  # SymbolDecl's weight check, placed at the token
                raise self.error(str(exc)) from None
            except ValueError:
                raise self.error(f"bad weight {weight!r}") from None

    # --- regex, precedence: union < concat < star/repeat

    def _parse_union(self, labels: set[str]) -> Regex:
        """The regex from here to its end, read in one loop with a stack of
        its own: per open parenthesis, the union and the concatenation
        before it.  Unions and concatenations fold to the left."""
        stack: list[tuple[Regex | None, Regex | None]] = []
        union = concat = None
        while True:
            tok = self.next()
            if tok == "(":
                stack.append((union, concat))
                union = concat = None
                continue
            node = self._parse_atom(tok, labels)
            while True:
                while (tok := self.peek()) in ("*", "{"):
                    self.next()
                    node = Star(node) if tok == "*" else self._parse_repeat(node)
                concat = node if concat is None else Concat(concat, node)
                if tok is not None and tok not in ("|", ")", ";", ",", "}"):
                    break  # the next factor
                union = concat if union is None else Union(union, concat)
                if tok == "|":
                    self.next()
                    concat = None
                    break  # the next alternative
                if not stack:
                    return union
                self.expect(")")
                node = union
                union, concat = stack.pop()

    def _parse_repeat(self, node: Regex) -> Regex:
        at = self.pos  # errors in the bounds are placed at the lower one
        lo_tok = self.next()
        self.expect(",")
        hi_tok = self.next()
        self.expect("}")
        try:
            lo, hi = int(lo_tok), int(hi_tok)
        except ValueError:
            raise self.error("repetition bounds must be integers", at) from None
        if bad := _bounds_error(lo, hi):
            raise self.error(bad, at)
        return Repeat(node, lo, hi)

    def _parse_atom(self, tok: str, labels: set[str]) -> Regex:
        """The atom that ``tok``, the last token read, starts."""
        if tok == "eps":
            return EPSILON
        if tok == "expr" and self.peek() == ":":
            raise self.error("duplicate 'expr:' clause")
        # a bare word is one label, or a juxtaposition of labels ("01")
        if tok in labels:
            return Symbol(tok)
        try:
            parts = split_labels(tok, label_regex(labels))
        except DslError:
            kind = "undeclared symbol" if re.fullmatch(r"[A-Za-z0-9_]+", tok) else "unexpected token"
            raise self.error(f"{kind} {tok!r}") from None
        return reduce(Concat, map(Symbol, parts))


def parse_system(text: str, name: str = "") -> SystemDef:
    """Parse a system definition document into a validated ``SystemDef``."""
    return _Parser(text).parse_system(name)


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, line ends as written; a
    leading byte order mark (BOM) is no part of it."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8-sig")


def load_system(path) -> SystemDef:
    """Read and parse the system definition file at ``path``, named by its
    path, as ``read_text`` reads it."""
    return parse_system(read_text(path), name=str(path))


# ---------------------------------------------------------------------------
# Construction helpers


_BINARY = (SymbolDecl("0", 1.0), SymbolDecl("1", 1.0))  # every (j,k) system's alphabet
JK_NAME = "S_({},{})"  # the (j,k) system's name, JK_NAME.format(j, k)


def build_jk_system(j: int, k: int) -> SystemDef:
    """Run-length-limited binary system: at most ``j`` consecutive 1s and at
    most ``k`` consecutive 0s, both symbols of weight 1.

    The expression has one branch starting with a 1-run and one starting
    with a 0-run; each alternates runs of the other symbol and may end with
    a trailing run or the empty string.
    """
    if j < 1 or k < 1:
        raise ValueError("j and k must be >= 1")
    one, zero = Symbol("1"), Symbol("0")
    ones = Repeat(one, 1, j)
    zeros = Repeat(zero, 1, k)
    branch1 = Concat(Concat(ones, Star(Concat(zeros, ones))), Union(EPSILON, zeros))
    branch2 = Concat(Concat(zeros, Star(Concat(ones, zeros))), Union(EPSILON, ones))
    return SystemDef(
        alphabet=_BINARY,
        expr=Union(branch1, branch2),
        name=JK_NAME.format(j, k),
    )


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse_system)


def format_regex(expr: Regex) -> str:
    parts: list[tuple[str, int]] = []  # (text, precedence) per subtree, left on top

    def operand(prec: int) -> str:
        text, own = parts.pop()
        return f"({text})" if own < prec else text

    for node in reversed(preorder(expr)):
        kind = type(node)
        if kind is Symbol:
            parts.append((node.label, 3))
        elif kind is Epsilon:
            parts.append(("eps", 3))
        elif kind is Union:
            parts.append((f"{operand(0)} | {operand(1)}", 0))
        elif kind is Concat:
            parts.append((f"{operand(1)} {operand(2)}", 1))
        elif kind is Star:
            parts.append((f"{operand(2)}*", 2))
        else:
            parts.append((f"{operand(2)}{{{node.lo},{node.hi}}}", 2))
    return parts[0][0]


def format_system(system: SystemDef) -> str:
    # each weight as the shortest text that reads back as the same float
    decls = " ".join(
        f"{d.label}={repr(float(d.weight)).removesuffix('.0')}" for d in system.alphabet
    )
    return f"sym {decls};\nexpr: {format_regex(system.expr)}\n"
