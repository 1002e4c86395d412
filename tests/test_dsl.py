import math
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap.automata import build_nfa, matches, system_dfa
from concap.genfun import eval_real
from concap.dsl import (
    Concat,
    DslError,
    Epsilon,
    Repeat,
    Star,
    Symbol,
    SymbolDecl,
    SystemDef,
    Union,
    _regex_key,
    build_jk_system,
    format_regex,
    format_system,
    parse_system,
    preorder,
)

from conftest import all_binary_strings, runlength_ok


def test_single_star():
    s = parse_system("sym a=1.0;\nexpr: a*")
    assert s.expr == Star(Symbol("a"))
    assert s.weights == {"a": 1.0}


def test_sbin_parse(sbin):
    assert sbin.expr == Star(Union(Symbol("0"), Symbol("1")))


def test_union_concat_eps():
    s = parse_system("sym a=0.5;\nexpr: (a a)|eps")
    assert s.expr == Union(Concat(Symbol("a"), Symbol("a")), Epsilon())


def test_precedence_star_concat_union():
    s = parse_system("sym a=1 b=2;\nexpr: a b*|b")
    assert s.expr == Union(Concat(Symbol("a"), Star(Symbol("b"))), Symbol("b"))


def test_juxtaposed_single_char_labels():
    s = parse_system("sym 0=1 1=1;\nexpr: 01|10")
    z, o = Symbol("0"), Symbol("1")
    assert s.expr == Union(Concat(z, o), Concat(o, z))


def test_multichar_labels():
    s = parse_system("sym ab=1.5 c=2;\nexpr: (ab c)*")
    assert s.expr == Star(Concat(Symbol("ab"), Symbol("c")))
    assert s.string_weight("abc") == pytest.approx(3.5)


def test_bounded_repetition_sugar():
    s = parse_system("sym a=1;\nexpr: a{1,2}")
    assert [w for w in ("", "a", "aa", "aaa") if matches(s, w)] == ["a", "aa"]
    for x in (0.3, 1.0, 2.5):  # one derivation per string
        assert eval_real(s.expr, s.weights, x) == pytest.approx(math.exp(-x) + math.exp(-2 * x))
    s0 = parse_system("sym a=1;\nexpr: a{0,1}")
    assert s0.expr == Repeat(Symbol("a"), 0, 1)


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 5), (3, 3), (2, 9), (5, 64), (1, 1000), (700, 1000)])
def test_repetition_linear_size_one_derivation_per_count(lo, hi):
    # node = a | b c has series f = exp(-s) + exp(-2s); node{lo,hi} must
    # have the series f^lo + ... + f^hi, each count derived exactly once
    node = Union(Symbol("a"), Concat(Symbol("b"), Symbol("c")))
    expr = Repeat(node, lo, hi)
    assert build_nfa(expr).n_states == 2 + hi * build_nfa(node).n_states
    weights = {"a": 1.0, "b": 1.0, "c": 1.0}
    for s in (0.7, 1.3):
        f = math.exp(-s) + math.exp(-2 * s)
        want = math.fsum(f**k for k in range(lo, hi + 1))
        assert eval_real(expr, weights, s) == pytest.approx(want, rel=1e-12)


def test_comments_ignored():
    s = parse_system("# header\nsym a=1; # trailing\nexpr: a*  # end\n")
    assert s.expr == Star(Symbol("a"))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("sym a=1;\nexpr: b*", "undeclared"),
        ("sym a=0;\nexpr: a", "positive"),
        ("sym a=-1;\nexpr: a", "weight"),
        ("sym a=1 a=2;\nexpr: a", "duplicate"),
        ("sym a=1;\nexpr: (a", "end of input"),
        ("sym a=1;", "expr"),
        ("expr: a", "sym"),
        ("sym a=1;\nexpr: a)", "unexpected"),
        ("sym eps=1;\nexpr: eps", "reserved"),
        ("sym a=1;\nexpr: a{2,1}", "bounds"),
    ],
)
def test_structured_errors(text, fragment):
    with pytest.raises(DslError) as err:
        parse_system(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("sym a=1;\nexpr: (a;", "expected ')', got ';'", 2, 9),
        ("sym a=1;\nexpr: (a | a a,", "expected ')', got ','", 2, 15),
        ("sym a=1;\nexpr: a | *", "unexpected token '*'", 2, 11),
        ("sym a=1;\nexpr: a (}", "unexpected token '}'", 2, 10),
        ("sym a=1;\nexpr a", "expected ':' after 'expr', got 'a'", 2, 6),
        ("foo a=1;", "expected 'sym' or 'expr', got 'foo'", 1, 1),
        ("sym a=1;\n= a", "expected 'sym' or 'expr', got '='", 2, 1),
        ("sym a=1;\nsym ;\nexpr: a", "empty 'sym' declaration", 2, 5),
        ("sym a-1=1;\nexpr: a", "bad symbol label 'a-1'", 1, 5),
        ("sym (=1;", "bad symbol label '('", 1, 5),
        ("sym a=1;\nexpr: a{x,2}", "repetition bounds must be integers", 2, 9),
        ("sym a=1;\nexpr: a{1,1.5}", "repetition bounds must be integers", 2, 9),
        # a sign is part of its number's token
        ("sym a=1;\nexpr: a{-1,2}", "bad repetition bounds {-1,2}", 2, 9),
        # a chain holds at most sys.maxsize copies
        ("sym a=1 b=1;\nexpr: (a{1,99999999999999999999} b)*",
         f"repetition bound 99999999999999999999 exceeds {sys.maxsize}", 2, 10),
        ("sym a=1;\nexpr: a -a", "unexpected token '-a'", 2, 9),
        # the expression runs to the end of the text: a ';' after it is no end mark
        ("sym a=1;\nexpr: a;", "unexpected token ';'", 2, 8),
        ("sym a=1;\nexpr: a; sym b=2;", "unexpected token ';'", 2, 8),
        ("sym a=1;\nexpr: a; expr: b", "unexpected token ';'", 2, 8),
        # 'expr' then ':' can only start a clause: ':' is never part of a regex
        ("sym a=1;\nexpr: a\nexpr: b", "duplicate 'expr:' clause", 3, 1),
        ("sym a=1;\nexpr: a |\nexpr: a", "duplicate 'expr:' clause", 3, 1),
        ("sym a=1;\nexpr: (a\n expr: a)", "duplicate 'expr:' clause", 3, 2),
        ("sym expr=1;\nexpr: expr\nexpr: expr", "duplicate 'expr:' clause", 3, 1),
    ],
)
def test_parse_errors_are_named_at_their_token(text, message, line, col):
    with pytest.raises(DslError) as err:
        parse_system(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_error_carries_position():
    with pytest.raises(DslError) as err:
        parse_system("sym a=1;\nexpr: b*")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "weight, value",
    [("inf", "inf"), ("1e999", "inf"), ("nan", "nan"), ("-1", "-1.0"), ("-0.5", "-0.5"), ("-inf", "-inf")],
)
def test_weight_that_is_not_finite_is_an_error_at_its_token(weight, value):
    # a signed weight is one token, so its error names the value, not its sign
    with pytest.raises(DslError) as err:
        parse_system(f"sym a=1\n  b={weight};\nexpr: (a|b)*")
    assert (err.value.line, err.value.col) == (2, 5)
    assert f"weight of 'b' must be finite and positive, got {value}" in str(err.value)


def test_a_weight_with_a_plus_sign_reads_as_its_number():
    assert parse_system("sym a=+2 b=1e+2;\nexpr: a b").weights == {"a": 2.0, "b": 100.0}


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0])
def test_symbol_decl_takes_only_finite_positive_weights(weight):
    with pytest.raises(DslError, match="finite and positive"):
        SymbolDecl("a", weight)


def test_symbol_decl_and_system_def_refuse_empty_parts():
    with pytest.raises(DslError) as err:
        SymbolDecl("", 1.0)
    assert str(err.value) == "symbol label must be nonempty"
    with pytest.raises(DslError) as err:
        SystemDef((), Symbol("a"))
    assert str(err.value) == "alphabet must be nonempty"


DEPTH = 1200  # beyond the interpreter's default recursion limit


def _chain(leaf, depth=DEPTH):
    """``leaf`` at the bottom of ``depth`` nested nodes of every kind."""
    node = leaf
    for i in range(depth):
        sibling = Symbol("a")
        node = (
            Concat(node, sibling), Union(sibling, node), Star(node), Repeat(node, 0, 2)
        )[i % 4]
    return node


@pytest.mark.parametrize(
    "leaf, message",
    [
        (Symbol("x"), "undeclared symbol 'x'"),
        (Repeat(Symbol("a"), 3, 2), "bad repetition bounds {3,2}"),
        (Repeat(Symbol("a"), -1, 2), "bad repetition bounds {-1,2}"),
        (Repeat(Symbol("a"), 1, sys.maxsize + 1), f"repetition bound {sys.maxsize + 1} exceeds {sys.maxsize}"),
    ],
)
def test_deep_faults_are_named(leaf, message):
    with pytest.raises(DslError) as err:
        SystemDef((SymbolDecl("a", 1.0),), _chain(leaf))
    assert str(err.value) == message


def test_deep_nodes_compare_hash_and_print_without_recursing():
    a, b = _chain(Symbol("b")), _chain(Symbol("b"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _chain(Symbol("c")) and a != _chain(Repeat(Symbol("b"), 0, 1))
    assert a != _chain(Symbol("b"), DEPTH - 1)
    assert repr(a) == f"Repeat({format_regex(a)!r})"
    # a 2,000-symbol concatenation parsed twice
    long, again = (parse_system("sym a=1 b=1;\nexpr:" + " a b" * 1000).expr for _ in range(2))
    assert long == again and hash(long) == hash(again) and len({long, again}) == 1
    assert repr(long) == f"Concat({' '.join(['a b'] * 1000)!r})"


def reference_regex_key(expr):
    """The reference: the key built from the ``preorder`` list of nodes, in a
    second loop over it."""
    tokens = []
    for node in preorder(expr):
        kind = type(node)
        if kind is Symbol:
            tokens.append(node.label)
        elif kind is Repeat:
            tokens.append((node.lo, node.hi))
        else:
            tokens.append(kind)
    return tuple(tokens)


def test_regex_key_is_the_reference_on_deep_trees():
    long = parse_system("sym a=1 b=2;\nexpr: " + " ".join(["a", "b"] * (DEPTH // 2))).expr
    trees = [_chain(Symbol("b")), _chain(Repeat(Symbol("a"), 0, 1)), _chain(Epsilon()), long]
    for expr in trees:
        assert _regex_key(expr) == reference_regex_key(expr)
    assert len(_regex_key(long)) == 2 * DEPTH - 1


def test_regex_key_of_a_non_node_is_an_error():
    with pytest.raises(TypeError, match="not a regex node"):
        _regex_key(Concat(Symbol("a"), "b"))


@pytest.mark.parametrize(
    "x, y",
    [
        (Concat(Symbol("a"), Symbol("b")), Union(Symbol("a"), Symbol("b"))),
        (Star(Symbol("a")), Repeat(Symbol("a"), 0, 1)),
        (Repeat(Symbol("a"), 0, 1), Repeat(Symbol("a"), 0, 2)),
        (Concat(Symbol("a"), Concat(Symbol("b"), Symbol("c"))), Concat(Concat(Symbol("a"), Symbol("b")), Symbol("c"))),
        (Union(Epsilon(), Symbol("a")), Union(Symbol("a"), Epsilon())),
        (Star(Symbol("a")), Symbol("a")),
    ],
)
def test_different_trees_differ(x, y):
    assert x != y and y != x and x == x and hash(x) == hash(type(x)(*vars(x).values()))


def test_first_fault_from_the_left_is_named():
    expr = Concat(Union(Symbol("a"), Symbol("x")), Concat(Repeat(Symbol("a"), 2, 1), Symbol("y")))
    with pytest.raises(DslError, match="'x'"):
        SystemDef((SymbolDecl("a", 1.0),), expr)
    with pytest.raises(DslError, match="bounds"):
        SystemDef((SymbolDecl("a", 1.0), SymbolDecl("x", 1.0)), expr)


def test_long_concatenation_is_accepted():
    system = parse_system("sym a=1 b=2;\nexpr: " + " ".join(["a", "b"] * (DEPTH // 2)))
    node, length = system.expr, 1
    while isinstance(node, Concat):
        node, length = node.left, length + 1
    assert length == DEPTH


def test_parentheses_nested_deeply_are_read():
    # the parser keeps its own stack, a level per open parenthesis
    text = "sym a=1;\nexpr: " + "(" * 10_000 + "a" + ")" * 10_000
    assert parse_system(text).expr == Symbol("a")


# --- round trip ---------------------------------------------------------

_LABELS = ("0", "1", "a")


def _regexes(depth):
    leaf = st.one_of(
        st.sampled_from([Symbol(lab) for lab in _LABELS]),
        st.just(Epsilon()),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: Concat(*t)),
            st.tuples(inner, inner).map(lambda t: Union(*t)),
            inner.map(Star),
            st.tuples(inner, st.integers(0, 2), st.integers(0, 2)).map(
                lambda t: Repeat(t[0], t[1], t[1] + t[2])
            ),
        ),
        max_leaves=depth,
    )


@settings(max_examples=200, deadline=None)
@given(_regexes(20))
def test_pretty_print_round_trip(expr):
    decls = "sym 0=1 1=1 a=2;"
    text = f"{decls}\nexpr: {format_regex(expr)}"
    assert parse_system(text).expr == expr


@seed(3901)
@settings(max_examples=300, deadline=None)
@given(_regexes(20))
def test_regex_key_is_the_reference(expr):
    assert _regex_key(expr) == reference_regex_key(expr)


def test_format_system_round_trip():
    s = build_jk_system(2, 3)
    again = parse_system(format_system(s))
    assert again.expr == s.expr
    assert again.weights == s.weights


@pytest.mark.parametrize(
    "grow",
    [
        lambda node: Concat(Symbol("b"), node),
        lambda node: Union(Symbol("b"), node),
        lambda node: Concat(Symbol("b"), Star(Union(Symbol("x"), node))),
    ],
    ids=["concat", "union", "star_of_union"],
)
def test_deep_right_nested_system_round_trip(grow):
    # printed with a parenthesis per level, 3,000 levels deep
    node = Symbol("a")
    for _ in range(3000):
        node = grow(node)
    system = SystemDef((SymbolDecl("a", 1.0), SymbolDecl("b", 2.0), SymbolDecl("x", 1.5)), node)
    assert parse_system(format_system(system)) == system


def test_equal_systems_hash_equal_and_share_their_dfa():
    a, b = build_jk_system(10, 10), build_jk_system(10, 10)
    assert a is not b and a == b and hash(a) == hash(b)
    assert system_dfa(b) is system_dfa(a)  # a cache hit, not a second DFA
    assert a != build_jk_system(10, 9) and a != parse_system(format_system(a), name="other")


def test_repr_prints_the_regex_as_text():
    s = parse_system("sym a=1 b=2;\nexpr: (a|b)* a{1,3}", name="x")
    assert repr(s) == (
        "SystemDef(alphabet=(SymbolDecl(label='a', weight=1.0), SymbolDecl(label='b', weight=2.0)),"
        " expr='(a | b)* a{1,3}', name='x')"
    )
    # 2,000 symbols: a tree 2,000 levels deep, which the nodes' own repr recurses through
    long = parse_system("sym a=1 b=1;\nexpr:" + " a b" * 1000)
    assert repr(long).endswith(f"expr='{' '.join(['a b'] * 1000)}', name='')")


@pytest.mark.parametrize("weight, text", [
    (math.sqrt(2), "1.4142135623730951"), (1e-7, "1e-07"), (123456789.0, "123456789"),
    (1e300, "1e+300"),
])
def test_format_system_prints_each_weight_exactly(weight, text):
    s = SystemDef((SymbolDecl("a", 1.0), SymbolDecl("b", weight)), Star(Symbol("b")))
    assert format_system(s) == f"sym a=1 b={text};\nexpr: b*\n"
    assert parse_system(format_system(s)) == s


def test_repetition_printed_as_written():
    s = parse_system("sym a=1 b=1;\nexpr: (a{1,5} b)*")
    assert format_system(s) == "sym a=1 b=1;\nexpr: (a{1,5} b)*\n"
    assert format_regex(parse_system("sym a=1 b=1;\nexpr: (a b){0,2}* a*{1,3}").expr) == (
        "(a b){0,2}* a*{1,3}"
    )


# --- (j,k) preset vs run-length predicate --------------------------------


def test_jk_11_counts():
    s = build_jk_system(1, 1)
    for n in range(1, 11):
        accepted = [w for w in all_binary_strings(n) if matches(s, w)]
        assert len(accepted) == 2  # only the two alternating strings


@pytest.mark.parametrize("j,k,word,expected", [
    (2, 2, "011", True),
    (2, 2, "000", False),
    (1, 2, "0010", True),
    (1, 2, "11", False),
    (1, 1, "0101", True),
    (1, 1, "11", False),
])
def test_jk_membership_examples(j, k, word, expected):
    assert matches(build_jk_system(j, k), word) is expected


def test_empty_string_membership(sbin):
    assert matches(sbin, "") is True  # (0|1)* accepts eps
    assert matches(build_jk_system(2, 2), "") is False


@pytest.mark.parametrize("j,k", [(1, 1), (1, 3), (2, 2), (3, 2), (4, 4), (2, 4)])
def test_jk_matches_equals_predicate(j, k):
    s = build_jk_system(j, k)
    for n in range(1, 13):
        for word in all_binary_strings(n):
            assert matches(s, word) == runlength_ok(word, j, k), (j, k, word)


def test_jk_bound_beyond_maxsize_is_named():
    # the chain of a{1,n} could not hold n copies: a DslError, not an OverflowError
    with pytest.raises(DslError) as err:
        build_jk_system(99999999999999999999, 2)
    assert str(err.value) == f"repetition bound 99999999999999999999 exceeds {sys.maxsize}"
    system = SystemDef(build_jk_system(2, 2).alphabet, Repeat(Symbol("0"), 0, sys.maxsize))
    assert system.expr.hi == sys.maxsize  # the largest bound is no error


def test_jk_rejects_zero():
    with pytest.raises(ValueError):
        build_jk_system(0, 2)
    with pytest.raises(ValueError):
        build_jk_system(2, 0)


def test_matches_rejects_foreign_character(sbin):
    with pytest.raises(DslError):
        matches(sbin, "012")


# --- one segmentation rule: prefix-free labels ---------------------------


def test_prefix_labels_rejected():
    with pytest.raises(DslError) as err:
        parse_system("sym a=1 ab=5 b=1;\nexpr: (a b)*")
    assert "'a'" in str(err.value) and "'ab'" in str(err.value)
    assert (err.value.line, err.value.col) == (1, 9)  # the label 'ab'
    assert "(line 1, column 9)" in str(err.value)


def test_label_clash_located_at_later_label():
    with pytest.raises(DslError) as err:
        parse_system("sym ab=5;\nsym b=1 a=1;\nexpr: (a b)*")
    assert (err.value.line, err.value.col) == (2, 9)
    assert "'a' is a prefix of label 'ab'" in str(err.value)
    with pytest.raises(DslError) as err:
        parse_system("sym a=1\n  a=2;\nexpr: a")
    assert (err.value.line, err.value.col) == (2, 3)
    assert "duplicate" in str(err.value)


def test_label_clash_without_parser_has_no_location():
    with pytest.raises(DslError) as err:
        SystemDef((SymbolDecl("a", 1.0), SymbolDecl("ab", 5.0)), Symbol("a"))
    assert err.value.line == 0
    assert "prefix-free" in str(err.value)


def test_multichar_membership_agrees_with_weight():
    s = parse_system("sym ab=1.5 c=2;\nexpr: (ab c)*")
    for n in range(4):
        word = "abc" * n
        assert matches(s, word)
        assert s.string_weight(word) == pytest.approx(3.5 * n)
    assert not matches(s, "cab")
    assert not matches(s, "ab")
    with pytest.raises(DslError):
        matches(s, "abx")  # a character outside the alphabet
    with pytest.raises(DslError):
        matches(s, "a")  # alphabet characters, but no label sequence


def test_walk_continues_from_any_state():
    s = parse_system("sym ab=1 c=2;\nexpr: ab c*")
    dfa = system_dfa(s)
    after_ab = dfa.walk(["ab"], dfa.start)
    assert dfa.walk(["c", "c"], after_ab) in dfa.accepting
    assert dfa.walk(["ab", "c"], dfa.start) == dfa.walk(["c"], after_ab)
    assert dfa.walk(["ab"], after_ab) is None  # ab ab has no transition
    assert dfa.walk([], after_ab) == after_ab


def test_a_symbol_named_expr_is_read_as_a_symbol():
    s = parse_system("sym expr=1 a=2;\nexpr: expr a* expr")
    assert s.expr == Concat(Concat(Symbol("expr"), Star(Symbol("a"))), Symbol("expr"))
