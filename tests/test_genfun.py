import collections
import dataclasses
import functools
import itertools
import math
import random
import threading
import time
from collections.abc import Iterator
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import build_jk_system, genfun, maxent, parse_system
from concap.automata import Dfa, system_dfa
from concap.dsl import EPSILON, Concat, Epsilon, Repeat, Star, Symbol, SymbolDecl, SystemDef, Union, preorder
from concap.genfun import (
    DEFAULT_TOL,
    DIVERGENT,
    CapacityResult,
    SolverError,
    _finite,
    _least_pivot,
    _pivot_plan,
    _plan_elimination,
    abscissa,
    abscissa_jk,
    bisect_root,
    capacity_jk,
    converges,
    eval_real,
    series,
)
from concap.maxent import WeightedSupport, solve_rate
from concap.spectrum import INV_PHI, gf_tail_bound

from test_automata import SIZES
from test_repeat import _DECLS, _regexes  # the Repeat suite's random regexes

LN2 = math.log(2)
LN_GOLDEN = math.log((1 + math.sqrt(5)) / 2)  # root of x + x^2 = 1


def test_eval_term_zero_is_one():
    # the empty string's term exp(-0 * s)
    for s in (-3.0, 0.0, 7.5):
        assert eval_real(EPSILON, {}, s) == 1.0


def _eval(system, s):
    return eval_real(system.expr, system.weights, s)


def test_eval_sbin_above_capacity(sbin):
    s = LN2 + 0.1
    expected = 1.0 / (1.0 - 2.0 * math.exp(-s))  # = 10.50833194...
    assert _eval(sbin, s) == pytest.approx(expected, abs=1e-12)
    assert _eval(sbin, s) == pytest.approx(10.508331944775056)


def test_eval_sbin_divergent_at_boundary(sbin):
    assert _eval(sbin, LN2) == DIVERGENT
    assert _eval(sbin, LN2 - 0.2) == DIVERGENT


def test_eval_monotone_decreasing(sbin):
    values = [_eval(sbin, s) for s in (0.8, 1.0, 1.5, 3.0)]
    assert values == sorted(values, reverse=True)
    assert all(v >= 0 for v in values)


def test_eval_term_beyond_float_range_raises():
    # the finite language's series is finite at every s, so a value beyond
    # the float range is an overflow, never inf: exp(1000) is no float, and
    # at -300 each term is one but exp(300) exp(600) exp(300) is not
    system = parse_system("sym a=1 b=2;\nexpr: a b a | b")
    for s in (-1000.0, -300.0, -math.inf):
        with pytest.raises(OverflowError):
            _eval(system, s)
    # each branch of a | a is a float at -709.5 (1.35e308), their sum is not
    with pytest.raises(OverflowError):
        _eval(parse_system("sym a=1;\nexpr: a | a"), -709.5)


@pytest.mark.parametrize("text", [
    "sym a=1 b=1 c=1;\nexpr: (a|b){1,1100} c*",  # 2^1100 times a convergent star
    "sym a=1 b=1 z=1000000;\nexpr: ((a|b){1,1100} z)*",  # exp(-1000) brings it back
    "sym a=1 b=1;\nexpr: eps* (a|b){1,1100}",  # an overflow wins over divergence
    "sym a=1 b=1;\nexpr: (a|b){1,1100} | eps*",
    # ambiguous, but its value overflows before the star sees it: no verdict
    "sym a=1;\nexpr: ((a|a){1,1100})*",
])
def test_eval_overflow_is_an_error_not_divergence(text):
    with pytest.raises(OverflowError):
        _eval(parse_system(text), 0.001)


def test_eval_divergent_factor_beats_underflow():
    # (a|a|c)* diverges at s=1 while exp(-100000) underflows to 0.0; the
    # product is divergent, not inf * 0.0 = nan
    system = parse_system("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b")
    assert _eval(system, 1.0) == DIVERGENT
    assert _eval(parse_system("sym a=1 c=1 b=100000;\nexpr: b (a|a|c)*"), 1.0) == DIVERGENT


def test_abscissa_sbin(sbin):
    result = abscissa(sbin)
    assert result.q == pytest.approx(LN2, abs=1e-9)
    assert result.bracket_lo <= result.q <= result.bracket_hi
    assert result.residual <= 1e-12
    assert not result.finite_language


def test_abscissa_certificate(sbin):
    tol = 1e-10
    result = abscissa(sbin, tol=tol)
    assert _eval(sbin, result.q + tol) != DIVERGENT
    assert _eval(sbin, result.q - tol) == DIVERGENT


def test_abscissa_s11_is_zero():
    result = abscissa(build_jk_system(1, 1))
    assert result.q == pytest.approx(0.0, abs=1e-12)


def test_abscissa_s22_golden_ratio():
    result = abscissa(build_jk_system(2, 2))
    assert result.q == pytest.approx(LN_GOLDEN, abs=1e-12)


def test_abscissa_finite_language():
    s = parse_system("sym a=1;\nexpr: a|a a")
    result = abscissa(s)
    assert result.finite_language
    assert result.q == 0.0


def test_abscissa_rejects_bad_tol(sbin):
    with pytest.raises(ValueError):
        abscissa(sbin, tol=0.0)


# --- capacity is a property of the language, read off the DFA ----------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("sym a=1;\nexpr: (a|a)*", 0.0),  # the language is a*
        ("sym 0=1 1=1;\nexpr: (0|1|01)*", LN2),  # the language is (0|1)*
        # exp(-100000 s) underflows to 0.0 at every s the bisection tries
        ("sym a=1 c=1 b=100000;\nexpr: (a|c)* b", LN2),
    ],
)
def test_abscissa_of_the_language(text, expected):
    # D1: the regex's own series counts derivations and diverges above the
    # first two capacities (at ln 2 and 0.8814); D2: the third
    assert abscissa(parse_system(text)).q == pytest.approx(expected, abs=1e-9)


def _repetition_root(n):
    """Root of x^2 (1 + x + ... + x^(n-1)) = 1, x = exp(-s): the capacity
    of (a{1,n} b)* with unit weights, by plain bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = math.exp(-mid)
        if math.fsum(x ** (i + 1) for i in range(1, n + 1)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_abscissa_long_repetition_under_a_second():
    # D3: the repetition used to expand to O(n^2) nodes and recurse past
    # Python's limit; the DFA for n = 1000 is a chain of ~1000 states
    start = time.perf_counter()
    result = abscissa(parse_system("sym a=1 b=1;\nexpr: (a{1,1000} b)*"))
    elapsed = time.perf_counter() - start
    assert result.q == pytest.approx(_repetition_root(1000), abs=1e-9)
    assert elapsed < 1.0


def test_capacity_jk_known_values():
    assert capacity_jk(1, 1) == 0.0
    assert capacity_jk(2, 2) == pytest.approx(LN_GOLDEN, abs=1e-12)
    assert capacity_jk(20, 20) == pytest.approx(LN2, abs=1e-3)


def test_abscissa_jk_is_the_full_result_of_capacity_jk():
    assert abscissa_jk(1, 1) == CapacityResult(0.0, 0.0, 0.0, 0.0, 0)
    for j, k in ((2, 2), (9, 15), (1, 24)):
        result = abscissa_jk(j, k)
        assert result.q == capacity_jk(j, k) == 0.5 * (result.bracket_lo + result.bracket_hi)
        assert result.residual == result.bracket_hi - result.bracket_lo <= DEFAULT_TOL
        assert result.iterations > 0 and not result.finite_language


@pytest.mark.parametrize("tol", [1e-14, 1e-15, 1e-16, 6e-17])
def test_abscissa_jk_and_the_dfa_path_agree_within_a_residual_near_the_float_spacing(tol):
    # cells a few float spacings wide: up to (12,12) the closed form and the
    # pivot test may put the root in neighbouring cells, and may both find
    # the tol unreachable, but never only one of them
    for j in range(1, 13):
        for k in range(1, 13):
            results = []
            for solve in (abscissa_jk, lambda j, k, tol: abscissa(build_jk_system(j, k), tol)):
                try:
                    results.append(solve(j, k, tol))
                except SolverError:
                    results.append(None)
            a, b = results
            if a is None or b is None:
                assert a is b is None, (j, k)
                continue
            for x, y in ((a, b), (b, a)):
                assert y.bracket_lo - y.residual <= x.q <= y.bracket_hi + y.residual, (j, k)


def test_capacity_jk_symmetry_and_monotonicity():
    grid = {(j, k): capacity_jk(j, k) for j in range(1, 7) for k in range(1, 7)}
    for (j, k), q in grid.items():
        assert q == pytest.approx(grid[(k, j)], abs=1e-12)
        assert q <= LN2 + 1e-12
        if j > 1:
            assert q >= grid[(j - 1, k)] - 1e-12
        if k > 1:
            assert q >= grid[(j, k - 1)] - 1e-12


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("k", range(1, 7))
def test_capacity_jk_agrees_with_abscissa(j, k):
    tol = 1e-12
    direct = capacity_jk(j, k, tol=tol)
    via_dfa = abscissa(build_jk_system(j, k), tol=tol).q
    assert abs(direct - via_dfa) <= 2 * tol


@pytest.mark.parametrize(
    "system",
    [s for s, _, _ in SIZES] + [build_jk_system(j, k) for j in range(1, 9) for k in range(1, 9)],
)
def test_converges_above_the_bracket_and_not_below(system):
    # the pivot test abscissa bisects on, read at the bracket's ends; a
    # capacity 0 that the plan decides, as on (1,1), is read just above 0
    result = abscissa(system)
    if _pivot_plan(system).growth < 2:
        assert converges(system, math.ulp(0.0))
    else:
        assert converges(system, result.bracket_hi)
    assert result.bracket_lo == 0.0 or not converges(system, result.bracket_lo)


@pytest.mark.parametrize("s", [0.0, -0.0, -1.0, -1000.0, -1e308, -math.inf])
def test_converges_at_or_below_zero_only_for_a_finite_language(s):
    # no term is below 1 there; exp(1000) used to raise OverflowError
    assert not converges(parse_system("sym 0=1 1=1;\nexpr: (0|1)*"), s)
    assert not converges(build_jk_system(2, 2), s)
    assert not converges(parse_system("sym a=1;\nexpr: (a|a)*"), s)  # capacity 0, not finite
    assert converges(parse_system("sym a=1 b=2;\nexpr: a b a | b"), s)
    assert converges(parse_system("sym a=1;\nexpr: eps"), s)


def test_converges_at_nan_is_an_error():
    for system in (build_jk_system(2, 2), parse_system("sym a=1;\nexpr: a")):
        with pytest.raises(ValueError, match=r"^s must be a number, got nan$"):
            converges(system, math.nan)


# --- the planned pivot test against the dict-based elimination ------------


def reference_edges(system):
    """The system DFA's edges as ``reference_least_pivot`` reads them."""
    weights, edges = system.weights, []
    for transitions in system_dfa(system).transitions:
        targets: dict[int, list[float]] = {}
        for label, j in transitions.items():
            targets.setdefault(j, []).append(weights[label])
        edges.append(list(targets.items()))
    return edges


def reference_least_pivot(edges: list[list[tuple[int, list[float]]]], s: float) -> float:
    """The reference: Gaussian elimination on I - A(s) with each row a dict,
    one exp per edge, rebuilt at every ``s``; returns the least pivot, or
    the first that is not positive."""
    rows: list[dict[int, float]] = []
    column_rows: list[set[int]] = [set() for _ in edges]
    for i, targets in enumerate(edges):
        row = {i: 1.0}
        for j, ws in targets:
            row[j] = row.get(j, 0.0) - sum(math.exp(-w * s) for w in ws)
            column_rows[j].add(i)
        rows.append(row)
    least = math.inf
    for k in range(len(rows) - 1, -1, -1):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        if not pivot > 0.0:
            return pivot
        least = min(least, pivot)
        for i in column_rows[k]:
            if i < k:  # not row k itself, nor a row already eliminated
                row = rows[i]
                factor = row.pop(k) / pivot
                for j, v in pivot_row.items():
                    if j < k:
                        row[j] = row.get(j, 0.0) - factor * v
                        column_rows[j].add(i)
    return least


# 0, a tiny s, a grid in (0, 2), underflow of every exp, inf and nan;
# below 0 the terms exceed 1, and at -1000 every exp overflows
PIVOT_POINTS = (
    [0.0, 1e-300] + [k / 32 for k in range(1, 64)]
    + [700.0, math.inf, math.nan, -1.0, -1000.0, -math.inf]
)


def _outcome(f, *args):
    """``f(*args)`` as a value comparable bit for bit (nan equal to nan),
    or the type of the error it raised."""
    try:
        v = f(*args)
    except OverflowError as exc:
        return type(exc)
    return "nan" if math.isnan(v) else (v, math.copysign(1.0, v))


def assert_plan_matches_reference(system):
    plan, edges = _pivot_plan(system), reference_edges(system)
    for s in PIVOT_POINTS:
        assert _outcome(_least_pivot, plan, s) == _outcome(reference_least_pivot, edges, s), s


# systems on which elimination fills in entries, or with multi-label edges
FILL_IN = [
    parse_system(text)
    for text in (
        "sym 0=1 1=1.5;\nexpr: (0|1)* 0 1 1 0 (0|1)*",
        "sym 0=1 1=1.5;\nexpr: (0|1)* 0 1 0 1 1",
        "sym a=1 b=2 c=3;\nexpr: (a (b|c)* a | b c{1,3})*",
        "sym a=1 b=2 c=3;\nexpr: ((a|b) (a|c){0,2} b)* (a|b|c)",
        "sym a=1 b=2 c=1.5 d=1 e=2.5;\nexpr: (a c d e | b e)*",  # fill above the diagonal
        "sym a=1 b=1.4142135623730951 c=2.5 d=3;\nexpr: (a|b|c)* d",  # three labels summed
    )
]


def fills_in(plan) -> bool:
    """Whether a step writes a fill-in: an update, not an update-less
    pivot's step, that reads its old value from the scratch slot."""
    scratch = len(plan.kinds)
    return any(step[2] == scratch != step[1] for step in plan.steps)


def test_fill_in_systems_fill_in():
    # so the comparison below also covers fill-in and summed label groups
    plans = [_pivot_plan(system) for system in FILL_IN]
    assert [fills_in(plan) for plan in plans] == [True, True, True, False, True, False]
    # no initial entry is 0.0 with no term: those off the diagonal have terms
    assert not any((0.0, -1) in plan.kinds for plan in plans)
    assert [len(plan.groups) for plan in plans] == [1, 0, 1, 3, 0, 1]


@pytest.mark.parametrize(
    "system",
    [s for s, _, _ in SIZES]
    + FILL_IN
    + [build_jk_system(j, k) for j in range(1, 13) for k in range(1, 13)],
)
def test_planned_pivot_is_the_reference_elimination(system):
    assert_plan_matches_reference(system)


@seed(1401)
@settings(max_examples=150, deadline=None)
@given(_regexes())
def test_planned_pivot_is_the_reference_elimination_on_random_regexes(expr):
    # unions under stars give multi-label edges and self-loops, Repeat chains
    assert_plan_matches_reference(SystemDef(_DECLS, expr))


# --- a finite language is read off the DFA's cycles -----------------------


def has_cycle(transitions: list[dict[str, int]]) -> bool:
    """Whether the DFA's graph has a cycle: a depth-first search that meets
    a state still on its path."""
    state = [0] * len(transitions)  # 0 unseen, 1 on the path, 2 done
    for root in range(len(transitions)):
        if state[root]:
            continue
        state[root] = 1
        path = [(root, iter(transitions[root].values()))]
        while path:
            i, targets = path[-1]
            j = next(targets, None)
            if j is None:
                state[i] = 2
                path.pop()
            elif state[j] == 1:
                return True
            elif not state[j]:
                state[j] = 1
                path.append((j, iter(transitions[j].values())))
    return False


def assert_finite_flag(system):
    plan = _pivot_plan(system)
    finite = plan.growth == 0
    assert finite is not has_cycle(system_dfa(system).transitions)
    # the rule the class replaced: every pivot positive at s = 0
    assert finite is (_least_pivot(plan, 0.0) > 0.0)
    return finite


@pytest.mark.parametrize(
    "system, finite",
    [
        (parse_system("sym a=1;\nexpr: eps"), True),
        (parse_system("sym a=1 b=2;\nexpr: a b a | b"), True),
        (parse_system("sym a=1;\nexpr: a{0,50}"), True),
        (parse_system("sym a=1 b=2;\nexpr: a* b"), False),
        (parse_system("sym a=1;\nexpr: (a|a)*"), False),
        (parse_system("sym a=1 b=1;\nexpr: (a{1,40} b)*"), False),
        (build_jk_system(1, 1), False),
        (build_jk_system(2, 2), False),
    ],
)
def test_plan_finite_is_a_dfa_without_cycles(system, finite):
    assert assert_finite_flag(system) is finite


@seed(1402)
@settings(max_examples=300, deadline=None)
@given(_regexes())
def test_plan_finite_is_a_dfa_without_cycles_on_random_regexes(expr):
    assert_finite_flag(SystemDef(_DECLS, expr))


# --- capacity 0 is read off the plan's growth class ----------------------


def tarjan_growth(transitions: list[dict[str, int]]) -> int:
    """The growth class from Tarjan's strongly connected components, found
    with an explicit stack: 2 (exponential) if a component has more
    label-edges inside it than states, so two cycles; else 1 (polynomial)
    if one has any, one cycle; else 0 (finite)."""
    n = len(transitions)
    index, low, numbers = [-1] * n, [0] * n, itertools.count()
    stack: list[int] = []  # Tarjan's stack of states not yet in a component
    on_stack: set[int] = set()
    path: list[tuple[int, Iterator[int]]] = []  # the search path, with each state's targets left
    components = []

    def enter(i: int) -> None:
        index[i] = low[i] = next(numbers)
        stack.append(i)
        on_stack.add(i)
        path.append((i, iter(transitions[i].values())))

    for root in range(n):
        if index[root] < 0:
            enter(root)
        while path:
            i, targets = path[-1]
            j = next(targets, None)
            if j is None:
                path.pop()
                if path:
                    low[path[-1][0]] = min(low[path[-1][0]], low[i])
                if low[i] == index[i]:  # i roots a component: pop it off the stack
                    component = set()
                    while i not in component:
                        component.add(stack.pop())
                    on_stack -= component
                    components.append(component)
            elif index[j] < 0:
                enter(j)
            elif j in on_stack:
                low[i] = min(low[i], index[j])
    # label-edges inside a component minus its states: -1 for a state on no cycle
    excess = max(sum(j in c for i in c for j in transitions[i].values()) - len(c) for c in components)
    return 2 if excess > 0 else 1 if excess == 0 else 0


def reference_abscissa(plan) -> CapacityResult:
    """The bisection ``abscissa`` ran on every cyclic language before the
    plan recorded its growth."""
    lo, hi, iterations = bisect_root(lambda s: -_least_pivot(plan, s), DEFAULT_TOL)
    return CapacityResult(0.5 * (lo + hi), lo, hi, hi - lo, iterations)


def assert_growth_is_tarjans(plan, transitions):
    """The plan's class is Tarjan's, and below 2 exactly where the reference
    bisection's bracket starts at 0.  Returns the class."""
    assert plan.growth == tarjan_growth(transitions)
    reference = reference_abscissa(plan)
    assert (plan.growth < 2) is (reference.bracket_lo == 0.0)
    return plan.growth


@seed(1403)
@settings(max_examples=400, deadline=None)
@given(_regexes())
def test_plan_growth_is_tarjans_on_random_regexes(expr):
    system = SystemDef(_DECLS, expr)
    plan = _pivot_plan(system)
    if assert_growth_is_tarjans(plan, system_dfa(system).transitions) == 2:
        assert abscissa(system) == reference_abscissa(plan)  # bit for bit
    else:
        assert abscissa(system) == CapacityResult(0.0, 0.0, 0.0, 0.0, 0, plan.growth == 0)


RAW_DECLS = (SymbolDecl("a", 1.0), SymbolDecl("b", math.sqrt(2)), SymbolDecl("c", 2.5))


def test_plan_growth_is_tarjans_on_raw_graphs():
    # any graph, not only a minimal DFA's: states that reach no acceptance,
    # self-loops and parallel labels included
    rng = random.Random(1404)
    classes = collections.Counter()
    for _ in range(1500):
        n, density = rng.randint(1, 7), rng.random()
        transitions = [
            {d.label: rng.randrange(n) for d in RAW_DECLS if rng.random() < density} for _ in range(n)
        ]
        classes[assert_growth_is_tarjans(_plan_elimination(transitions, RAW_DECLS), transitions)] += 1
    assert min(classes[growth] for growth in range(3)) >= 200, classes


CAPACITY_ZERO = [
    parse_system("sym a=1;\nexpr: (a|a)*"),
    parse_system("sym a=1 b=2;\nexpr: a* b*"),
    parse_system("sym a=1 b=2 c=3;\nexpr: a* b* c*"),
    parse_system("sym a=1 b=2 c=3;\nexpr: (a b)* (c a)*"),
    build_jk_system(1, 1),
]


@pytest.mark.parametrize("system", CAPACITY_ZERO)
def test_capacity_0_of_polynomial_growth_needs_no_pivot_test(system):
    plan = _pivot_plan(system)
    assert plan.growth == 1
    with mock.patch.object(genfun, "_least_pivot", wraps=_least_pivot) as spy:
        result = abscissa(system)
        converging = [converges(system, s) for s in (1e-300, math.ulp(0.0), 1.0, math.inf, 0.0, -1.0)]
    assert spy.call_count == 0
    assert result == CapacityResult(0.0, 0.0, 0.0, 0.0, 0, finite_language=False)
    assert converging == [True] * 4 + [False] * 2
    # in floats the pivot test cannot tell 1e-300 from 0, and the bisection
    # that ran before ended in a bracket 9.09e-13 wide
    assert not _least_pivot(plan, 1e-300) > 0.0
    reference = reference_abscissa(plan)
    assert reference.bracket_lo == 0.0 < reference.bracket_hi == reference.residual < DEFAULT_TOL


@pytest.mark.parametrize(
    "text",
    [
        "sym 0=1 1=1;\nexpr: (0|1)*",  # hi = 1 at once
        "sym a=0.1 b=0.1;\nexpr: (a|b)*",  # capacity 10 ln 2: hi doubles to 8
        "sym a=1 b=1;\nexpr: (a{1,40} b)*",
        "sym a=1;\nexpr: (a|a)*",  # capacity 0 of polynomial growth: no test at all
        "sym a=1 b=2;\nexpr: a b a | b",  # finite: no test at all
        "sym a=1;\nexpr: eps",
    ],
)
def test_abscissa_tests_only_to_find_hi_and_to_bisect(text):
    system = parse_system(text)
    with mock.patch.object(genfun, "_least_pivot", wraps=_least_pivot) as spy:
        result = abscissa(system)
    points = [call.args[1] for call in spy.call_args_list]
    if _pivot_plan(system).growth < 2:
        assert points == []
        assert result.iterations == 0
        return
    # hi doubles from 1 until the series converges there
    doublings = next(k for k in itertools.count() if converges(system, 2.0**k))
    assert points[: doublings + 1] == [2.0**k for k in range(doublings + 1)]
    assert len(points) == doublings + 1 + result.iterations
    assert 0.0 not in points


def reference_slot_count(edges) -> int:
    """The entries of the reference elimination: each row's diagonal and
    targets, plus every fill-in."""
    rows = [{i, *(j for j, _ in targets)} for i, targets in enumerate(edges)]
    count = sum(len(row) for row in rows)
    column_rows: list[set[int]] = [set() for _ in edges]
    for i, targets in enumerate(edges):
        for j, _ in targets:
            column_rows[j].add(i)
    for k in range(len(rows) - 1, -1, -1):
        for i in column_rows[k]:
            if i < k:
                for j in rows[k]:
                    if j < k and j not in rows[i]:
                        rows[i].add(j)
                        column_rows[j].add(i)
                        count += 1
    return count


def reference_updates(edges):
    """Per pivot, last state first, the entries (i, j) the reference
    elimination updates in the rows it eliminates from."""
    rows = [{i, *(j for j, _ in targets)} for i, targets in enumerate(edges)]
    column_rows: list[set[int]] = [set() for _ in edges]
    for i, targets in enumerate(edges):
        for j, _ in targets:
            column_rows[j].add(i)
    updates = []
    for k in range(len(rows) - 1, -1, -1):
        updated = []
        for i in column_rows[k]:
            if i < k:
                rows[i].discard(k)
                for j in rows[k]:
                    if j < k:
                        rows[i].add(j)
                        column_rows[j].add(i)
                        updated.append((i, j))
        updates.append(updated)
    return updates


@pytest.mark.parametrize("system", FILL_IN + [system for system, _, _ in SIZES])
def test_plan_numbers_its_slots_kind_by_kind(system):
    # a slot per distinct kind, then the scratch slot, then a slot per written
    # entry, numbered in the order of the entries' first writes
    plan = _pivot_plan(system)
    scratch = len(plan.kinds)
    assert len(set(plan.kinds)) == scratch > 0
    assert all(0 <= slot <= scratch + plan.written for step in plan.steps for slot in step)
    first_writes = [dst for _, _, old, dst, _ in plan.steps if old <= scratch < dst]
    assert first_writes == list(range(scratch + 1, scratch + 1 + plan.written))


@pytest.mark.parametrize("system", FILL_IN + [system for system, _, _ in SIZES])
def test_plan_stores_only_the_entries_it_writes(system):
    plan, edges = _pivot_plan(system), reference_edges(system)
    scratch = len(plan.kinds)
    # one slot per distinct entry the reference elimination updates
    assert plan.written == len({entry for updated in reference_updates(edges) for entry in updated})
    assert plan.written < reference_slot_count(edges)
    # every read is a kind, the scratch slot or a slot an earlier step wrote, and
    # a step reads its old value from its own slot once that slot is written
    written: set[int] = set()
    for diag, numerator, old, dst, src in plan.steps:
        assert all(slot <= scratch or slot in written for slot in (diag, numerator, src))
        if dst == scratch:
            assert (numerator, old, dst, src) == (scratch,) * 4
        elif dst in written:
            assert old == dst
        else:
            assert dst > scratch and old <= scratch
            written.add(dst)
    assert written == set(range(scratch + 1, scratch + 1 + plan.written))


def test_a_repetition_stores_a_slot_per_written_entry():
    # of its 295 entries, fill-in included, the steps write 98: only those are stored
    system = parse_system("sym a=1 b=1;\nexpr: (a{1,98} b)*")
    plan = _pivot_plan(system)
    assert reference_slot_count(reference_edges(system)) == 295
    assert plan.written == 98
    assert len(plan.kinds) == 3


@pytest.mark.parametrize(
    "system", FILL_IN + [system for system, _, _ in SIZES] + [parse_system("sym a=1 b=2;\nexpr: a b*")]
)
def test_plan_has_one_step_per_update_and_per_update_less_pivot(system):
    plan = _pivot_plan(system)
    steps, scratch = plan.steps, len(plan.kinds)
    counts = [len(updated) for updated in reference_updates(reference_edges(system))]
    assert len(counts) == system_dfa(system).n_states
    assert len(steps) == sum(counts) + counts.count(0)
    ends = list(itertools.accumulate(max(updates, 1) for updates in counts))
    runs = [steps[end - max(updates, 1) : end] for end, updates in zip(ends, counts)]
    diagonals = []
    for run, updates in zip(runs, counts):
        assert len({step[0] for step in run}) == 1  # a pivot's steps read one diagonal
        on_scratch = [step[1:] == (scratch,) * 4 for step in run]
        assert on_scratch == [updates == 0] * len(run)
        diagonals.append(run[0][0])
    # a diagonal is read from its own written slot, or from a kind of base 1.0 if never written
    written = [diag for diag in diagonals if diag > scratch]
    assert len(set(written)) == len(written)
    assert all(plan.kinds[diag][0] == 1.0 for diag in diagonals if diag < scratch)


@pytest.mark.parametrize(
    "text, points",
    [
        ("sym a=1 b=1;\nexpr: (a|b)*", (0.0, 0.3, LN2 - 1e-9, LN2, 0.7)),  # one state
        ("sym a=1 b=2;\nexpr: a b*", (-1.0, 0.0, 1e-300, 0.5)),  # the last state first
    ],
)
def test_an_update_less_pivot_is_tested(text, points):
    system = parse_system(text)
    plan, edges = _pivot_plan(system), reference_edges(system)
    assert plan.steps[0][1:] == (len(plan.kinds),) * 4  # the scratch slot
    for s in points:
        assert _outcome(_least_pivot, plan, s) == _outcome(reference_least_pivot, edges, s), s
    # below its root the first pivot, which updates nothing, is the value
    assert not _least_pivot(plan, points[1]) > 0.0
    assert _least_pivot(plan, points[-1]) > 0.0


@pytest.mark.parametrize(
    "system", [parse_system("sym a=1 b=1;\nexpr: (a{1,100} b)*"), build_jk_system(10, 10)]
)
def test_pivot_test_calls_exp_once_per_label(system):
    # the dict-based elimination called exp once per edge: 200 and 40 times
    plan = _pivot_plan(system)
    calls = []
    exp = math.exp

    def counting(x):
        calls.append(x)
        return exp(x)

    with mock.patch.object(genfun.math, "exp", counting):
        _least_pivot(plan, 0.5)
    assert 0 < len(calls) <= len(system.alphabet)


def test_abscissa_plans_once():
    system = build_jk_system(3, 7)
    with mock.patch.object(genfun, "_pivot_plan", wraps=_pivot_plan) as spy:
        result = abscissa(system)
    assert spy.call_count == 1
    assert result.iterations > 1


REPETITION = "sym a=1 b={};\nexpr: (a{{1,40}} b)*"


def test_equal_systems_share_one_plan():
    # parsed twice: equal, not identical, systems
    first, second = (parse_system(REPETITION.format(1.5)) for _ in range(2))
    assert first is not second
    assert _pivot_plan(first) is _pivot_plan(second)


def test_a_different_weight_gets_its_own_plan():
    light, heavy = parse_system(REPETITION.format(1.5)), parse_system(REPETITION.format(2.5))
    assert light.expr == heavy.expr
    plans = _pivot_plan(light), _pivot_plan(heavy)
    assert plans[0] is not plans[1]
    assert [plan.weights for plan in plans] == [(1.0, 1.5), (1.0, 2.5)]
    assert abscissa(light).q > abscissa(heavy).q
    # one DFA object for both systems still keeps a plan per weight
    dfa = system_dfa(light)
    copy = Dfa(dfa.start, dfa.accepting, dfa.transitions)
    with mock.patch.object(genfun, "system_dfa", lambda _: copy):
        assert [_pivot_plan(system).weights for system in (light, heavy)] == [(1.0, 1.5), (1.0, 2.5)]


def test_converges_after_abscissa_plans_nothing():
    system = parse_system(REPETITION.format(1.25))
    fresh = functools.lru_cache(system_dfa.__wrapped__)  # an empty DFA cache
    with (
        mock.patch.object(genfun, "system_dfa", wraps=fresh) as dfa_spy,
        mock.patch.object(genfun, "_plan_elimination", wraps=genfun._plan_elimination) as plan_spy,
    ):
        result = abscissa(system)
        assert converges(system, result.bracket_hi)
        assert not converges(system, result.bracket_lo)
    assert plan_spy.call_count == 1
    assert fresh.cache_info().misses == 1  # one DFA, read by all three calls
    assert dfa_spy.call_count == 3


def test_the_plan_follows_the_dfa():
    # a plan lives in its DFA: another DFA for the same system is planned anew
    system = build_jk_system(3, 7)
    shared = _pivot_plan(system)
    dfa = system_dfa(system)
    copy = Dfa(dfa.start, dfa.accepting, dfa.transitions)
    with mock.patch.object(genfun, "system_dfa", lambda _: copy):
        assert _pivot_plan(system) is not shared
        assert _pivot_plan(system) == shared
    assert _pivot_plan(system) is shared


def test_capacity_jk_rejects_zero():
    with pytest.raises(ValueError):
        capacity_jk(0, 1)


def reference_capacity_jk(j, k, tol=DEFAULT_TOL):
    """The reference: the characteristic equation summed term by term,
    j + k powers per trial point."""

    def lhs(s):
        x = math.exp(-s)
        return sum(x**i for i in range(1, j + 1)) * sum(x**i for i in range(1, k + 1)) - 1.0

    if j == 1 and k == 1:
        return 0.0
    lo, hi, _ = bisect_root(lhs, tol)
    return 0.5 * (lo + hi)


def test_capacity_jk_closed_form_is_the_term_by_term_equation():
    for j in range(1, 65):
        for k in range(1, 65):
            assert capacity_jk(j, k) == reference_capacity_jk(j, k), (j, k)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-15])
def test_capacity_jk_is_symmetric_bit_for_bit(tol):
    # at 1e-15 the bisection reads the last bits of lhs: a product taken in
    # another order, x * x first, gives 17 pairs up to 64 that differ there
    for j in range(1, 65):
        for k in range(j + 1, 65):
            assert capacity_jk(j, k, tol=tol) == capacity_jk(k, j, tol=tol), (j, k)


def test_capacity_jk_costs_no_more_for_long_runs():
    # the term-by-term equation takes O(j + k) per trial point, 0.23 s at 10**5
    result = []
    worker = threading.Thread(target=lambda: result.append(capacity_jk(10**7, 10**7)), daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert result == [0.693147180559663]


# --- the one bracketed root finder behind every "solve f(s) = 1" ---------


def _root_finders(sbin):
    support = WeightedSupport((("0", 1.0), ("1", 1.0), ("01", 2.0)))
    return {
        "abscissa": lambda tol: abscissa(sbin, tol=tol),
        "capacity_jk": lambda tol: capacity_jk(2, 3, tol=tol),
        "solve_rate": lambda tol: solve_rate(support, tol=tol),
    }


@pytest.mark.parametrize("name", ["abscissa", "capacity_jk", "solve_rate"])
def test_root_finders_reject_nonpositive_tol(sbin, name):
    solve = _root_finders(sbin)[name]
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError):
            solve(tol)


@pytest.mark.parametrize("name", ["abscissa", "capacity_jk", "solve_rate"])
def test_root_finders_raise_on_unreachable_tol(sbin, name):
    # 1e-300 is below the float spacing near every root here, so the
    # bracket stops shrinking and the search must say so, with the
    # tightest bracket: two neighbouring floats
    with pytest.raises(SolverError) as err:
        _root_finders(sbin)[name](1e-300)
    lo, hi = err.value.bracket
    assert lo < hi
    assert hi - lo < 1e-15


# --- bisect_root ends where plain bisection ends --------------------------

MAX_ITERATIONS = 200  # the references' own bound on tests and levels


def plain_bisection(excess, tol, max_iter=MAX_ITERATIONS):
    """The reference: ``hi`` doubles from 1 until ``excess(hi) < 0``, then
    [0, hi] is halved on the sign of ``excess`` at each midpoint until it
    is at most ``tol`` wide.  Returns ``(lo, hi, halvings)``."""
    lo, hi = 0.0, 1.0
    grow = 0
    while not excess(hi) < 0.0:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise SolverError("no point above the root found", lo, hi)
    halvings = 0
    while hi - lo > tol and halvings < max_iter:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            hi = mid
        else:
            lo = mid
        halvings += 1
    if hi - lo > tol:
        raise SolverError("bisection did not reach tolerance", lo, hi)
    return lo, hi, halvings


def assert_as_bisection(module, solve):
    """``solve()`` with ``module.bisect_root`` and with the reference in
    its place: every root search ends in the same bracket, after at most
    three tests more than the reference's halvings.  Returns both results."""
    runs = []
    for finder in (bisect_root, plain_bisection):
        searches = []

        def spy(*args, finder=finder, searches=searches):
            searches.append(finder(*args))
            return searches[-1]

        with mock.patch.object(module, "bisect_root", spy):
            runs.append((solve(), searches))
    (result, searches), (expected, reference) = runs
    assert [s[:2] for s in searches] == [r[:2] for r in reference]
    assert all(s[2] <= r[2] + 3 for s, r in zip(searches, reference))
    return result, expected


def _but_iterations(result):
    return dataclasses.replace(result, iterations=0)


@seed(531)
@settings(max_examples=80, deadline=None)
@given(_regexes())
def test_abscissa_as_bisection(expr):
    system = SystemDef(_DECLS, expr)
    for tol in (1e-12, 1e-6, 1e-3):
        result, expected = assert_as_bisection(genfun, lambda: abscissa(system, tol=tol))
        assert _but_iterations(result) == _but_iterations(expected)


@seed(531)
@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.05, 40.0), min_size=2, max_size=30))
def test_solve_rate_as_bisection(weights):
    support = WeightedSupport(tuple((f"s{i}", w) for i, w in enumerate(weights)))
    result, expected = assert_as_bisection(maxent, lambda: solve_rate(support))
    assert _but_iterations(result) == _but_iterations(expected)


def test_capacity_jk_as_bisection():
    for j in range(1, 13):
        for k in range(1, 13):
            result, expected = assert_as_bisection(genfun, lambda: capacity_jk(j, k))
            assert result == expected


def test_bisect_root_worst_case_is_bisection_plus_three():
    # values that mislead interpolation: just below 0 everywhere above the
    # root, so regula falsi creeps one cell at a time; the window still
    # ends the search within bisection's halvings plus three
    def excess(s):
        return 1.0 if s <= 0.3 else -1e-300

    lo, hi, tests = bisect_root(excess, 1e-12)
    ref_lo, ref_hi, halvings = plain_bisection(excess, 1e-12)
    assert (lo, hi) == (ref_lo, ref_hi)
    assert tests <= halvings + 3


def test_bisect_root_stops_at_neighbouring_floats():
    # no float lies strictly between the two ends: the search says so at
    # once instead of spending max_iter tests
    tests = []

    def excess(s):
        tests.append(s)
        return math.log(2) - s

    with pytest.raises(SolverError) as err:
        bisect_root(excess, 1e-17)
    lo, hi = err.value.bracket
    assert math.nextafter(lo, 1.0) == hi
    assert len(tests) < 10


def test_bisect_root_far_fewer_tests_than_bisection():
    # the capacity workload's saving: about 40 halvings at the default tol
    tests = [abscissa(build_jk_system(j, k)).iterations for j in range(1, 9) for k in range(1, 9)]
    assert sum(tests) / len(tests) < 15


@pytest.mark.parametrize("e", range(-60, 101))
def test_bisect_root_brackets_a_root_in_any_binade(e):
    # from 2^13 up floats near the root are more than 1e-12 apart: the
    # search ends on the two around it
    root = 1.5 * 2.0**e
    try:
        lo, hi, _ = bisect_root(lambda s: root - s, 1e-12)
    except SolverError as err:
        lo, hi = err.bracket
        assert math.nextafter(lo, math.inf) == hi
    assert lo <= root <= hi


def test_bisect_root_of_a_root_below_tol_counts_its_halvings():
    assert bisect_root(lambda s: -1.0, 1e-12) == (0.0, 2**-40, 40)


# --- bisect_root's trial points are the snapping search's ----------------


def reference_bisect_root(excess, tol):
    """The reference: ``bisect_root`` with every trial point snapped to the
    nearest float inside the bracket, at any number of levels."""
    hi, f_hi = 1.0, excess(1.0)
    f_half = math.nan
    grow = 0
    while not f_hi < 0.0:
        grow += 1
        if grow > 60:
            raise SolverError("no point above the root found", 0.0, 2.0 * hi)
        hi, f_half, f_hi = 2.0 * hi, f_hi, excess(2.0 * hi)
    n, h = 0, hi
    while h > tol:
        h *= 0.5
        n += 1
    levels = min(n, MAX_ITERATIONS, 1023)
    scale = math.frexp(hi)[1] - 1 - levels
    a, fa = (1 << (levels - 1), f_half) if grow and levels else (0, math.nan)
    b, fb = 1 << levels, f_hi
    budget, tests, kept = levels + genfun.SLACK, 0, 0
    while b - a > 1 and tests < MAX_ITERATIONS:
        k = (a + b) // 2
        room = budget - tests - 1
        if room >= 0 and fa != fb:
            guess = a - fa * (b - a) / (fb - fa)
            low, high = max(a + 1, b - (1 << room)), min(b - 1, a + (1 << room))
            if math.isfinite(guess) and low <= high:
                k = min(max(round(guess), low), high)
        first, last = math.ceil(math.nextafter(a, math.inf)), math.floor(math.nextafter(b, 0.0))
        if first > last:
            break
        k = min(max(int(float(k)), first), last)
        f = excess(math.ldexp(k, scale))
        tests += 1
        if f < 0.0:
            if kept == -1:
                fa *= 1.0 - f / fb if f > fb else 0.5
            b, fb, kept = k, f, -1
        else:
            if kept == 1:
                fb *= 1.0 - f / fa if f < fa else 0.5
            a, fa, kept = k, f, 1
    lo, hi = math.ldexp(a, scale), math.ldexp(b, scale)
    if b - a > 1 or n > levels:
        raise SolverError("bisection did not reach tolerance", lo, hi)
    return lo, hi, tests


def _search(finder, excess, tol):
    """The points ``finder`` tests and its result, or its error's bracket."""
    points = []

    def recording(s):
        points.append(s)
        return excess(s)

    try:
        outcome = finder(recording, tol)
    except SolverError as err:
        outcome = ("SolverError", err.bracket)
    return points, outcome


def assert_same_trial_points(module, solve):
    """Every root search of ``solve()`` tests the reference's points and
    ends in its bracket after as many tests; returns the number of searches."""
    searches = []

    def spy(excess, tol):
        searches.append([_search(f, excess, tol) for f in (bisect_root, reference_bisect_root)])
        return bisect_root(excess, tol)

    with mock.patch.object(module, "bisect_root", spy):
        try:
            solve()
        except SolverError:
            pass
    for (points, outcome), (ref_points, ref_outcome) in searches:
        assert points == ref_points
        assert outcome == ref_outcome
    return len(searches)


# 40 levels; 50; 54, where only some grid points are floats; and 57, out of reach
TRIAL_TOLS = (1e-12, 1e-15, 6e-17, 1e-17)


@pytest.mark.parametrize("tol", TRIAL_TOLS)
def test_abscissa_trial_points_are_the_reference(tol):
    for system, _, _ in SIZES:
        assert assert_same_trial_points(genfun, lambda: abscissa(system, tol=tol)) == 1


@pytest.mark.parametrize("tol", TRIAL_TOLS)
def test_capacity_jk_trial_points_are_the_reference(tol):
    searches = sum(
        assert_same_trial_points(genfun, lambda: capacity_jk(j, k, tol=tol))
        for j in range(1, 9)
        for k in range(1, 9)
    )
    assert searches == 63  # every (j,k) but (1,1), whose root is 0 exactly


@pytest.mark.parametrize("tol", TRIAL_TOLS)
def test_solve_rate_trial_points_are_the_reference(tol):
    rng = random.Random(1701)
    for _ in range(40):
        size = rng.randint(2, 30)
        support = WeightedSupport(tuple((f"s{i}", rng.uniform(0.05, 40.0)) for i in range(size)))
        assert assert_same_trial_points(maxent, lambda: solve_rate(support, tol=tol)) == 1


@pytest.mark.parametrize("tol", TRIAL_TOLS)
def test_concave_excess_trial_points_are_the_reference(tol):
    # regula falsi on a concave excess lands below the root, so the lower
    # end moves twice in a row, the first time just after the halvings
    for c in (1e-6, 0.01, 0.3, 0.7, 3.0, 1e4):
        excess = lambda s, c=c: c - s * s
        assert _search(bisect_root, excess, tol) == _search(reference_bisect_root, excess, tol)


def test_bisect_root_reaches_the_float_spacing_of_a_subnormal_root():
    for root in (1e-320, 5e-324):
        lo, hi, _ = bisect_root(lambda s: root - s, 5e-324)
        assert lo <= root <= hi == math.nextafter(lo, 1.0)


def test_trial_tols_cover_the_snapping_search_and_its_error():
    # a root in [0, 1] takes 54 levels at 6e-17, past 2^53 cells: every grid
    # point below 0.5 is a float, above it only every other one
    lo, hi, _ = bisect_root(lambda s: 0.3 - s, 6e-17)
    assert hi - lo < 6e-17
    for root, tol in ((LN2, 6e-17), (0.3, 1e-17)):
        with pytest.raises(SolverError):
            bisect_root(lambda s: root - s, tol)


# --- property: eval_real against a log-domain reference -----------------

_WEIGHTS = {d.label: d.weight for d in _DECLS}
_LOG_MAX = math.log(1.7976931348623157e308)


def _log_add(x, y):
    if math.inf in (x, y):
        return math.inf
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(math.exp(lo - hi))


def _log_series(expr, s, peaks, margins):
    """The log of a regex's series at ``s``, inf where it diverges, in logs
    so that no value leaves the float range.  Each finite node's log value
    goes into ``peaks``, and each star child's distance below log 1 = 0
    into ``margins``."""
    match expr:
        case Symbol(label):
            v = -_WEIGHTS[label] * s
        case Epsilon():
            v = 0.0
        case Union(l, r):
            v = _log_add(_log_series(l, s, peaks, margins), _log_series(r, s, peaks, margins))
        case Concat(l, r):
            v = _log_series(l, s, peaks, margins) + _log_series(r, s, peaks, margins)
        case Star(c):
            u = _log_series(c, s, peaks, margins)
            margins.append(-u)
            v = math.inf if u >= 0.0 else -math.log(-math.expm1(u))
        case Repeat(c, lo, hi):
            u = _log_series(c, s, peaks, margins)
            if u == math.inf:
                v = math.inf if hi else 0.0
            else:
                v = functools.reduce(_log_add, [k * u for k in range(lo, hi + 1)])
    if v < math.inf:
        peaks.append(v)
    return v


@seed(19)
@settings(max_examples=400, deadline=None)
@given(_regexes(), st.floats(-400.0, 10.0))
def test_eval_real_agrees_with_a_log_domain_reference(expr, s):
    peaks, margins = [], []
    reference = _log_series(expr, s, peaks, margins)
    if any(0.0 < m < 1e-6 for m in margins):
        # a star child within 1e-6 of 1: 1/(1 - v) turns the child's rounding
        # error into more than 1e-9 of the value, and within an ulp of 1 into
        # divergence (0* at s = 1e-308, whose v = exp(-s) is 1.0 in floats)
        return
    try:
        value = eval_real(expr, _WEIGHTS, s)
    except OverflowError:
        assert max(peaks) > _LOG_MAX - 1e-6  # some node's value is no float
        return
    if value == math.inf:
        assert reference == math.inf  # inf is divergence only
    else:
        assert reference < math.inf
        assert math.isclose(value, math.exp(reference), rel_tol=1e-9, abs_tol=1e-300)


# --- the compiled series against the tree walk it replaced --------------


def reference_eval_real(expr, weights, s):
    """The reference: the regex's series by a walk over the tree at each
    ``s``, one ``exp`` per symbol node."""
    values = []
    for node in reversed(preorder(expr)):
        kind = type(node)
        if kind is Symbol:
            values.append(_finite(math.exp(-weights[node.label] * s)))
        elif kind is Epsilon:
            values.append(1.0)
        elif kind is Union:
            left, right = values.pop(), values.pop()
            values.append(_finite(left + right, left, right))
        elif kind is Concat:
            left, right = values.pop(), values.pop()
            values.append(DIVERGENT if DIVERGENT in (left, right) else _finite(left * right))
        elif kind is Star:
            v = values.pop()
            values.append(1.0 / (1.0 - v) if v < 1.0 else DIVERGENT)
        else:
            v = values.pop()
            total = 1.0
            for k in range(node.hi - 1, -1, -1):
                total = total * v + (k >= node.lo)
            values.append(_finite(total, v))
    return values[0]


def reference_gf_tail_bound(system, s, horizon):
    """The reference: the golden-section search with the tree walk at each point."""
    if s == math.inf:
        return 0.0
    expr, weights = system.expr, system.weights

    def log_bound(x):
        try:
            v = reference_eval_real(expr, weights, x)
        except OverflowError:
            return math.inf
        return (math.log(v) if v > 0.0 else -math.inf) - horizon * (s - x)

    a, b = min(0.0, s), s
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    fc, fd = log_bound(c), log_bound(d)
    best = min(log_bound(s), fc, fd)
    while b - a > DEFAULT_TOL * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = log_bound(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = log_bound(d)
        best = min(best, fc, fd)
    return math.exp(best)


# below 0, where terms exceed 1; 0; a tiny s; inside; past every exp's
# underflow; inf; and -1000, where most of the seeded regexes overflow (at
# the others about two in three diverge)
SERIES_POINTS = (-1.0, 0.0, 1e-300, 0.5, 50.0, math.inf, -1000.0)


@seed(3301)
@settings(max_examples=300, deadline=None)
@given(_regexes())
def test_series_is_the_tree_walk(expr):
    # one compiled series serves every point, as in gf_tail_bound's search
    value = series(expr, _WEIGHTS)
    for s in SERIES_POINTS:
        want = _outcome(reference_eval_real, expr, _WEIGHTS, s)
        assert _outcome(value, s) == want, s
        assert _outcome(eval_real, expr, _WEIGHTS, s) == want, s


@seed(3302)
@settings(max_examples=60, deadline=None)
@given(_regexes())
def test_gf_tail_bound_is_the_tree_walk_search(expr):
    system = SystemDef(_DECLS, expr)
    gf = series(expr, _WEIGHTS)
    for s in SERIES_POINTS:
        for horizon in (2.0, 7.5):
            want = _outcome(reference_gf_tail_bound, system, s, horizon)
            assert _outcome(gf_tail_bound, gf, s, horizon) == want, (s, horizon)
