import bisect
import dataclasses
import heapq
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, seed, settings

from concap import build_jk_system, genfun, parse_system, spectrum
from concap.automata import Dfa, matches, system_dfa
from concap.dsl import SystemDef
from concap.genfun import DEFAULT_TOL, bisect_root, eval_real, series
from concap.spectrum import (
    DensityReport,
    SpectrumError,
    WeightSpectrum,
    c0_estimate,
    capacity_estimate,
    cross_check_gf,
    density_check,
    enumerate_spectrum,
    format_spectrum,
    gf_tail_bound,
    growth_rate_estimate,
    spectrum_from_counts,
)

from conftest import (
    all_binary_strings,
    brute_force_counts,
    c0_sequence,
    capacity_sequence,
    runlength_dp_counts,
)
from test_repeat import _DECLS, _regexes  # the Repeat suite's random regexes

LN2 = math.log(2)


def test_sbin_counts_are_powers_of_two(sbin):
    sp = enumerate_spectrum(sbin, max_weight=10)
    assert sp.weights == tuple(map(float, range(1, 11)))
    assert sp.counts == tuple(2**n for n in range(1, 11))
    assert sp.complete and not sp.exhausted
    assert sp.includes_empty


def test_s11_two_per_length():
    sp = enumerate_spectrum(build_jk_system(1, 1), max_weight=10)
    assert sp.counts == (2,) * 10
    assert not sp.includes_empty


def test_s22_fibonacci_growth():
    system = build_jk_system(2, 2)
    sp = enumerate_spectrum(system, max_weight=20)
    # two exact oracles: the run-length DP at 20, the filter of all 2^n
    # strings at 14 (listing all 2^20 took seconds)
    assert sp.counts == tuple(runlength_dp_counts(2, 2, 20))
    assert sp.counts[:14] == tuple(brute_force_counts(2, 2, 14))
    # each accepted string counted once: membership of every string up to 9
    accepted = sum(matches(system, s) for n in range(1, 10) for s in all_binary_strings(n))
    assert sp.cumulative[8] == accepted
    # growth ratio approaches the golden ratio
    ratio = sp.counts[-1] / sp.counts[-2]
    assert ratio == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-3)


@pytest.mark.parametrize("j,k", [(1, 2), (2, 3), (3, 3)])
def test_jk_counts_match_predicate_filter(j, k):
    sp = enumerate_spectrum(build_jk_system(j, k), max_weight=14)
    assert sp.counts == tuple(brute_force_counts(j, k, 14))


def test_noninteger_weights_binning():
    s = parse_system("sym a=0.5 b=1.25;\nexpr: (a|b)*")
    sp = enumerate_spectrum(s, max_weight=3.0)
    # weights are 0.5i + 1.25j; spot-check a few bins by direct expansion
    table = {}
    for i in range(7):
        for j in range(3):
            w = 0.5 * i + 1.25 * j
            if 0 < w <= 3.0:
                table[round(w, 9)] = table.get(round(w, 9), 0) + math.comb(i + j, j)
    assert {round(nu, 9): c for nu, c in sp.entries} == table


def test_budget_truncation_flags_incomplete(sbin):
    sp = enumerate_spectrum(sbin, max_weight=20, max_strings=100)
    assert not sp.complete
    # entries stop at the last fully counted weight: 2+4+...+2^5 = 62 <= 100
    assert sp.counts == (2, 4, 8, 16, 32)


def test_max_weight_must_be_positive(sbin):
    with pytest.raises(SpectrumError):
        enumerate_spectrum(sbin, max_weight=0)


@pytest.mark.parametrize("max_strings", [0, -1, math.nan])
def test_max_strings_must_be_positive(sbin, max_strings):
    with pytest.raises(SpectrumError, match="max_strings must be positive"):
        enumerate_spectrum(sbin, max_weight=4, max_strings=max_strings)
    # one string is a budget: the empty string fills it
    assert not enumerate_spectrum(sbin, max_weight=4, max_strings=1).complete


# --- estimators ---------------------------------------------------------


def test_capacity_estimate_sbin_horizon_20(sbin):
    sp = enumerate_spectrum(sbin, max_weight=20)
    est = capacity_estimate(sp)
    assert est == pytest.approx(math.log(2**21 - 2) / 20, abs=1e-12)
    assert est == pytest.approx(0.727804, abs=1e-6)  # trends to ln 2 from above


def test_capacity_estimate_s11_trends_to_zero():
    values = []
    for horizon in (8, 16, 32):
        sp = enumerate_spectrum(build_jk_system(1, 1), max_weight=horizon)
        est = capacity_estimate(sp)
        assert est == pytest.approx(math.log(2 * horizon) / horizon, abs=1e-12)
        values.append(est)
    assert values == sorted(values, reverse=True)


def test_c0_estimate_sbin_exact_at_every_horizon(sbin):
    sp = enumerate_spectrum(sbin, max_weight=12)
    assert c0_sequence(sp) == pytest.approx([LN2] * 12, abs=1e-12)
    assert c0_estimate(sp) == pytest.approx(LN2, abs=1e-12)


def test_c0_estimate_s11():
    sp = enumerate_spectrum(build_jk_system(1, 1), max_weight=20)
    assert c0_estimate(sp) == pytest.approx(LN2 / 20, abs=1e-12)


def test_estimator_ordering_and_gap_shrinks():
    # ln N <= ln cumulative at every horizon, and for these systems the gap
    # decays like 1/horizon (frozen reference values from the predicate
    # filter: 0.034657 for the unconstrained system, 0.048118 for (2,2))
    sbin = parse_system("sym 0=1 1=1;\nexpr: (0|1)*")
    for system, gap20 in ((sbin, 0.034657), (build_jk_system(2, 2), 0.048118)):
        sp = enumerate_spectrum(system, max_weight=20)
        caps, c0s = capacity_sequence(sp), c0_sequence(sp)
        assert all(c0 <= cap + 1e-12 for c0, cap in zip(c0s, caps))
        gaps = [cap - c0 for cap, c0 in zip(caps, c0s)]
        assert gaps[-1] == pytest.approx(gap20, abs=1e-5)
        assert all(b <= a + 1e-12 for a, b in zip(gaps[-5:], gaps[-4:]))


def test_growth_rate_estimate_converges_fast():
    sp = enumerate_spectrum(build_jk_system(2, 2), max_weight=18)
    assert growth_rate_estimate(sp) == pytest.approx(0.481211825, abs=2e-3)


def test_estimators_refuse_single_entry():
    sp = spectrum_from_counts([(1.0, 2)])
    with pytest.raises(SpectrumError):
        capacity_estimate(sp)
    with pytest.raises(SpectrumError):
        c0_estimate(sp)


def test_cumulative_strictly_increasing(sbin):
    sp = enumerate_spectrum(sbin, max_weight=12)
    cum = sp.cumulative
    assert all(b > a for a, b in zip(cum, cum[1:]))
    assert sp.cumulative is cum  # summed once per spectrum


def exact_free_spectrum(weights, max_weight):
    """The spectrum of (a|b|...)* by exact arithmetic: per multiset of
    letter counts, a multinomial number of strings of the Fraction sum."""
    table = {}
    ranges = [range(int(max_weight / w) + 1) for w in weights]
    for counts in itertools.product(*ranges):
        total = sum(n * decimal(w) for n, w in zip(counts, weights))
        if 0 < total <= max_weight:
            strings = math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))
            table[total] = table.get(total, 0) + strings
    return tuple((float(w), c) for w, c in sorted(table.items()))


@pytest.mark.parametrize(
    "decls,weights,max_weight",
    [
        ("a=1 b=1.4142135623730951", (1.0, math.sqrt(2)), 12.0),
        ("a=1 b=1.7320508075688772 c=2.23606797749979", (1.0, math.sqrt(3), math.sqrt(5)), 8.0),
    ],
)
def test_entry_weights_are_correctly_rounded_exact_sums(decls, weights, max_weight):
    letters = " | ".join(d.split("=")[0] for d in decls.split())
    system = parse_system(f"sym {decls};\nexpr: ({letters})*")
    sp = enumerate_spectrum(system, max_weight)
    assert sp.entries == exact_free_spectrum(weights, max_weight)


def test_decimal_weights_print_the_rows_they_always_did():
    # 0.1 + 0.2 and 0.3 are one decimal, so one row; the printed rows are
    # pinned from the float-sum enumerator
    system = parse_system("sym a=0.1 b=0.2 c=0.3;\nexpr: (a|b|c)*")
    rows = format_spectrum(enumerate_spectrum(system, 1.0)).splitlines()[4:]
    assert rows == [
        "0.1 1 1", "0.2 2 3", "0.3 4 7", "0.4 7 14", "0.5 13 27",
        "0.6 24 51", "0.7 44 95", "0.8 81 176", "0.9 149 325", "1 274 599",
    ]


def test_unbounded_weight_exhausts_a_finite_language():
    sp = enumerate_spectrum(parse_system("sym a=1 b=2;\nexpr: a b a | b"), math.inf)
    assert (sp.entries, sp.complete, sp.exhausted) == (((2.0, 1), (4.0, 1)), True, True)


# --- rows: one exact conversion at the end, one format -------------------


def decimal(weight):
    """A weight as the decimal of its shortest repr, the text it is written as."""
    return Fraction(repr(float(weight)))


def fraction_rows(system, max_weight, max_strings=10_000_000):
    """Each row's exact weight, a sum of its labels' decimals, and its
    count, from a bucket search on Fractions with the cutoff and budget of
    ``enumerate_spectrum``; whether the budget held; and whether the
    language ended below the cutoff."""
    dfa = system_dfa(system)
    weights = {d.label: decimal(d.weight) for d in system.alphabet}
    cutoff = decimal(min(max_weight, sys.float_info.max))
    buckets = {Fraction(0): {dfa.start: 1}}
    heap = [Fraction(0)]
    rows, total, exhausted = [], 0, True
    while heap:
        w = heapq.heappop(heap)
        states = buckets.pop(w)
        accepted = sum(n for state, n in states.items() if state in dfa.accepting)
        if w and accepted:
            if total + accepted > max_strings:
                return rows, False, False
            total += accepted
            rows.append((w, accepted))
        for state, n in states.items():
            for label, nxt in dfa.transitions[state].items():
                if (w2 := w + weights[label]) > cutoff:
                    exhausted = False
                    continue
                if w2 not in buckets:
                    buckets[w2] = {}
                    heapq.heappush(heap, w2)
                buckets[w2][nxt] = buckets[w2].get(nxt, 0) + n
    return rows, True, exhausted


def exact_rows(sp):
    """The spectrum's rows, each with its exact weight."""
    return [(Fraction(u, sp.scale), count) for u, count in zip(sp.units, sp.counts)]


def fraction_growth_rate(rows):
    """``growth_rate_estimate`` of the Fraction rows: the log ratio of the
    last two cumulative counts over the exact gap between their weights."""
    (w1, _), (w2, _) = rows[-2:]
    *_, cum1, cum2 = itertools.accumulate(count for _, count in rows)
    return math.log(cum2 / cum1) / float(w2 - w1)


def assert_rows_are_decimal_sums(system, max_weight, max_strings=10_000_000):
    """Every row's weight is its exact decimal sum, and its float the
    nearest one; the growth rate divides by the exact gap."""
    rows, complete, exhausted = fraction_rows(system, max_weight, max_strings)
    sp = enumerate_spectrum(system, max_weight, max_strings)
    assert exact_rows(sp) == rows
    assert sp.entries == tuple((float(w), count) for w, count in rows)
    assert (sp.complete, sp.exhausted) == (complete, exhausted)
    if len(rows) >= 2:
        assert growth_rate_estimate(sp) == pytest.approx(fraction_growth_rate(rows), rel=1e-12)
    return rows, complete, exhausted


def test_row_weights_are_one_true_division_seeded():
    rng = random.Random(25)
    pool = [0.1, 0.3, 0.7, 1.0, 2.0, 1 / 3, math.sqrt(2), math.pi, 2e-9, 1e-3, 1e3, 12345.678]
    forms = ["({0}|{1} {2})*", "{0} ({1}|{2})*", "({0} {1}* | {2})*", "({0}|{1}|{2}){{1,6}}", "({0}|{1}|{2})*"]
    largest, flags = 0, set()
    for _ in range(40):
        ws = [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.01, 5.0) for _ in "abc"]
        decls = " ".join(f"{label}={w!r}" for label, w in zip("abc", ws))
        expr = rng.choice(forms).format(*"abc")
        max_weight = rng.choice([rng.uniform(0.5, 8.0), math.inf])
        max_strings = rng.choice([30, 300, 1_000])
        system = parse_system(f"sym {decls};\nexpr: {expr}")
        rows, complete, _ = assert_rows_are_decimal_sums(system, max_weight, max_strings)
        scale = math.lcm(*(decimal(w).denominator for w in ws))
        largest = max([largest] + [w * scale for w, _ in rows])
        flags.add(complete)
    assert largest > 2**53  # in units, beyond the integers a float holds exactly
    assert flags == {True, False}  # truncated spectra and whole ones


@pytest.mark.parametrize(
    "decls,expr,max_weight",
    [
        # the units of a, 2e323, are beyond the float range
        ("a=1 b=5e-324", "a", 2.0),
        ("a=1e300 b=0.1", "a | b b", math.inf),
        ("a=1e300 b=0.1", "(a | b)*", 0.35),  # a is read, but no row reaches it
        # scale 5e323: a weight of 2 is 1e324 units
        ("a=4 b=2.2250738585072014e-308", "a", math.inf),
        ("a=3.9999999999999996 b=2.2250738585072014e-308", "a", math.inf),
        ("a=2 b=2.2250738585072014e-308", "a{1,2}", math.inf),
    ],
)
def test_row_weights_beyond_the_float_range_in_units_divide_exactly(decls, expr, max_weight):
    assert_rows_are_decimal_sums(parse_system(f"sym {decls};\nexpr: {expr}"), max_weight)


# --- the one rule: rows are exact decimal sums ---------------------------


def spectrum_outcome(enumerate_, system, max_weight, max_strings):
    """The exact rows and the flags, as ``fraction_rows`` gives them."""
    sp = enumerate_(system, max_weight, max_strings)
    return exact_rows(sp), sp.complete, sp.exhausted


def test_rows_are_decimal_sums_in_every_search_seeded():
    # weights of 1 to 17 significant digits, each system through the search
    # enumerate_spectrum picks and through the bucket heap
    rng = random.Random(34)
    searches = ("_level_rows", "_merge_rows", "_heap_rows")
    taken = set()
    for i in range(240):
        digits = [rng.randint(1, 17) for _ in "abc"]
        ws = [float(f"{rng.uniform(0.05, 3.0):.{d - 1}e}") for d in digits]
        if i % 3 == 0:  # one weight on every label
            ws = [ws[0]] * 3
        if i % 3 == 1:  # a full shift
            expr = "(" + "|".join("abc"[: rng.randint(1, 3)]) + ")*"
        else:
            expr = random_regex(rng, 4)
        system = parse_system(f"sym a={ws[0]!r} b={ws[1]!r} c={ws[2]!r};\nexpr: {expr}")
        max_weight = rng.choice([rng.uniform(0.5, 8.0), math.inf])
        max_strings = rng.choice([30, 300, 2_000])
        want = fraction_rows(system, max_weight, max_strings)
        spies = {name: mock.patch.object(spectrum, name, wraps=getattr(spectrum, name)) for name in searches}
        with spies["_level_rows"] as level, spies["_merge_rows"] as merge, spies["_heap_rows"] as heap:
            assert spectrum_outcome(enumerate_spectrum, system, max_weight, max_strings) == want, system
        taken.update(name for name, spy in zip(searches, (level, merge, heap)) if spy.called)
        assert spectrum_outcome(heap_loop_spectrum, system, max_weight, max_strings) == want, system
    assert taken == set(searches)


@pytest.mark.parametrize(
    "decls,expr,max_weight,entries",
    [
        # 0.1 + 0.2 and 0.3 are one decimal: one row of both strings
        ("a=0.1 b=0.2 c=0.3", "a b | c", 1.0, ((0.3, 2),)),
        ("a=0.1 b=0.2 c=0.3", "(a|b|c)*", 0.3, ((0.1, 1), (0.2, 2), (0.3, 4))),
        # 1 and 1.0000000001 are two
        ("a=1 b=1.0000000001", "(a|b)*", 2.0, ((1.0, 1), (1.0000000001, 1), (2.0, 1))),
        ("a=1 b=1.0000000001", "a b | b a | a a", 3.0, ((2.0, 1), (2.0000000001, 2))),
    ],
)
def test_equal_decimals_share_a_row_and_different_ones_never_do(decls, expr, max_weight, entries):
    system = parse_system(f"sym {decls};\nexpr: {expr}")
    assert enumerate_spectrum(system, max_weight).entries == entries
    assert heap_loop_spectrum(system, max_weight).entries == entries


def reference_format_spectrum(sp):
    """The export text with a tuple and a string per row."""
    head = (
        f"# max_weight {sp.max_weight:g}\n"
        f"# complete {sp.complete:d}\n# exhausted {sp.exhausted:d}\n"
        f"# includes_empty {sp.includes_empty:d}\n"
    )
    rows = zip(sp.entries, sp.cumulative)
    return "".join([head, *("%.12g %d %d\n" % (nu, count, cum) for (nu, count), cum in rows)])


@pytest.mark.parametrize(
    "text,max_weight,max_strings",
    [
        ("sym a=1;\nexpr: eps", math.inf, 10),  # no row
        ("sym a=1;\nexpr: a", 0.5, 10),  # no row below the cutoff
        ("sym a=1 b=1.4142135623730951;\nexpr: (a|b)*", 30.0, 1_000),  # truncated
        ("sym a=0.1 b=0.2 c=0.3;\nexpr: (a|b|c)*", 4.0, 10_000_000),  # counts past 2**64
        ("sym a=1e300 b=0.1;\nexpr: a | b b", math.inf, 10),
        ("sym a=1 b=5e-324;\nexpr: a", 2.0, 10),
    ],
)
def test_format_spectrum_is_the_per_row_format(text, max_weight, max_strings):
    sp = enumerate_spectrum(parse_system(text), max_weight, max_strings)
    assert format_spectrum(sp) == reference_format_spectrum(sp)
    assert spectrum_from_counts(sp.entries).weights == sp.weights


def test_format_spectrum_of_a_built_spectrum():
    sp = spectrum_from_counts([(0.5, 3), (1e-300, 1), (1e300, 2**70)], includes_empty=True)
    assert format_spectrum(sp) == reference_format_spectrum(sp)


def entries_format_spectrum(sp):
    """The export text as it was made from the (nu, count) pairs."""
    head = (
        f"# max_weight {sp.max_weight:g}\n"
        f"# complete {sp.complete:d}\n# exhausted {sp.exhausted:d}\n"
        f"# includes_empty {sp.includes_empty:d}\n"
    )
    nu, count = operator.itemgetter(0), operator.itemgetter(1)
    rows = zip(map(nu, sp.entries), map(count, sp.entries), sp.cumulative)
    return head + "%.12g %d %d\n" * len(sp.entries) % tuple(itertools.chain.from_iterable(rows))


def test_rows_kept_as_columns_read_as_the_pairs_did():
    roots = " ".join(f"{label}={math.sqrt(p)!r}" for label, p in zip("abcde", (2, 3, 5, 7, 11)))
    spectra = [
        enumerate_spectrum(parse_system("sym a=1 b=2 c=3 d=4;\nexpr: (a|b|c|d)*"), 6.0),
        enumerate_spectrum(parse_system(f"sym {roots};\nexpr: (a|b|c|d|e)*"), 9.0),  # the heap
        enumerate_spectrum(parse_system("sym a=1 b=1.4142135623730951;\nexpr: (a|b)*"), 30.0, 1_000),
        enumerate_spectrum(build_jk_system(2, 2), 18),
        enumerate_spectrum(parse_system("sym a=1;\nexpr: eps"), math.inf),
        spectrum_from_counts([(0.5, 3), (1e-300, 1), (1e300, 2**70)], includes_empty=True),
    ]
    for sp in spectra:
        assert sp.entries == tuple(zip(sp.weights, sp.counts))
        assert sp.cumulative == tuple(itertools.accumulate(c for _, c in sp.entries))
        for s in (0.5, 1.0, 3.0):
            pairs = 1.0 if sp.includes_empty else 0.0
            pairs += sum(math.exp(math.log(c) - nu * s) for nu, c in sp.entries)
            assert sp.partial_sum(s) == pairs
        assert format_spectrum(sp) == entries_format_spectrum(sp)
        assert spectrum_from_counts(sp.entries, sp.includes_empty).weights == sp.weights


# --- the merge and level searches against the bucket heap ---------------


def heap_loop_spectrum(system, max_weight, max_strings=10_000_000):
    """The spectrum from the bucket heap, whatever the automaton: the merge
    search shares its signature, and it stands in for it; for the level
    search, which reads no steps, it reads each edge's step at the one
    weight, in weight order as enumerate_spectrum builds them."""
    heap = spectrum._heap_rows

    def level(dfa, u, cutoff, max_strings):
        steps = [sorted((u, nxt) for nxt in row.values()) for row in dfa.transitions]
        return heap(dfa, steps, cutoff, max_strings)

    with mock.patch.multiple(spectrum, _level_rows=level, _merge_rows=heap):
        return enumerate_spectrum(system, max_weight, max_strings)


def assert_same_as_heap_loop(system, max_weight, max_strings=10_000_000):
    assert system_dfa(system).n_states == 1
    merged = enumerate_spectrum(system, max_weight, max_strings)
    assert merged == heap_loop_spectrum(system, max_weight, max_strings)  # field by field
    return merged


@pytest.mark.parametrize(
    "decls,expr,max_weight,max_strings",
    [
        # 0.1 + 0.2 and 0.3 are one decimal: the bins of two loops join
        ("a=0.1 b=0.2 c=0.3", "(a|b|c)*", 1.5, 10_000_000),
        # two loops of one weight: their bins are the same
        ("a=1 b=1.4142135623730951 c=1", "(a|b|c)*", 9.0, 10_000_000),
        # tiny loops: aaa and bb weigh 6e-9 exactly, one bin
        ("a=2e-09 b=3e-09 c=1", "(a|b|c)*", 3.0, 20_000),
        ("a=1.5e-09", "a*", 1.0, 3_000),
        # the cutoff parts the bins 1 and 1.0000000004656613 from all below it
        ("a=1 b=1.0000000004656613", "(a|b)*", 0.9999999991, 10_000_000),
        # 1 and 1.0000000001 stay apart
        ("a=1 b=1.0000000001", "(a|b)*", 5.0, 10_000_000),
        # the budget ends the enumeration, at a finite weight and at inf
        ("a=1 b=1.4142135623730951", "(a|b)*", 30.0, 1_000),
        ("a=1 b=1.7320508075688772 c=2.23606797749979", "(a|b|c)*", math.inf, 10_000),
        ("a=0.7", "a*", 10.0, 10_000_000),
        ("a=0.7", "a*", math.inf, 12),
        # other spellings of a full shift
        ("a=1 b=1.4142135623730951", "(a* b)* a*", 12.0, 10_000_000),
        ("a=0.3 b=0.5", "((a|b)(a|b)|a|b)*", 6.0, 10_000_000),
    ],
)
def test_full_shift_same_as_heap_loop(decls, expr, max_weight, max_strings):
    sp = assert_same_as_heap_loop(parse_system(f"sym {decls};\nexpr: {expr}"), max_weight, max_strings)
    assert sp.includes_empty and not sp.exhausted
    assert sp.complete == (max_strings == 10_000_000)


def test_full_shift_same_as_heap_loop_seeded():
    rng = random.Random(22)
    pool = [0.1, 0.2, 0.3, 0.7, 1.0, 1e-10, 5e-10, 1e-9, 2e-9, math.sqrt(2), math.sqrt(3), 1 / 3]
    forms = ["({})*", "({})* ({}|eps)", "(({})*)*"]
    shared = 0
    for _ in range(100):
        k = rng.randint(1, 4)
        labels = "abcd"[:k]
        ws = [rng.choice(pool) if rng.random() < 0.6 else rng.uniform(0.01, 3.0) for _ in labels]
        decls = " ".join(f"{label}={w!r}" for label, w in zip(labels, ws))
        union = "|".join(labels)
        expr = rng.choice(forms).format(union, union)
        max_weight = rng.choice([rng.uniform(0.05, 8.0), math.inf])
        max_strings = rng.choice([50, 1_000, 10_000])
        system = parse_system(f"sym {decls};\nexpr: {expr}")
        assert system_dfa(system).n_states == 1
        sp = enumerate_spectrum(system, max_weight, max_strings)
        assert sp == heap_loop_spectrum(system, max_weight, max_strings)
        if any(map(operator.eq, sp.weights, sp.weights[1:])):  # two rows share a float
            shared += 1
            assert (exact_rows(sp), sp.complete, sp.exhausted) == fraction_rows(system, max_weight, max_strings)
    # 0.2 * 6 and 0.2 + 0.3333333333333333 * 3 are two decimals and one float, 1.2
    assert shared == 1


def reference_merge_rows(dfa, steps, cutoff, max_strings):
    """The full-shift merge with a list of heads and read indices, for any
    number of loops: the kernel before each loop was held in locals.  A loop
    joins a row iff its head equals the row's weight."""
    shifts = [weight for weight, _ in steps[0]]
    W, C = [0], [1]
    loops = range(len(shifts))
    idx = [0] * len(shifts)
    heads = shifts[:]
    total = 0
    complete = True
    while (w := min(heads)) <= cutoff:
        W.append(w)
        count = 0
        for j in loops:
            if heads[j] == w:
                i = idx[j]
                count += C[i]
                idx[j] = i + 1
                heads[j] = W[i + 1] + shifts[j]
        total += count
        if total > max_strings:
            complete = False
            break
        C.append(count)
    return W[1:len(C)], C[1:], complete, False


def full_shift_args(weights, max_weight, max_strings):
    """The arguments ``enumerate_spectrum`` passes its search for the full
    shift over loops of these weights: all weights, as decimals, in units of
    1/scale."""
    scale = math.lcm(*(decimal(w).denominator for w in weights))
    cutoff = math.floor(decimal(min(max_weight, sys.float_info.max)) * scale)
    steps = [sorted((int(decimal(w) * scale), 0) for w in weights)]
    return Dfa(0, frozenset({0}), [{}]), steps, cutoff, max_strings


def test_merge_kernel_and_heap_match_the_reference_merge_seeded():
    rng = random.Random(32)
    pools = [
        [1.0, 1.5, 2.0],  # a lattice: many bins of one weight
        [math.sqrt(p) for p in (2, 3, 5, 7, 11, 13)],
        [1.0, 1.0000000001, math.sqrt(2)],  # bins 1e-10 apart
    ]
    flags = set()
    for i in range(300):
        k = 1 + i % 4 if i < 240 else rng.randint(5, 6)
        weights = [rng.choice(pools[i % 3]) for _ in range(k)]
        # a cutoff 9.5e-10 below a whole weight leaves that weight out
        max_weight = rng.choice([rng.uniform(0.5, 25.0), math.inf, rng.randint(1, 12) - 9.5e-10])
        max_strings = rng.choice([1, 10, int(10 ** rng.uniform(1, 5)), 10**5])
        args = full_shift_args(weights, max_weight, max_strings)
        search = spectrum._merge_rows if k <= 4 else spectrum._heap_rows
        rows = reference_merge_rows(*args)
        assert search(*args) == rows, (weights, max_weight, max_strings)
        flags.add(rows[2])
    assert flags == {True, False}  # the cutoff ends some searches, the budget others


@pytest.mark.parametrize("n_loops,merged", [(1, False), (2, True), (4, True), (5, False), (6, False)])
def test_the_merge_is_taken_for_two_to_four_loops_of_unequal_weights(n_loops, merged):
    labels = "abcdef"[:n_loops]
    decls = " ".join(f"{label}={n}" for n, label in enumerate(labels, 1))
    system = parse_system(f"sym {decls};\nexpr: ({'|'.join(labels)})*")
    with mock.patch.object(spectrum, "_merge_rows", wraps=spectrum._merge_rows) as spy:
        sp = enumerate_spectrum(system, 12.0)
    assert spy.called == merged
    assert sp == heap_loop_spectrum(system, 12.0)


def random_regex(rng, depth):
    """A regex over a, b and c with eps, unions, stars and repetitions."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["a", "b", "c", "eps"])
    x, y = random_regex(rng, depth - 1), random_regex(rng, depth - 1)
    lo = rng.randint(0, 2)
    return rng.choice([f"({x} {y})", f"({x}|{y})", f"({x})*", f"({x}){{{lo},{lo + rng.randint(0, 3)}}}"])


def test_equal_weights_match_the_fraction_search_seeded():
    rng = random.Random(27)
    seen = set()
    for _ in range(300):
        w = rng.choice([1.0, 0.5, 0.1, 3.0, 1.5e-9])
        system = parse_system(f"sym a={w!r} b={w!r} c={w!r};\nexpr: {random_regex(rng, 4)}")
        max_weight = rng.choice([rng.uniform(0.5, 12.0) * w, math.inf])
        max_strings = rng.choice([20, 500] + [10_000_000] * (max_weight < math.inf))
        with mock.patch.object(spectrum, "_level_rows", wraps=spectrum._level_rows) as level:
            _, complete, exhausted = assert_rows_are_decimal_sums(system, max_weight, max_strings)
        dfa = system_dfa(system)
        assert level.call_count == bool(set().union(*dfa.transitions))  # eps reads no label
        if dfa.n_states > 1:
            seen.add((max_weight == math.inf, complete, exhausted))
    # (at inf, complete, exhausted): every flag a multi-state automaton can give
    assert seen == {
        (False, True, False), (False, True, True), (False, False, False),
        (True, True, True), (True, False, False),
    }


def reference_level_rows(dfa, steps, cutoff, max_strings):
    """The level search as it read the weighted steps, listing each length's
    accepting states as it pushed."""
    u = next(weight for row in steps for weight, _ in row)
    counts, pushed = [0] * dfa.n_states, [0] * dfa.n_states
    counts[dfa.start] = 1
    reached = [dfa.start]
    W, C = [], []
    w = total = 0
    while reached:
        w += u
        if w > cutoff:
            return W, C, True, not any(map(steps.__getitem__, reached))
        level, hits = [], []
        for state in reached:
            n = counts[state]
            counts[state] = 0
            for _, nxt in steps[state]:
                if pushed[nxt]:
                    pushed[nxt] += n
                else:
                    pushed[nxt] = n
                    level.append(nxt)
                    if nxt in dfa.accepting:
                        hits.append(nxt)
        if hits:
            total += (accepted := sum(map(pushed.__getitem__, hits)))
            if total > max_strings:
                return W, C, False, False
            W.append(w)
            C.append(accepted)
        counts, pushed, reached = pushed, counts, level
    return W, C, True, True


def test_level_search_is_the_reference_level_search_seeded():
    # the same rows, flags and truncation, in units, on random regexes and
    # (j,k) systems, at budgets from 1 and cutoffs from 0 units
    rng = random.Random(41)
    flags = set()
    for i in range(400):
        system = (
            build_jk_system(rng.randint(1, 6), rng.randint(1, 6)) if i % 4 == 0
            else parse_system(f"sym a=1 b=1 c=1;\nexpr: {random_regex(rng, 5)}")
        )
        dfa = system_dfa(system)
        if not set().union(*dfa.transitions):
            continue
        u = rng.choice([1, 3, 10**20])
        steps = [sorted((u, nxt) for nxt in row.values()) for row in dfa.transitions]
        cutoff = u * rng.randint(0, 40) + rng.randint(0, u - 1)
        max_strings = rng.choice([1, 2, 7, 100, 10**6])
        rows = spectrum._level_rows(dfa, u, cutoff, max_strings)
        assert rows == reference_level_rows(dfa, steps, cutoff, max_strings), system
        flags.add(rows[2:])
    assert flags == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("j", range(1, 25))
def test_jk_spectrum_is_the_level_search_on_the_jk_dfa(j):
    # the same rows and flags at cutoffs 0-60 units (read from fractional
    # max weights), whole ones, inf, and budgets from 1
    flags = set()
    for k in range(1, 25):
        dfa = system_dfa(build_jk_system(j, k))
        for max_strings in (1, 2, 7, 100, 10**6):
            for max_weight in [c + 0.5 for c in range(61)] + [1, 2, 7, 60, math.inf]:
                cutoff = int(min(max_weight, sys.float_info.max))
                W, C, complete, exhausted = spectrum._level_rows(dfa, 1, cutoff, max_strings)
                sp = spectrum.jk_spectrum(j, k, max_weight, max_strings)
                assert (sp.units, sp.counts) == (tuple(W), tuple(C)), (k, max_weight, max_strings)
                assert (sp.complete, sp.exhausted) == (complete, exhausted)
                flags.add((complete, exhausted))
    assert flags == {(True, False), (False, False)}


@pytest.mark.parametrize("max_weight", [0.5, 1, 6.25, 12, 40, math.inf])
@pytest.mark.parametrize("max_strings", [1, 2, 7, 100, 10**6])
def test_jk_spectrum_is_the_spectrum_of_the_jk_system(max_weight, max_strings):
    # every field, the scale, max_weight and includes_empty included
    for j in range(1, 7):
        for k in range(1, 7):
            sp = spectrum.jk_spectrum(j, k, max_weight, max_strings)
            assert sp == enumerate_spectrum(build_jk_system(j, k), max_weight, max_strings)
            assert (sp.scale, sp.exhausted, sp.includes_empty) == (1, False, False)


@pytest.mark.parametrize("j,k", [(1, 1), (1, 2), (2, 2), (2, 5), (3, 3), (7, 4), (10**20, 2), (3, 10**20)])
def test_jk_spectrum_counts_are_the_run_length_dp(j, k):
    sp = spectrum.jk_spectrum(j, k, 150, 10**400)
    assert sp.counts == runlength_dp_counts(j, k, 150)
    assert sp.units == tuple(range(1, 151)) and sp.complete


def test_jk_spectrum_checks_its_arguments_in_order():
    for args, message in [
        ((0, 2, 0, 0), "j and k must be >= 1"),
        ((2, -1, 4, 10), "j and k must be >= 1"),
        ((2, 2, 0, 0), "max_weight must be positive"),
        ((2, 2, math.nan, 10), "max_weight must be positive"),
        ((2, 2, 4, 0), "max_strings must be positive"),
        ((2, 2, 4, math.nan), "max_strings must be positive"),
    ]:
        with pytest.raises(ValueError) as err:
            spectrum.jk_spectrum(*args)
        assert str(err.value) == message
        if args[0] >= 1 and args[1] >= 1:
            with pytest.raises(SpectrumError) as ref:
                enumerate_spectrum(build_jk_system(*args[:2]), *args[2:])
            assert str(ref.value) == message


@pytest.mark.parametrize(
    "expr,first_row",
    [("a{2000,2000}", (2000.0, 1)), ("a{800,800} (a|b)*", (800.0, 1)), ("(a{1,1000} b)*", (2.0, 1))],
)
def test_sparse_chains_same_as_heap_loop(expr, first_row):
    system = parse_system(f"sym a=1 b=1;\nexpr: {expr}")
    sp = enumerate_spectrum(system, math.inf, 10_000_000)
    assert sp == heap_loop_spectrum(system, math.inf, 10_000_000)
    assert sp.entries[0] == first_row


@pytest.mark.parametrize(
    "decls,expr,level",
    [
        ("a=1 b=1", "(a b a | b)*", True),
        ("a=1 b=2", "(a a)* a", True),  # b is declared, never read
        ("a=1 b=2", "a* b", False),
        ("a=1 b=2", "(a|b)*", False),  # the full shift of unequal loops is merged
    ],
)
def test_the_level_search_is_taken_exactly_for_one_weight_read(decls, expr, level):
    system = parse_system(f"sym {decls};\nexpr: {expr}")
    with mock.patch.object(spectrum, "_level_rows", wraps=spectrum._level_rows) as spy:
        sp = enumerate_spectrum(system, 8.0)
    assert spy.called == level
    assert sp == heap_loop_spectrum(system, 8.0)


@pytest.mark.parametrize(
    "decls,expr",
    [
        ("a=1e-10 b=3e-10 c=1", "(a|b|c)*"),
        ("a=1 b=1e-10", "(a|b)*"),
        ("a=1e-09", "a*"),
        ("a=1 b=2e-10", "(a b)*"),
        ("a=1e-09 b=1e-09", "(a b | b)* a"),
        ("a=5e-10 b=5e-10", "(a b | b)* a"),
    ],
)
def test_a_tiny_label_gives_its_decimal_rows(decls, expr):
    # distinct decimal sums that keep distinct floats, in each search
    system = parse_system(f"sym {decls};\nexpr: {expr}")
    rows, _, _ = assert_rows_are_decimal_sums(system, 2.0, 40)
    assert heap_loop_spectrum(system, 2.0, 40).entries == tuple((float(w), c) for w, c in rows)


def test_a_tiny_label_whose_rows_share_a_float_gives_its_decimal_rows():
    # the rows 1, 1 + 1e-17, ... are one float, and four rows
    system = parse_system("sym a=1 b=1e-17;\nexpr: a b*")
    rows, _, _ = assert_rows_are_decimal_sums(system, 2.0, 4)
    sp = heap_loop_spectrum(system, 2.0, 4)
    assert exact_rows(sp) == rows
    assert sp.weights == (1.0,) * 4
    assert math.isfinite(growth_rate_estimate(sp))


@pytest.mark.parametrize(
    "decls,expr,max_weight,max_strings,weight",
    [
        # 1e8 + 2e-9 and 1e8 + 4e-9 are two decimals and both round to 1e8
        pytest.param("a=100000000 b=2e-09", "a b*", 100000001.0, 100, 1e8, id="1e8_plus_2e-9"),
        # the full shift: a b is 200000000.00000001, and the floats next to 2e8 are 2**-25 apart
        pytest.param(
            f"a=100000000 b={math.nextafter(1e8, math.inf)!r}", "(a|b)*", 200000001.0, 100, 2e8, id="1e8_and_next_float"
        ),
        # 0.2 * 6 and 0.2 + 0.3333333333333333 * 3
        pytest.param("a=0.3333333333333333 b=0.2", "(a|b)*", 2.0, 10_000_000, 1.2, id="third_and_fifth"),
    ],
)
def test_rows_that_round_to_one_float_are_their_decimal_sums(decls, expr, max_weight, max_strings, weight):
    system = parse_system(f"sym {decls};\nexpr: {expr}")
    rows, _, _ = assert_rows_are_decimal_sums(system, max_weight, max_strings)
    sp = heap_loop_spectrum(system, max_weight, max_strings)
    assert exact_rows(sp) == rows
    assert sp.weights.count(weight) >= 2  # rows that share this float


def test_rows_past_the_epsilon_ulp_that_keep_their_floats_are_allowed():
    # past 2**24 a float's spacing exceeds 1e-9, and rows 1 apart still differ
    sp = enumerate_spectrum(parse_system("sym a=100000000 b=1;\nexpr: a b*"), 100000003.0)
    assert sp.entries == ((1e8, 1), (1e8 + 1, 1), (1e8 + 2, 1), (1e8 + 3, 1))


@pytest.mark.parametrize(
    "decls,expr,entries",
    [
        ("a=1 b=1e-17", "a", ((1.0, 1),)),  # b is declared, never read
        ("a=1 b=5e-324", "a", ((1.0, 1),)),
        ("a=1 b=1e-10", "a b{0,0}", ((1.0, 1),)),  # in the regex, on no edge of the DFA
        # two rows that are their decimals
        ("a=1.0000000000000002e-09", "a{1,2}", ((1.0000000000000002e-09, 1), (2.0000000000000004e-09, 1))),
    ],
)
def test_a_label_within_epsilon_that_the_dfa_never_reads_is_allowed(decls, expr, entries):
    sp = enumerate_spectrum(parse_system(f"sym {decls};\nexpr: {expr}"), 2.0)
    assert sp.entries == entries


def test_one_state_without_loops_keeps_its_result():
    sp = enumerate_spectrum(parse_system("sym a=1;\nexpr: eps"), math.inf)
    assert sp == WeightSpectrum((), 1, (), math.inf, True, True, True)


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0, -1.0])
def test_spectrum_from_counts_rejects_a_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(SpectrumError, match="finite and positive"):
        spectrum_from_counts([(weight, 2), (1.0, 3)])


def test_spectrum_from_counts_rejects_a_count_below_1():
    with pytest.raises(SpectrumError, match="counts >= 1"):
        spectrum_from_counts([(1.0, 0)])


def test_spectrum_from_counts_rejects_equal_weights():
    with pytest.raises(SpectrumError) as err:
        spectrum_from_counts([(2.0, 1), (1.0, 3), (1, 2)])
    assert str(err.value) == "weights 1 and 1.0 are equal"
    # weights 1e-10 apart are two rows
    sp = spectrum_from_counts([(2.0, 1), (1.0, 3), (1.0 + 1e-10, 2)])
    assert sp.entries == ((1.0, 3), (1.0000000001, 2), (2.0, 1))
    assert (sp.units, sp.scale) == ((10**10, 10**10 + 1, 2 * 10**10), 10**10)  # read as decimals


def test_jk_export_text_is_pinned():
    text = format_spectrum(enumerate_spectrum(build_jk_system(2, 2), 18))
    assert text == (
        "# max_weight 18\n# complete 1\n# exhausted 0\n"
        "# includes_empty 0\n1 2 2\n2 4 6\n3 6 12\n4 10 22\n5 16 38\n6 26 64\n"
        "7 42 106\n8 68 174\n9 110 284\n10 178 462\n11 288 750\n12 466 1216\n"
        "13 754 1970\n14 1220 3190\n15 1974 5164\n16 3194 8358\n17 5168 13526\n"
        "18 8362 21888\n"
    )


# --- density check ------------------------------------------------------


def test_density_unit_weight_system_satisfied(sbin):
    sp = enumerate_spectrum(sbin, max_weight=12)
    report = density_check(sp, L=1.0, K=2.0)
    assert report.satisfied
    report = density_check(sp, L=1.0, K=1.0)
    assert report.satisfied  # k <= nu_k for integer weights


def test_density_log_weights_violated():
    # nu_k = ln(k): index grows like exp(nu), beating any polynomial
    pairs = [(math.log(k), 1) for k in range(2, 2000)]
    sp = spectrum_from_counts(pairs)
    report = density_check(sp, L=10.0, K=2.0)
    assert not report.satisfied
    assert report.worst_n >= 1


def test_density_trivial_single_entry():
    sp = spectrum_from_counts([(1.0, 2)])
    assert density_check(sp, L=1.0, K=2.0).satisfied


def linear_density_check(sp, L, K):
    """The density check as a walk over every entry, for each integer n."""
    nus = sp.weights
    n_max = int(math.ceil(sp.horizon)) + 1
    i = 0
    for n in range(1, n_max + 1):
        while i < len(nus) and nus[i] < n:
            i += 1
        try:
            bound = L * n**K if L > 0 else 0.0
        except OverflowError:
            bound = math.inf
        if i > bound:
            return (False, n)
    return (True, n_max)


def test_density_check_agrees_with_a_linear_walk():
    rng = random.Random(20261018)
    spectra = [
        enumerate_spectrum(parse_system("sym a=1 b=1.4142135623730951;\nexpr: (a|b)*"), 9.0),
        enumerate_spectrum(build_jk_system(2, 3), 20),
        spectrum_from_counts([(math.log(k), 1) for k in range(2, 300)]),
        spectrum_from_counts([(0.25 * k, k) for k in range(1, 80)]),
        # 30 entries over 30,001 integers n: k steps up at every 1,000th
        enumerate_spectrum(parse_system("sym a=1000;\nexpr: a*"), 30_000),
    ]
    for i in range(400):
        sp = rng.choice(spectra)
        # every 8th at K = 400, where n**K leaves the float range from n = 6 on
        L, K = rng.uniform(0.0, 20.0), 400.0 if i % 8 == 0 else rng.uniform(0.0, 3.0)
        report = density_check(sp, L, K)
        assert (report.satisfied, report.worst_n) == linear_density_check(sp, L, K)


def density_check_to_the_horizon(sp, L, K):
    """The density check as it was before it stopped early: every n where
    k steps up, up to the horizon."""
    nus = sp.weights
    n_max = int(math.ceil(sp.horizon)) + 1
    n = 1
    while n <= n_max:
        k = bisect.bisect_left(nus, n)
        try:
            bound = L * n**K if L > 0 else 0.0
        except OverflowError:
            bound = math.inf
        if k > bound:
            return DensityReport(False, L, K, n)
        if k == len(nus):
            break
        n = math.floor(nus[k]) + 1
    return DensityReport(True, L, K, n_max)


def test_density_check_that_stops_early_agrees_with_one_to_the_horizon():
    rng = random.Random(22)
    spectra = [
        spectrum_from_counts([]),  # empty
        spectrum_from_counts([(0.5, 3)]),
        spectrum_from_counts([(0.5, 1), (1.5, 1), (2.5, 1)]),
        enumerate_spectrum(build_jk_system(4, 3), 200, 10**100),  # an entry at each integer
        enumerate_spectrum(parse_system("sym a=1 b=1.4142135623730951;\nexpr: (a|b)*"), 12.0),
        spectrum_from_counts([(math.log(k), 1) for k in range(2, 300)]),
        spectrum_from_counts([(0.01 * k, 1) for k in range(1, 500)]),  # 100 entries per n
    ]
    for _ in range(600):
        sp = rng.choice(spectra)
        L = rng.choice([0.0, 1.0, rng.uniform(0.0, 4.0), rng.uniform(0.0, 20.0), rng.uniform(20.0, 1000.0)])
        K = rng.choice([0.0, math.inf, 400.0, rng.uniform(0.0, 3.0)])
        assert density_check(sp, L, K) == density_check_to_the_horizon(sp, L, K)
    # each kind of verdict occurs: a violation, and a pass before and at the horizon
    assert not density_check(spectra[6], 50.0, 0.0)
    assert density_check(spectra[0], 0.0, 0.0) == DensityReport(True, 0.0, 0.0, 1)
    assert density_check(spectra[3], 1.0, math.inf) == DensityReport(True, 1.0, math.inf, 201)
    # a bound between 2 and 3 entries does not end the check: n = 3 violates it
    assert density_check(spectra[2], 2.5, 0.0) == DensityReport(False, 2.5, 0.0, 3)


def test_density_bound_beyond_the_float_range():
    # 11**400 is no float: for L > 0 the bound is inf
    sp = enumerate_spectrum(build_jk_system(2, 2), 10)
    assert density_check(sp, 1.0, 400.0) == DensityReport(True, 1.0, 400.0, 11)
    # at L = 0 the bound is 0 for every K, inf included (not 0 * 2**inf = nan)
    assert density_check(sp, 0.0, math.inf) == DensityReport(False, 0.0, math.inf, 2)
    # the first n with k > 0 is 8, and 8**400 is no float: at L = 0 the bound is 0
    sp = spectrum_from_counts([(7.5, 1), (9.0, 2)])
    assert density_check(sp, 1.0, 400.0) == DensityReport(True, 1.0, 400.0, 10)
    assert density_check(sp, 0.0, 400.0) == DensityReport(False, 0.0, 400.0, 8)


def test_partial_sum_of_counts_beyond_float_range():
    # D4: 2**1100 cannot be a float, but 2**1100 * exp(-1100) can
    sp = spectrum_from_counts([(1.0, 2), (1100.0, 2**1100)])
    want = 2 * math.exp(-1.0) + math.exp(1100 * (LN2 - 1.0))
    assert sp.partial_sum(1.0) == pytest.approx(want, rel=1e-12)


# --- cross-check / ambiguity detector -----------------------------------


def test_partial_sum_beyond_float_range_raises():
    system = parse_system("sym a=1 b=2;\nexpr: a b a | b")
    with pytest.raises(OverflowError):
        enumerate_spectrum(system, 5).partial_sum(-1000.0)
    # two terms that are floats, but not their sum
    sp = spectrum_from_counts([(1.0, 2**1023), (2.0, 2**1023)])
    with pytest.raises(OverflowError):
        sp.partial_sum(0.0)


def test_partial_sums_approach_gf_from_below(sbin):
    target = 1.0 / (1.0 - 2.0 * math.exp(-1.0))  # 3.7844223...
    diffs = []
    for horizon in (6, 10, 14):
        sp = enumerate_spectrum(sbin, max_weight=horizon)
        check = cross_check_gf(sp, sbin, 1.0)
        assert check.gf_value == pytest.approx(target, abs=1e-12)
        assert 0 <= check.difference <= check.tail_bound
        assert not check.ambiguous
        diffs.append(check.difference)
    assert diffs == sorted(diffs, reverse=True)


def test_cross_check_s22_within_tail_bound():
    system = build_jk_system(2, 2)
    sp = enumerate_spectrum(system, max_weight=14)
    check = cross_check_gf(sp, system, 1.0)
    assert 0 <= check.difference <= check.tail_bound
    assert not check.ambiguous


def test_ambiguous_union_flagged():
    system = parse_system("sym a=1;\nexpr: a|a")
    sp = enumerate_spectrum(system, max_weight=5)
    assert sp.exhausted  # finite language fully enumerated, tail is zero
    check = cross_check_gf(sp, system, 1.0)
    assert check.partial_sum == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert check.gf_value == pytest.approx(2 * math.exp(-1.0), abs=1e-12)
    assert check.ambiguous


def test_ambiguous_star_flagged():
    system = parse_system("sym a=1;\nexpr: (a|a)*")
    sp = enumerate_spectrum(system, max_weight=14)
    check = cross_check_gf(sp, system, 1.0)
    assert check.ambiguous
    assert check.difference > check.tail_bound


def test_cross_check_rejects_divergent_point(sbin):
    sp = enumerate_spectrum(sbin, max_weight=8)
    with pytest.raises(SpectrumError):
        cross_check_gf(sp, sbin, 0.5)


def test_cross_check_divergent_regex_series_above_capacity_is_ambiguous():
    # (a|a|c)* diverges at s=1 (3/e > 1); its language (a|c)* converges there
    system = parse_system("sym a=1 c=1 b=100000;\nexpr: (a|a|c)* b")
    sp = enumerate_spectrum(system, max_weight=12)
    check = cross_check_gf(sp, system, 1.0)
    assert check.ambiguous
    assert check.gf_value == check.difference == check.tail_bound == math.inf
    assert check.partial_sum == 0.0
    with pytest.raises(SpectrumError):
        cross_check_gf(sp, system, 0.5)  # below ln 2 the language diverges too


def test_cross_check_at_nan_is_an_error_not_divergence(sbin):
    # the regex's series reads nan as divergent; the pivot test refuses nan
    sp = enumerate_spectrum(sbin, max_weight=8)
    with pytest.raises(ValueError, match=r"^s must be a number, got nan$"):
        cross_check_gf(sp, sbin, math.nan)


def test_cross_check_divergent_just_below_capacity_is_error(sbin):
    # the bisection midpoint lies below ln 2 here, and (0|1)* is unambiguous:
    # its series diverges just below ln 2, which proves nothing
    sp = enumerate_spectrum(sbin, max_weight=12)
    with pytest.raises(SpectrumError):
        cross_check_gf(sp, sbin, math.nextafter(LN2, 0.0))


@pytest.mark.parametrize("s", [-300.0, -1000.0])
def test_cross_check_overflow_below_zero_is_error_not_ambiguity(s):
    # a b a | b has two derivations, finite at every s; at -300 the product
    # exp(300) exp(600) exp(300) is inf, at -1000 math.exp itself overflows
    system = parse_system("sym a=1 b=2;\nexpr: a b a | b")
    sp = enumerate_spectrum(system, 3)
    assert not cross_check_gf(sp, system, -1.0).ambiguous
    with pytest.raises(SpectrumError, match="exceeds the float range"):
        cross_check_gf(sp, system, s)
    # eps* derives every string infinitely often: divergence, not overflow
    ambiguous = parse_system("sym a=1 b=2;\nexpr: eps* (a b a | b)")
    assert cross_check_gf(enumerate_spectrum(ambiguous, 5), ambiguous, -1.0).ambiguous


@pytest.mark.parametrize("s", [0.001, 0.0, -1.0])
def test_cross_check_overflow_of_a_long_repetition_is_error_not_ambiguity(s):
    # 2^1101 - 2 derivations, one per string: the value at 0 is no float
    system = parse_system("sym a=1 b=1;\nexpr: (a|b){1,1100}")
    sp = enumerate_spectrum(system, 8)
    assert not cross_check_gf(sp, system, 1.0).ambiguous
    with pytest.raises(SpectrumError, match="exceeds the float range"):
        cross_check_gf(sp, system, s)


@pytest.mark.parametrize("text", [
    "sym a=1 b=1 c=1;\nexpr: (a|b){1,1100} c*",
    # capacity 0.000745: at 0.001 the language converges, and exp(-1000000)
    # would bring each 2^1100 back into range, were it a float
    "sym a=1 b=1 z=1000000;\nexpr: ((a|b){1,1100} z)*",
])
def test_cross_check_overflow_of_a_starred_regex_is_error_not_ambiguity(text):
    # both regexes are unambiguous: inf here would claim a proof of ambiguity
    system = parse_system(text)
    sp = enumerate_spectrum(system, 8)
    with pytest.raises(SpectrumError, match="exceeds the float range"):
        cross_check_gf(sp, system, 0.001)


def test_cross_check_tail_bound_skips_overflowed_trial_points():
    # the value at 0.1 is a float (1 + exp(-100000) 2^1100 ...), and the
    # bound's search runs toward x = 0, into the x below about 0.048 where
    # (a|b){1,1100} is not: those points give no bound, not an error
    system = parse_system("sym a=1 b=1 z=1000000;\nexpr: ((a|b){1,1100} z)*")
    check = cross_check_gf(enumerate_spectrum(system, 8), system, 0.1)
    assert not check.ambiguous
    assert check.tail_bound == pytest.approx(1.0)


@pytest.mark.parametrize("s", [0.7, 0.8, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("horizon", [1, 5, 20, 100])
def test_tail_bound_covers_exact_sbin_tail(sbin, s, horizon):
    r = 2.0 * math.exp(-s)  # (0|1)* has 2^n strings of weight n
    assert r ** (horizon + 1) / (1.0 - r) <= gf_tail_bound(series(sbin.expr, sbin.weights), s, horizon) < math.inf


def test_tail_bound_at_the_ends_of_the_axis(sbin):
    # a finite language converges at every s: at s <= 0 the only x <= s
    # searched is s itself, where the bound is the whole series
    finite = parse_system("sym a=1 b=2;\nexpr: a b a | b")
    for s in (0.0, -1.0):
        value = eval_real(finite.expr, finite.weights, s)
        assert gf_tail_bound(series(finite.expr, finite.weights), s, 3.0) == pytest.approx(value, rel=1e-12)
    # at s = inf every term of positive weight, so the whole tail, is 0
    assert gf_tail_bound(series(sbin.expr, sbin.weights), math.inf, 5.0) == 0.0


def grid_tail_bound(system, s, horizon):
    """The reference the golden-section search replaced: 39 probes between
    the regex series' abscissa (a root search to DEFAULT_TOL) and s."""
    expr, weights = system.expr, system.weights

    def excess(x):
        v = eval_real(expr, weights, x)
        return 1.0 if v == math.inf else -1.0 / (1.0 + v)

    lo, hi, _ = bisect_root(excess, DEFAULT_TOL)
    floor = 0.5 * (lo + hi)
    best = math.inf
    for t in range(1, 40):
        x = floor + (s - floor) * t / 40.0
        v = eval_real(expr, weights, x)
        if v != math.inf:
            best = min(best, v * math.exp(-horizon * (s - x)))
    return best


@seed(10)
@settings(max_examples=120, deadline=None)
@given(_regexes())
def test_tail_bound_never_above_grid_bound(expr):
    system = SystemDef(_DECLS, expr)
    gf = series(expr, system.weights)
    for s in (0.9, 1.7, 3.0):
        if gf(s) == math.inf:
            continue  # cross_check_gf reads no tail bound there
        for horizon in (3.0, 10.0, 40.0):
            bound = gf_tail_bound(gf, s, horizon)
            assert bound <= grid_tail_bound(system, s, horizon)


def test_cross_check_compiles_the_series_once():
    # the value at s and every point of the tail bound's search run one program
    system = parse_system("sym a=1 b=1;\nexpr: (a | b a | b b)*")
    sp = enumerate_spectrum(system, 10)
    compile_ = mock.Mock(wraps=genfun.series)
    with mock.patch.object(genfun, "series", compile_), mock.patch.object(spectrum, "series", compile_):
        check = cross_check_gf(sp, system, 1.0)
    assert compile_.call_count == 1
    assert check.gf_value == eval_real(system.expr, system.weights, 1.0)
    assert check.tail_bound == gf_tail_bound(series(system.expr, system.weights), 1.0, sp.horizon)


def test_cross_check_rejects_incomplete(sbin):
    sp = enumerate_spectrum(sbin, max_weight=20, max_strings=100)
    with pytest.raises(SpectrumError):
        cross_check_gf(sp, sbin, 1.0)


# --- export format ------------------------------------------------------


def parse_spectrum(text: str) -> WeightSpectrum:
    """Read back what ``format_spectrum`` writes."""
    meta = {}
    weights, counts = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            meta[key] = value
            continue
        nu, count, _ = line.split()
        weights.append(float(nu))
        counts.append(int(count))
    return dataclasses.replace(
        spectrum_from_counts(list(zip(weights, counts)), bool(int(meta.get("includes_empty", 0)))),
        max_weight=float(meta.get("max_weight", weights[-1] if weights else 0.0)),
        complete=bool(int(meta.get("complete", 1))),
        exhausted=bool(int(meta.get("exhausted", 0))),
    )


def test_spectrum_round_trips_through_text(sbin):
    sp = enumerate_spectrum(sbin, max_weight=8)
    again = parse_spectrum(format_spectrum(sp))
    assert again == sp


def test_export_has_header_and_rows(sbin):
    text = format_spectrum(enumerate_spectrum(sbin, max_weight=3))
    lines = text.strip().splitlines()
    assert lines[0] == "# max_weight 3"
    assert lines[-1].split() == ["3", "8", "14"]
