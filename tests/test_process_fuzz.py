"""Random IID block processes checked against references written here.

``validate_input_process`` searches DFA states and dangling suffixes and
never builds a concatenation, and ``sample_process`` accepts a sample
outright when every state that block steps reach from the start accepts,
and otherwise walks the sampled blocks one at a time.  The references below
instead build every concatenation of up to ``depth`` blocks with
``itertools.product``, record each of its factorizations, and test it from
its start with ``matches``.
"""

import itertools
import re
import threading
from bisect import bisect_right
from collections import defaultdict

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import build_jk_system, parse_system
from concap.automata import matches, system_dfa
from concap.dsl import DslError, split_labels
from concap.maxent import (
    Pmf,
    ValidationReport,
    WeightedSupport,
    _first_collision,
    _first_rejected,
    jk_phrase_support,
    sample_process,
    validate_input_process,
)

# system, and the pieces blocks are made of: for the multi-character
# labels {ab, c, dd} the single characters a and b can make blocks that
# are no label sequence (a, ba) or that only join into one (a + b = ab)
SYSTEMS = (
    (parse_system("sym 0=1 1=1;\nexpr: (0|1)*"), ("0", "1")),
    (build_jk_system(1, 2), ("0", "1")),
    (build_jk_system(2, 2), ("0", "1")),
    (build_jk_system(3, 1), ("0", "1")),
    (parse_system("sym ab=1 c=2 dd=1.5;\nexpr: (ab | c)* (dd | eps)"),
     ("ab", "c", "dd", "a", "b")),
)


@st.composite
def processes(draw):
    system, pieces = draw(st.sampled_from(SYSTEMS))
    block = st.lists(st.sampled_from(pieces), min_size=1, max_size=3).map("".join)
    blocks = draw(st.lists(block, min_size=1, max_size=5, unique=True))
    mass = draw(
        st.lists(st.integers(0, 3), min_size=len(blocks), max_size=len(blocks)).filter(any)
    )
    support = WeightedSupport(tuple((b, float(len(b))) for b in blocks))
    return system, Pmf(support, tuple(m / sum(mass) for m in mass))


def reference_failures(p, system, depth):
    """Every string that fails as a concatenation of at most ``depth``
    positive-probability blocks, mapped to the number of blocks after which
    it fails: its fewest if the system rejects it, else its second-fewest if
    it has two factorizations.  The blocks are first read in sorted order,
    so the first with no label sequence raises ``DslError``."""
    blocks = sorted(s for s, q in zip(p.support.strings, p.probs) if q > 0)
    for s in blocks:
        split_labels(s, system.label_re)
    factorizations = defaultdict(list)
    for n in range(1, depth + 1):
        for t in itertools.product(blocks, repeat=n):
            factorizations["".join(t)].append(n)
    failures = {}
    for s, counts in factorizations.items():
        if not matches(system, s):
            failures[s] = counts[0]
        elif len(counts) > 1:
            failures[s] = counts[1]
    return failures


def parent_pointer_first_rejected(blocks, system, depth):
    """Reference for ``_first_rejected``: the same breadth-first search,
    with a parent map from which the path is rebuilt once a rejection is
    found, and each block read as labels on its first walk."""
    dfa = system_dfa(system)
    labels = [None] * len(blocks)
    parent = {dfa.start: None}
    frontier = [dfa.start]
    for _ in range(depth):
        reached = []
        for q in frontier:
            for i, block in enumerate(blocks):
                if labels[i] is None:
                    labels[i] = split_labels(block, system.label_re)
                t = dfa.walk(labels[i], q)
                if t not in dfa.accepting:
                    path = [block]
                    while parent[q] is not None:
                        q, b = parent[q]
                        path.append(b)
                    return path[::-1]
                if t not in parent:
                    parent[t] = (q, block)
                    reached.append(t)
        frontier = reached
    return None


def reference_first_collision(blocks, depth):
    """Reference for ``_first_collision``: the same Sardinas-Patterson
    search with a list of nodes for every level up to ``depth``, nodes told
    apart by the dangling suffix and both block counts, and both sequences
    copied at every step."""
    if depth < 2:
        return None
    members = set(blocks)
    lengths = sorted({len(b) for b in blocks})

    def continuations(d):
        for n in lengths:
            if n > len(d):
                break
            if d[:n] in members:
                yield d[:n]
        i = bisect_right(blocks, d)
        while i < len(blocks) and blocks[i].startswith(d):
            yield blocks[i]
            i += 1

    by_length = [[] for _ in range(depth + 1)]
    seen = set()

    def push(d, ahead, behind):
        key = (d, len(ahead), len(behind))
        if key not in seen:
            seen.add(key)
            by_length[max(len(ahead), len(behind))].append((d, ahead, behind))

    for v in blocks:
        for u in continuations(v):
            if len(u) == len(v):
                break
            push(v[len(u):], (v,), (u,))
    for k in range(1, depth + 1):
        found = None
        for d, ahead, behind in by_length[k]:
            if len(behind) == depth:
                continue
            for c in continuations(d):
                grown = behind + (c,)
                if c == d:
                    if len(grown) <= k:
                        return ahead, grown
                    found = found or (ahead, grown)
                elif len(c) < len(d):
                    push(d[len(c):], ahead, grown)
                else:
                    push(c[len(d):], grown, ahead)
        if found:
            return found
    return None


def same_collision(blocks, depth):
    got = _first_collision(blocks, depth)
    return (got if got is None else tuple(map(tuple, got))) == reference_first_collision(
        blocks, depth
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except DslError as exc:
        return ("DslError", str(exc))


def is_label_sequence(system, s):
    labels = "|".join(re.escape(d.label) for d in system.alphabet)
    return re.fullmatch(f"(?:{labels})*", s) is not None


@seed(5)
@settings(max_examples=300, deadline=None)
@given(processes(), st.integers(1, 3))
def test_validate_input_process_equals_reference(process, depth):
    system, p = process
    failures = outcome(reference_failures, p, system, depth)
    report = outcome(validate_input_process, p, system, depth)
    if isinstance(failures, tuple):  # DslError
        assert report == failures
        return
    assert report.valid == (not failures)
    assert report.depth == depth
    if failures:
        # a real failure at the lowest failing depth
        w = report.witness
        assert failures.get(w) == min(failures.values())
        if matches(system, w):
            assert report.reason.startswith(f"string {w!r} appears ")
            assert re.search(rf"\b{failures[w]}\b", report.reason)
        else:
            assert report.reason == f"string {w!r} in support {failures[w]} is not accepted"


@seed(7)
@settings(max_examples=300, deadline=None)
@given(processes(), st.sampled_from([1, 2, 3, 4, "n_states"]))
def test_first_rejected_same_path_as_parent_pointers(process, depth):
    system, p = process
    blocks = [s for s in p.support.strings if is_label_sequence(system, s)]
    dfa = system_dfa(system)
    depth = dfa.n_states if depth == "n_states" else depth
    labels = [split_labels(s, system.label_re) for s in blocks]
    expected = parent_pointer_first_rejected(blocks, system, depth)
    assert _first_rejected(dfa, blocks, labels, depth) == expected


@seed(6)
@settings(max_examples=150, deadline=None)
@given(processes(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_sample_process_accepted_equals_matches(process, n_blocks, rng_seed):
    system, p = process
    positive = [s for s, q in zip(p.support.strings, p.probs) if q > 0]
    if not all(is_label_sequence(system, s) for s in positive):
        with pytest.raises(DslError):
            sample_process(p, n_blocks, rng_seed, system)
        return
    report = sample_process(p, n_blocks, rng_seed, system)
    assert report.accepted == matches(system, report.string)


@st.composite
def codes(draw):
    letters = "abc"[: draw(st.integers(1, 3))]
    block = st.text(letters, min_size=1, max_size=4)
    return sorted(draw(st.lists(block, min_size=1, max_size=8, unique=True)))


@seed(8)
@settings(max_examples=3000, deadline=None)
@given(codes(), st.integers(1, 12))
def test_first_collision_same_pair_as_the_reference(blocks, depth):
    assert same_collision(blocks, depth)


@pytest.mark.parametrize("j", range(1, 9))
def test_phrase_codes_have_no_collision_like_the_reference(j):
    for k in range(1, 9):
        blocks = sorted(jk_phrase_support(j, k).strings)
        for depth in range(2, 7):
            assert _first_collision(blocks, depth) is None
            assert same_collision(blocks, depth)


@pytest.mark.parametrize("blocks, collides", [
    (["0", "01", "11"], False),  # uniquely decodable, with an unbounded delay
    (["xyz", "y", "yx", "zx"], False),  # its count difference grows by one each cycle
    (["a", "ab", "ba"], True),
    (["0", "01", "10"], True),
    (["a", "aaab", "babb", "bbaaa"], True),  # first at seven blocks on one side
])
def test_hand_made_codes_give_the_reference_pair(blocks, collides):
    for depth in range(1, 41):
        assert same_collision(blocks, depth)
    assert (_first_collision(blocks, 40) is not None) == collides


def test_a_collision_seven_blocks_deep_is_found_at_depth_seven():
    blocks = ["a", "aaab", "babb", "bbaaa"]
    assert _first_collision(blocks, 6) is None
    pair = (["aaab", "a", "bbaaa"], ["a", "a", "a", "babb", "a", "a", "a"])
    assert _first_collision(blocks, 7) == _first_collision(blocks, 10**9) == pair


@pytest.mark.parametrize("system, blocks", [
    (parse_system("sym 0=1 1=1;\nexpr: (0|1)*"), ["0", "01", "11"]),
    (build_jk_system(2, 2), jk_phrase_support(2, 2).strings),
])
def test_validate_at_depth_1e9_ends_when_nothing_new_is_reached(system, blocks):
    # both searches reach nothing new after a few levels; neither may run on to the depth
    support = WeightedSupport(tuple((b, float(len(b))) for b in blocks))
    p = Pmf(support, (1 / len(blocks),) * len(blocks))
    reports = []
    worker = threading.Thread(
        target=lambda: reports.append(validate_input_process(p, system, 10**9)), daemon=True
    )
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    assert reports == [ValidationReport(True, 10**9)]
