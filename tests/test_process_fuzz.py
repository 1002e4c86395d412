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
from collections import defaultdict

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import build_jk_system, parse_system
from concap.automata import matches
from concap.dsl import DslError
from concap.maxent import (
    Pmf,
    WeightedSupport,
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
    it has two factorizations.  The blocks are first checked in sorted
    order, so a block with no label sequence raises ``DslError`` unless an
    earlier block is rejected; then every rejected block fails at 1."""
    blocks = sorted(s for s, q in zip(p.support.strings, p.probs) if q > 0)
    for s in blocks:
        if not matches(system, s):
            labelled = [b for b in blocks if is_label_sequence(system, b)]
            return {b: 1 for b in labelled if not matches(system, b)}
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
