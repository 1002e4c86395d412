"""Random IID block processes checked against references written here.

``validate_input_process`` walks each string's DFA state from its prefix's
state and its last block, and ``sample_process`` walks the sampled blocks
the same way.  The references below instead test every concatenation from
its start with ``matches`` and build each depth with ``itertools.product``.
"""

import itertools
import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import build_jk_system, parse_system
from concap.automata import matches
from concap.dsl import DslError
from concap.maxent import (
    Pmf,
    ValidationReport,
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


def reference_validate(p, system, depth, max_tuples):
    """Depth l holds the distinct concatenations of l positive-probability
    blocks, built only while (number of blocks)**l <= max_tuples (depth 1
    always); strings are checked depth by depth in sorted order."""
    blocks = [s for s, q in zip(p.support.strings, p.probs) if q > 0]
    levels = []
    for n in range(1, depth + 1):
        if n > 1 and len(blocks) ** n > max_tuples:
            break
        levels.append(sorted({"".join(t) for t in itertools.product(blocks, repeat=n)}))
    checked, truncated = len(levels), len(levels) < depth
    seen = {}
    for level, strings in enumerate(levels, start=1):
        for s in strings:
            if s in seen:
                reason = f"string {s!r} appears in supports {seen[s]} and {level}"
                return ValidationReport(False, checked, s, reason, truncated)
            seen[s] = level
            if not matches(system, s):
                reason = f"string {s!r} in support {level} is not accepted"
                return ValidationReport(False, checked, s, reason, truncated)
    return ValidationReport(True, checked, truncated=truncated)


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
@given(processes(), st.integers(1, 3), st.integers(1, 60))
def test_validate_input_process_equals_reference(process, depth, max_tuples):
    system, p = process
    expected = outcome(reference_validate, p, system, depth, max_tuples)
    assert outcome(validate_input_process, p, system, depth, max_tuples) == expected


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
