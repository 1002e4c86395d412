import math
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from concap import build_jk_system, maxent, parse_system
from concap.automata import Dfa, matches, system_dfa
from concap.genfun import bisect_root, capacity_jk
from concap.maxent import (
    MaxentError,
    Pmf,
    WeightedSupport,
    entropy,
    entropy_per_weight,
    format_pmf,
    jk_phrase_support,
    jk_source_supports,
    maxentropic_pmf,
    mean_weight,
    parse_support_file,
    rate_bound,
    sample_process,
    solve_rate,
    support_from_strings,
    validate_input_process,
    validate_input_source,
)

from conftest import runlength_ok

LN2 = math.log(2)
# rate of the {0, 1, 01} support: root of 2x + x^2 = 1 is x = sqrt(2) - 1
R_PITFALL = math.log(1 + math.sqrt(2))  # 0.88137358...

BITS = WeightedSupport((("0", 1.0), ("1", 1.0)))
PITFALL = WeightedSupport((("0", 1.0), ("1", 1.0), ("01", 2.0)))


def test_solve_rate_two_unit_weights():
    result = solve_rate(BITS)
    assert result.rate == pytest.approx(LN2, abs=1e-12)
    assert result.residual <= 1e-12
    assert not result.degenerate


def test_solve_rate_pitfall_support():
    result = solve_rate(PITFALL)
    assert result.rate == pytest.approx(R_PITFALL, abs=1e-12)
    assert result.rate == pytest.approx(0.8814, abs=5e-5)


def test_solve_rate_jk_phrases_equals_capacity():
    support = jk_phrase_support(2, 2)
    assert sorted(support.items) == [
        ("001", 3.0),
        ("0011", 4.0),
        ("01", 2.0),
        ("011", 3.0),
    ]
    assert solve_rate(support).rate == pytest.approx(capacity_jk(2, 2), abs=2e-12)


def _rate_supports() -> list[WeightedSupport]:
    """(j,k) phrase supports of 2 to 900 items, and 40 random supports of 8
    to 400 items with weights in [0.5, 6]."""
    supports = [jk_phrase_support(j, k) for j in (1, 2, 5, 12, 30) for k in (2, 8, 30)]
    rng = random.Random(2001)
    for _ in range(40):
        size = rng.randint(8, 400)
        supports.append(WeightedSupport(tuple(
            (f"s{i}", round(rng.uniform(0.5, 6.0), 6)) for i in range(size)
        )))
    return supports


@pytest.mark.parametrize("support", _rate_supports(), ids=len)
def test_solve_rate_tests_the_values_of_the_generator_sum(monkeypatch, support):
    # every trial point, value, bracket and iteration count is that of the
    # per-item generator sum the rate equation was first written with
    weights = support.weights

    def reference(s):
        return sum(math.exp(-w * s) for w in weights) - 1.0

    calls = []

    def recording(excess, tol):
        def traced(s):
            calls.append((s, excess(s)))
            return calls[-1][1]

        calls.append(bisect_root(traced, tol))
        return calls[-1]

    monkeypatch.setattr(maxent, "bisect_root", recording)
    result = solve_rate(support)
    expected = []

    def traced_reference(s):
        expected.append((s, reference(s)))
        return expected[-1][1]

    expected.append(bisect_root(traced_reference, maxent.DEFAULT_TOL))
    lo, hi, iterations = expected[-1]
    assert calls == expected
    assert (result.rate, result.residual, result.iterations) == (
        0.5 * (lo + hi), abs(reference(0.5 * (lo + hi))), iterations
    )


def test_solve_rate_degenerate_single_item():
    result = solve_rate(WeightedSupport((("a", 5.0),)))
    assert result.degenerate
    assert result.rate == 0.0


def test_support_validation():
    with pytest.raises(MaxentError):
        WeightedSupport(())
    with pytest.raises(MaxentError):
        WeightedSupport((("a", 1.0), ("a", 2.0)))
    with pytest.raises(MaxentError):
        WeightedSupport((("a", 0.0),))


@pytest.mark.parametrize("weight", [math.inf, math.nan, 0.0])
def test_support_weight_must_be_finite_and_positive(weight):
    with pytest.raises(MaxentError, match=f"weight of 'b' must be finite and positive, got {weight}"):
        WeightedSupport((("a", 1.0), ("b", weight)))


@pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan, 0.5), (math.nan,) * 3])
def test_pmf_rejects_a_nan_probability(probs):
    support = WeightedSupport(PITFALL.items[: len(probs)])
    with pytest.raises(MaxentError, match="got nan"):
        Pmf(support, probs)


def test_pmf_rejects_a_sum_that_is_not_1():
    with pytest.raises(MaxentError, match="sum to 0.75, not 1"):
        Pmf(PITFALL, (0.25, 0.25, 0.25))


def test_maxentropic_pmf_uniform_on_equal_weights():
    p = maxentropic_pmf(BITS)
    assert p.probs == pytest.approx((0.5, 0.5), abs=1e-12)


def test_maxentropic_pmf_pitfall_values():
    p = maxentropic_pmf(PITFALL)
    x = math.sqrt(2) - 1  # exp(-R)
    assert p.probs == pytest.approx((x, x, x * x), abs=1e-12)
    assert sum(p.probs) == pytest.approx(1.0, abs=1e-12)


def test_maxentropic_pmf_degenerate():
    p = maxentropic_pmf(WeightedSupport((("a", 5.0),)))
    assert p.probs == (1.0,)


def test_entropy_per_weight_examples():
    assert entropy_per_weight(maxentropic_pmf(BITS)) == pytest.approx(LN2, abs=1e-12)
    assert entropy_per_weight(maxentropic_pmf(PITFALL)) == pytest.approx(
        R_PITFALL, abs=1e-9
    )
    deterministic = Pmf(PITFALL, (1.0, 0.0, 0.0))
    assert entropy_per_weight(deterministic) == 0.0


@pytest.mark.parametrize("probs", [(1.0,), (1.0, 0.0), (0.0, 1.0, 0.0), (1, 0), (0, 1, 0)])
def test_entropy_of_a_one_point_pmf_is_positive_zero(probs):
    support = WeightedSupport(tuple((f"s{i}", 1.0) for i in range(len(probs))))
    h = entropy(Pmf(support, probs))
    assert (h, math.copysign(1.0, h)) == (0.0, 1.0)
    report = sample_process(Pmf(support, probs), n_blocks=10, seed=0)
    for value in (report.rate, report.empirical_entropy, report.empirical_rate):
        assert math.copysign(1.0, value) == 1.0


def test_entropy_equals_the_negated_sum():
    rng = random.Random(7)
    for _ in range(200):
        w = [rng.random() ** 3 for _ in range(rng.randint(2, 50))]
        p = Pmf(WeightedSupport(tuple((f"s{i}", 1.0) for i in range(len(w)))),
                tuple(x / sum(w) for x in w))
        assert entropy(p) == -sum(q * math.log(q) for q in p.probs if q > 0)


def test_maxentropic_rate_equality_random_supports():
    rng = np.random.default_rng(1234)
    for trial in range(200):
        size = rng.integers(2, 9)
        weights = rng.uniform(1e-3, 5.0, size)
        support = WeightedSupport(
            tuple((f"s{trial}_{i}", float(w)) for i, w in enumerate(weights))
        )
        r = solve_rate(support).rate
        assert entropy_per_weight(maxentropic_pmf(support)) == pytest.approx(
            r, abs=1e-9
        )


def test_random_pmfs_never_beat_maxentropic_rate():
    rng = np.random.default_rng(99)
    support = WeightedSupport(
        tuple((f"x{i}", float(w)) for i, w in enumerate(rng.uniform(0.1, 5.0, 6)))
    )
    r = solve_rate(support).rate
    for _ in range(500):
        probs = rng.dirichlet(np.ones(6))
        p = Pmf(support, tuple(probs / probs.sum()))
        assert entropy_per_weight(p) <= r + 1e-9


def test_maxentropic_pmf_is_local_maximum():
    support = PITFALL
    p = maxentropic_pmf(support)
    base = entropy_per_weight(p)
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = rng.normal(size=3)
        d -= d.mean()  # feasible direction: keeps the simplex constraint
        d *= 1e-3 / np.linalg.norm(d)
        probs = np.asarray(p.probs) + d
        if (probs <= 0).any():
            continue
        perturbed = Pmf(support, tuple(probs / probs.sum()))
        assert entropy_per_weight(perturbed) < base


# --- input-source validation --------------------------------------------


def test_jk_source_is_valid():
    system = build_jk_system(2, 2)
    supports = jk_source_supports(2, 2, depth=4)
    report = validate_input_source(supports, system)
    assert report.valid
    assert report.depth == 4


def test_overlapping_supports_invalid(sbin):
    level2 = WeightedSupport(
        tuple(sorted({a + b: 2.0 if len(a + b) == 2 else float(len(a + b))
                      for a in PITFALL.strings for b in PITFALL.strings}.items()))
    )
    report = validate_input_source([PITFALL, level2], sbin)
    assert not report.valid
    assert report.witness == "01"


def test_rejected_string_invalid():
    system = build_jk_system(1, 1)
    support = support_from_strings(system, ["01", "11"])
    report = validate_input_source([support], system)
    assert not report.valid
    assert report.witness == "11"
    assert "not accepted" in report.reason


# --- input-process validation -------------------------------------------


def test_pitfall_process_invalid_at_depth_2(sbin):
    p = maxentropic_pmf(PITFALL)
    report = validate_input_process(p, sbin, depth=2)
    assert not report.valid
    assert report.witness == "01"


def test_pitfall_fixed_by_zeroing_01(sbin):
    p = Pmf(PITFALL, (0.5, 0.5, 0.0))
    report = validate_input_process(p, sbin, depth=4)
    assert report.valid
    assert report.depth == 4
    assert (report.witness, report.reason) == ("", "")


def test_jk_process_valid():
    system = build_jk_system(2, 2)
    p = maxentropic_pmf(jk_phrase_support(2, 2))
    report = validate_input_process(p, system, depth=3)
    assert report.valid


def test_zero_probability_blocks_never_materialize(sbin):
    # "01" would collide with 0·1 and "x" is no label sequence of (0|1)*:
    # at probability 0 neither is read, so the process is valid
    support = WeightedSupport(PITFALL.items + (("x", 1.0),))
    report = validate_input_process(Pmf(support, (0.5, 0.5, 0.0, 0.0)), sbin, depth=3)
    assert report.valid


D5 = WeightedSupport((("a", 1.0), ("ab", 2.0), ("ba", 2.0)))
SAB = "sym a=1 b=1;\nexpr: (a|b)*"


def test_collision_within_one_depth_is_invalid():
    # D5: a·ba = ab·a, two factorizations into two blocks each
    report = validate_input_process(maxentropic_pmf(D5), parse_system(SAB), depth=2)
    assert not report.valid
    assert report.depth == 2
    assert report.witness == "aba"
    assert report.reason == "string 'aba' appears twice in support 2, as a·ba and ab·a"


def test_collision_needs_depth_two():
    report = validate_input_process(maxentropic_pmf(D5), parse_system(SAB), depth=1)
    assert report.valid
    assert report.depth == 1


def test_collision_across_depths_is_invalid_at_every_depth(sbin):
    for depth in (2, 3, 5):
        report = validate_input_process(maxentropic_pmf(PITFALL), sbin, depth)
        assert (report.valid, report.depth, report.witness) == (False, depth, "01")
        assert report.reason == "string '01' appears in supports 1 and 2"


def test_collision_depth_is_its_longer_side(sbin):
    # 0·0·0 = 000 fails at depth 3, but 0·000 = 000·0 already at depth 2
    p = maxentropic_pmf(WeightedSupport((("0", 1.0), ("000", 3.0))))
    report = validate_input_process(p, sbin, depth=3)
    assert report.witness == "0000"
    assert report.reason == "string '0000' appears twice in support 2, as 0·000 and 000·0"


def test_lowest_failing_depth_wins():
    # bba = b·b·a collides at depth 3; a·a is rejected at depth 2 by a
    # system without aa, and at depth 2 a rejection wins over D5's collision
    sab, no_aa = parse_system(SAB), parse_system("sym a=1 b=1;\nexpr: (b | a b)* (a | eps)")
    code = WeightedSupport((("a", 1.0), ("b", 1.0), ("bba", 3.0)))
    p = maxentropic_pmf(code)
    assert validate_input_process(p, sab, depth=2).valid
    report = validate_input_process(p, sab, depth=3)
    assert (report.witness, report.reason) == ("bba", "string 'bba' appears in supports 1 and 3")
    for q in (p, maxentropic_pmf(D5)):
        report = validate_input_process(q, no_aa, depth=3)
        assert (report.witness, report.reason) == ("aa", "string 'aa' in support 2 is not accepted")
    # up to length 4, D5 is first rejected at depth 3 (a·ab·ab): its
    # collision at depth 2 wins
    short = parse_system("sym a=1 b=1;\nexpr: (a|b){0,4}")
    assert validate_input_process(maxentropic_pmf(D5), short, depth=3).witness == "aba"


# --- rate bound ---------------------------------------------------------


def test_rate_bound_sbin_canonical_source(sbin):
    supports = []
    level = {"": 0.0}
    for _ in range(4):
        level = {s + b: w + 1.0 for s, w in level.items() for b in "01"}
        supports.append(WeightedSupport(tuple(sorted(level.items()))))
    rb = rate_bound(supports)
    assert rb.rates == pytest.approx((LN2,) * 4, abs=1e-12)
    assert rb.bound == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("j,k", [(1, 1), (2, 2), (3, 2)])
def test_rate_bound_jk_source_meets_capacity(j, k):
    supports = jk_source_supports(j, k, depth=4)
    rb = rate_bound(supports)
    q = capacity_jk(j, k)
    assert rb.bound <= q + 2e-12
    assert rb.bound == pytest.approx(q, abs=2e-12)


# --- sampling -----------------------------------------------------------


def test_sample_process_bits_rate():
    p = maxentropic_pmf(BITS)
    report = sample_process(p, n_blocks=100_000, seed=42)
    assert report.rate == pytest.approx(LN2, abs=1e-12)
    assert report.empirical_rate == pytest.approx(LN2, abs=0.01)
    assert len(report.string) == 100_000


def test_sample_process_rates_are_entropy_per_weight():
    # each rate is the quotient of the entropy and mean weight reported beside it
    p = maxentropic_pmf(jk_phrase_support(8, 8))
    report = sample_process(p, n_blocks=5_000, seed=3)
    counts = [report.drawn.count(i) for i in range(len(p.probs))]
    observed = Pmf(p.support, tuple(c / 5_000 for c in counts))
    assert (report.entropy, report.mean_weight, report.rate) == (
        entropy(p), mean_weight(p), entropy_per_weight(p)
    )
    assert (report.empirical_entropy, report.empirical_mean_weight, report.empirical_rate) == (
        entropy(observed), mean_weight(observed), entropy_per_weight(observed)
    )


def test_sample_process_jk22():
    system = build_jk_system(2, 2)
    p = maxentropic_pmf(jk_phrase_support(2, 2))
    report = sample_process(p, n_blocks=100_000, seed=7, system=system)
    assert report.empirical_rate == pytest.approx(0.4812, abs=0.01)
    assert report.accepted
    assert runlength_ok(report.string, 2, 2)


def test_sample_process_deterministic_given_seed():
    p = maxentropic_pmf(PITFALL)
    a = sample_process(p, n_blocks=1000, seed=3)
    b = sample_process(p, n_blocks=1000, seed=3)
    assert a == b
    c = sample_process(p, n_blocks=1000, seed=4)
    assert c.string != a.string


def test_sample_process_takes_numpy_integers():
    p = maxentropic_pmf(PITFALL)
    assert sample_process(p, np.int64(1000), np.int64(3)) == sample_process(p, 1000, 3)


@pytest.mark.parametrize("probs", [(1, 0), (0, 1, 0), (0, 1, 0, 0)])
def test_sample_process_takes_integer_probabilities(probs):
    support = WeightedSupport(tuple((f"s{i}", 1.0) for i in range(len(probs))))
    report = sample_process(Pmf(support, probs), n_blocks=100, seed=0)
    expected = np.random.default_rng(0).choice(len(probs), size=100, p=probs)
    assert report.drawn == expected.tolist()
    as_floats = Pmf(support, tuple(float(q) for q in probs))
    assert report == sample_process(as_floats, n_blocks=100, seed=0)


@pytest.mark.parametrize("seed", [
    None, [3, 1, 4], np.random.SeedSequence(5), np.uint64(2**63),
], ids=["none", "list", "seedsequence", "uint64"])
def test_sample_process_passes_other_seeds_to_numpy(seed):
    p = maxentropic_pmf(PITFALL)
    report = sample_process(p, n_blocks=100, seed=seed)
    assert len(report.drawn) == 100
    if seed is not None:
        expected = np.random.default_rng(seed).choice(len(p.probs), size=100, p=p.probs)
        assert report.drawn == expected.tolist()


def test_sample_text_joined_only_when_read():
    report = sample_process(maxentropic_pmf(PITFALL), n_blocks=1000, seed=3)
    assert "string" not in vars(report)
    assert report.string == "".join(report.blocks[i] for i in report.drawn)
    assert len(report.drawn) == 1000
    assert "string" in vars(report)


def _closure_spy(monkeypatch) -> list:
    """Record what each ``_first_rejected`` call of ``sample_process`` returns."""
    first_rejected, results = maxent._first_rejected, []

    def spy(*args):
        results.append(first_rejected(*args))
        return results[-1]

    monkeypatch.setattr(maxent, "_first_rejected", spy)
    return results


def test_sample_accepted_by_the_block_step_closure(monkeypatch):
    # 17 states, 576 labels: the closure costs at most 9,792 walks of a label
    system = build_jk_system(8, 8)
    p = maxentropic_pmf(jk_phrase_support(8, 8))
    closures = _closure_spy(monkeypatch)
    report = sample_process(p, n_blocks=50_000, seed=5, system=system)
    assert closures == [None]
    assert report.accepted is True
    assert report.accepted == matches(system, report.string)


def test_sample_walked_when_the_closure_rejects(monkeypatch):
    # (1,1) has 3 states and the pitfall support 4 labels: the closure runs
    # from 12 blocks on and finds 0·0 rejected, so the draws are walked
    system = build_jk_system(1, 1)
    p = maxentropic_pmf(PITFALL)
    closures = _closure_spy(monkeypatch)
    one = sample_process(p, n_blocks=1, seed=0, system=system)
    assert closures == []  # 12 > 1: the guard skips the closure
    assert (one.string, one.accepted) == ("1", True)
    # seed 1641 draws 01·0·1·0·1·0·1·0·1·0·1·0, an accepted alternation
    twelve = sample_process(p, n_blocks=12, seed=1641, system=system)
    assert closures == [["0", "0"]]
    assert twelve.accepted is True
    assert twelve.accepted == matches(system, twelve.string)
    many = sample_process(p, n_blocks=1000, seed=0, system=system)
    assert closures == [["0", "0"]] * 2
    assert many.accepted is False
    assert many.accepted == matches(system, many.string)


def test_sample_walked_when_the_closure_costs_more_than_the_draws(monkeypatch):
    # 81 states times 65,600 labels is far more than 1,000 blocks
    system = build_jk_system(40, 40)
    p = maxentropic_pmf(jk_phrase_support(40, 40))
    closures = _closure_spy(monkeypatch)
    report = sample_process(p, n_blocks=1000, seed=5, system=system)
    assert closures == []
    assert report.accepted is True
    assert report.accepted == matches(system, report.string)


@pytest.mark.parametrize("seed", [-1, np.int64(-1)], ids=["int", "int64"])
def test_sample_process_rejects_a_negative_seed(seed):
    with pytest.raises(MaxentError, match=r"^seed must be >= 0, got -1$"):
        sample_process(maxentropic_pmf(BITS), n_blocks=3, seed=seed)


@st.composite
def choice_cases(draw):
    """(p, n, seed) for ``Generator.choice``: 1 to 2,000 items, uniform,
    random, geometric (down to ratios whose tail underflows to 0) or one
    spike over a dust of tiny items, with zeros first, last or in runs, and
    scaled to sum to 1 or 1 +- 1e-10."""
    m = round(2000 ** draw(st.floats(0.0, 1.0)))  # log-uniform, 1 to 2,000
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "random", "geometric", "spike"]))
    if shape == "uniform":
        w = np.ones(m)
    elif shape == "random":
        w = gen.random(m)
    elif shape == "geometric":
        w = draw(st.floats(1e-3, 0.999)) ** np.arange(m)
    else:
        w = gen.random(m) * 1e-12
        w[gen.integers(m)] = 1.0
    zeros = draw(st.sampled_from(["none", "first", "last", "runs"]))
    z = draw(st.integers(1, m))
    if zeros == "first":
        w[:z - 1] = 0.0
    elif zeros == "last":
        w[m - z + 1:] = 0.0
    elif zeros == "runs":
        for start in gen.integers(m, size=gen.integers(1, 20)):
            w[start:start + gen.integers(1, 50)] = 0.0
    if not w.any():
        w[gen.integers(m)] = 1.0
    p = w / w.sum() * (1.0 + draw(st.sampled_from([0.0, 1e-10, -1e-10])))
    n = round(200_000 ** draw(st.floats(0.0, 1.0)))
    return p, n, draw(st.integers(0, 2**32 - 1))


@seed(2020)
@settings(max_examples=300, deadline=None)
@given(choice_cases())
def test_draw_indices_equal_generator_choice(case):
    p, n, rng_seed = case
    expected = np.random.default_rng(rng_seed).choice(len(p), size=n, p=p)
    drawn = maxent._draw_indices(np.random.default_rng(rng_seed), p, n)
    assert np.array_equal(drawn, expected)


class _Uniforms:
    """A generator whose ``random`` returns the uniforms it was given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("probs", [
    (0.25, 0.75),  # a cdf point on a cell edge
    (0.5, 0.5),
    (0.125,) * 8,
    (0.0, 0.25, 0.0, 0.75, 0.0),
    (1.0,),
    (0.3, 0.7),  # cdf points inside cells
    (0.1,) * 10,
    (0.25, 0.75 - 1e-10),  # renormalized: no draw past the last item
    (0.25, 0.75 + 1e-10),
])
@pytest.mark.parametrize("n", [16, 300, 70_000])
def test_draw_indices_at_cell_edges_and_cdf_points(probs, n):
    # uniforms on, just below and just above every multiple of 1/512 (the
    # edges of every table these sizes build) and every cdf point, and the
    # largest uniform below 1
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    points = np.concatenate([np.arange(512) / 512, cdf[cdf < 1.0]])
    u = np.concatenate([
        points, np.nextafter(points[1:], 0.0), np.nextafter(points, 1.0), [1.0 - 2.0**-53]
    ])
    u = np.resize(u, n)
    drawn = maxent._draw_indices(_Uniforms(u), np.asarray(probs), n)
    assert np.array_equal(drawn, cdf.searchsorted(u, side="right"))


def test_sample_process_single_deterministic_block():
    p = Pmf(WeightedSupport((("ab", 2.0),)), (1.0,))
    report = sample_process(p, n_blocks=1, seed=0)
    assert report.string == "ab"
    assert report.rate == 0.0
    assert report.empirical_rate == 0.0


# --- interchange format -------------------------------------------------


def test_support_file_round_trip():
    p = maxentropic_pmf(PITFALL)
    support, parsed = parse_support_file(format_pmf(p))
    assert support == PITFALL
    assert parsed is not None
    assert parsed.probs == pytest.approx(p.probs, abs=1e-10)


def test_support_file_without_probs():
    support, p = parse_support_file("0 1\n1 1\n# comment\n01 2\n")
    assert support == PITFALL
    assert p is None


def test_support_file_bad_columns():
    with pytest.raises(MaxentError):
        parse_support_file("0 1 0.5\n1 1\n")


def test_each_block_is_walked_from_a_state_at_most_once(monkeypatch):
    # ~200 DFA states and 200 blocks: walking every block from every state
    # would take ~40,000 walks, more than sampling needs
    system = parse_system("sym a=1 b=1;\nexpr: (a{1,200} b)*")
    blocks = (("a", 1.0),) + tuple(("a" * k + "b", k + 1.0) for k in range(1, 200))
    p = maxentropic_pmf(WeightedSupport(blocks))
    walk, walks = Dfa.walk, []

    def counting(dfa, labels, q):
        walks.append((tuple(labels), q))
        return walk(dfa, labels, q)

    monkeypatch.setattr(Dfa, "walk", counting)
    report = sample_process(p, n_blocks=1000, seed=1, system=system)
    assert len(walks) <= 1000
    # runs of at most 200 a's: the comma code b a^k (k = 0..100) reaches
    # the runs 0..100 at depth 1, and expands each of them once
    runs = parse_system("sym a=1 b=1;\nexpr: (b | a{1,200} b)* a{0,200}")
    code = WeightedSupport(tuple(("b" + "a" * k, k + 1.0) for k in range(101)))
    assert system_dfa(runs).n_states == 201
    for depth in (1, 2, 3):
        walks.clear()
        assert validate_input_process(maxentropic_pmf(code), runs, depth).valid
        assert len(set(walks)) == len(walks) <= len(code) * 201
        assert len(walks) == len(code) * (1 if depth == 1 else len(code))
    monkeypatch.undo()
    assert report.accepted == matches(system, report.string)


@pytest.mark.parametrize("jk, call", [
    ((2, 2), lambda p, system: validate_input_process(p, system, depth=3)),
    ((1, 1), lambda p, system: validate_input_process(p, system, depth=3)),
    ((2, 2), lambda p, system: sample_process(p, n_blocks=1000, seed=5, system=system)),
    ((1, 1), lambda p, system: sample_process(p, n_blocks=1000, seed=5, system=system)),
], ids=["validate", "validate-rejected", "simulate-closure", "simulate-walked"])
def test_each_positive_block_is_read_once(monkeypatch, jk, call):
    # 0011 has probability 0 and is never read; under (1,1) the first
    # block in sorted order, 001, is rejected and the others are read too
    support = jk_phrase_support(2, 2)
    p = Pmf(support, (0.25, 0.5, 0.25, 0.0))
    split, calls = maxent.split_labels, []

    def counting(s, label_re):
        calls.append(s)
        return split(s, label_re)

    monkeypatch.setattr(maxent, "split_labels", counting)
    call(p, build_jk_system(*jk))
    assert sorted(calls) == ["001", "01", "011"]
