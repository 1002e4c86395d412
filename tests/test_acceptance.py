"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.

Criteria 3b and 4 check finite-horizon estimators of a capacity that is
defined as a limit, so each fixes its horizon or its reference value from
the estimator's known bias.  With A(H) the number of strings of weight at
most H and N(H) the number of weight exactly H:

- 3b: ``capacity_estimate`` is ln A(H)/H, which exceeds the capacity C by
  exactly ln(A(H) e^{-CH})/H.  The test runs at a horizon where that bias
  is below the tolerance for every (j,k) pair.
- 4: for integer weights the two estimator families differ by exactly
  ln(A(H)/N(H))/H, whose leading term is -ln(1 - e^{-C})/H when N grows
  like e^{CH}.  The tolerance applies to the gap minus that term.
"""

import math
import time

import pytest

from concap import build_jk_system, parse_system
from concap.genfun import abscissa, capacity_jk
from concap.maxent import (
    Pmf,
    WeightedSupport,
    entropy_per_weight,
    jk_phrase_support,
    jk_source_supports,
    maxentropic_pmf,
    rate_bound,
    sample_process,
    solve_rate,
    validate_input_process,
)
from concap.spectrum import (
    capacity_estimate,
    cross_check_gf,
    enumerate_spectrum,
    growth_rate_estimate,
    spectrum_from_counts,
)

from conftest import (
    brute_force_counts,
    c0_sequence,
    capacity_sequence,
    runlength_dp_counts,
    runlength_ok,
)

LN2 = math.log(2)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())


def test_criterion_1_sbin_capacity():
    start = time.perf_counter()
    system = parse_system("sym 0=1 1=1;\nexpr: (0|1)*", name="S_bin")
    q = abscissa(system).q
    elapsed = time.perf_counter() - start
    ok = abs(q - LN2) <= 1e-9 and elapsed < 1.0
    report("1 S_bin capacity", ok, f"Q={q:.12f} elapsed={elapsed:.3f}s")
    assert abs(q - LN2) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_pitfall_rate_and_process():
    start = time.perf_counter()
    support = WeightedSupport((("0", 1.0), ("1", 1.0), ("01", 2.0)))
    rate = solve_rate(support).rate
    system = parse_system("sym 0=1 1=1;\nexpr: (0|1)*", name="S_bin")
    verdict = validate_input_process(maxentropic_pmf(support), system, depth=2)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rate - 0.8814) <= 5e-5
        and not verdict.valid
        and verdict.witness == "01"
        and elapsed < 1.0
    )
    report("2 pitfall rate + process", ok,
           f"R={rate:.6f} witness={verdict.witness!r} elapsed={elapsed:.3f}s")
    assert abs(rate - 0.8814) <= 5e-5
    assert not verdict.valid and verdict.witness == "01"
    assert elapsed < 1.0


def _counts_spectrum(counts: tuple[int, ...]):
    return spectrum_from_counts(
        [(float(n), c) for n, c in enumerate(counts, start=1)]
    )


def test_criterion_3a_jk_formula_vs_abscissa():
    start = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    for j in range(1, 4):
        for k in range(1, 4):
            direct = capacity_jk(j, k, tol=tol)
            via_dfa = abscissa(build_jk_system(j, k), tol=tol).q
            worst = max(worst, abs(direct - via_dfa))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-12 and elapsed < 60.0
    report("3a (j,k) formula vs abscissa", ok,
           f"worst={worst:.2e} elapsed={elapsed:.2f}s")
    assert worst <= 2e-12


def test_criterion_3b_jk_formula_vs_spectrum_estimate():
    # The bias of capacity_estimate at horizon H is ln(A(H) e^{-CH})/H.
    # For (1,1), C = 0 and A(H) = 2H, so the bias is ln(2H)/H, which is
    # within 0.06 only from H = 87 on.  At H = 100 it is 0.053, and smaller
    # for every other pair; the margin stays under 0.01, so a capacity_jk
    # that is 0.01 too low still fails (one too high cancels against the
    # bias and is left to 3a).  2**100 strings cannot be filtered, so the
    # counts come from the run-length DP, checked here against the literal
    # filter first.  The growth-rate estimate converges fast enough to be
    # checked at horizon 18, on the same DP counts.
    start = time.perf_counter()
    worst = 0.0
    worst_growth = 0.0
    for j in range(1, 4):
        for k in range(1, 4):
            assert runlength_dp_counts(j, k, 14) == brute_force_counts(j, k, 14)
            q = capacity_jk(j, k)
            sp = _counts_spectrum(runlength_dp_counts(j, k, 100))
            worst = max(worst, abs(capacity_estimate(sp) - q))
            sp18 = _counts_spectrum(runlength_dp_counts(j, k, 18))
            worst_growth = max(worst_growth, abs(growth_rate_estimate(sp18) - q))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.06 and worst_growth <= 0.06 and elapsed < 60.0
    report("3b (j,k) formula vs spectrum estimate", ok,
           f"worst={worst:.4f} at horizon 100 (tol 0.06, growth-rate "
           f"worst={worst_growth:.4f} at horizon 18) elapsed={elapsed:.2f}s")
    assert worst_growth <= 0.06
    assert worst <= 0.06


def test_criterion_4_estimator_agreement_horizon_20():
    # The two families differ at horizon 20 by ln(A(20)/N(20))/20, which
    # tends to -ln(1 - e^{-C})/20: 0.0347 for S_bin and 0.0481 for (2,2),
    # so no correct pair of these estimators is within 0.02 of each other.
    # The 0.02 tolerance applies to the gap minus that leading term, with C
    # taken from outside the estimators.  Per-weight counts in place of
    # the cumulative ones, or either estimator divided by a horizon one
    # step off, leave a residual above 0.03.  The (2,2) counts come from the
    # run-length DP, checked against the literal filter first.
    start = time.perf_counter()
    assert runlength_dp_counts(2, 2, 14) == brute_force_counts(2, 2, 14)
    sbin_counts = [(float(n), 2**n) for n in range(1, 21)]
    cases = {
        "S_bin": (spectrum_from_counts(sbin_counts), LN2),
        "S_(2,2)": (_counts_spectrum(runlength_dp_counts(2, 2, 20)), capacity_jk(2, 2)),
    }
    worst_residual = 0.0
    monotone = True
    for sp, c in cases.values():
        caps = capacity_sequence(sp)
        c0s = c0_sequence(sp)
        gaps = [abs(a - b) for a, b in zip(caps, c0s)]
        leading = -math.log(1.0 - math.exp(-c)) / sp.horizon
        worst_residual = max(worst_residual, abs(gaps[-1] - leading))
        monotone = monotone and all(
            b <= a + 1e-12 for a, b in zip(gaps[-5:], gaps[-4:])
        )
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 0.02 and monotone and elapsed < 30.0
    report("4 estimator agreement at horizon 20", ok,
           f"worst_residual={worst_residual:.2e} (tol 0.02) "
           f"monotone={monotone} elapsed={elapsed:.2f}s")
    assert monotone
    assert elapsed < 30.0
    assert worst_residual <= 0.02


def test_criterion_5_maxentropic_property_suite():
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_eq = 0.0
    for i in range(1000):
        size = int(rng.integers(2, 9))
        weights = rng.uniform(0.0, 5.0, size)
        weights[weights == 0.0] = 1e-6  # open interval (0, 5]
        support = WeightedSupport(
            tuple((f"r{i}_{n}", float(w)) for n, w in enumerate(weights))
        )
        r = solve_rate(support).rate
        worst_eq = max(
            worst_eq, abs(entropy_per_weight(maxentropic_pmf(support)) - r)
        )
    # random PMFs on a few supports never beat the rate
    violations = 0
    for i in range(4):
        size = int(rng.integers(2, 9))
        weights = rng.uniform(1e-6, 5.0, size)
        support = WeightedSupport(
            tuple((f"q{i}_{n}", float(w)) for n, w in enumerate(weights))
        )
        r = solve_rate(support).rate
        for _ in range(1000):
            probs = rng.dirichlet(np.ones(size))
            p = Pmf(support, tuple(probs / probs.sum()))
            if entropy_per_weight(p) > r + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = worst_eq <= 1e-9 and violations == 0 and elapsed < 10.0
    report("5 maxentropic property suite", ok,
           f"worst_eq={worst_eq:.2e} violations={violations} "
           f"elapsed={elapsed:.2f}s")
    assert worst_eq <= 1e-9
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_6_jk22_maxentropic_process():
    start = time.perf_counter()
    support = jk_phrase_support(2, 2)
    r = solve_rate(support).rate
    q = capacity_jk(2, 2)
    p = maxentropic_pmf(support)
    sample = sample_process(p, n_blocks=100_000, seed=0,
                            system=build_jk_system(2, 2))
    elapsed = time.perf_counter() - start
    rate_ok = abs(r - q) <= 2e-12
    emp_ok = abs(sample.empirical_rate - 0.4812) <= 0.01
    predicate_ok = bool(sample.accepted) and runlength_ok(sample.string, 2, 2)
    ok = rate_ok and emp_ok and predicate_ok and elapsed < 30.0
    report("6 (2,2) maxentropic process", ok,
           f"|R-C|={abs(r - q):.2e} empirical={sample.empirical_rate:.4f} "
           f"elapsed={elapsed:.2f}s")
    assert rate_ok and emp_ok and predicate_ok
    assert elapsed < 30.0


def test_criterion_7_rate_bounds_never_exceed_capacity():
    start = time.perf_counter()
    excesses = []
    for j in range(1, 4):
        for k in range(1, 4):
            q = capacity_jk(j, k)
            depth = 4 if j * k <= 4 else 3  # keep (3,3)^4 = 6561 tuples out
            rb = rate_bound(jk_source_supports(j, k, depth))
            excesses.append(rb.bound - q)
    # E.9-style processes: maxentropic phrase processes, validated
    for j, k in ((1, 2), (2, 2)):
        system = build_jk_system(j, k)
        p = maxentropic_pmf(jk_phrase_support(j, k))
        assert validate_input_process(p, system, depth=3).valid
    # canonical unconstrained source: all strings of each length
    supports = [
        WeightedSupport(
            tuple((format(i, f"0{n}b"), float(n)) for i in range(2**n))
        )
        for n in range(1, 5)
    ]
    excesses.append(rate_bound(supports).bound - LN2)
    elapsed = time.perf_counter() - start
    worst = max(excesses)
    ok = worst <= 2e-12 and elapsed < 10.0
    report("7 rate bounds vs capacity", ok,
           f"worst_excess={worst:.2e} elapsed={elapsed:.2f}s")
    assert worst <= 2e-12
    assert elapsed < 10.0


def test_criterion_8_ambiguity_detector():
    start = time.perf_counter()
    flat = parse_system("sym a=1;\nexpr: a|a")
    sp = enumerate_spectrum(flat, max_weight=4)
    check_flat = cross_check_gf(sp, flat, 1.0)
    starred = parse_system("sym a=1;\nexpr: (a|a)*")
    sp2 = enumerate_spectrum(starred, max_weight=14)
    check_star = cross_check_gf(sp2, starred, 1.0)
    elapsed = time.perf_counter() - start
    factor = check_flat.gf_value / check_flat.partial_sum
    ok = (
        check_flat.ambiguous
        and check_star.ambiguous
        and abs(factor - 2.0) < 1e-9
        and elapsed < 1.0
    )
    report("8 ambiguity detector", ok,
           f"factor={factor:.3f} elapsed={elapsed:.3f}s")
    assert check_flat.ambiguous and check_star.ambiguous
    assert factor == pytest.approx(2.0, abs=1e-9)
    assert elapsed < 1.0
