import math

import pytest

from concap import build_jk_system, parse_system
from concap.dsl import EPSILON, Star, Symbol, Union
from concap.genfun import (
    DIVERGENT,
    SolverError,
    Product,
    StarClosure,
    Sum,
    Term,
    abscissa,
    capacity_jk,
    compile_gf,
    eval_real,
    system_gf,
)

LN2 = math.log(2)
LN_GOLDEN = math.log((1 + math.sqrt(5)) / 2)  # root of x + x^2 = 1


def test_compile_sbin(sbin):
    assert system_gf(sbin) == StarClosure(Sum((Term(1.0), Term(1.0))))


def test_compile_epsilon():
    assert compile_gf(EPSILON, {}) == Term(0.0)


def test_compile_mirrors_structure():
    expr = Union(Star(Symbol("a")), EPSILON)
    g = compile_gf(expr, {"a": 2.5})
    assert g == Sum((StarClosure(Term(2.5)), Term(0.0)))


def test_eval_term_zero_is_one():
    for s in (-3.0, 0.0, 7.5):
        assert eval_real(Term(0.0), s) == 1.0


def test_eval_sbin_above_capacity(sbin):
    s = LN2 + 0.1
    expected = 1.0 / (1.0 - 2.0 * math.exp(-s))  # = 10.50833194...
    assert eval_real(system_gf(sbin), s) == pytest.approx(expected, abs=1e-12)
    assert eval_real(system_gf(sbin), s) == pytest.approx(10.508331944775056)


def test_eval_sbin_divergent_at_boundary(sbin):
    assert eval_real(system_gf(sbin), LN2) == DIVERGENT
    assert eval_real(system_gf(sbin), LN2 - 0.2) == DIVERGENT


def test_eval_monotone_decreasing(sbin):
    g = system_gf(sbin)
    values = [eval_real(g, s) for s in (0.8, 1.0, 1.5, 3.0)]
    assert values == sorted(values, reverse=True)
    assert all(v >= 0 for v in values)


def test_abscissa_sbin(sbin):
    result = abscissa(system_gf(sbin))
    assert result.q == pytest.approx(LN2, abs=1e-9)
    assert result.bracket_lo <= result.q <= result.bracket_hi
    assert result.residual <= 1e-12
    assert not result.finite_language


def test_abscissa_certificate(sbin):
    tol = 1e-10
    result = abscissa(system_gf(sbin), tol=tol)
    g = system_gf(sbin)
    assert eval_real(g, result.q + tol) != DIVERGENT
    assert eval_real(g, result.q - tol) == DIVERGENT


def test_abscissa_s11_is_zero():
    result = abscissa(system_gf(build_jk_system(1, 1)))
    assert result.q == pytest.approx(0.0, abs=1e-12)


def test_abscissa_s22_golden_ratio():
    result = abscissa(system_gf(build_jk_system(2, 2)))
    assert result.q == pytest.approx(LN_GOLDEN, abs=1e-12)


def test_abscissa_finite_language():
    s = parse_system("sym a=1;\nexpr: a|a a")
    result = abscissa(system_gf(s))
    assert result.finite_language
    assert result.q == 0.0


def test_abscissa_rejects_bad_tol(sbin):
    with pytest.raises(ValueError):
        abscissa(system_gf(sbin), tol=0.0)


def test_capacity_jk_known_values():
    assert capacity_jk(1, 1) == 0.0
    assert capacity_jk(2, 2) == pytest.approx(LN_GOLDEN, abs=1e-12)
    assert capacity_jk(20, 20) == pytest.approx(LN2, abs=1e-3)


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
    via_gf = abscissa(system_gf(build_jk_system(j, k)), tol=tol).q
    assert abs(direct - via_gf) <= 2 * tol


def test_capacity_jk_rejects_zero():
    with pytest.raises(ValueError):
        capacity_jk(0, 1)


# --- the one bracketed root finder behind every "solve f(s) = 1" ---------


def _root_finders(sbin):
    from concap.maxent import WeightedSupport, solve_rate

    support = WeightedSupport((("0", 1.0), ("1", 1.0), ("01", 2.0)))
    return {
        "abscissa": lambda tol: abscissa(system_gf(sbin), tol=tol),
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
    # bracket stops shrinking and the bisection must say so
    with pytest.raises(SolverError) as err:
        _root_finders(sbin)[name](1e-300)
    lo, hi = err.value.bracket
    assert lo < hi
