"""``import concap`` loads each submodule on first use and exports the same
names, bound to the same objects, as when it imported them all at once."""

import importlib
import os
import subprocess
import sys

import pytest

import concap

ALL = [
    "CapacityResult", "CrossCheck", "DensityReport", "DslError", "Pmf", "RateBound",
    "RateResult", "Regex", "SampleReport", "SymbolDecl", "SystemDef", "ValidationReport",
    "WeightSpectrum", "WeightedSupport", "abscissa", "automata", "build_jk_system",
    "c0_estimate", "capacity_estimate", "capacity_jk", "converges", "cross_check_gf",
    "density_check", "dsl", "entropy_per_weight", "enumerate_spectrum", "eval_real",
    "format_regex", "format_system", "genfun", "growth_rate_estimate", "jk_phrase_support",
    "jk_source_supports", "load_system", "matches", "maxent", "maxentropic_pmf",
    "parse_system", "rate_bound", "sample_process", "solve_rate", "spectrum",
    "spectrum_from_counts", "support_from_strings", "validate_input_process",
    "validate_input_source",
]
SUBMODULES = ("automata", "dsl", "genfun", "maxent", "spectrum")
# the module each other name is defined in
HOMES = {
    "automata": "matches",
    "dsl": "DslError Regex SymbolDecl SystemDef build_jk_system format_regex format_system "
           "load_system parse_system",
    "genfun": "CapacityResult abscissa capacity_jk converges eval_real",
    "maxent": "Pmf RateBound RateResult SampleReport ValidationReport WeightedSupport "
              "entropy_per_weight jk_phrase_support jk_source_supports maxentropic_pmf "
              "rate_bound sample_process solve_rate support_from_strings "
              "validate_input_process validate_input_source",
    "spectrum": "CrossCheck DensityReport WeightSpectrum c0_estimate capacity_estimate "
                "cross_check_gf density_check enumerate_spectrum growth_rate_estimate "
                "spectrum_from_counts",
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names.split()}


def test_all_is_unchanged():
    assert concap.__all__ == ALL
    assert sorted([*SUBMODULES, *HOME_OF]) == ALL


@pytest.mark.parametrize("name", ALL)
def test_each_name_is_its_modules_object(name):
    if name in SUBMODULES:
        assert getattr(concap, name) is importlib.import_module(f"concap.{name}")
    else:
        home = importlib.import_module(f"concap.{HOME_OF[name]}")
        assert getattr(concap, name) is getattr(home, name)


def test_dir_lists_every_name():
    assert set(ALL) <= set(dir(concap))
    assert "__version__" in dir(concap)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'concap' has no attribute 'no_such_name'"):
        concap.no_such_name
    assert not hasattr(concap, "no_such_name")


def loaded_after(statement: str) -> list[str]:
    """The concap submodules a fresh interpreter has loaded after running
    ``statement``."""
    code = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.startswith('concap.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_submodules_load_on_first_use():
    assert loaded_after("import concap; dir(concap)") == []
    core = ["concap.automata", "concap.dsl", "concap.genfun"]
    assert loaded_after("import concap; concap.abscissa") == core
    assert loaded_after("import concap; concap.dsl") == ["concap.dsl"]
    assert loaded_after("import concap; concap.WeightSpectrum") == [*core, "concap.spectrum"]
    assert loaded_after("from concap import *") == [*core, "concap.maxent", "concap.spectrum"]
