"""Capacity and maxentropic input processes of weighted constrained systems.

``import concap`` loads no submodule.  Each name below, and each submodule
name, is loaded on first use (PEP 562), so ``concap.abscissa`` imports
``dsl``, ``automata`` and ``genfun`` and nothing else, and only a name from
``maxent`` or ``spectrum`` loads that module.
"""

from importlib import import_module as _import_module

# Each submodule, with the names the package re-exports from it.
_EXPORTS = {
    "automata": ("matches",),
    "dsl": (
        "DslError",
        "Regex",
        "SymbolDecl",
        "SystemDef",
        "build_jk_system",
        "format_regex",
        "format_system",
        "load_system",
        "parse_system",
    ),
    "genfun": ("CapacityResult", "abscissa", "capacity_jk", "converges", "eval_real"),
    "maxent": (
        "Pmf",
        "RateBound",
        "RateResult",
        "SampleReport",
        "ValidationReport",
        "WeightedSupport",
        "entropy_per_weight",
        "jk_phrase_support",
        "jk_source_supports",
        "maxentropic_pmf",
        "rate_bound",
        "sample_process",
        "solve_rate",
        "support_from_strings",
        "validate_input_process",
        "validate_input_source",
    ),
    "spectrum": (
        "CrossCheck",
        "DensityReport",
        "WeightSpectrum",
        "c0_estimate",
        "capacity_estimate",
        "cross_check_gf",
        "density_check",
        "enumerate_spectrum",
        "growth_rate_estimate",
        "spectrum_from_counts",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
