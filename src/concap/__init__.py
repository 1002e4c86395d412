"""Capacity and maxentropic input processes of weighted constrained systems."""

from .automata import matches
from .dsl import (
    DslError,
    Regex,
    SymbolDecl,
    SystemDef,
    build_jk_system,
    format_regex,
    format_system,
    load_system,
    parse_system,
)
from .genfun import CapacityResult, abscissa, capacity_jk, converges, eval_real
from .maxent import (
    Pmf,
    RateBound,
    RateResult,
    SampleReport,
    ValidationReport,
    WeightedSupport,
    entropy_per_weight,
    jk_phrase_support,
    jk_source_supports,
    maxentropic_pmf,
    rate_bound,
    sample_process,
    solve_rate,
    support_from_strings,
    validate_input_process,
    validate_input_source,
)
from .spectrum import (
    CrossCheck,
    DensityReport,
    WeightSpectrum,
    c0_estimate,
    capacity_estimate,
    cross_check_gf,
    density_check,
    enumerate_spectrum,
    growth_rate_estimate,
    spectrum_from_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
