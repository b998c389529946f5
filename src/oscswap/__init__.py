"""Exact Fock-basis simulation of state exchange between two linearly
coupled quantum harmonic oscillators."""

__version__ = "0.1.0"

from .analysis import (
    ExchangeReport,
    NonPositiveRatioError,
    ReducedDensityMatrix,
    complete_exchange_ratio,
    exchange_fidelity,
    exchange_times,
    find_exchange_time,
    reduce,
    transfer_probability,
    verify_statistics_exchange,
)
from .core import (
    BlockMatrix,
    CouplingParams,
    DecoupledSystemError,
    MixingParams,
    NumericalIntegrityError,
    TruncationTooSmallError,
    TwoModeState,
    ZeroVectorError,
    annihilation_expectation,
    decoupled_mixing,
    derive_mixing,
    make_product_state,
    make_state,
    norm,
    unitarity_defect,
)
from .evolution import EvolutionOperator
from .oracle import (
    HamiltonianBlock,
    build_block,
    compare_to_analytic,
    expm_evolution,
    spectrum_deviation,
)
from .rotation import (
    u_minus_s_block,
    u_minus_s_element,
    us_block,
    us_element,
    verify_recursions,
)
from .suites import SuiteReport, UnknownSuiteError, verify_suite

__all__ = [
    "BlockMatrix",
    "CouplingParams",
    "DecoupledSystemError",
    "EvolutionOperator",
    "ExchangeReport",
    "HamiltonianBlock",
    "MixingParams",
    "NonPositiveRatioError",
    "NumericalIntegrityError",
    "ReducedDensityMatrix",
    "SuiteReport",
    "TruncationTooSmallError",
    "TwoModeState",
    "UnknownSuiteError",
    "ZeroVectorError",
    "annihilation_expectation",
    "build_block",
    "compare_to_analytic",
    "complete_exchange_ratio",
    "decoupled_mixing",
    "derive_mixing",
    "exchange_fidelity",
    "exchange_times",
    "expm_evolution",
    "find_exchange_time",
    "make_product_state",
    "make_state",
    "norm",
    "reduce",
    "spectrum_deviation",
    "transfer_probability",
    "u_minus_s_block",
    "u_minus_s_element",
    "unitarity_defect",
    "us_block",
    "us_element",
    "verify_recursions",
    "verify_statistics_exchange",
    "verify_suite",
]
