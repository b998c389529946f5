"""Exact Fock-basis simulation of state exchange between two linearly
coupled quantum harmonic oscillators."""

__version__ = "0.1.0"

from .analysis import exchange_fidelity, exchange_times
from .core import CouplingParams, make_product_state
from .evolution import EvolutionOperator

__all__ = [
    "CouplingParams",
    "EvolutionOperator",
    "exchange_fidelity",
    "exchange_times",
    "make_product_state",
]
