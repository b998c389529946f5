"""Brute-force verification path: explicit Hamiltonian blocks and their
Pade exponential.

This module shares no algebra with the rotation/evolution modules. It uses
the core types and the normal-mode frequencies of ``derive_mixing``, and
imports :class:`EvolutionOperator` only to compare against it. The
Hamiltonian is written down directly from the ladder operators, with its
mean-frequency part kept, and exponentiated as a whole by scipy's Pade
approximant with scaling and squaring. The analytic route instead
eigendecomposes the block and takes its phases from the normal-mode
spectrum, so agreement between the two is a meaningful check rather than a
tautology. Only :func:`spectrum_deviation` calls an eigensolver, because
it checks the analytic spectrum that the evolution relies on.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BlockMatrix, CouplingParams, derive_mixing
from .evolution import EvolutionOperator


@dataclass(frozen=True)
class HamiltonianBlock:
    """Hamiltonian over hbar restricted to one total-quanta block.

    Real symmetric and tridiagonal in the block index: the diagonal holds
    n1 omega1 + n2 omega2, the off-diagonal the hop lam sqrt(n1 (n2 + 1))
    between (n1, n2) and (n1 - 1, n2 + 1).
    """

    n_total: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.n_total + 1
        arr = np.array(self.matrix, dtype=float)
        if arr.shape != (dim, dim):
            raise ValueError(f"matrix must have shape ({dim}, {dim}), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)


def build_block(params: CouplingParams, n_total: int) -> HamiltonianBlock:
    """Assemble the Hamiltonian block from the ladder-operator matrix elements."""
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    dim = n_total + 1
    h = np.zeros((dim, dim))
    for l in range(dim):
        n1, n2 = n_total - l, l
        h[l, l] = n1 * params.omega1 + n2 * params.omega2
        if n1 >= 1:
            hop = params.lam * math.sqrt(n1 * (n2 + 1))
            h[l + 1, l] = hop
            h[l, l + 1] = hop
    return HamiltonianBlock(n_total=n_total, matrix=h)


def expm_evolution(block: HamiltonianBlock, t: float) -> BlockMatrix:
    """exp(-i H t) by Pade approximation with scaling and squaring."""
    from scipy.linalg import expm  # deferred: importing oscswap needs no scipy.linalg

    return BlockMatrix(n_total=block.n_total, entries=expm(-1j * t * block.matrix))


def spectrum_deviation(params: CouplingParams, n_total: int) -> float:
    """Distance of the Hamiltonian block spectrum from the normal-mode
    combination frequencies {k1 omega1' + k2 omega2' : k1 + k2 = n_total}."""
    eps = np.linalg.eigvalsh(build_block(params, n_total).matrix)
    mix = derive_mixing(params)
    k = np.arange(n_total + 1, dtype=float)
    expected = (n_total - k) * mix.omega1p + k * mix.omega2p
    return float(np.max(np.abs(np.sort(eps) - np.sort(expected))))


def compare_to_analytic(
    params: CouplingParams, n_total: int, t_grid: Sequence[float]
) -> float:
    """Max element-wise deviation between the analytic evolution block and
    the Pade exponential of the Hamiltonian block over a time grid."""
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    evo = EvolutionOperator(params)
    block = build_block(params, n_total)
    worst = 0.0
    for t in t_grid:
        analytic = evo.ut_block(n_total, t).entries
        brute = expm_evolution(block, t).entries
        worst = max(worst, float(np.max(np.abs(analytic - brute))))
    return worst
