"""Exact time evolution in the two-mode Fock basis.

The evolution operator is block diagonal in total quanta. Each block is
assembled once from the inverse mixing rotation and the normal-mode
combination frequencies; evaluating it at a time t then costs a single
diagonal phase sandwich, so time scans are cheap. There is no time
stepping and no integration error anywhere.
"""

import cmath
import math
import threading

import numpy as np

from .core import (
    BlockMatrix,
    CouplingParams,
    MixingParams,
    NumericalIntegrityError,
    TwoModeState,
    annihilation_expectation,
    derive_mixing,
    norm,
    unitarity_defect,
)
from .rotation import u_minus_s_block

_UNITARITY_TOL = 1e-10


class EvolutionOperator:
    """Analytic evolution operator of the coupled pair.

    Blocks are materialized lazily under a lock and are immutable
    afterwards; evaluations at distinct times are independent.

    For decoupled parameter sets (lambda = 0) pass the explicit limit from
    :func:`oscswap.core.decoupled_mixing` as ``mix``.
    """

    def __init__(self, params: CouplingParams, mix: MixingParams | None = None):
        self.params = params
        self.mix = derive_mixing(params) if mix is None else mix
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def _block_data(self, n_total: int) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            data = self._blocks.get(n_total)
            if data is None:
                w = u_minus_s_block(self.mix, n_total).entries.real.copy()
                defect = unitarity_defect(w)
                if not defect <= _UNITARITY_TOL:
                    raise NumericalIntegrityError(
                        f"rotation block {n_total} lost orthogonality (defect {defect:.3e})"
                    )
                k = np.arange(n_total + 1, dtype=float)
                freqs = (n_total - k) * self.mix.omega1p + k * self.mix.omega2p
                w.flags.writeable = False
                freqs.flags.writeable = False
                data = (w, freqs)
                self._blocks[n_total] = data
        return data

    def ut_element(self, n1: int, n2: int, m1: int, m2: int, t: float) -> complex:
        """Element <n1, n2| U(t) |m1, m2>; zero unless n1 + n2 == m1 + m2."""
        if min(n1, n2, m1, m2) < 0:
            raise ValueError("Fock indices must be >= 0")
        if n1 + n2 != m1 + m2:
            return 0j
        w, freqs = self._block_data(n1 + n2)
        return complex(np.sum(np.exp(-1j * freqs * t) * w[n2] * w[m2]))

    def ut_block(self, n_total: int, t: float) -> BlockMatrix:
        """Evolution operator restricted to one total-quanta block."""
        w, freqs = self._block_data(n_total)
        entries = (w * np.exp(-1j * freqs * t)) @ w.T
        return BlockMatrix(n_total=n_total, entries=entries)

    def evolve(self, state: TwoModeState, t: float) -> TwoModeState:
        """Propagate a state to time t, exactly within its truncation.

        Total quanta are conserved: blocks that start empty stay exactly
        empty. The norm is checked after propagation.
        """
        blocks = []
        for n, vec in enumerate(state.blocks):
            if not np.any(vec):
                blocks.append(np.zeros_like(vec))
                continue
            w, freqs = self._block_data(n)
            blocks.append((w * np.exp(-1j * freqs * t)) @ (w.T @ vec))
        out = TwoModeState(n_max=state.n_max, blocks=tuple(blocks))
        before = norm(state)
        drift = abs(norm(out) - before)
        if not drift <= 1e-10 * max(1.0, before):
            raise NumericalIntegrityError(f"evolution changed the norm by {drift:.3e}")
        return out

    def transfer_amplitude(self, n: int, t: float) -> complex:
        """Closed-form amplitude ratio C[0, n](t) / C[n, 0](0) for product
        initial states: a mean-frequency phase times the n-th power of the
        single-quantum hop -2i s c sin(half_splitting t)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        mix = self.mix
        mean = 0.5 * (self.params.omega1 + self.params.omega2)
        hop = -2j * mix.s * mix.c * math.sin(mix.half_splitting * t)
        return cmath.exp(-1j * mean * n * t) * hop**n

    def survival_amplitude(self, n: int, t: float) -> complex:
        """Closed-form ratio C[n, 0](t) / C[n, 0](0) for product initial
        states: the n-th power of c^2 e^{-i d t} + s^2 e^{+i d t} with d the
        half normal-mode splitting, times the mean-frequency phase."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        mix = self.mix
        mean = 0.5 * (self.params.omega1 + self.params.omega2)
        d = mix.half_splitting
        stay = mix.c**2 * cmath.exp(-1j * d * t) + mix.s**2 * cmath.exp(1j * d * t)
        return cmath.exp(-1j * mean * n * t) * stay**n

    def heisenberg_mode_expectation(self, state0: TwoModeState, mode: int, t: float) -> complex:
        """<a_mode(t)> from the closed-form ladder-operator solution.

        Uses only the initial-state expectations <a1(0)>, <a2(0)>, never
        the propagated state, so it cross-checks :meth:`evolve`.
        """
        if mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {mode}")
        mix = self.mix
        e1 = cmath.exp(-1j * mix.omega1p * t)
        e2 = cmath.exp(-1j * mix.omega2p * t)
        a1 = annihilation_expectation(state0, 1)
        a2 = annihilation_expectation(state0, 2)
        cross = mix.c * mix.s * (e1 - e2)
        if mode == 1:
            return (mix.c**2 * e1 + mix.s**2 * e2) * a1 + cross * a2
        return (mix.c**2 * e2 + mix.s**2 * e1) * a2 + cross * a1
