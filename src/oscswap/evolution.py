"""Exact time evolution in the two-mode Fock basis.

The evolution operator is block diagonal in total quanta. Within the block
of n quanta the Hamiltonian is n (omega1 + omega2) / 2 plus a real
symmetric tridiagonal matrix: diagonal (n - 2l)(omega1 - omega2) / 2 and
off-diagonal lam sqrt((n - l)(l + 1)) in the index l -> (n - l, l). Its
eigenvectors, taken from a symmetric eigensolver, are the columns of the
inverse mixing rotation (a Wigner small-d matrix); the phases come from
the analytic normal-mode spectrum (n - k) omega1' + k omega2', paired with
the eigenvectors by sort order. The eigenproblem is conditioned by about n
at any detuning, so every block stays orthogonal to rounding, where the
paper's alternating finite sum loses about n log10(2) digits.

Each block is built once; evaluating it at a time t then costs a single
diagonal phase sandwich W diag(e^{-iEt}) W^T, in which the sign of each
eigenvector cancels. There is no time stepping and no integration error.
A state is propagated over a whole grid of times at once: each occupied
block is evaluated for every time of a chunk by one array expression and
scattered into amplitude tables C[k, n1, n2]. Evolving to one time is the
one-point case of the same path.
"""

import cmath
import math
import threading
from collections.abc import Iterator, Sequence

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

# Not used here. perfbench/spans.py wraps the name evolution.u_minus_s_block,
# so it stays importable until the benchmark's trace list changes.
from .rotation import u_minus_s_block  # noqa: F401

_UNITARITY_TOL = 1e-10
# Amplitude-table entries evolve_grid holds at once (8 MiB of complex128), so
# its memory does not grow with the number of times.
_CHUNK_AMPLITUDES = 1 << 19


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
                p = self.params
                l = np.arange(n_total + 1, dtype=float)
                hop = p.lam * np.sqrt((n_total - l[:-1]) * (l[:-1] + 1.0))
                block = np.diag((n_total - 2.0 * l) * (0.5 * (p.omega1 - p.omega2)))
                block += np.diag(hop, 1) + np.diag(hop, -1)
                if not np.isfinite(block).all():
                    raise NumericalIntegrityError(f"Hamiltonian block {n_total} is not finite")
                try:
                    w = np.linalg.eigh(block).eigenvectors
                except np.linalg.LinAlgError as exc:
                    raise NumericalIntegrityError(
                        f"eigendecomposition of block {n_total} failed: {exc}"
                    ) from exc
                defect = unitarity_defect(w)
                if not defect <= _UNITARITY_TOL:
                    raise NumericalIntegrityError(
                        f"rotation block {n_total} lost orthogonality (defect {defect:.3e})"
                    )
                # eigh returns ascending eigenvalues; the spectrum is the same up to a shift
                freqs = np.sort((n_total - l) * self.mix.omega1p + l * self.mix.omega2p)
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

    def evolve_grid(
        self, state: TwoModeState, ts: Sequence[float] | np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Propagate a state to every time in ``ts``, exactly within its truncation.

        Yields ``(times, tables)`` chunk by chunk, in the order of ``ts``:
        ``tables[k, n1, n2]`` is the amplitude on |n1, n2> at ``times[k]``,
        zero where n1 + n2 > n_max. Total quanta are conserved: blocks that
        start empty stay exactly empty. The norm is checked at every time.
        """
        ts = np.asarray(ts, dtype=float)
        dim = state.n_max + 1
        occupied = []
        for n in range(dim):
            l = np.arange(n + 1)
            vec = state.table[n - l, l]
            if vec.any():
                w, freqs = self._block_data(n)
                occupied.append((n, l, w.T, freqs, w.T @ vec))
        before = norm(state)
        per_chunk = max(1, _CHUNK_AMPLITUDES // (dim * dim))
        for start in range(0, len(ts), per_chunk):
            times = ts[start:start + per_chunk]
            tables = np.zeros((len(times), dim, dim), dtype=np.complex128)
            for n, l, wt, freqs, coeff in occupied:
                tables[:, n - l, l] = (np.exp(-1j * np.outer(times, freqs)) * coeff) @ wt
            norms = np.linalg.norm(tables.reshape(len(times), -1), axis=1)
            drift = float(np.max(np.abs(norms - before)))  # NaN anywhere gives NaN
            if not drift <= 1e-10 * max(1.0, before):
                raise NumericalIntegrityError(f"evolution changed the norm by {drift:.3e}")
            yield times, tables

    def evolve(self, state: TwoModeState, t: float) -> TwoModeState:
        """Propagate a state to time t: the one-time case of :meth:`evolve_grid`."""
        _, tables = next(self.evolve_grid(state, [t]))
        return TwoModeState(tables[0])

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
