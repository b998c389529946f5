"""Exact time evolution in the two-mode Fock basis.

Two routes give the amplitudes, and each checks the other.

**Product states in closed form: the run path.** Every initial state a
scenario builds is a product |phi> (x) |0>. The coupling conserves quanta,
so a1^dagger evolves to S a1^dagger + T a2^dagger, where S and T are the
single-quantum survival and transfer amplitudes: the SU(2) beam splitter
of Campos, Saleh and Teich, Phys. Rev. A 40, 1371 (1989). Hence

    C[n1, n2](t) = phi_{n1+n2} sqrt(binom(n1 + n2, n2)) S^{n1} T^{n2}.

No eigensolver is needed, and every term is a product of factors of
modulus at most 1, so nothing cancels and the accuracy does not degrade
with n. :meth:`EvolutionOperator.product_hops` yields the powers T^n, from
which the exchange diagnostics cost O(n_max) per time without any table, as
does the norm (:meth:`EvolutionOperator.product_norms`);
:meth:`EvolutionOperator.product_grid` builds the amplitude tables, in
O(n_max^2) per time, with magnitudes taken from lgamma so that no binomial
overflows, and :meth:`EvolutionOperator.product_populations` thins |phi_n|^2
into both modes' number distributions in O(n_max^2) without them.

**Any state from eigendecomposed blocks: the library and check path.**
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

Each block is built once per operator, by one builder that solves the
block for a whole stack of operators in one eigensolver call; evaluating
it at a time t then costs a diagonal phase sandwich W diag(e^{-iEt}) W^T,
in which the sign of each eigenvector cancels. There is no time stepping
and no integration error. Every propagator goes through one array
expression of that sandwich on eigenbasis coefficients. A state is
propagated over a whole grid of times at once: each occupied block is
evaluated for every time of a chunk and scattered into amplitude tables
C[k, n1, n2]. Evolving to one time is the one-point case, and a block
U(t) takes the rows of W as coefficients, for one operator or a stack.

Both routes check the norm at every time they evaluate.
"""

import cmath
import math
import threading
from collections.abc import Iterator, Sequence

import numpy as np

from .core import (
    CouplingParams,
    NumericalIntegrityError,
    TwoModeState,
    _freeze,
    annihilation_expectation,
    decoupled_mixing,
    derive_mixing,
    norm,
    unitarity_defect,
)

# Not used here. perfbench/spans.py wraps the name evolution.u_minus_s_block,
# so it stays importable until the benchmark's trace list changes.
from .rotation import u_minus_s_block  # noqa: F401

_UNITARITY_TOL = 1e-10
_NORM_TOL = 1e-10
# Amplitudes (table entries, or powers T^n) a grid holds at once (8 MiB of
# complex128), so that its memory does not grow with the number of times.
_CHUNK_AMPLITUDES = 1 << 19
_BUILD_LOCK = threading.Lock()  # held while any operators' eigen blocks are built


class EvolutionOperator:
    """Analytic evolution operator of the coupled pair.

    Product states evolve in closed form (:meth:`product_hops`,
    :meth:`product_grid`, :meth:`product_populations`), any state through the eigen blocks
    (:meth:`evolve_grid`). Blocks are materialized lazily, for one operator or a stack
    (:func:`ut_blocks`), by one builder under one module-wide lock, and are
    immutable afterwards; evaluations at distinct times are independent.

    ``mix`` is :func:`oscswap.core.derive_mixing` of the parameters, or the
    free limit :func:`oscswap.core.decoupled_mixing` where lambda = 0.
    """

    def __init__(self, params: CouplingParams):
        self.params = params
        self.mix = decoupled_mixing(params) if params.is_decoupled else derive_mixing(params)
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _block_data(self, n_total: int) -> tuple[np.ndarray, np.ndarray]:
        return _eigen_blocks([self], n_total)[0]

    def ut_element(self, n1: int, n2: int, m1: int, m2: int, t: float) -> complex:
        """Element <n1, n2| U(t) |m1, m2>, read from column m2 of U (coefficients
        W[m2, :]); zero unless n1 + n2 == m1 + m2."""
        if min(n1, n2, m1, m2) < 0:
            raise ValueError("Fock indices must be >= 0")
        t = _finite(t)
        if n1 + n2 != m1 + m2:
            return 0j
        w, freqs = self._block_data(n1 + n2)
        return complex(_propagate(w, freqs, t, w[m2])[n2])

    def ut_block(self, n_total: int, t: float | np.ndarray) -> np.ndarray:
        """Evolution operator restricted to one total-quanta block: a
        read-only complex (n_total + 1) x (n_total + 1) array, or at every
        time of a 1-D array a stack of them, one per time. The one-operator
        case of :func:`ut_blocks`, bit for bit."""
        return ut_blocks([self], n_total, np.asarray(t, dtype=float)[np.newaxis])[0]

    def evolve_grid(
        self, state: TwoModeState, ts: Sequence[float] | np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Propagate a state to every time in ``ts``, exactly within its truncation.

        Yields ``(times, tables)`` chunk by chunk, in the order of ``ts``:
        ``tables[k, n1, n2]`` is the amplitude on |n1, n2> at ``times[k]``,
        zero where n1 + n2 > n_max. Total quanta are conserved: blocks that
        start empty stay exactly empty. The norm is checked at every time.
        """
        dim = state.n_max + 1
        occupied = []
        for n in range(dim):
            l = np.arange(n + 1)
            vec = state.table[n - l, l]
            if vec.any():
                w, freqs = self._block_data(n)
                occupied.append((n, l, w, freqs, w.T @ vec))
        before = norm(state)
        for times in _chunks(ts, dim * dim):
            tables = np.zeros((len(times), dim, dim), dtype=np.complex128)
            for n, l, w, freqs, coeffs in occupied:
                tables[:, n - l, l] = _propagate(w, freqs, times[:, np.newaxis], coeffs)
            _check_norms(np.linalg.norm(tables.reshape(len(times), -1), axis=1), before)
            yield times, tables

    def evolve(self, state: TwoModeState, t: float) -> TwoModeState:
        """Propagate a state to time t: the one-time case of :meth:`evolve_grid`."""
        _, tables = next(self.evolve_grid(state, [t]))
        return TwoModeState(tables[0])

    def transfer_amplitude(self, n: int, t: float | np.ndarray) -> complex | np.ndarray:
        """Closed-form amplitude ratio C[0, n](t) / C[n, 0](0) for product
        initial states, at one time or at every time of an array: a
        mean-frequency phase times the n-th power of the single-quantum hop
        -2i s c sin(half_splitting t)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        t = np.asarray(t, dtype=float)
        return self._mean_phase(n, t) * self._hop(t) ** n

    def survival_amplitude(self, n: int, t: float | np.ndarray) -> complex | np.ndarray:
        """Closed-form ratio C[n, 0](t) / C[n, 0](0) for product initial
        states, at one time or at every time of an array: the n-th power of
        c^2 e^{-i d t} + s^2 e^{+i d t} with d the half normal-mode
        splitting, times the mean-frequency phase."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        t = np.asarray(t, dtype=float)
        return self._mean_phase(n, t) * self._stay(t) ** n

    def _one_quantum(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """S and T at every time of ``t``, with the mean-frequency phase
        evaluated once for both: bit for bit :meth:`survival_amplitude` and
        :meth:`transfer_amplitude` at n = 1, as ``z**1`` copies z."""
        phase = self._mean_phase(1, t)
        return phase * self._stay(t), phase * self._hop(t)

    def _mean_phase(self, n: int, t: np.ndarray) -> np.ndarray:
        return np.exp(-1j * (0.5 * (self.params.omega1 + self.params.omega2)) * n * t)

    def _stay(self, t: np.ndarray) -> np.ndarray:
        mix = self.mix
        d = mix.half_splitting
        return mix.c**2 * np.exp(-1j * d * t) + mix.s**2 * np.exp(1j * d * t)

    def _hop(self, t: np.ndarray) -> np.ndarray:
        return -2j * self.mix.s * self.mix.c * np.sin(self.mix.half_splitting * t)

    def product_norms(self, phi: np.ndarray, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """Norm of the product state |phi> (x) |0> evolved to every time in
        ``ts``, in closed form and without tables: sqrt(sum_n |phi_n|^2
        (|S|^2 + |T|^2)^n), O(n_max) per time. It is 1 to rounding when phi
        is normalized; :meth:`product_hops` checks it."""
        return _product_norms(np.abs(phi) ** 2, *self._one_quantum(np.asarray(ts, dtype=float)))

    def product_hops(
        self, phi: np.ndarray, ts: Sequence[float] | np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Closed-form evolution of the product state |phi> (x) |0>, without
        tables: yields ``(times, hops)`` chunk by chunk, in the order of
        ``ts``, with ``hops[k, n] = T(times[k])**n`` for n < len(phi). The
        amplitude on |0, n> is phi_n T^n, and ``hops[:, 1]`` is
        :meth:`transfer_amplitude` at n = 1, bit for bit.

        S and T are evaluated once per chunk, for the powers and for the
        norm check. ``phi`` must be normalized: :meth:`product_norms` is
        checked against 1 at every time.
        """
        weights = np.abs(phi) ** 2
        for times in _chunks(ts, len(phi)):
            stay, hop = self._one_quantum(times)
            _check_norms(_product_norms(weights, stay, hop), 1.0)
            yield times, _powers(hop, len(phi))

    def product_grid(
        self, phi: np.ndarray, ts: Sequence[float] | np.ndarray, most: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """:meth:`evolve_grid` for the product state |phi> (x) |0>, in closed
        form: ``tables[k, n1, n2]`` is
        phi_{n1+n2} sqrt(binom(n1 + n2, n2)) S^{n1} T^{n2} at ``times[k]``,
        for n1 + n2 < len(phi), and zero beyond. A chunk holds at most
        ``most`` times where it is given.

        The binomials are taken from lgamma, once per call, so that none
        overflows, and the powers by repeated multiplication, with 0^0 = 1.
        ``phi`` must be normalized; the norm of every table is checked against 1.
        """
        dim, scale = len(phi), _product_scale(phi)
        for times in _chunks(ts, dim * dim, most):
            stay, hop = self._one_quantum(times)
            stays, hops = _powers(stay, dim), _powers(hop, dim)
            tables = scale * stays[:, :, np.newaxis] * hops[:, np.newaxis, :]
            _check_norms(np.linalg.norm(tables.reshape(len(times), -1), axis=1), 1.0)
            yield times, tables

    def product_populations(
        self, phi: np.ndarray, ts: Sequence[float] | np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Both modes' number distributions of |phi> (x) |0>, without tables:
        yields ``(times, p1, p2)`` chunk by chunk, ``p2[k, m]`` the binomial
        thinning |T|^{2m} sum_j H[m, j] |S|^{2j} of p_n = |phi_n|^2 at ``times[k]``,
        H the squared :meth:`product_grid` scale p_{n1+n2} binom(n1 + n2, n2), and
        p1 the same with S and T swapped. No term is negative; row sums are checked to be 1."""
        weights = np.abs(_product_scale(phi)) ** 2
        for times in _chunks(ts, len(phi)):
            stays, hops = (_powers(np.abs(z) ** 2, len(phi)) for z in self._one_quantum(times))
            p1, p2 = stays * (hops @ weights.T), hops * (stays @ weights)
            _check_norms(np.array([p1.sum(axis=1), p2.sum(axis=1)]), 1.0)
            yield times, p1, p2

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


def ut_blocks(operators: Sequence[EvolutionOperator], n_total: int, t) -> np.ndarray:
    """Block ``n_total`` of U for m operators over an ``(m, k)`` array of times, row i
    for operator i: a read-only ``(m, k, n_total + 1, n_total + 1)`` stack (``(m,)`` times
    give one block each) whose slice i is ``operators[i].ut_block(n_total, t[i])`` bit for
    bit. Row l propagates the coefficients W[l, :]: U^T, which is U, as W is real."""
    t = _finite(t)
    if t.ndim == 0 or len(t) != len(operators):
        raise ValueError(f"times of shape {t.shape} do not fit {len(operators)} operators")
    data, lead = _eigen_blocks(operators, n_total), (len(operators),) + (1,) * (t.ndim - 1)
    w = np.array([w for w, _ in data]).reshape(lead + (n_total + 1, n_total + 1))
    freqs = np.array([freqs for _, freqs in data]).reshape(lead + (1, n_total + 1))
    return _freeze(_propagate(w, freqs, t[..., np.newaxis, np.newaxis], w))


def _propagate(w: np.ndarray, freqs: np.ndarray, times, coeffs: np.ndarray) -> np.ndarray:
    """W diag(e^{-iEt}) on eigenbasis coefficients c, the module's one
    expression of the propagator, for a block or a stack of them. The times
    broadcast against the rows of ``coeffs``: row k of the result is
    sum_j W[:, j] e^{-i E_j t_k} c_kj."""
    return (np.exp(-1j * (times * freqs)) * coeffs) @ np.swapaxes(w, -1, -2)


def _eigen_blocks(operators: Sequence[EvolutionOperator], n_total: int) -> list[tuple]:
    """``(W, freqs)`` of block ``n_total`` for each operator, from the module's one builder:
    the operators that lack it have their Hamiltonian blocks stacked into one eigensolver
    call, checked once over the stack, and each slice cached in its own operator."""
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    with _BUILD_LOCK:
        missing = list({id(op): op for op in operators if n_total not in op._blocks}.values())
        if missing:
            lam, half, omega1p, omega2p = np.array([
                (op.params.lam, 0.5 * (op.params.omega1 - op.params.omega2), op.mix.omega1p,
                 op.mix.omega2p) for op in missing
            ]).T[..., np.newaxis, np.newaxis]
            l = np.arange(n_total + 1)
            hop = np.sqrt((n_total - l[:-1]) * (l[:-1] + 1.0))
            blocks = half * np.diag(n_total - 2.0 * l) + lam * (np.diag(hop, 1) + np.diag(hop, -1))
            # eigh returns ascending eigenvalues; the spectrum is the same up to a shift
            freqs = np.sort(((n_total - l) * omega1p + l * omega2p)[:, 0], axis=-1)
            if not (np.isfinite(blocks).all() and np.isfinite(freqs).all()):
                raise NumericalIntegrityError(
                    f"Hamiltonian block {n_total} or its spectrum is not finite"
                )
            try:
                _, w = np.linalg.eigh(blocks)
            except np.linalg.LinAlgError as exc:
                raise NumericalIntegrityError(
                    f"eigendecomposition of block {n_total} failed: {exc}"
                ) from exc
            defect = unitarity_defect(w)
            if not defect <= _UNITARITY_TOL:
                raise NumericalIntegrityError(
                    f"rotation block {n_total} lost orthogonality (defect {defect:.3e})"
                )
            # each operator keeps copies, so that no operator keeps the whole stack alive
            for op, w_op, freqs_op in zip(missing, w, freqs):
                op._blocks[n_total] = (_freeze(w_op.copy()), _freeze(freqs_op.copy()))
        return [op._blocks[n_total] for op in operators]


def _finite(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {t!r}")
    return t


def _chunks(ts: Sequence[float] | np.ndarray, width: int,
            most: int | None = None) -> Iterator[np.ndarray]:
    """``ts`` as floats, in consecutive slices of at most _CHUNK_AMPLITUDES // width
    times, and at most ``most`` where it is given."""
    ts, per_chunk = np.asarray(ts, dtype=float), max(1, _CHUNK_AMPLITUDES // width)
    per_chunk = per_chunk if most is None else min(per_chunk, most)
    for start in range(0, len(ts), per_chunk):
        yield ts[start:start + per_chunk]


def _check_norms(norms: np.ndarray, before: float) -> None:
    drift = float(np.max(np.abs(norms - before)))  # NaN anywhere gives NaN
    if not drift <= _NORM_TOL * max(1.0, before):
        raise NumericalIntegrityError(f"evolution changed the norm by {drift:.3e}")


def _product_scale(phi: np.ndarray) -> np.ndarray:
    """``scale[n1, n2] = phi_{n1+n2} sqrt(binom(n1 + n2, n2))``, 0 past len(phi).

    Built in place, on one level table, one lgamma buffer and the output, so
    that at n_max 1000 it holds about 32 MB rather than six such tables."""
    dim = len(phi)
    n1, n2 = np.ogrid[:dim, :dim]  # a column and a row, broadcast to the table
    level = n1 + n2
    outside = level >= dim
    level[outside] = 0
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    root_binom = log_fact[level]
    root_binom -= log_fact[n1]
    root_binom -= log_fact[n2]
    root_binom *= 0.5
    scale = phi[level]
    del level
    scale *= np.exp(root_binom, out=root_binom)
    scale[outside] = 0.0
    return scale


def _product_norms(weights: np.ndarray, stay: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """sqrt(sum_n w_n (|S|^2 + |T|^2)^n) at every time, from S and T there."""
    kept = np.abs(stay) ** 2 + np.abs(hop) ** 2
    return np.sqrt(_powers(kept, len(weights)) @ weights)


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """``out[k, n] = z[k]**n`` for n < count, by repeated multiplication (0^0 = 1)."""
    out = np.empty((len(z), count), dtype=z.dtype)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, np.newaxis]
    return np.cumprod(out, axis=1, out=out)

