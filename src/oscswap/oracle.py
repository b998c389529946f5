"""Brute-force verification path: explicit Hamiltonian blocks and their
Taylor exponential.

This module shares no algebra with the rotation/evolution modules. It uses
the core types and the normal-mode frequencies of ``derive_mixing``, and
imports :class:`EvolutionOperator` only to compare against it. The
Hamiltonian is written down directly from the ladder operators and
exponentiated, its mean diagonal factored out as a scalar phase, by a
degree-18 Taylor polynomial with scaling and squaring (Moler and Van Loan,
SIAM Rev. 45, 3 (2003); Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
970 (2009)), in numpy alone and for a stack of blocks, each over its own
grid of times, at once: every slice is scaled and squared on its own, so
a single block over one time is the m = 1 case, bit for bit. The
analytic route instead eigendecomposes the block and takes its phases from
the normal-mode spectrum, so agreement between the two is a meaningful
check rather than a tautology. Only :func:`spectrum_deviation` calls an
eigensolver, because it checks the analytic spectrum that the evolution
relies on.
"""

import math
from typing import Sequence

import numpy as np

from .core import CouplingParams, _freeze, derive_mixing, unitarity_defect
from .evolution import EvolutionOperator

_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(19))  # coefficients of exp, degree 18
# Amplitudes per array (64 KiB of complex128) that the exponential of a
# stack of Hamiltonians works on at once, so that its dozen temporaries stay
# under a megabyte however many Hamiltonians are stacked; larger slabs were
# no faster on the oracle suite. A single Hamiltonian is never split,
# whatever its number of times.
_SLAB_AMPLITUDES = 1 << 12


def build_block(params: CouplingParams, n_total: int) -> np.ndarray:
    """Hamiltonian over hbar restricted to one total-quanta block, assembled
    from the ladder-operator matrix elements.

    A read-only real (n_total + 1) x (n_total + 1) array, symmetric and
    tridiagonal in the block index: the diagonal holds n1 omega1 + n2 omega2,
    the off-diagonal the hop lam sqrt(n1 (n2 + 1)) between (n1, n2) and
    (n1 - 1, n2 + 1).
    """
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
    return _freeze(h)


def expm_evolution(hamiltonian: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) of a Hamiltonian block, or of a stack of them, over times:
    a read-only complex array of shape ``t.shape + (n + 1, n + 1)``.

    A single ``(n + 1, n + 1)`` block takes one time, giving one matrix, or
    a 1-D array of k times, giving a ``(k, n + 1, n + 1)`` stack. An
    ``(m, n + 1, n + 1)`` stack of blocks takes an ``(m, k)`` array, row i
    the times of block i, and gives ``(m, k, n + 1, n + 1)``. Every slice
    is computed alone, so a stacked call equals its single calls bit for
    bit, and a single block is the m = 1 case. A stack is worked through a
    slab of whole blocks at a time, so only the result grows with m.

    The mean diagonal mu = trace(H) / (n + 1) is taken out of H and
    applied as the scalar phase exp(-i mu t), which is exact as a matrix
    identity and leaves the exponent smaller, so fewer squarings amplify
    the rounding. Each slice -i (H - mu) t_k is scaled by its own power of
    two to 1-norm at most 1/2, where the degree-18 Taylor polynomial is
    exact to far below rounding. The polynomial is evaluated by
    Paterson-Stockmeyer: A^2, A^3 and A^4, then Horner's rule in A^4 over
    four-term chunks, seven products in all. Each slice is then squared
    back its own number of times, so a short time is not squared as often
    as the longest one.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"times must be finite, got {t!r}")
    hamiltonian = np.asarray(hamiltonian)
    if t.shape[: hamiltonian.ndim - 2] != hamiltonian.shape[:-2] or t.ndim > hamiltonian.ndim - 1:
        raise ValueError(
            f"times of shape {t.shape} do not fit Hamiltonians of shape {hamiltonian.shape}"
        )
    dim = hamiltonian.shape[-1]
    stack = hamiltonian.reshape(-1, dim, dim)
    times = t.reshape(len(stack), -1)
    u = np.empty(times.shape + (dim, dim), dtype=np.complex128)
    per_slab = max(1, _SLAB_AMPLITUDES // max(1, times.shape[1] * dim**2))
    for start in range(0, len(stack), per_slab):
        part = slice(start, start + per_slab)
        u[part] = _taylor_exponentials(stack[part], times[part, :, np.newaxis, np.newaxis])
    return _freeze(u.reshape(t.shape + (dim, dim)))


def _taylor_exponentials(stack: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) for an (m, d, d) stack of H and (m, k, 1, 1) times, as
    :func:`expm_evolution` describes it: an (m, k, d, d) array."""
    dim = stack.shape[-1]
    mu = (np.trace(stack, axis1=-2, axis2=-1) / dim)[:, np.newaxis, np.newaxis]
    a = (-1j * times) * (stack - mu * np.eye(dim))[:, np.newaxis]
    norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)  # 1-norm: largest column sum
    squarings = np.ceil(np.log2(np.maximum(2.0 * norms, 1.0))).astype(int)
    a *= np.ldexp(1.0, -squarings)[..., np.newaxis, np.newaxis]
    a2 = a @ a
    powers = (np.eye(dim), a, a2, a2 @ a)
    a4 = a2 @ a2

    def chunk(first: int) -> np.ndarray:
        return sum(_TAYLOR[first + i] * p for i, p in enumerate(powers[: 19 - first]))

    u = chunk(16)
    for first in (12, 8, 4, 0):
        u = chunk(first) + a4 @ u
    for done in range(int(squarings.max(initial=0))):
        more = squarings > done
        u[more] = u[more] @ u[more]
    u *= np.exp(-1j * mu[:, np.newaxis] * times)
    return u


def spectrum_deviation(params: CouplingParams, n_total: int) -> float:
    """Distance of the Hamiltonian block spectrum from the normal-mode
    combination frequencies {k1 omega1' + k2 omega2' : k1 + k2 = n_total}."""
    eps = np.linalg.eigvalsh(build_block(params, n_total))
    mix = derive_mixing(params)
    k = np.arange(n_total + 1, dtype=float)
    expected = (n_total - k) * mix.omega1p + k * mix.omega2p
    return float(np.max(np.abs(np.sort(eps) - np.sort(expected))))


def compare_to_analytic(
    params: CouplingParams | Sequence[CouplingParams], n_total: int, t_grid
) -> tuple[float, float]:
    """The Taylor exponential of the Hamiltonian block over a time grid,
    checked at every time of it: the max element-wise deviation from the
    analytic evolution block, and the exponential's largest unitarity
    defect.

    ``params`` is one parameter set with a 1-D grid, or a sequence of m sets
    with an ``(m, k)`` array of grids, row i for set i; the blocks of all
    sets are exponentiated in one stacked call, and both residuals are the
    largest over the sets. One set is the m = 1 case."""
    draws = [params] if isinstance(params, CouplingParams) else list(params)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    grids = t_grid.reshape(len(draws), -1)
    analytic = np.stack([EvolutionOperator(p).ut_block(n_total, t) for p, t in zip(draws, grids)])
    brute = expm_evolution(np.stack([build_block(p, n_total) for p in draws]), grids)
    return float(np.max(np.abs(analytic - brute))), unitarity_defect(brute)
