"""Brute-force verification path: explicit Hamiltonian blocks and their
Taylor exponential.

This module shares no algebra with the rotation/evolution modules. It uses
the core types and the normal-mode frequencies of ``derive_mixing``, and
imports :class:`EvolutionOperator` only to compare against it. The
Hamiltonian is written down directly from the ladder operators and
exponentiated, its mean diagonal factored out as a scalar phase, by a
degree-18 Taylor polynomial with scaling and squaring (Moler and Van Loan,
SIAM Rev. 45, 3 (2003); Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
970 (2009)), in numpy alone and over a whole grid of times at once. The
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
    """exp(-i H t) of a Hamiltonian block, at one time or at every time of
    a 1-D array: a read-only complex array of the block's shape, or a
    ``(len(t), n + 1, n + 1)`` stack of them.

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
    dim = hamiltonian.shape[-1]
    mu = np.trace(hamiltonian) / dim
    a = (-1j * t.reshape(-1, 1, 1)) * (hamiltonian - mu * np.eye(dim))
    norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)  # 1-norm: largest column sum
    squarings = np.ceil(np.log2(np.maximum(2.0 * norms, 1.0))).astype(int)
    a *= np.ldexp(1.0, -squarings)[:, np.newaxis, np.newaxis]
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
    u *= np.exp(-1j * mu * t.reshape(-1, 1, 1))
    return _freeze(u[0] if t.ndim == 0 else u)


def spectrum_deviation(params: CouplingParams, n_total: int) -> float:
    """Distance of the Hamiltonian block spectrum from the normal-mode
    combination frequencies {k1 omega1' + k2 omega2' : k1 + k2 = n_total}."""
    eps = np.linalg.eigvalsh(build_block(params, n_total))
    mix = derive_mixing(params)
    k = np.arange(n_total + 1, dtype=float)
    expected = (n_total - k) * mix.omega1p + k * mix.omega2p
    return float(np.max(np.abs(np.sort(eps) - np.sort(expected))))


def compare_to_analytic(
    params: CouplingParams, n_total: int, t_grid: Sequence[float]
) -> tuple[float, float]:
    """The Taylor exponential of the Hamiltonian block over a time grid,
    checked at every time of it: the max element-wise deviation from the
    analytic evolution block, and the exponential's largest unitarity
    defect."""
    if len(t_grid) == 0:
        raise ValueError("t_grid must be nonempty")
    t_grid = np.asarray(t_grid, dtype=float)
    analytic = EvolutionOperator(params).ut_block(n_total, t_grid)
    brute = expm_evolution(build_block(params, n_total), t_grid)
    return float(np.max(np.abs(analytic - brute))), unitarity_defect(brute)
