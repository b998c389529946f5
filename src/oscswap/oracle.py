"""Brute-force verification path: explicit Hamiltonian blocks and their
Taylor exponential.

This module shares no algebra with the rotation/evolution modules. It uses
the core types and the normal-mode frequencies of ``derive_mixing``, and
imports :class:`EvolutionOperator` only to compare against it. The
Hamiltonian is written down directly from the ladder operators and
exponentiated, its mean diagonal factored out as a scalar phase, by a
degree-28 Taylor polynomial with scaling and squaring (Moler and Van Loan,
SIAM Rev. 45, 3 (2003); Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
970 (2009)), in numpy alone and for a stack of blocks, each over its own
grid of times, at once. The powers of each block are formed once for all
its times; every slice then sums them and is squared on its own, so a
single block over one time is the m = 1 case, bit for bit. The
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

_DEGREE = 28
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(_DEGREE + 1)])  # 1 / k!
# Amplitudes (256 KiB of complex128) that the exponential of a stack of
# Hamiltonians works on at once, counting each Hamiltonian's k outputs and
# 29 powers, so that its temporaries stay under 0.4 MiB however many
# Hamiltonians are stacked and however few times each has. On the oracle
# suite (two shared Xeon vCPUs, one BLAS thread) a quarter of this took 45 ms
# against 41, and twice this 40 ms with temporaries up to 0.8 MiB. A single
# Hamiltonian is never split, whatever its number of times.
_SLAB_AMPLITUDES = 1 << 14


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
    the rounding. H - mu is divided by beta, the least power of two above
    its 1-norm, giving B of 1-norm below 1, and the powers B^0 .. B^28 are
    formed once per block, in H's own dtype, by five stacked products that
    each double the powers held. A slice at time t takes the least s with
    |tau| < 2 for tau = t beta 2^-s, so that exp(-i tau B) is its
    degree-28 Taylor polynomial sum_k (-i tau)^k / k! B^k to far below
    rounding (the first term dropped is under 1e-22), formed as one
    (1, 29) @ (29, (n + 1)^2) product. Each slice is then squared back its
    own s times, so a short time is not squared as often as the longest
    one; the slices are ordered by s, so each round squares a leading run
    of them. No eigensolver enters this route.
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
    per_slab = max(1, _SLAB_AMPLITUDES // ((times.shape[1] + _DEGREE + 1) * dim**2))
    for start in range(0, len(stack), per_slab):
        part = slice(start, start + per_slab)
        u[part] = _taylor_exponentials(stack[part], times[part])
    return _freeze(u.reshape(t.shape + (dim, dim)))


def _taylor_exponentials(stack: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) for an (m, d, d) stack of H and (m, k) times, as
    :func:`expm_evolution` describes it: an (m, k, d, d) array."""
    m, k, dim = len(stack), times.shape[1], stack.shape[-1]
    mu = np.trace(stack, axis1=-2, axis2=-1) / dim
    centred = stack - mu[:, np.newaxis, np.newaxis] * np.eye(dim)
    norms = np.max(np.sum(np.abs(centred), axis=-2), axis=-1)  # 1-norm: largest column sum
    beta = np.ldexp(1.0, np.frexp(norms)[1])  # a power of two above the norm; 1 for 0
    scaled = times * beta[:, np.newaxis]
    squarings = np.maximum(np.frexp(scaled)[1] - 1, 0)  # the least s with |t beta| 2^-s < 2
    tau = np.ldexp(scaled, -squarings)
    coeffs = _TAYLOR * (-1j * tau[..., np.newaxis]) ** np.arange(_DEGREE + 1)
    # one (1, 29) @ (29, d^2) product per slice, so no slice's rounding depends on the stack
    b = centred / beta[:, np.newaxis, np.newaxis]
    u = coeffs[..., np.newaxis, :] @ _powers(b).reshape(m, 1, _DEGREE + 1, dim * dim)
    # the slices that need the most squarings first, so each round takes a leading run
    order = np.argsort(-squarings, axis=None, kind="stable")
    counts = squarings.reshape(-1)[order]
    u = u.reshape(m * k, dim, dim)[order]
    for done in range(int(counts.max(initial=0))):
        more = int(np.count_nonzero(counts > done))
        u[:more] = u[:more] @ u[:more]
    out = np.empty_like(u)
    out[order] = u
    out *= np.exp(-1j * mu[:, np.newaxis] * times).reshape(-1, 1, 1)
    return out.reshape(m, k, dim, dim)


def _powers(b: np.ndarray) -> np.ndarray:
    """B^0 .. B^28 of an (m, d, d) stack, as an (m, 29, d, d) array in its dtype."""
    powers = np.empty((len(b), _DEGREE + 1) + b.shape[1:], dtype=b.dtype)
    powers[:, 0] = np.eye(b.shape[-1])
    powers[:, 1] = b
    top = 1
    while top < _DEGREE:  # B^(top + j) = B^j B^top
        step = min(top, _DEGREE - top)
        powers[:, top + 1 : top + step + 1] = powers[:, 1 : step + 1] @ powers[:, top, np.newaxis]
        top += step
    return powers


def spectrum_deviation(
    params: CouplingParams | Sequence[CouplingParams], hamiltonians: np.ndarray
) -> float:
    """Distance of a Hamiltonian block's spectrum from the normal-mode
    combination frequencies {k1 omega1' + k2 omega2' : k1 + k2 = n}.

    ``params`` is one parameter set with its ``(n + 1, n + 1)`` block from
    :func:`build_block`, or a sequence of m sets with the ``(m, n + 1, n + 1)``
    stack of their blocks, whose spectra come from one stacked eigensolver
    call; the distance is the largest over the sets. One set is the m = 1
    case."""
    draws = [params] if isinstance(params, CouplingParams) else params
    mixes = [derive_mixing(p) for p in draws]
    dim = np.shape(hamiltonians)[-1]
    eps = np.linalg.eigvalsh(np.reshape(hamiltonians, (len(mixes), dim, dim)))  # ascending
    k = np.arange(dim, dtype=float)
    expected = np.array([(dim - 1 - k) * mix.omega1p + k * mix.omega2p for mix in mixes])
    return float(np.max(np.abs(eps - np.sort(expected, axis=-1))))


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
