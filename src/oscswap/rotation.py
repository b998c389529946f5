"""Fock-basis matrix elements of the two-mode mixing rotation.

The rotation maps the bare annihilation operators onto the normal-mode
pair (a1' = c a1 + s a2, a2' = -s a1 + c a2). It conserves total quanta,
so restricted to the block of n total quanta it is a real orthogonal
(n+1) x (n+1) matrix. Every element comes from one finite sum, evaluated
in a numerically stabilized form. The textbook-style sum carries the
factor (s/c)**(-2k), which overflows as s -> 0; distributing the powers
into the summand leaves only nonnegative powers of s and c, each term
being

    (-1)**(n2 - k) * C(m1, n2-k) * C(m2, k) * c**(m1-n2+2k) * s**(m2+n2-2k)

times the prefactor sqrt(n1! n2! / (m1! m2!)). The binomials and
factorials are exact integers at every block size and are rounded to a
double only once, per term and per prefactor. What rounding is left comes
from the alternating sum itself, which near resonance loses about
n log10(2) digits: at resonance (x = 0) the blocks stay orthogonal to
1e-10 up to n = 44. From n_total = 1030 on, the integer factors no longer
fit a double, and the elements raise ValueError.

These elements are the paper's formula. The evolution operator does not
use them: it takes the same rotation, as the eigenvectors of each
Hamiltonian block, from a symmetric eigensolver, which has no such
ceiling (see :mod:`oscswap.evolution`). The rotation suite checks the
closed form up to n = 30.

:func:`verify_recursions` checks the closed form block by block against
the ladder recursions that follow from how the normal-mode operators act
across the two bases; that shares no algebra with the finite sum.

The inverse rotation (s -> -s) differs only by the sign rule
(-1)**(m2 - n2) and equals the transpose of the forward block.
"""

import functools
import math

import numpy as np

from .core import MixingParams, _freeze


def us_element(mix: MixingParams, n1: int, n2: int, m1: int, m2: int) -> complex:
    """Single element <n1, n2| R |m1, m2> of the mixing rotation.

    Zero unless n1 + n2 == m1 + m2. Exact values are real; the result is
    complex for uniform downstream arithmetic.
    """
    if min(n1, n2, m1, m2) < 0:
        raise ValueError("Fock indices must be >= 0")
    if n1 + n2 != m1 + m2:
        return 0j
    return complex(_element_closed_form(mix.c, mix.s, n1, n2, m1, m2))


@functools.lru_cache(maxsize=1)
def us_block(mix: MixingParams, n_total: int) -> np.ndarray:
    """Mixing rotation restricted to one total-quanta block: a read-only
    complex (n_total + 1) x (n_total + 1) array.

    Every entry is :func:`us_element`'s sum. Only the most recent block is
    cached (17 MB at the largest n_total), so that :func:`u_minus_s_block`
    right after it costs no rebuild.
    """
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    n = n_total
    entries = np.empty((n + 1, n + 1), dtype=float)
    for n2 in range(n + 1):
        for m2 in range(n + 1):
            entries[n2, m2] = _element_closed_form(mix.c, mix.s, n - n2, n2, n - m2, m2)
    return _freeze(entries.astype(np.complex128))


def u_minus_s_block(mix: MixingParams, n_total: int) -> np.ndarray:
    """Inverse rotation block; equals the transpose of the forward block."""
    forward = us_block(mix, n_total)
    parity = (np.subtract.outer(-np.arange(n_total + 1), -np.arange(n_total + 1))) % 2
    signs = np.where(parity, -1.0, 1.0)  # (-1)**(m2 - n2) with n2 = row, m2 = column
    return _freeze(signs * forward)


def verify_recursions(mix: MixingParams, prev: np.ndarray, cur: np.ndarray) -> float:
    """Max absolute residual of both ladder recursions between adjacent blocks.

    ``prev`` and ``cur`` are rotation blocks of n - 1 and n total quanta.
    Checks, for every index tuple of ``cur``, that lowering one quantum in
    either row mode reproduces the elements of ``prev``. Used as a
    self-test of the stabilized closed form.
    """
    n = len(cur) - 1
    if len(prev) != n:
        raise ValueError(f"need blocks of n - 1 and n quanta, got {len(prev) - 1} and {n}")
    c, s = mix.c, mix.s
    big, small = cur.real, prev.real
    l = np.arange(n + 1)
    m1, m2 = n - l[:n], l[1:]  # column quanta where each lowered term exists
    # lower one quantum in row mode 1: rows l = 0..n-1, n1 = n - l
    rhs = np.zeros((n, n + 1))
    n1 = (n - l[:n])[:, None]
    rhs[:, :n] = c * np.sqrt(m1 / n1) * small
    rhs[:, 1:] += s * np.sqrt(m2 / n1) * small
    worst = np.max(np.abs(big[:n] - rhs))
    # lower one quantum in row mode 2: rows l = 1..n, n2 = l
    rhs = np.zeros((n, n + 1))
    n2 = l[1:, None]
    rhs[:, :n] = -s * np.sqrt(m1 / n2) * small
    rhs[:, 1:] += c * np.sqrt(m2 / n2) * small
    return float(max(worst, np.max(np.abs(big[1:] - rhs))))


def _element_closed_form(c: float, s: float, n1: int, n2: int, m1: int, m2: int) -> float:
    kmin = max(0, m2 - n1)
    kmax = min(n2, m2)
    try:
        pref = math.sqrt(
            math.factorial(n1) * math.factorial(n2) / (math.factorial(m1) * math.factorial(m2))
        )
        total = 0.0
        for k in range(kmin, kmax + 1):
            term = (
                math.comb(m1, n2 - k)
                * math.comb(m2, k)
                * c ** (m1 - n2 + 2 * k)
                * s ** (m2 + n2 - 2 * k)
            )
            total += -term if (n2 - k) % 2 else term
    except OverflowError:
        raise _too_large(n1 + n2) from None
    return pref * total


def _too_large(n_total: int) -> ValueError:
    return ValueError(
        f"rotation block n_total = {n_total} is too large: its integer factors"
        " overflow a double (the limit is n_total < 1030)"
    )
