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

times the prefactor sqrt(n1! n2! / (m1! m2!)). Bounded terms, no
overflow. Binomials and the factorial ratio switch to log-space (lgamma)
evaluation above total quanta 20.

:func:`verify_recursions` checks the closed form block by block against
the ladder recursions that follow from how the normal-mode operators act
across the two bases; that shares no algebra with the finite sum.

The inverse rotation (s -> -s) differs only by the sign rule
(-1)**(m2 - n2) and equals the transpose of the forward block.
"""

import math

import numpy as np

from .core import BlockMatrix, MixingParams

_EXACT_COMB_MAX = 20


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


def u_minus_s_element(mix: MixingParams, n1: int, n2: int, m1: int, m2: int) -> complex:
    """Element of the inverse rotation: (-1)**(m2 - n2) times the forward one."""
    value = us_element(mix, n1, n2, m1, m2)
    return -value if (m2 - n2) % 2 else value


def us_block(mix: MixingParams, n_total: int) -> BlockMatrix:
    """Mixing rotation restricted to one total-quanta block."""
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    dim = n_total + 1
    entries = np.empty((dim, dim), dtype=float)
    for lr in range(dim):
        for lc in range(dim):
            entries[lr, lc] = _element_closed_form(mix.c, mix.s, n_total - lr, lr, n_total - lc, lc)
    return BlockMatrix(n_total=n_total, entries=entries.astype(np.complex128))


def u_minus_s_block(mix: MixingParams, n_total: int) -> BlockMatrix:
    """Inverse rotation block; equals the transpose of the forward block."""
    forward = us_block(mix, n_total).entries
    parity = (np.subtract.outer(-np.arange(n_total + 1), -np.arange(n_total + 1))) % 2
    signs = np.where(parity, -1.0, 1.0)  # (-1)**(m2 - n2) with n2 = row, m2 = column
    return BlockMatrix(n_total=n_total, entries=signs * forward)


def verify_recursions(mix: MixingParams, prev: BlockMatrix, cur: BlockMatrix) -> float:
    """Max absolute residual of both ladder recursions between adjacent blocks.

    ``prev`` and ``cur`` are rotation blocks of n - 1 and n total quanta.
    Checks, for every index tuple of ``cur``, that lowering one quantum in
    either row mode reproduces the elements of ``prev``. Used as a
    self-test of the stabilized closed form.
    """
    n = cur.n_total
    if n != prev.n_total + 1:
        raise ValueError(f"need blocks of n - 1 and n quanta, got {prev.n_total} and {n}")
    c, s = mix.c, mix.s
    big, small = cur.entries.real, prev.entries.real
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
    if n1 + n2 > _EXACT_COMB_MAX:
        return _element_closed_form_log(c, s, n1, n2, m1, m2, kmin, kmax)
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
    return pref * total


def _element_closed_form_log(
    c: float, s: float, n1: int, n2: int, m1: int, m2: int, kmin: int, kmax: int
) -> float:
    # One exp per term; the lower/upper sum bounds guarantee both power
    # exponents are nonnegative, so log(c), log(s) only multiply k >= 0.
    log_pref = 0.5 * (
        math.lgamma(n1 + 1) + math.lgamma(n2 + 1) - math.lgamma(m1 + 1) - math.lgamma(m2 + 1)
    )
    log_c = math.log(c) if c > 0.0 else -math.inf
    log_s = math.log(s) if s > 0.0 else -math.inf
    total = 0.0
    for k in range(kmin, kmax + 1):
        pow_c = m1 - n2 + 2 * k
        pow_s = m2 + n2 - 2 * k
        log_term = log_pref + _log_comb(m1, n2 - k) + _log_comb(m2, k)
        if pow_c:
            log_term += pow_c * log_c
        if pow_s:
            log_term += pow_s * log_s
        if log_term == -math.inf:
            continue
        term = math.exp(log_term)
        total += -term if (n2 - k) % 2 else term
    return total


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
