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

times the prefactor sqrt(n1! n2! / (m1! m2!)) = sqrt(C(n, m2) / C(n, n2)).
Each binomial is an exact integer rounded to a double once; a term
multiplies its two binomials, then its two powers (C pow, as Python's **
calls it), and the terms add in ascending k. Up to n = 56 every binomial
is exact in a double, so the elements equal the same loop over exact
Python integers to the last bit; above, a binomial product may round once
more (5.6e-17 at x = 5, n = 100). The alternating sum itself loses about
n log10(2) digits near resonance: at x = 0 the blocks stay orthogonal to
1e-10 up to n = 44. From n_total = 1030 on, the binomials overflow a
double, and the elements raise ValueError.

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

import numpy as np

from .core import MixingParams, _freeze

_SLAB_TERMS = 1 << 18  # terms of the sum held at once (2 MiB per array of doubles)
# C(m, j) for m, j < len, each rounded to a double once; grown on demand
_binomial_table = np.ones((1, 1))


def us_element(mix: MixingParams, n1, n2, m1, m2) -> complex | np.ndarray:
    """Element <n1, n2| R |m1, m2> of the mixing rotation, or the elements
    at broadcastable index arrays; zero unless n1 + n2 == m1 + m2. Exact
    values are real; the result is complex for uniform downstream arithmetic:
    a Python complex for scalar indices, a complex array otherwise."""
    n1, n2, m1, m2 = (np.asarray(index) for index in (n1, n2, m1, m2))
    if min(index.min(initial=0) for index in (n1, n2, m1, m2)) < 0:
        raise ValueError("Fock indices must be >= 0")
    same = n1 + n2 == m1 + m2
    # an entry whose totals differ is zero; its sum is taken in the empty block
    n, n2, m2 = (np.where(same, index, 0) for index in (n1 + n2, n2, m2))
    value = np.where(same, _closed_form(mix, n, n2, m2), 0.0).astype(np.complex128)
    return complex(value) if value.ndim == 0 else value


@functools.lru_cache(maxsize=1)
def us_block(mix: MixingParams, n_total: int) -> np.ndarray:
    """Mixing rotation restricted to one total-quanta block: a read-only
    complex (n_total + 1) x (n_total + 1) array, row n2 and column m2.

    Every entry is :func:`us_element`'s sum, rounded as the module says, so
    bitwise the exact-integer loop up to n_total = 56. Slabs of k hold at most
    ``_SLAB_TERMS`` terms, or a single k once the block has more entries, so
    the temporaries never hold all n_total**3 terms (block 200: 0.12 s, 9 MB).
    Only the last block is cached (17 MB at the largest n_total), so
    :func:`u_minus_s_block` right after it costs no rebuild.
    """
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    l = np.arange(n_total + 1)
    return _freeze(_closed_form(mix, n_total, l[:, None], l).astype(np.complex128))


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


def _closed_form(mix: MixingParams, n, n2, m2) -> np.ndarray:
    """The sum at rows ``n2``, columns ``m2`` of blocks ``n`` (broadcastable
    integer arrays) over a leading axis of every k in some entry's range
    max(0, n2 + m2 - n)..min(n2, m2). Out of its own range an entry's term has
    a zero binomial, and the zero-padded powers keep it finite, so it adds a
    zero. Each slab of k, its first row plus the running total, is summed on
    axis 0, which numpy does row by row: the terms add in ascending k."""
    top = int(np.asarray(n).max(initial=0))
    binom = _binomials(top)
    # (-1)**j C(m, j) at [m, top + j], zero for j < 0; base**p at [2 top + p], zero
    # beyond p = 0..top, where only the terms with a zero binomial reach
    signed = np.hstack([np.zeros((top + 1, top)), binom * (-1.0) ** np.arange(top + 1)])
    c_pow, s_pow = powers = np.zeros((2, 5 * top + 1))
    powers[:, 2 * top : 3 * top + 1] = np.float_power([[mix.c], [mix.s]], np.arange(top + 1))
    m1 = n - m2
    total = np.zeros(np.broadcast(n, n2, m2).shape)
    step = max(1, _SLAB_TERMS // max(total.size, 1))
    k_end = int(np.minimum(n2, m2).max(initial=-1)) + 1
    for start in range(max(0, int((n2 - m1).min(initial=top))), k_end, step):
        k = np.arange(start, min(start + step, k_end)).reshape((-1,) + (1,) * total.ndim)
        j = n2 - k
        terms = signed.ravel()[m1 * (2 * top + 1) + top + j] * binom[m2, k]
        terms *= c_pow[m1 + 2 * top - (j - k)]  # c**(m1 - n2 + 2k)
        terms *= s_pow[m2 + 2 * top + (j - k)]  # s**(m2 + n2 - 2k)
        terms[0] += total  # total + t equals t + total, so the order holds
        # a lone entry's terms would be reduced pairwise, so they are accumulated
        total = np.add.reduce(terms) if total.size > 1 else np.add.accumulate(terms)[-1]
    return np.sqrt(binom[n, m2] / binom[n, n2]) * total


def _binomials(top: int) -> np.ndarray:
    """C(m, j) as doubles for m, j = 0..top (zero for j > m): the exact
    integers of Pascal's rule, as math.comb gives them, rounded once."""
    global _binomial_table
    if top >= 1030:  # C(1030, 515) is the first binomial at or above 2**1024
        raise ValueError(f"rotation block n_total = {top} is too large: its binomials"
                         " overflow a double (the limit is n_total < 1030)")
    if len(_binomial_table) <= top:
        rows, row = [], [1]
        for m in range(top + 1):
            rows.append([float(v) for v in row] + [0.0] * (top - m))
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        _binomial_table = np.array(rows)
    return _binomial_table[: top + 1, : top + 1]
