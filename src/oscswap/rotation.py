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
double, and the elements raise ValueError. Each block is summed whole,
one k at a time over a shifted sub-block, for a stack of m mixes at once:
:func:`us_blocks` gives an (m, n + 1, n + 1) array, and :func:`us_block`
is its cached m = 1 case, from which :func:`us_element` reads its entries.

These elements are the paper's formula. The evolution operator does not
use them: it takes the same rotation, as the eigenvectors of each
Hamiltonian block, from a symmetric eigensolver, which has no such
ceiling (see :mod:`oscswap.evolution`). The rotation suite checks the
closed form up to n = 30.

:func:`verify_recursions` checks the closed form block by block, or stack
by stack, against the ladder recursions that follow from how the
normal-mode operators act across the two bases; that shares no algebra
with the finite sum.

The inverse rotation (s -> -s) differs only by the sign rule
(-1)**(m2 - n2) and equals the transpose of the forward block.
"""

import functools
from collections.abc import Sequence

import numpy as np

from .core import MixingParams, _freeze

# C(m, j) for m, j < len, each rounded to a double once; grown on demand
_binomial_table = np.ones((1, 1))


def us_element(mix: MixingParams, n1, n2, m1, m2) -> complex | np.ndarray:
    """Element <n1, n2| R |m1, m2> of the mixing rotation, or the elements
    at broadcastable index arrays; zero unless n1 + n2 == m1 + m2. Exact
    values are real; the result is complex for uniform downstream arithmetic:
    a Python complex for scalar indices, a complex array otherwise.

    Every nonzero entry is read from :func:`us_block` of its total, so a
    cold element costs its whole block (about 2 s at n1 + n2 = 1029), and the
    elements of the block just built cost no sum at all."""
    n1, n2, m1, m2 = np.broadcast_arrays(*(np.asarray(index) for index in (n1, n2, m1, m2)))
    if min(index.min(initial=0) for index in (n1, n2, m1, m2)) < 0:
        raise ValueError("Fock indices must be >= 0")
    n = n1 + n2
    same = n == m1 + m2
    value = np.zeros(n.shape, dtype=np.complex128)
    for total in np.unique(n[same]):
        at = same & (n == total)
        value[at] = us_block(mix, int(total))[n2[at], m2[at]]
    return complex(value) if value.ndim == 0 else value


@functools.lru_cache(maxsize=1)
def us_block(mix: MixingParams, n_total: int) -> np.ndarray:
    """Mixing rotation restricted to one total-quanta block: a read-only
    complex (n_total + 1) x (n_total + 1) array, row n2 and column m2.

    The one-mix slice of :func:`us_blocks`, bit for bit. Only the last block
    is cached (17 MB at the largest n_total), so :func:`u_minus_s_block` and
    :func:`us_element` right after it cost no rebuild.
    """
    return us_blocks((mix,), n_total)[0]


def us_blocks(mixes: Sequence[MixingParams], n_total: int) -> np.ndarray:
    """The rotation blocks of n_total quanta for a stack of m mixes: a
    read-only complex (m, n_total + 1, n_total + 1) array whose slice i is
    :func:`us_block` of ``mixes[i]``, bit for bit. A single block is the
    m = 1 case.

    With n2 = k + j and m2 = k + i, term k of the module's sum is
    (-1)**j C(n - k - i, j) C(k + i, k) c**(n - i - j) s**(i + j), so the
    terms of one k fill the sub-block [k:, k:] of every slice: a view of the
    signed binomials, rows reversed and transposed, times column k of the
    binomials, times two Hankel views of each mix's powers. Where i + j > n
    the binomial is zero, and the c exponent is clamped to 0 so that it
    never meets 0**negative at c = 0. The terms add in ascending k into a
    zeroed total, each slice rounded as the module says: bitwise the
    exact-integer loop up to n_total = 56. The temporaries are m blocks in
    size (one block 200: 13 ms, 2 MB).
    """
    if n_total < 0:
        raise ValueError(f"n_total must be >= 0, got {n_total}")
    n, binom = n_total, _binomials(n_total)
    # flipped[j, r] = (-1)**j C(n - r, j), so flipped[j, k + i] = (-1)**j C(n - k - i, j)
    flipped = np.ascontiguousarray((binom * (-1.0) ** np.arange(n + 1))[::-1].T)
    # Hankel views per mix: c_pow[:, j, i] = c**max(n - i - j, 0), s_pow[:, j, i] = s**(i + j)
    p = np.arange(2 * n + 1)
    cs = np.array([[[mix.c], [mix.s]] for mix in mixes])
    powers = np.float_power(cs, [np.maximum(n - p, 0), p])
    c_pow, s_pow = np.lib.stride_tricks.sliding_window_view(powers, n + 1, axis=-1).swapaxes(0, 1)
    total = np.zeros((len(cs), n + 1, n + 1))
    for k in range(n + 1):
        j = slice(n + 1 - k)  # j and i run over 0..n - k
        total[:, k:, k:] += flipped[j, k:] * binom[k:, k] * c_pow[:, j, j] * s_pow[:, j, j]
    prefactor = np.sqrt(binom[n] / binom[n, :, None])  # sqrt(C(n, m2) / C(n, n2))
    return _freeze((prefactor * total).astype(np.complex128))


def u_minus_s_block(mix: MixingParams, n_total: int) -> np.ndarray:
    """Inverse rotation block; equals the transpose of the forward block."""
    forward = us_block(mix, n_total)
    parity = (np.subtract.outer(-np.arange(n_total + 1), -np.arange(n_total + 1))) % 2
    signs = np.where(parity, -1.0, 1.0)  # (-1)**(m2 - n2) with n2 = row, m2 = column
    return _freeze(signs * forward)


def verify_recursions(
    mix: MixingParams | Sequence[MixingParams], prev: np.ndarray, cur: np.ndarray
) -> float:
    """Max absolute residual of both ladder recursions between adjacent blocks.

    ``prev`` and ``cur`` are rotation blocks of n - 1 and n total quanta, or
    stacks of m such blocks, one pair per mix of the sequence ``mix``; the
    residual of a stack is the largest of its pairs' residuals, bit for bit.
    Checks, for every index tuple of ``cur``, that lowering one quantum in
    either row mode reproduces the elements of ``prev``. Used as a
    self-test of the stabilized closed form.
    """
    big, small = np.asarray(cur).real, np.asarray(prev).real
    n = big.shape[-1] - 1
    if small.shape[-1] != n:
        raise ValueError(
            f"need blocks of n - 1 and n quanta, got {small.shape[-1] - 1} and {n}"
        )
    mixes = (mix,) if isinstance(mix, MixingParams) else mix
    # one (c, s) per block pair, broadcast over its rows and columns
    c, s = np.array([[each.c, each.s] for each in mixes]).T.reshape(2, -1, 1, 1)
    l = np.arange(n + 1)
    m1, m2 = n - l[:n], l[1:]  # column quanta where each lowered term exists
    # lower one quantum in row mode 1: rows l = 0..n-1, n1 = n - l
    shape = np.broadcast_shapes(c.shape, small.shape[:-1] + (n + 1,))
    rhs = np.zeros(shape)
    n1 = (n - l[:n])[:, None]
    rhs[..., :n] = c * np.sqrt(m1 / n1) * small
    rhs[..., 1:] += s * np.sqrt(m2 / n1) * small
    worst = np.max(np.abs(big[..., :n, :] - rhs))
    # lower one quantum in row mode 2: rows l = 1..n, n2 = l
    rhs = np.zeros(shape)
    n2 = l[1:, None]
    rhs[..., :n] = -s * np.sqrt(m1 / n2) * small
    rhs[..., 1:] += c * np.sqrt(m2 / n2) * small
    return float(max(worst, np.max(np.abs(big[..., 1:, :] - rhs))))


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
