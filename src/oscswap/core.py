"""Domain types for two linearly coupled quantum harmonic oscillators.

The bilinear hopping coupling conserves the total quantum number n1 + n2,
so the dynamics never mixes blocks of fixed total quanta. A state is the
table of its two-mode Fock amplitudes ``C[n1, n2]``, truncated to
n1 + n2 <= ``n_max``; within that truncation the evolution is exact.

Index convention for block matrices (project-wide): inside the block of
total quanta ``n``, index ``l`` maps to the pair ``(n1, n2) = (n - l, l)``,
i.e. n1 descending. In a state table that block is ``C[n - l, l]``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_MIXING_TOL = 1e-12


class DecoupledSystemError(ValueError):
    """An operation required a nonzero coupling constant."""


class ZeroVectorError(ValueError):
    """A vector with zero norm cannot be normalized into a state."""


class TruncationTooSmallError(ValueError):
    """Requested amplitudes do not fit below the total-quanta cutoff."""


class NumericalIntegrityError(RuntimeError):
    """An internal numerical self-check failed (e.g. loss of unitarity)."""


@dataclass(frozen=True)
class CouplingParams:
    """Physical inputs of the coupled-oscillator Hamiltonian.

    ``omega1`` and ``omega2`` are the bare angular frequencies and ``lam``
    the hopping coupling constant, all sharing one rad/time unit (the
    physics depends only on their ratios). ``lam`` is named for the
    scenario-file key "lambda", which is a reserved word in Python.
    """

    omega1: float
    omega2: float
    lam: float

    def __post_init__(self):
        for name in ("omega1", "omega2", "lam"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.lam < 0:
            raise ValueError(
                f"lambda must be >= 0 (its sign can be absorbed into a mode phase), got {self.lam}"
            )

    @property
    def is_decoupled(self) -> bool:
        return self.lam == 0.0


@dataclass(frozen=True)
class MixingParams:
    """Normal-mode mixing parameters derived from :class:`CouplingParams`.

    ``x`` is the dimensionless detuning, ``(s, c)`` the nonnegative
    sine/cosine pair of the mode-mixing rotation with s**2 + c**2 = 1, and
    ``omega1p``/``omega2p`` the normal-mode angular frequencies, which
    satisfy omega1p + omega2p = omega1 + omega2.
    """

    x: float
    s: float
    c: float
    omega1p: float
    omega2p: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.c)):
            raise ValueError(f"mixing amplitudes must be finite, got s={self.s}, c={self.c}")
        if self.s < 0 or self.c < 0:
            raise ValueError(f"mixing amplitudes must be nonnegative, got s={self.s}, c={self.c}")
        defect = abs(self.c * self.c + self.s * self.s - 1.0)
        if not defect <= _MIXING_TOL:
            raise ValueError(f"s, c must lie on the unit circle; s^2+c^2 is off by {defect:.3e}")

    @property
    def half_splitting(self) -> float:
        """Half the normal-mode frequency splitting, (omega1p - omega2p) / 2.

        Equals lam / (2 c s) whenever the coupling is nonzero, but stays
        finite in the decoupled limit s = 0.
        """
        return 0.5 * self.omega1p - 0.5 * self.omega2p  # halves first: cannot overflow


def derive_mixing(params: CouplingParams) -> MixingParams:
    """Derive the mode-mixing parameters of a coupled system.

    The smaller of s**2, c**2 is evaluated in a cancellation-free form so
    strong detuning does not lose precision. Raises
    :class:`DecoupledSystemError` for ``lam == 0``, where the detuning is
    undefined; use :func:`decoupled_mixing` for the explicit free limit.
    """
    if params.lam == 0:
        raise DecoupledSystemError(
            "detuning x = (omega1 - omega2) / (2 lambda) is undefined for lambda = 0; "
            "use decoupled_mixing() for the free-oscillator limit"
        )
    # halving first is exact, and unlike 2 lam it cannot overflow
    x = 0.5 * (params.omega1 - params.omega2) / params.lam
    h = math.hypot(x, 1.0)
    if x >= 0:
        c2 = (h + x) / (2.0 * h)
        s2 = 1.0 / (2.0 * h * (h + x))
    else:
        s2 = (h - x) / (2.0 * h)
        c2 = 1.0 / (2.0 * h * (h - x))
    s = math.sqrt(s2)
    c = math.sqrt(c2)
    # s / c = h - x for x < 0, the one form left when c2 underflows to 0
    shift = params.lam * s / c if c > 0 else params.lam * (h - x)
    return MixingParams(
        x=x, s=s, c=c, omega1p=params.omega1 + shift, omega2p=params.omega2 - shift
    )


def decoupled_mixing(params: CouplingParams) -> MixingParams:
    """Mixing parameters in the lambda = 0 limit: no rotation, bare frequencies.

    Only accepts decoupled parameter sets, so a forgotten coupling constant
    cannot silently degrade into free evolution.
    """
    if not params.is_decoupled:
        raise ValueError(
            f"decoupled_mixing() is the lambda = 0 limit only, got lambda = {params.lam}"
        )
    return MixingParams(x=math.inf, s=0.0, c=1.0, omega1p=params.omega1, omega2p=params.omega2)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TwoModeState:
    """Two-mode Fock amplitudes as a table ``C[n1, n2]``.

    ``table`` is a complex (n_max + 1) x (n_max + 1) array; the entries with
    n1 + n2 > n_max lie beyond the truncation and must be zero. Instances
    are immutable (the table is marked read-only) and safe to share across
    threads.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=np.complex128)
        if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
            raise ValueError(f"table must be a nonempty square array, got shape {table.shape}")
        dim = table.shape[0]
        if table[np.add.outer(np.arange(dim), np.arange(dim)) >= dim].any():
            raise ValueError(f"table has a nonzero entry with n1 + n2 > n_max = {dim - 1}")
        object.__setattr__(self, "table", _freeze(table))

    @property
    def n_max(self) -> int:
        return self.table.shape[0] - 1

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        # Not used in src/. perfbench/spans.py counts evolved amplitudes by it,
        # so it stays until the benchmark's tracer changes.
        return tuple(
            _freeze(self.table[n - np.arange(n + 1), np.arange(n + 1)])
            for n in range(self.n_max + 1)
        )


def norm(state: TwoModeState) -> float:
    """Euclidean norm sqrt(sum |C|^2) over all amplitudes."""
    return float(np.linalg.norm(state.table))


def product_amplitudes(phi: Sequence[complex], n_max: int | None = None) -> np.ndarray:
    """Mode-1 amplitudes of the product state |phi> (x) |0>: ``phi``
    normalized over every entry given, cut at its support and zero-padded
    to ``n_max + 1`` entries. The support is the highest index with a
    nonzero entry; ``n_max`` defaults to it and must not be smaller.

    ``phi`` is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), so the norm neither overflows
    (entries above about 1e154) nor underflows (below about 1e-154). That
    scaling is exact for every entry it leaves in the normal range, so
    there the result equals the plain division bit for bit.
    """
    amps = np.asarray(list(phi), dtype=np.complex128)
    if amps.ndim != 1:
        raise ValueError("phi must be a one-dimensional amplitude vector")
    nonzero = np.flatnonzero(amps)
    if nonzero.size == 0:
        raise ZeroVectorError("phi has zero norm and cannot be normalized")
    support = int(nonzero[-1])
    if n_max is None:
        n_max = support
    if support > n_max:
        raise TruncationTooSmallError(
            f"phi has support on n = {support} but the truncation is n_max = {n_max}"
        )
    parts = amps.view(np.float64)  # real and imaginary parts, interleaved
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    scaled = np.ldexp(parts, -exponent).view(np.complex128)
    column = np.zeros(n_max + 1, dtype=np.complex128)
    column[: support + 1] = scaled[: support + 1] / np.linalg.norm(scaled)
    return column


def make_product_state(phi: Sequence[complex], n_max: int | None = None) -> TwoModeState:
    """The product state |phi> (x) |0> as a table: :func:`product_amplitudes`
    in its first column, mode 2 in vacuum."""
    column = product_amplitudes(phi, n_max)
    table = np.zeros((len(column), len(column)), dtype=np.complex128)
    table[:, 0] = column
    return TwoModeState(table)


def annihilation_expectation(state: TwoModeState, mode: int) -> complex:
    """Expectation <a_mode> from the amplitudes by the ladder rule.

    Mode 1: <a1> = sum sqrt(n1) conj(C[n1-1, n2]) C[n1, n2], and the same
    on the transposed table for mode 2.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    table = state.table if mode == 1 else state.table.T
    weights = np.sqrt(np.arange(1, table.shape[0], dtype=float))[:, np.newaxis]
    return complex(np.sum(weights * np.conj(table[:-1]) * table[1:]))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-abs deviation of M^H M from the identity, over a stack of
    matrices if given one."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]))))
