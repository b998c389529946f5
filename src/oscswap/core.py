"""Domain types for two linearly coupled quantum harmonic oscillators.

The bilinear hopping coupling conserves the total quantum number n1 + n2,
so two-mode Fock amplitudes are stored block-wise by total quanta and the
dynamics never mixes blocks. Within finite truncation the evolution is
therefore exact for any state supported on at most ``n_max`` total quanta.

Index convention (project-wide): inside the block of total quanta ``n``,
index ``l`` maps to the pair ``(n1, n2) = (n - l, l)``, i.e. n1 descending.
Every producer and consumer of block vectors and block matrices shares
this convention.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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
        return 0.5 * (self.omega1p - self.omega2p)


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
    x = (params.omega1 - params.omega2) / (2.0 * params.lam)
    h = math.hypot(x, 1.0)
    if x >= 0:
        c2 = (h + x) / (2.0 * h)
        s2 = 1.0 / (2.0 * h * (h + x))
    else:
        s2 = (h - x) / (2.0 * h)
        c2 = 1.0 / (2.0 * h * (h - x))
    s = math.sqrt(s2)
    c = math.sqrt(c2)
    shift = params.lam * s / c
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
    """Two-mode Fock amplitudes stored block-wise by total quanta.

    ``blocks[n][l]`` holds the amplitude on ``|n1, n2> = |n - l, l>``;
    every pair with n1 + n2 <= n_max has exactly one slot. Instances are
    immutable (the arrays are marked read-only) and safe to share across
    threads.
    """

    n_max: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if len(self.blocks) != self.n_max + 1:
            raise ValueError(
                f"expected {self.n_max + 1} blocks for n_max = {self.n_max}, got {len(self.blocks)}"
            )
        frozen = []
        for n, block in enumerate(self.blocks):
            arr = np.array(block, dtype=np.complex128)
            if arr.shape != (n + 1,):
                raise ValueError(f"block {n} must have shape ({n + 1},), got {arr.shape}")
            frozen.append(_freeze(arr))
        object.__setattr__(self, "blocks", tuple(frozen))

    def amplitude(self, n1: int, n2: int) -> complex:
        if n1 < 0 or n2 < 0 or n1 + n2 > self.n_max:
            raise IndexError(f"(n1, n2) = ({n1}, {n2}) outside truncation n_max = {self.n_max}")
        return complex(self.blocks[n1 + n2][n2])

    def table(self) -> np.ndarray:
        """Amplitudes as an (n_max + 1) x (n_max + 1) array ``C[n1, n2]``,
        zero where n1 + n2 > n_max."""
        dim = self.n_max + 1
        table = np.zeros((dim, dim), dtype=np.complex128)
        for n, block in enumerate(self.blocks):
            l = np.arange(n + 1)
            table[n - l, l] = block
        return table

    @classmethod
    def from_table(cls, table: np.ndarray) -> "TwoModeState":
        """The state whose amplitudes are ``table[n1, n2]`` for n1 + n2 <= n_max,
        with n_max + 1 the table's side; entries beyond the truncation are ignored."""
        blocks = []
        for n in range(table.shape[0]):
            l = np.arange(n + 1)
            blocks.append(table[n - l, l])
        return cls(n_max=table.shape[0] - 1, blocks=tuple(blocks))


def norm(state: TwoModeState) -> float:
    """Euclidean norm sqrt(sum |C|^2) over all amplitudes."""
    return math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in state.blocks))


def make_product_state(phi: Sequence[complex], n_max: int | None = None) -> TwoModeState:
    """The product state |phi> (x) |0>: mode 1 in sum_n phi[n] |n>, mode 2 in vacuum.

    ``phi`` is normalized on input. Its support is the highest index with a
    nonzero entry; ``n_max`` defaults to that support and must not be
    smaller.
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
    amps = amps / np.linalg.norm(amps)
    blocks = [np.zeros(n + 1, dtype=np.complex128) for n in range(n_max + 1)]
    for n in range(support + 1):
        blocks[n][0] = amps[n]
    return TwoModeState(n_max=n_max, blocks=tuple(blocks))


def make_state(
    amplitudes: Mapping[tuple[int, int], complex],
    n_max: int | None = None,
    normalize: bool = True,
) -> TwoModeState:
    """Build a state from a ``{(n1, n2): amplitude}`` mapping."""
    if not amplitudes:
        raise ZeroVectorError("no amplitudes given")
    for n1, n2 in amplitudes:
        if n1 < 0 or n2 < 0:
            raise ValueError(f"Fock indices must be >= 0, got ({n1}, {n2})")
    support = max(n1 + n2 for n1, n2 in amplitudes)
    if n_max is None:
        n_max = support
    if support > n_max:
        raise TruncationTooSmallError(
            f"amplitudes reach total quanta {support} but the truncation is n_max = {n_max}"
        )
    blocks = [np.zeros(n + 1, dtype=np.complex128) for n in range(n_max + 1)]
    for (n1, n2), amp in amplitudes.items():
        blocks[n1 + n2][n2] = amp
    if normalize:
        total = math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in blocks))
        if total == 0.0:
            raise ZeroVectorError("amplitudes have zero norm and cannot be normalized")
        blocks = [b / total for b in blocks]
    return TwoModeState(n_max=n_max, blocks=tuple(blocks))


def annihilation_expectation(state: TwoModeState, mode: int) -> complex:
    """Expectation <a_mode> from the amplitudes by the ladder rule.

    Mode 1: <a1> = sum sqrt(n1) conj(C[n1-1, n2]) C[n1, n2], and
    symmetrically for mode 2. Lowering one quantum in mode 1 keeps the
    block index l = n2, lowering in mode 2 shifts it to l - 1.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    total = 0.0 + 0.0j
    for n in range(1, state.n_max + 1):
        upper = state.blocks[n]
        lower = state.blocks[n - 1]
        if mode == 1:
            weights = np.sqrt(np.arange(n, 0, -1, dtype=float))
            total += np.sum(weights * np.conj(lower) * upper[:n])
        else:
            weights = np.sqrt(np.arange(1, n + 1, dtype=float))
            total += np.sum(weights * np.conj(lower) * upper[1:])
    return complex(total)


@dataclass(frozen=True)
class BlockMatrix:
    """Complex square matrix acting within one fixed-total-quanta block.

    Rows and columns follow the project convention l -> (n_total - l, l).
    """

    n_total: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n_total < 0:
            raise ValueError(f"n_total must be >= 0, got {self.n_total}")
        dim = self.n_total + 1
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise ValueError(f"entries must have shape ({dim}, {dim}), got {arr.shape}")
        object.__setattr__(self, "entries", _freeze(arr))


def unitarity_defect(matrix: np.ndarray) -> float:
    """Max-abs deviation of M^H M from the identity."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
