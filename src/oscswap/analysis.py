"""Exchange diagnostics for the coupled pair.

Covers the exchange times, transfer probability profiles, reduced density
matrices, exchange fidelity, the statistics-exchange report, and the
frequency-ratio condition under which a C0 |0> + CN |N> superposition is
exchanged exactly.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DecoupledSystemError,
    MixingParams,
    NumericalIntegrityError,
    TwoModeState,
    ZeroVectorError,
    make_product_state,
)
from .evolution import EvolutionOperator

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
_AMPLITUDE_FLOOR = 1e-12
# find_exchange_time's refinement: each round evaluates the bracket at
# _ZOOM_POINTS times in one batched call and narrows it to the two grid steps
# around the best, a factor (_ZOOM_POINTS - 1) / 2 = 32. After _ZOOM_ROUNDS
# rounds it is narrower than 1e-9 of its start (32**-6 < 1e-9).
_ZOOM_POINTS = 65
_ZOOM_ROUNDS = 6
ZOOM_TIMES = _ZOOM_POINTS * _ZOOM_ROUNDS  # times the refinement evaluates, for any window


class NonPositiveRatioError(ValueError):
    """The requested exchange condition has no positive frequency ratio."""


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """Single-mode density matrix obtained by partial trace.

    Validated on construction: Hermitian, unit trace, and positive
    semidefinite up to a small negative eigenvalue floor (rounding
    produces tiny negative eigenvalues; a hard zero threshold would
    flake).
    """

    mode: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {self.mode}")
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"entries must have shape ({self.dim}, {self.dim}), got {arr.shape}")
        check_densities(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def check_densities(rho: np.ndarray) -> None:
    """Raise :class:`NumericalIntegrityError` unless every density matrix in
    ``rho`` (one matrix, or a stack of them over leading axes) is Hermitian,
    has unit trace and no eigenvalue below the floor. NaN fails every check.
    """
    adjoint = rho.conj().swapaxes(-1, -2)
    herm = float(np.max(np.abs(rho - adjoint)))
    if not herm <= _HERMITICITY_TOL:
        raise NumericalIntegrityError(f"density matrix not Hermitian (defect {herm:.3e})")
    traces = np.real(np.trace(rho, axis1=-2, axis2=-1)).ravel()
    trace = float(traces[np.argmax(np.abs(traces - 1.0))])
    if not abs(trace - 1.0) <= _TRACE_TOL:
        raise NumericalIntegrityError(f"density matrix trace is {trace!r}, expected 1")
    lowest = float(np.min(np.linalg.eigvalsh(0.5 * (rho + adjoint))))
    if not lowest >= _EIGENVALUE_FLOOR:
        raise NumericalIntegrityError(
            f"density matrix has eigenvalue {lowest:.3e} below the floor {_EIGENVALUE_FLOOR}"
        )


@dataclass(frozen=True)
class ExchangeReport:
    """How completely a product state has been handed to the other mode.

    statistics_match is the worst mismatch of transferred moduli,
    phase_defect the worst wrap-aware deviation of the transferred phases
    from the phase-kick prediction, and fidelity_exchange the squared
    overlap with the fully exchanged target.
    """

    time: float
    fidelity_exchange: float
    statistics_match: float
    phase_defect: float


def exchange_times(mix: MixingParams, lam: float, k_max: int) -> list[float]:
    """Times (s c / lam) (2k + 1) pi, k = 0..k_max, of maximal transfer.

    At resonance these reduce to (k + 1/2) pi / lam.
    """
    if lam == 0:
        raise DecoupledSystemError("exchange times require a nonzero coupling")
    if lam < 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    base = mix.s * mix.c * math.pi / lam
    return [base * (2 * k + 1) for k in range(k_max + 1)]


def transfer_probability(mix: MixingParams, lam: float, n: int, t: float) -> float:
    """|2 s c sin(lam t / (2 c s))|**(2n), the n-quanta transfer weight ratio."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if lam > 0 and mix.s > 0:
        half = lam / (2.0 * mix.c * mix.s)
    else:
        half = mix.half_splitting  # decoupled limit; the prefactor is 0 anyway
    amp = 2.0 * mix.s * mix.c * math.sin(half * t)
    return float(abs(amp) ** (2 * n))


def reduce(state: TwoModeState, mode: int) -> ReducedDensityMatrix:
    """Partial trace onto one mode.

    Mode 1: rho[m, m'] = sum_j C[m, j] conj(C[m', j]); symmetrically for
    mode 2. The result is (n_max + 1) x (n_max + 1).
    """
    rho = _partial_trace(state.table, mode)
    return ReducedDensityMatrix(mode=mode, dim=state.n_max + 1, entries=rho)


def reduced_densities(tables: np.ndarray, mode: int) -> np.ndarray:
    """:func:`reduce` for a stack of amplitude tables ``tables[k, n1, n2]``:
    the checked density matrices ``rho[k]`` of one mode."""
    rho = _partial_trace(tables, mode)
    check_densities(rho)
    return rho


def _partial_trace(tables: np.ndarray, mode: int) -> np.ndarray:
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if mode == 1:
        return tables @ tables.conj().swapaxes(-1, -2)
    return tables.swapaxes(-1, -2) @ tables.conj()


def exchange_fidelity(state_t: TwoModeState, target_phi: Sequence[complex]) -> float:
    """Squared overlap of the state with |0> (x) |phi|.

    Global-phase invariant: equals 1 iff the state is |0> (x) |phi> up to
    an overall phase. ``target_phi`` is normalized on input.
    """
    return float(exchange_fidelities(state_t.table[np.newaxis], target_phi)[0])


def exchange_fidelities(tables: np.ndarray, target_phi: Sequence[complex]) -> np.ndarray:
    """:func:`exchange_fidelity` of every amplitude table ``tables[k, n1, n2]``."""
    phi = np.asarray(list(target_phi), dtype=np.complex128)
    total = np.linalg.norm(phi)
    if total == 0.0:
        raise ZeroVectorError("target_phi has zero norm")
    top = min(len(phi), tables.shape[-1])
    # the amplitudes on |0, n>
    fid = np.abs(tables[:, 0, :top] @ np.conj(phi[:top] / total)) ** 2
    # rounding can push a perfect overlap a few ulp above 1; larger excess
    # means the state was not normalized and stays visible
    fid[(1.0 < fid) & (fid <= 1.0 + 1e-10)] = 1.0
    return fid


def complete_exchange_ratio(level: int, turns: int) -> float:
    """Frequency ratio omega / lambda = (4 turns - level) / level that makes
    the exchange of C0 |0> + CN |level> exact at the first exchange time.

    ``turns`` counts the full windings of the transfer phase kick; each
    positive integer gives one admissible ratio.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    if 4 * turns <= level:
        raise NonPositiveRatioError(
            f"(4*{turns} - {level}) / {level} is not positive; no physical frequency ratio"
        )
    return (4.0 * turns - level) / level


def verify_statistics_exchange(
    state0: TwoModeState,
    evo: EvolutionOperator,
    t: float,
    amplitude_floor: float = _AMPLITUDE_FLOOR,
) -> ExchangeReport:
    """Evolve a product state |phi> (x) |0> to time t and grade the exchange:
    the one-time case of :func:`statistics_exchanges`.

    The phase prediction applies, per transferred quantum, the phase of the
    single-quantum transfer amplitude, -(mean_frequency * t + pi/2) plus pi
    where sin(half_splitting * t) < 0; deviations are measured wrap-aware
    and only where both moduli exceed ``amplitude_floor`` (phases of
    vanishing amplitudes are meaningless). The prediction is exact for
    product states, so the phase defect stays at rounding level at every t;
    the statistics mismatch vanishes at every exchange time on resonance.
    """
    fid, stats, defect = statistics_exchanges(state0, evo, [t], amplitude_floor)[0].tolist()
    return ExchangeReport(
        time=t, fidelity_exchange=fid, statistics_match=stats, phase_defect=defect
    )


def statistics_exchanges(
    state0: TwoModeState,
    evo: EvolutionOperator,
    ts: Sequence[float] | np.ndarray,
    amplitude_floor: float = _AMPLITUDE_FLOOR,
) -> np.ndarray:
    """:func:`verify_statistics_exchange` at every time in ``ts``, from one
    batched evolution. Row k is (fidelity_exchange, statistics_match,
    phase_defect) at ``ts[k]``.
    """
    phi0 = _product_amplitudes(state0)
    phases0 = [cmath.phase(a) for a in phi0.tolist()]
    rows = []
    for times, tables in evo.evolve_grid(state0, ts):
        swapped = tables[:, 0, :]  # the amplitudes on |0, n>
        stats = np.max(np.abs(np.abs(swapped) - np.abs(phi0)), axis=1)
        defects = np.zeros(len(times))
        graded = (np.abs(swapped) >= amplitude_floor) & (np.abs(phi0) >= amplitude_floor)
        kicks = [cmath.phase(evo.transfer_amplitude(1, t)) for t in times.tolist()]
        for k, n in zip(*np.nonzero(graded)):
            predicted = phases0[n] + kicks[k] * n
            delta = _wrap_phase(cmath.phase(swapped[k, n]) - predicted)
            defects[k] = max(defects[k], abs(delta))
        rows.append(np.column_stack([exchange_fidelities(tables, phi0), stats, defects]))
    return np.concatenate(rows)


def find_exchange_time(
    evo: EvolutionOperator,
    phi: Sequence[complex],
    t_start: float,
    t_end: float,
    grid_step: float | None = None,
) -> tuple[float, float]:
    """Numerically locate the time of maximal exchange fidelity in a window.

    Coarse grid scan (step at most pi / (50 lambda) for coupled systems),
    then a zoom: the two grid steps around the best point are evaluated
    again on a grid of 65 times, six times over, which narrows the bracket
    below 1e-9 of its starting width. Every grid is one batched evolution.
    The zoom follows the least leak 1 - F, computed as the weight of the
    state outside |0> (x) |phi>, which keeps its relative precision where F
    rounds to 1. Its last point is returned only if its fidelity is at
    least the coarse grid's best; otherwise that grid point is. Useful
    off resonance and away from the exact-exchange frequency condition,
    where no closed-form optimum exists. Returns ``(t_best, fidelity_best)``.
    """
    if not t_end > t_start:
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if grid_step is None:
        if evo.params.lam > 0:
            # the transfer modulus oscillates at the half splitting, which is
            # at least lam; 50 points per half period keeps the scan aliasing-free
            # and the step at or below pi / (50 lam)
            grid_step = math.pi / (50.0 * max(evo.params.lam, evo.mix.half_splitting))
        else:
            grid_step = (t_end - t_start) / 200.0
    steps = max(3, int(math.ceil((t_end - t_start) / grid_step)) + 1)
    state0 = make_product_state(phi)
    target = _product_amplitudes(state0)  # phi, normalized

    def scan(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fidelity and leak at every time of ``ts``."""
        fids, leaks = [], []
        for _, tables in evo.evolve_grid(state0, ts):
            overlap = tables[:, 0, :] @ np.conj(target)
            rest = tables.copy()
            rest[:, 0, :] -= overlap[:, np.newaxis] * target
            leaks.append(np.sum(np.abs(rest.reshape(len(rest), -1)) ** 2, axis=1))
            fids.append(exchange_fidelities(tables, phi))
        return np.concatenate(fids), np.concatenate(leaks)

    ts = np.linspace(t_start, t_end, steps)
    fids, leaks = scan(ts)
    t_best, f_best = float(ts[np.argmax(fids)]), float(np.max(fids))
    for _ in range(_ZOOM_ROUNDS):
        best = int(np.argmin(leaks))
        ts = np.linspace(ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)], _ZOOM_POINTS)
        fids, leaks = scan(ts)
    best = int(np.argmin(leaks))
    if fids[best] >= f_best:
        t_best, f_best = float(ts[best]), float(fids[best])
    return t_best, f_best


def __getattr__(name: str):
    # Twin of the u_minus_s_block import shim in evolution.py, to go with it
    # when the benchmark's trace list changes: perfbench/spans.py wraps the
    # name analysis.optimize.minimize_scalar, which nothing here calls. Looking
    # the name up imports scipy.optimize; importing this module does not.
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _product_amplitudes(state: TwoModeState) -> np.ndarray:
    """Mode-1 amplitudes of a |phi> (x) |0> state; rejects anything else."""
    if state.table[:, 1:].any():
        raise ValueError("state is not of product form |phi> (x) |0>")
    return state.table[:, 0]


def _wrap_phase(delta: float) -> float:
    """Map a phase difference into [-pi, pi]."""
    return math.remainder(delta, math.tau)
