"""Exchange diagnostics for the coupled pair.

Covers the exchange times, transfer probability profiles, reduced density
matrices, exchange fidelity, the statistics-exchange report, and the
frequency-ratio condition under which a C0 |0> + CN |N> superposition is
exchanged exactly.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DecoupledSystemError,
    MixingParams,
    NumericalIntegrityError,
    TwoModeState,
    _freeze,
    product_amplitudes,
)
from .evolution import EvolutionOperator

# Not used here. perfbench/spans.py wraps the name analysis.make_product_state,
# so it stays importable until the benchmark's trace list changes.
from .core import make_product_state  # noqa: F401

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
_DEFECT_BLOCK = 1 << 16  # entries of rho - rho^H that check_densities holds at once
_AMPLITUDE_FLOOR = 1e-12
# find_exchange_time's refinement: each round evaluates the bracket at
# _ZOOM_POINTS times in one batched call and narrows it to the two grid steps
# around the best, a factor (_ZOOM_POINTS - 1) / 2 = 32. After _ZOOM_ROUNDS
# rounds the last grid's step is 32**-2 / 64 of the coarse bracket, and the
# vertex of the leak's parabola through its least point finishes the search;
# with one round the vertex lands more than 4 eps below the peak of F.
_ZOOM_POINTS = 65
_ZOOM_ROUNDS = 2


class NonPositiveRatioError(ValueError):
    """The requested exchange condition has no positive frequency ratio."""


def check_densities(rho: np.ndarray) -> np.ndarray:
    """Raise :class:`NumericalIntegrityError` unless every density matrix in
    ``rho`` (one matrix, or a stack of them over leading axes) is Hermitian,
    has unit trace and no eigenvalue below the floor. NaN fails every check.

    Returns the Hermitian part ``0.5 (rho + rho^H)``, whose eigenvalues are
    the ones checked. The Hermiticity defect and the trace are those of
    ``rho`` itself. The floor is tested by one Cholesky factorization of the
    stack shifted by it, which succeeds iff every shifted matrix is
    positive definite; only where it fails does ``eigvalsh`` decide, and
    name the lowest eigenvalue.

    Beside ``rho`` it holds the result, built in place from ``rho^H``, and
    the factor: the defect is taken a block of rows at a time, and the shift
    is made on the result's own diagonal, which is restored after.
    """
    hermitian = np.conjugate(rho.swapaxes(-1, -2), out=np.empty(rho.shape, rho.dtype))
    rows = max(1, _DEFECT_BLOCK // max(1, rho[..., :1, :].size))
    herm = float(np.max([np.max(np.abs(rho[..., i:i + rows, :] - hermitian[..., i:i + rows, :]))
                         for i in range(0, rho.shape[-2], rows)]))  # NaN anywhere gives NaN
    if not herm <= _HERMITICITY_TOL:
        raise NumericalIntegrityError(f"density matrix not Hermitian (defect {herm:.3e})")
    traces = np.real(np.trace(rho, axis1=-2, axis2=-1)).ravel()
    trace = float(traces[np.argmax(np.abs(traces - 1.0))])
    if not abs(trace - 1.0) <= _TRACE_TOL:
        raise NumericalIntegrityError(f"density matrix trace is {trace!r}, expected 1")
    hermitian += rho
    hermitian *= 0.5
    dim = rho.shape[-1]
    diagonal = hermitian.reshape(*rho.shape[:-2], dim * dim)[..., ::dim + 1]  # a view
    kept = diagonal.copy()
    diagonal -= _EIGENVALUE_FLOOR
    try:
        np.linalg.cholesky(hermitian)
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    finally:
        diagonal[...] = kept
    if not positive:
        lowest = float(np.min(np.linalg.eigvalsh(hermitian)))
        if not lowest >= _EIGENVALUE_FLOOR:
            raise NumericalIntegrityError(
                f"density matrix has eigenvalue {lowest:.3e} below the floor {_EIGENVALUE_FLOOR}"
            )
    return hermitian


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


def transfer_probability(mix: MixingParams, lam: float, n: int | np.ndarray,
                         t: float | np.ndarray) -> float | np.ndarray:
    """|2 s c sin(lam t / (2 c s))|**(2n), the n-quanta transfer weight ratio,
    at one level ``n`` and time ``t``, or at arrays of them broadcast together."""
    if np.any(np.less(n, 0)):
        raise ValueError(f"n must be >= 0, got {n}")
    if lam > 0 and mix.s > 0:
        half = lam / (2.0 * mix.c * mix.s)
    else:
        half = mix.half_splitting  # decoupled limit; the prefactor is 0 anyway
    amp = 2.0 * mix.s * mix.c * np.sin(half * np.asarray(t, dtype=float))
    # float_power evaluates C's pow, as Python's ** does; numpy's ** may differ by 1 ulp
    return np.float_power(np.abs(amp), 2 * n)


def reduce(state: TwoModeState, mode: int) -> np.ndarray:
    """Partial trace onto one mode, checked by :func:`check_densities`.

    Mode 1: rho[m, m'] = sum_j C[m, j] conj(C[m', j]); symmetrically for
    mode 2. The result, its Hermitian part, is a read-only
    (n_max + 1) x (n_max + 1) array.
    """
    return _freeze(reduced_densities(state.table, mode))


def reduced_densities(tables: np.ndarray, mode: int) -> np.ndarray:
    """:func:`reduce` for a stack of amplitude tables ``tables[k, n1, n2]``:
    the checked density matrices ``rho[k]`` of one mode, each the Hermitian
    part of its partial trace: every lower-triangle entry is exactly the
    conjugate of its upper twin, up to the sign of a zero."""
    return check_densities(_partial_trace(tables, mode))


def _partial_trace(tables: np.ndarray, mode: int) -> np.ndarray:
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if mode == 1:
        return tables @ tables.conj().swapaxes(-1, -2)
    return tables.swapaxes(-1, -2) @ tables.conj()


def exchange_fidelity(state_t: TwoModeState, target_phi: Sequence[complex]) -> float:
    """Squared overlap of the state with |0> (x) |phi|.

    Global-phase invariant: equals 1 iff the state is |0> (x) |phi> up to
    an overall phase. ``target_phi`` is normalized on input by
    :func:`oscswap.core.product_amplitudes`, so that neither tiny nor huge
    entries lose it; entries beyond the state's n_max are dropped after.
    """
    phi = product_amplitudes(target_phi)
    top = min(len(phi), state_t.n_max + 1)
    # the overlap from the amplitudes on |0, n>
    overlap = state_t.table[:1, :top] @ np.conj(phi[:top])
    return float(_clip_fidelities(np.abs(overlap) ** 2)[0])


def exchange_fidelities(
    phi: np.ndarray, evo: EvolutionOperator, ts: Sequence[float] | np.ndarray
) -> np.ndarray:
    """:func:`exchange_fidelity` of the product state |phi> (x) |0>, ``phi``
    normalized, evolved to every time in ``ts`` with phi as its own target,
    in closed form: |sum_n p_n T^n|^2 with p_n = |phi_n|^2 and T the
    single-quantum transfer amplitude. O(n_max) per time, no table; no times give shape (0,).
    """
    return np.concatenate([
        _clip_fidelities(np.abs(hops @ np.abs(phi) ** 2) ** 2)
        for *_, hops in evo.product_hops(phi, ts)
    ] or [np.empty(0)])


def _clip_fidelities(fid: np.ndarray) -> np.ndarray:
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
    phi: np.ndarray, evo: EvolutionOperator, t: float
) -> ExchangeReport:
    """Evolve the product state |phi> (x) |0>, ``phi`` normalized, to time t
    and grade the exchange: the one-time case of :func:`statistics_exchanges`."""
    fid, stats, defect = statistics_exchanges(phi, evo, [t])[0].tolist()
    return ExchangeReport(
        time=t, fidelity_exchange=fid, statistics_match=stats, phase_defect=defect
    )


def statistics_exchanges(
    phi: np.ndarray, evo: EvolutionOperator, ts: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Grade the exchange of the product state |phi> (x) |0>, ``phi``
    normalized, at every time in ``ts``, in closed form: the amplitude on
    |0, n> is phi_n T^n, T as ``product_hops`` yields it. Row k of the
    (len(ts), 3) result is (fidelity_exchange, statistics_match, phase_defect) at ``ts[k]``.

    statistics_match is the worst mismatch of the moduli |phi_n T^n| and
    |phi_n|; it vanishes at every exchange time on resonance. phase_defect
    is the worst wrap-aware deviation of the phases of phi_n T^n from
    arg(phi_n) + n arg(T), the phase kick of n transferred quanta, taken
    only where both moduli are at least 1e-12 (phases of vanishing
    amplitudes are meaningless). On the closed form the two agree by
    construction, so phase_defect is a rounding-level consistency figure;
    the exchange suite compares all three grades with eigen-path tables.
    """
    return np.concatenate([
        grade_exchanges(phi, np.multiply(phi, hops, out=hops), hop)
        for _, _, hop, hops in evo.product_hops(phi, ts)  # the powers become the amplitudes
    ] or [np.empty((0, 3))])


def grade_exchanges(phi: np.ndarray, swapped: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """:func:`statistics_exchanges`' rows from the amplitudes ``swapped[k, n]``
    on |0, n> of the normalized product state |phi> (x) |0> evolved to some
    times, at which ``hop[k]`` is the single-quantum transfer amplitude.
    Beside ``swapped`` it holds two real arrays of its shape, each reused in place."""
    modulus, phi_modulus = np.abs(swapped), np.abs(phi)
    graded = (modulus >= _AMPLITUDE_FLOOR) & (phi_modulus >= _AMPLITUDE_FLOOR)
    work = np.subtract(modulus, phi_modulus)
    stats = np.max(np.abs(work, out=work), axis=1)
    # the phase defect arg(swapped) - (arg(phi) + n arg(hop)), wrapped into [-pi, pi]
    delta = np.arctan2(swapped.imag, swapped.real, out=modulus)  # np.angle
    kick = np.multiply(np.angle(hop)[:, np.newaxis], np.arange(len(phi)), out=work)
    delta -= np.add(np.angle(phi), kick, out=kick)
    turns = np.round(np.divide(delta, math.tau, out=kick), out=kick)
    wrapped = np.abs(np.subtract(delta, np.multiply(math.tau, turns, out=turns), out=delta),
                     out=delta)
    np.copyto(wrapped, 0.0, where=np.logical_not(graded, out=graded))  # vanishing amplitudes
    defects = np.max(wrapped, axis=1)
    fids = _clip_fidelities(np.abs(swapped @ np.conj(phi)) ** 2)
    return np.column_stack([fids, stats, defects])


def coarse_scan_step(mix: MixingParams, lam: float) -> float:
    """The coarse step of :func:`find_exchange_time`'s scan,
    pi / (50 max(lambda, half_splitting)). The transfer modulus oscillates at
    the half splitting, which is at least lambda, so 50 points per half
    period keep the scan free of aliasing. The step underflows to 0 once
    that maximum is above about 3.6e306."""
    return math.pi / (50.0 * max(lam, mix.half_splitting))


def find_exchange_time(
    evo: EvolutionOperator,
    phi: Sequence[complex],
    t_start: float,
    t_end: float,
) -> tuple[float, float]:
    """Numerically locate the time of maximal exchange fidelity in a window.

    ``phi`` is normalized by :func:`~oscswap.core.product_amplitudes`. In
    the decoupled limit F is constant, and t_start is returned from one
    evaluation. Otherwise a coarse grid scan at the step
    :func:`coarse_scan_step` (a step that underflows to 0 raises
    ``ValueError``), then two zoom rounds, each evaluating the two grid steps
    around the best point again at 65 times. Each grid costs O(n_max) per
    time, from the one S and T per time that ``product_hops`` yields. The
    zoom follows the least leak
    1 - F = sum_n p_n (1 - |T|^{2n}) + sum_n p_n |T^n - O|^2, O = sum_n p_n T^n:
    nonnegative terms, which keep their relative precision where F rounds
    to 1; the first sum takes |T|^2 as 1 - |S|^2. The search ends at the
    vertex t_b + (w / 2) (L_{b-1} - L_{b+1}) / (L_{b-1} - 2 L_b + L_{b+1}) of
    the parabola through the last grid's least leak L_b and its two
    neighbours, w that grid's step, evaluated like a grid of one time and
    kept only if its leak is not above L_b; it is skipped where b ends the
    grid or the curvature is not positive. F = |O|^2 is graded on the coarse
    grid and at the refined point only, the two that read it: the refined
    point is returned if its F is at least the coarse grid's best, else that
    grid point is. Useful off resonance and away from the exact-exchange
    frequency condition, where no closed-form optimum exists. Returns ``(t_best, fidelity_best)``.
    """
    if not t_end > t_start:
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    target = product_amplitudes(phi)
    weights = np.abs(target) ** 2
    levels = np.arange(1, len(target))

    def scan(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Overlap O and leak at every time of ``ts``."""
        overlaps, leaks = [], []
        for _, stay, _, hops in evo.product_hops(target, ts):
            overlap = hops @ weights
            # 1 - |T|^{2n} = 1 - (1 - |S|^2)^n, with |S|^2 from S
            survival = np.minimum(np.abs(stay) ** 2, 1.0)
            hops -= overlap[:, np.newaxis]  # in place, and each array freed once read
            spread = np.abs(hops)
            del hops
            with np.errstate(divide="ignore"):
                lost = -np.expm1(np.outer(np.log1p(-survival), levels))
            leaks.append(lost @ weights[1:] + (spread * spread) @ weights)
            del spread, lost
            overlaps.append(overlap)
        return np.concatenate(overlaps), np.concatenate(leaks)

    if evo.params.is_decoupled:  # T = 0, so F = p_0^2 at every time
        return float(t_start), float(_clip_fidelities(np.abs(scan(np.array([t_start]))[0]) ** 2)[0])
    step = coarse_scan_step(evo.mix, evo.params.lam)
    if not step > 0.0:
        raise ValueError(f"need a coarse step > 0, got {step!r}")
    ts = np.linspace(t_start, t_end, max(3, int(math.ceil((t_end - t_start) / step)) + 1))
    overlaps, leaks = scan(ts)
    fids = _clip_fidelities(np.abs(overlaps) ** 2)
    t_best, f_best = float(ts[np.argmax(fids)]), float(np.max(fids))
    for _ in range(_ZOOM_ROUNDS):
        best = int(np.argmin(leaks))
        ts = np.linspace(ts[max(best - 1, 0)], ts[min(best + 1, len(ts) - 1)], _ZOOM_POINTS)
        overlaps, leaks = scan(ts)
    best = int(np.argmin(leaks))
    t_zoom, overlap = ts[best:best + 1], overlaps[best:best + 1]
    if 0 < best < len(ts) - 1:
        below, least, above = leaks[best - 1:best + 2]
        curvature = below - 2.0 * least + above  # > 0 unless NaN: below > least <= above
        if curvature > 0.0:  # and |below - above| <= curvature: within half a step of t_zoom
            t_vertex = t_zoom + 0.5 * (ts[1] - ts[0]) * (below - above) / curvature
            vertex, leak = scan(t_vertex)
            if leak[0] <= least:
                t_zoom, overlap = t_vertex, vertex
    f_zoom = float(_clip_fidelities(np.abs(overlap) ** 2)[0])
    if f_zoom >= f_best:
        t_best, f_best = float(t_zoom[0]), f_zoom
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

