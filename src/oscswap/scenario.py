"""Scenario files: a strict YAML key-value schema.

Unknown keys are errors, not warnings, and every validation message names
the offending field, because a silently misspelled physics parameter is
the worst failure mode a simulation front end can have. The full schema
is documented in the repository README.

Complex numbers are written either as a plain number or as a two-element
list ``[re, im]``.
"""

import cmath
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .analysis import coarse_scan_step, exchange_times
from .core import (
    CouplingParams,
    TruncationTooSmallError,
    ZeroVectorError,
    derive_mixing,
    product_amplitudes,
)

# Not used here. perfbench/spans.py wraps the name scenario.make_product_state,
# so it stays importable until the benchmark's trace list changes.
from .core import make_product_state  # noqa: F401

_INITIAL_KINDS = ("fock", "qubit", "amplitudes", "coherent")
_SCHEDULE_KINDS = ("time_grid", "exchange_scan", "verify")
_OUTPUTS_BY_SCHEDULE = {
    "time_grid": ("number_distribution", "reduced_density", "fidelity", "transfer_profile", "report"),
    "exchange_scan": ("report",),
    "verify": ("report",),
}
_DEFAULT_TAIL_THRESHOLD = 1e-10
_HALF_LOG_TAU = 0.5 * math.log(2.0 * math.pi)

# Cost budget checked at parse time, so that no scenario runs without bound.
# Product states evolve in closed form, so the fidelity, the transfer profile
# and the exchange scan cost O(n_max) per time point: the n_max + 1 powers
# T^n. The field limits bound that work to 100000 x 1001 for a time grid and
# (51 x 1001 + 390) x 1001 for an exchange scan (its coarse grid and zoom),
# far below the work limit. Only the density outputs build amplitude tables,
# (n_max + 1)**2 entries per time point, and add per mode a partial trace and
# a positivity check of an (n_max + 1)-square matrix: (n_max + 1)**3 each,
# plus a fixed amount for LAPACK's poorer speed on small matrices. The
# weights were set when the check was an eigvalsh, which costs more than the
# Cholesky factorization that decides it now. The density work is weighed as
# 3 (n_max + 1)**3 per time point, tables included, and the density outputs
# keep the lower truncation limit of the cubic work.
_K_MAX_LIMIT = 1000
_STEPS_LIMIT = 100_000
_N_MAX_LIMIT = 1000
_DENSITY_N_MAX_LIMIT = 200
_DENSITY_OUTPUTS = ("number_distribution", "reduced_density")
_CSV_CELLS_LIMIT = 10_000_000  # steps x the columns of each requested CSV output
_GRID_WORK_LIMIT = 2 * 10**10  # time points x the density work per point below
_DENSITY_POINT_WORK = 500_000


class ScenarioError(ValueError):
    """Invalid scenario content; ``field`` is the offending key path."""

    def __init__(self, field: str, message: str):
        super().__init__(f'scenario field "{field}": {message}')
        self.field = field


@dataclass(frozen=True)
class InitialSpec:
    kind: str
    n: int | None = None
    c0: complex | None = None
    cn: complex | None = None
    values: tuple[complex, ...] | None = None
    alpha: complex | None = None
    truncation: int | None = None

    @property
    def support(self) -> tuple[int, str]:
        """Highest mode-1 Fock index the initial state can occupy, and the field that sets it."""
        if self.kind == "amplitudes":
            return len(self.values) - 1, "initial.values"
        if self.kind == "coherent":
            return self.truncation, "initial.truncation"
        return self.n, "initial.n"


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    t_start: float | None = None
    t_end: float | None = None
    steps: int | None = None
    k_max: int | None = None
    suite: str | None = None


@dataclass(frozen=True)
class Scenario:
    params: CouplingParams
    initial: InitialSpec
    schedule: ScheduleSpec
    outputs: tuple[str, ...]
    n_max: int
    coherent_tail_threshold: float


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError("(file)", f"cannot read {path}: {exc}") from exc
    # libyaml's parser where PyYAML was built with it: about 10x faster than
    # the pure-Python SafeLoader, with the same results
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        raw = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ScenarioError("(file)", f"not valid YAML: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: object) -> Scenario:
    top = _as_mapping(raw, "(top level)")
    params = _parse_params(_take(top, "params", "(top level)"))
    initial = _parse_initial(_take(top, "initial", "(top level)"))
    schedule = _parse_schedule(_take(top, "schedule", "(top level)"))
    n_max = None
    if "n_max" in top:
        n_max = _as_int(top.pop("n_max"), "n_max", minimum=0)
    outputs = _parse_outputs(top.pop("outputs", []), schedule.kind)
    threshold = _DEFAULT_TAIL_THRESHOLD
    if "coherent_tail_threshold" in top:
        threshold = _as_number(top.pop("coherent_tail_threshold"), "coherent_tail_threshold")
        if threshold <= 0:
            raise ScenarioError("coherent_tail_threshold", "must be positive")
    _reject_unknown(top, "(top level)")

    n_max_field = "n_max"
    if schedule.kind != "verify":
        support, support_field = initial.support
        if n_max is None:  # the user owns the truncation; never auto-raised
            n_max, n_max_field = support, support_field
        if support > n_max:
            raise ScenarioError(
                "n_max", f"initial state has support on n = {support} but n_max = {n_max}"
            )
    else:
        n_max = n_max if n_max is not None else 0
    densities = [name for name in _DENSITY_OUTPUTS if name in outputs]
    limit = _DENSITY_N_MAX_LIMIT if densities else _N_MAX_LIMIT
    if n_max > limit:
        default_note = "" if n_max_field == "n_max" else " (n_max defaults to the initial support)"
        with_outputs = f" with outputs {', '.join(densities)}" if densities else ""
        raise ScenarioError(
            n_max_field,
            f"n_max = {n_max} is above the limit {limit}{with_outputs}{default_note}",
        )
    if schedule.kind == "exchange_scan" and params.lam > 0:
        _check_exchange_window(params, schedule.k_max)
    if densities:  # only a time grid has them
        work = schedule.steps * (3 * (n_max + 1) ** 3 + _DENSITY_POINT_WORK)
        if work > _GRID_WORK_LIMIT:
            raise ScenarioError(
                "schedule.steps",
                f"{schedule.steps} time points x (3 (n_max + 1)**3 + {_DENSITY_POINT_WORK})"
                f" = {work} is above the limit {_GRID_WORK_LIMIT}; lower it or n_max = {n_max}",
            )
    if schedule.kind == "time_grid":
        # transfer_profile counted at its widest, before the initial state is built
        levels = range(1, support + 1)
        columns = sum(csv_width(name, n_max, levels) for name in outputs if name != "report")
        cells = schedule.steps * columns
        if cells > _CSV_CELLS_LIMIT:
            raise ScenarioError(
                "outputs",
                f"would write {cells} CSV cells ({schedule.steps} steps), above the limit"
                f" {_CSV_CELLS_LIMIT}; request fewer outputs or steps",
            )
    return Scenario(
        params=params,
        initial=initial,
        schedule=schedule,
        outputs=outputs,
        n_max=n_max,
        coherent_tail_threshold=threshold,
    )


def _check_exchange_window(params: CouplingParams, k_max: int) -> None:
    """Reject couplings whose exchange times, the scan window half an
    exchange period past the last of them, or the scan's coarse step are not
    finite and positive: s c pi (2k + 1) / lambda underflows to 0 where the
    detuning is huge and overflows where lambda is tiny, and the step
    :func:`coarse_scan_step` underflows to 0 where lambda or the splitting is
    above about 3.6e306."""
    mix = derive_mixing(params)
    taus = exchange_times(mix, params.lam, k_max)
    window_end = taus[-1] + taus[0]
    step = coarse_scan_step(mix, params.lam)
    if not (taus[0] > 0.0 and math.isfinite(window_end) and step > 0.0):
        raise ScenarioError(
            "params",
            f"exchange times s c pi (2k + 1) / lambda from {taus[0]!r} to {taus[-1]!r},"
            f" a scan window ending at {window_end!r} and a scan step of {step!r}"
            " must be finite and positive; params.omega1 - params.omega2 is too large"
            " for params.lambda, or params.lambda is too small or too large",
        )


def csv_header(output: str, n_max: int, levels: Sequence[int]) -> list[str]:
    """Column names of a time grid's CSV output ``output``, one row per time.

    ``levels`` are the mode-1 levels whose transfer probability
    ``transfer_profile`` writes.
    """
    dim = n_max + 1
    if output == "fidelity":
        return ["t", "fidelity"]
    if output == "number_distribution":
        return ["t"] + [f"p{mode}_{n}" for mode in (1, 2) for n in range(dim)]
    if output == "reduced_density":
        # mode, row, column, then re and im side by side
        return ["t"] + [
            f"rho{mode}_{i}_{j}_{part}"
            for mode in (1, 2) for i in range(dim) for j in range(dim) for part in ("re", "im")
        ]
    return ["t"] + [f"transfer_prob_{n}" for n in levels]


def csv_width(output: str, n_max: int, levels: Sequence[int]) -> int:
    """``len(csv_header(output, n_max, levels))``, without building the names."""
    dim = n_max + 1
    return 1 + {"fidelity": 1, "number_distribution": 2 * dim,
                "reduced_density": 4 * dim * dim}.get(output, len(levels))


def build_initial_state(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Construct the initial product state |phi> (x) |0>.

    Returns ``(phi, discarded)`` with ``phi`` the normalized mode-1
    amplitudes padded to n_max + 1 (:func:`~oscswap.core.product_amplitudes`)
    and ``discarded`` the coherent-state tail probability dropped by the
    truncation (zero for the other kinds). A tail above the scenario
    threshold is an error.
    """
    init = scenario.initial
    discarded = 0.0
    if init.kind == "fock":
        phi = np.zeros(init.n + 1, dtype=np.complex128)
        phi[init.n] = 1.0
    elif init.kind == "qubit":
        phi = np.zeros(init.n + 1, dtype=np.complex128)
        phi[0] = init.c0
        phi[init.n] = init.cn
    elif init.kind == "amplitudes":
        phi = np.asarray(init.values, dtype=np.complex128)
    else:
        try:
            intensity = abs(init.alpha) ** 2
        except OverflowError:
            raise ScenarioError(
                "initial.alpha", f"|alpha|**2 overflows a double for alpha = {init.alpha}"
            ) from None
        n = np.arange(init.truncation + 1)
        weights = np.exp(_poisson_log_weights(intensity, n))
        if init.truncation >= math.floor(intensity):
            # at or above the mode the terms beyond fall monotonically; 40
            # standard deviations on, they are below 1e-100 of the first
            beyond = n[-1] + np.arange(1, 42 + math.ceil(40.0 * math.sqrt(intensity)))
            discarded = float(np.sum(np.exp(_poisson_log_weights(intensity, beyond))))
        else:  # below the mode the tail is large, and 1 - kept loses no digit of note
            discarded = max(0.0, 1.0 - float(np.sum(weights)))
        phi = np.sqrt(weights) * np.exp(1j * cmath.phase(init.alpha) * n)
        if discarded > scenario.coherent_tail_threshold:
            raise ScenarioError(
                "initial.truncation",
                f"discarded coherent tail probability {discarded:.6e} exceeds the"
                f" threshold {scenario.coherent_tail_threshold:.6e}; raise the truncation",
            )
    try:
        return product_amplitudes(phi, n_max=scenario.n_max), discarded
    except (ZeroVectorError, TruncationTooSmallError) as exc:
        raise ScenarioError("initial", str(exc)) from exc


def _poisson_log_weights(mean: float, n: np.ndarray) -> np.ndarray:
    """log(e^-mean mean^n / n!) = n log(mean) - mean - lgamma(n + 1) at the
    integers ``n`` >= 0, for mean >= 0.

    It is evaluated in Loader's saddle-point form, -log(2 pi n) / 2 -
    stirlerr(n) - bd0(n, mean) (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000). Near n = mean = 1000 the plain form
    cancels terms of about 7000 and loses up to 1e-12 of a weight; there the
    largest term of this one is log(2 pi n) / 2, about 4.
    """
    n = np.asarray(n, dtype=float)
    k = np.maximum(n, 1.0)  # n = 0 gives -mean, set at the end
    # stirlerr(k) = lgamma(k + 1) - (k + 1/2) log k + k - log(2 pi) / 2, from
    # its asymptotic series above 15 and from lgamma below
    r = 1.0 / (k * k)
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / k
    low = k <= 15
    stirlerr[low] = [
        math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - _HALF_LOG_TAU for x in k[low]
    ]
    # bd0(k, mean) = k log(k / mean) + mean - k >= 0, by its series in
    # v = (k - mean) / (k + mean) where k is near mean; infinite at mean 0
    with np.errstate(divide="ignore"):
        bd0 = k * np.log(k / mean) + mean - k
    d = k - mean
    v = d / (k + mean)
    near = np.abs(v) < 0.1
    v, term = v[near], 2.0 * k[near] * v[near]
    series = d[near] * v
    for j in range(1, 9):  # v**2 < 0.01, so eight terms reach 1e-16 of the sum
        term = term * v * v
        series = series + term / (2 * j + 1)
    bd0[near] = series
    return np.where(n > 0, -_HALF_LOG_TAU - 0.5 * np.log(k) - stirlerr - bd0, -mean)


def _parse_params(raw: object) -> CouplingParams:
    mapping = _as_mapping(raw, "params")
    omega1 = _as_number(_take(mapping, "omega1", "params"), "params.omega1")
    omega2 = _as_number(_take(mapping, "omega2", "params"), "params.omega2")
    lam = _as_number(_take(mapping, "lambda", "params"), "params.lambda")
    _reject_unknown(mapping, "params")
    if lam < 0:
        raise ScenarioError("params.lambda", f"must be >= 0, got {lam}")
    try:
        params = CouplingParams(omega1=omega1, omega2=omega2, lam=lam)
        if lam > 0:
            derive_mixing(params)  # the detuning can overflow even when the inputs do not
    except ValueError as exc:
        raise ScenarioError("params", str(exc)) from exc
    return params


def _parse_initial(raw: object) -> InitialSpec:
    mapping = _as_mapping(raw, "initial")
    kind = _take(mapping, "kind", "initial")
    if kind not in _INITIAL_KINDS:
        raise ScenarioError("initial.kind", f"must be one of {_INITIAL_KINDS}, got {kind!r}")
    if kind == "fock":
        n = _as_int(_take(mapping, "n", "initial"), "initial.n", minimum=0)
        spec = InitialSpec(kind=kind, n=n)
    elif kind == "qubit":
        c0 = _as_complex(_take(mapping, "c0", "initial"), "initial.c0")
        cn = _as_complex(_take(mapping, "cn", "initial"), "initial.cn")
        n = _as_int(_take(mapping, "n", "initial"), "initial.n", minimum=1)
        if c0 == 0 and cn == 0:
            raise ScenarioError("initial.c0", "c0 and cn cannot both be zero")
        spec = InitialSpec(kind=kind, n=n, c0=c0, cn=cn)
    elif kind == "amplitudes":
        values = _take(mapping, "values", "initial")
        if not isinstance(values, list) or not values:
            raise ScenarioError("initial.values", "must be a nonempty list")
        parsed = tuple(
            _as_complex(v, f"initial.values[{i}]") for i, v in enumerate(values)
        )
        if all(v == 0 for v in parsed):
            raise ScenarioError("initial.values", "all amplitudes are zero")
        spec = InitialSpec(kind=kind, values=parsed)
    else:
        alpha = _as_complex(_take(mapping, "alpha", "initial"), "initial.alpha")
        truncation = _as_int(
            _take(mapping, "truncation", "initial"), "initial.truncation", minimum=0
        )
        spec = InitialSpec(kind=kind, alpha=alpha, truncation=truncation)
    _reject_unknown(mapping, "initial")
    return spec


def _parse_schedule(raw: object) -> ScheduleSpec:
    mapping = _as_mapping(raw, "schedule")
    kind = _take(mapping, "kind", "schedule")
    if kind not in _SCHEDULE_KINDS:
        raise ScenarioError("schedule.kind", f"must be one of {_SCHEDULE_KINDS}, got {kind!r}")
    if kind == "time_grid":
        t_start = _as_number(_take(mapping, "t_start", "schedule"), "schedule.t_start")
        t_end = _as_number(_take(mapping, "t_end", "schedule"), "schedule.t_end")
        steps = _as_int(_take(mapping, "steps", "schedule"), "schedule.steps", minimum=1)
        if steps > _STEPS_LIMIT:
            raise ScenarioError("schedule.steps", f"must be <= {_STEPS_LIMIT}, got {steps}")
        if t_end < t_start:
            raise ScenarioError("schedule.t_end", f"must be >= t_start = {t_start}, got {t_end}")
        spec = ScheduleSpec(kind=kind, t_start=t_start, t_end=t_end, steps=steps)
    elif kind == "exchange_scan":
        k_max = _as_int(_take(mapping, "k_max", "schedule"), "schedule.k_max", minimum=0)
        if k_max > _K_MAX_LIMIT:
            raise ScenarioError("schedule.k_max", f"must be <= {_K_MAX_LIMIT}, got {k_max}")
        spec = ScheduleSpec(kind=kind, k_max=k_max)
    else:
        suite = _take(mapping, "suite", "schedule")
        if not isinstance(suite, str):
            raise ScenarioError("schedule.suite", f"must be a string, got {suite!r}")
        spec = ScheduleSpec(kind=kind, suite=suite)
    _reject_unknown(mapping, "schedule")
    return spec


def _parse_outputs(raw: object, schedule_kind: str) -> tuple[str, ...]:
    if not isinstance(raw, list):
        raise ScenarioError("outputs", f"must be a list, got {raw!r}")
    allowed = _OUTPUTS_BY_SCHEDULE[schedule_kind]
    seen = []
    for i, entry in enumerate(raw):
        if entry not in allowed:
            raise ScenarioError(
                f"outputs[{i}]",
                f"{entry!r} is not available for schedule {schedule_kind!r};"
                f" allowed: {allowed}",
            )
        if entry not in seen:
            seen.append(entry)
    return tuple(seen)


def _as_mapping(raw: object, field: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(field, f"must be a mapping, got {type(raw).__name__}")
    return dict(raw)


def _take(mapping: dict, key: str, parent: str) -> object:
    if key not in mapping:
        field = key if parent == "(top level)" else f"{parent}.{key}"
        raise ScenarioError(field, "is required")
    return mapping.pop(key)


def _reject_unknown(mapping: dict, parent: str) -> None:
    if mapping:
        key = sorted(mapping)[0]
        field = key if parent == "(top level)" else f"{parent}.{key}"
        raise ScenarioError(field, "is not a recognized key")


def _as_number(raw: object, field: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(field, f"must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the range of a double
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(field, f"must be finite, got {raw!r}")
    return value


def _as_int(raw: object, field: str, minimum: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(field, f"must be an integer, got {raw!r}")
    if raw < minimum:
        raise ScenarioError(field, f"must be >= {minimum}, got {raw}")
    return raw


def _as_complex(raw: object, field: str) -> complex:
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ScenarioError(field, f"must be a number or [re, im], got {raw!r}")
    re, im = (_as_number(v, field) for v in parts)
    return complex(re, im)
