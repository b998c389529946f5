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
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

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
from .suites import SUITE_NAMES

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
_OPENERS_LIMIT = 10_000  # of '[', '{' and '- ': bounds input size; 1001 "- [re, im]" use 2002
# Containers open at once. The parsers' time grows faster than linearly with
# nesting (the pure-Python one took 20 s over 9999 levels), and the reader
# pulls events lazily, so refusing the first container past it caps the cost.
_DEPTH_LIMIT = 100
_STR, _INT, _FLOAT, _SEQ, _MAP, _MERGE_TAG, _VALUE_TAG = (
    f"tag:yaml.org,2002:{name}" for name in ("str", "int", "float", "seq", "map", "merge", "value"))
_MERGE = object()  # a merge key (<<) waiting for its value
# Plain scalars the resolver tags float (a subset of its pattern, tried before int's;
# the exponent's sign is required, so 1e5 is a str) and, in the group, int
_PLAIN_NUMBER = re.compile(
    r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?|([1-9][0-9]*)").fullmatch

# Cost budget checked at parse time, so that no scenario runs without bound.
# Closed forms cost O(n_max), or O(n_max**2) for the number distributions, per
# time point, and reduced_density O(n_max**3): the field and CSV-cell limits
# bound every run to seconds (2 reduced_density steps at n_max 1000 take 6-8 s).
_K_MAX_LIMIT = 1000
_STEPS_LIMIT = 100_000
_N_MAX_LIMIT = 1000
_CSV_CELLS_LIMIT = 10_000_000  # steps x the columns of each requested CSV output


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
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("(file)", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError("(file)", f"not UTF-8 text: {exc}") from exc
    openers = sum(map(text.count, ("[", "{", "- ")))
    if openers > _OPENERS_LIMIT:
        raise ScenarioError(
            "(file)", f"has {openers} of '[', '{{' and '- ', above the limit {_OPENERS_LIMIT}")
    try:
        return parse_scenario(_read_yaml(text))
    except yaml.YAMLError as exc:
        raise ScenarioError("(file)", f"not valid YAML: {exc}") from exc
    except RecursionError:  # the repr, in an error message, of a value ~1000 aliases deep
        raise ScenarioError("(file)", "nested too deeply to parse") from None


def _read_yaml(text: str) -> object:
    """The one document in ``text`` (None if none) as ``yaml.load(text, yaml.SafeLoader)``
    builds it, in one loop over the parser's events (libyaml's where PyYAML has it). A plain
    untagged ``_PLAIN_NUMBER`` goes to float() or int() as the resolver would tag it, unresolved."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    get_event, resolve, plain_number = loader.get_event, loader.resolve, _PLAIN_NUMBER
    scalar, stream_end, seq_start, seq_end, map_start, map_end = (
        yaml.ScalarEvent, yaml.StreamEndEvent, yaml.SequenceStartEvent, yaml.SequenceEndEvent,
        yaml.MappingStartEvent, yaml.MappingEndEvent)
    anchors, items = {}, []  # items: where the next value goes, a mapping's keys and values in turn
    document, stack = items, [(items, items, None)]  # open containers: (object, items, start event)
    try:
        while (kind := type(event := get_event())) is not stream_end:
            if kind is scalar:
                value, tag = event.value, event.tag
                try:  # a plain decimal number or a str directly, others by SafeLoader's constructor
                    if tag is None and event.implicit[0] and (number := plain_number(value)):
                        tag = _INT if number.lastindex else _FLOAT  # as the resolver tags it
                        value = int(value) if number.lastindex else float(value)
                    else:
                        if tag is None or tag == "!":
                            tag = resolve(yaml.ScalarNode, value, event.implicit)
                        if tag in (_MERGE_TAG, _VALUE_TAG) and items is not stack[-1][0] \
                                and not len(items) % 2:  # a mapping's key, as flatten_mapping does
                            value = _MERGE if tag == _MERGE_TAG else value
                        elif tag != _STR:
                            value = loader.construct_document(
                                yaml.ScalarNode(tag, value, event.start_mark, event.end_mark))
                except (ValueError, LookupError, AttributeError) as exc:  # !!float abc, !!int 1.5
                    raise _refused(f"cannot read as {tag}: {exc}", event) from None
                items.append(value)
            elif kind is seq_start or kind is map_start:
                if len(stack) > _DEPTH_LIMIT:  # the document's entry and the open containers
                    raise _refused(f"nested more than {_DEPTH_LIMIT} containers deep", event)
                value = [] if kind is seq_start else {}
                if event.tag not in (None, "!", _SEQ if kind is seq_start else _MAP):
                    raise _refused(f"cannot read a collection tagged {event.tag}", event)  # !!set
                items = value if kind is seq_start else []
                stack.append((value, items, event))
            elif kind is seq_end or kind is map_end:
                if kind is map_end:
                    _fill_mapping(stack)
                value = stack.pop()[0]
                items = stack[-1][1]
                items.append(value)
                continue
            elif kind is yaml.AliasEvent:
                if event.anchor not in anchors:
                    raise _refused(f"found undefined alias {event.anchor!r}", event)
                items.append(anchors[event.anchor])
                continue
            elif kind is yaml.DocumentStartEvent and document:
                raise _refused("expected a single document, but found another", event)
            else:  # the stream's start, a document's start or end
                continue
            if event.anchor is not None:  # a scalar's or an opening container's name
                if event.anchor in anchors or value is _MERGE:
                    raise _refused(f"found anchor {event.anchor!r} twice or on a merge key", event)
                anchors[event.anchor] = value
    finally:
        loader.dispose()
    return document[0] if document else None


def _fill_mapping(stack: list) -> None:
    """Fill the innermost open mapping as SafeConstructor.flatten_mapping does."""
    mapping, items, opened = stack[-1]
    pairs = list(zip(items[::2], items[1::2]))
    for merged in (value for key, value in pairs if key is _MERGE):  # first, each merge key's
        for src in merged[::-1] if type(merged) is list else [merged]:  # mappings, last to first
            if type(src) is not dict or any(f[0] is merged or f[0] is src for f in stack):
                raise _refused("expected complete mappings for merging", opened)
            mapping.update(src)
    try:
        mapping.update(pair for pair in pairs if pair[0] is not _MERGE)  # then its own pairs
    except TypeError:  # a list or mapping as a key
        raise _refused("found unhashable key", opened) from None


def _refused(problem: str, event: yaml.Event) -> yaml.YAMLError:
    return yaml.MarkedYAMLError(problem=problem, problem_mark=event.start_mark)


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
    if n_max > _N_MAX_LIMIT:
        default_note = "" if n_max_field == "n_max" else " (n_max defaults to the initial support)"
        raise ScenarioError(
            n_max_field, f"n_max = {n_max} is above the limit {_N_MAX_LIMIT}{default_note}"
        )
    if schedule.kind == "exchange_scan":
        _check_exchange_window(params, schedule.k_max)
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
    """Reject a decoupled pair, which exchanges nothing, and couplings whose
    exchange times, the scan window half an exchange period past the last of
    them, or the scan's coarse step are not finite and positive:
    s c pi (2k + 1) / lambda underflows to 0 where the detuning is huge and
    overflows where lambda is tiny, and the step :func:`coarse_scan_step`
    underflows to 0 where lambda or the splitting is above about 3.6e306."""
    if params.lam == 0:
        raise ScenarioError(
            "params.lambda", "must be > 0 for an exchange_scan: exchange times require a coupling"
        )
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


def csv_header(output: str, n_max: int, levels: Sequence[int]) -> Iterator[str]:
    """Column names of a time grid's CSV output ``output`` (one row per time), made lazily in
    pieces that join with ',': a name, or one ``reduced_density`` matrix row of them.
    ``levels`` are the mode-1 levels whose transfer probability ``transfer_profile`` writes.
    """
    dim = n_max + 1
    yield "t"
    if output == "fidelity":
        yield "fidelity"
    elif output == "number_distribution":
        yield from (f"p{mode}_{n}" for mode in (1, 2) for n in range(dim))
    elif output == "reduced_density":  # mode, row, column, then re and im side by side
        columns = [f"{j}_{part}" for j in range(dim) for part in ("re", "im")]
        for prefix in (f"rho{mode}_{i}_" for mode in (1, 2) for i in range(dim)):
            yield prefix + f",{prefix}".join(columns)  # a row's names from one template
    else:
        yield from (f"transfer_prob_{n}" for n in levels)


def csv_width(output: str, n_max: int, levels: Sequence[int]) -> int:
    """The number of names :func:`csv_header` makes, without making them."""
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
        parsed = tuple(  # a pair of floats with a finite sum is finite: read with no field name
            complex(*v) if type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is float
            and math.isfinite(v[0] + v[1]) else _as_complex(v, f"initial.values[{i}]")
            for i, v in enumerate(values))
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
        if suite not in SUITE_NAMES:
            raise ScenarioError("schedule.suite", f"must be one of {SUITE_NAMES}, got {suite!r}")
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
