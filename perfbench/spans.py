"""Span tracing around calls into the oscswap modules, from outside them.

``install`` replaces, for the duration of a ``with`` block, each function at
the attribute name its callers actually look up (``from ... import`` binds a
second name in the importing module, so ``oscswap.evolution.norm`` is wrapped
as well as the module attribute). Nothing inside ``src/`` changes.

Each call records one span: name, start, end, parent span, run id and one
optional integer (the block size of a rotation build, the amplitudes an
evolve call propagated). Spans stay in memory; the worker writes them out
once at the end.
"""

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, run_id, size)
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: int = 0):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id, size)

    def wrap(self, name, fn, size=None):
        """``fn`` recording a span per call; ``name`` and ``size`` may be
        callables of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label, size(*args, **kwargs) if size else 0):
                return fn(*args, **kwargs)

        return traced


def _block_size(mix, n_total, *args, **kwargs):
    return n_total


def _evolved_amplitudes(evo, state, *args, **kwargs):
    return sum(len(block) for block in state.blocks if np.any(block))


def _suite_name(name, *args, **kwargs):
    return f"suites.{name}"


# (module, attribute path, span name, size); the span name's first part is its layer
WRAPS = (
    ("oscswap.cli", "load_scenario", "scenario.load_scenario", None),
    ("oscswap.cli", "build_initial_state", "scenario.build_initial_state", None),
    ("oscswap.cli", "verify_suite", _suite_name, None),
    ("oscswap.cli", "norm", "core.norm", None),
    ("oscswap.evolution", "norm", "core.norm", None),
    ("oscswap.scenario", "make_product_state", "core.make_product_state", None),
    ("oscswap.analysis", "make_product_state", "core.make_product_state", None),
    ("oscswap.suites", "make_product_state", "core.make_product_state", None),
    ("oscswap.evolution", "u_minus_s_block", "rotation.u_minus_s_block", _block_size),
    ("oscswap.suites", "u_minus_s_block", "rotation.u_minus_s_block", _block_size),
    ("oscswap.rotation", "us_block", "rotation.us_block", None),
    ("oscswap.suites", "us_block", "rotation.us_block", None),
    ("oscswap.suites", "us_element", "rotation.us_element", None),
    ("oscswap.suites", "verify_recursions", "rotation.verify_recursions", None),
    ("oscswap.evolution", "EvolutionOperator.__init__", "evolution.operator", None),
    ("oscswap.evolution", "EvolutionOperator.evolve", "evolution.evolve", _evolved_amplitudes),
    ("oscswap.evolution", "EvolutionOperator.ut_block", "evolution.ut_block", None),
    ("oscswap.evolution", "EvolutionOperator.ut_element", "evolution.ut_element", None),
    ("oscswap.analysis", "reduce", "analysis.reduce", None),
    ("oscswap.analysis", "exchange_fidelity", "analysis.exchange_fidelity", None),
    ("oscswap.analysis", "exchange_times", "analysis.exchange_times", None),
    ("oscswap.analysis", "transfer_probability", "analysis.transfer_probability", None),
    ("oscswap.analysis", "find_exchange_time", "analysis.find_exchange_time", None),
    ("oscswap.analysis", "optimize.minimize_scalar", "analysis.minimize_scalar", None),
    ("oscswap.analysis", "verify_statistics_exchange",
     "analysis.verify_statistics_exchange", None),
    ("oscswap.oracle", "compare_to_analytic", "oracle.compare_to_analytic", None),
    ("oscswap.oracle", "expm_evolution", "oracle.expm_evolution", None),
    ("oscswap.oracle", "build_block", "oracle.build_block", None),
    ("oscswap.oracle", "spectrum_deviation", "oracle.spectrum_deviation", None),
)


@contextmanager
def install(tracer: Tracer):
    """Wrap every entry of ``WRAPS`` while the block runs, then restore."""
    saved = []
    try:
        for module, path, name, size in WRAPS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, run_id, size in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


ROOT = "cli.main"
SIZE_BUCKETS = (("n_le_20", 0, 20), ("n_21_40", 21, 40), ("n_41_60", 41, 60))


def layer_metrics(spans: list[tuple], runs: int, suites: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics, each a mean per scenario run unless named per call.

    ``<span>.calls`` counts calls and ``<span>.s`` is self time, except
    ``suites.<name>.s``, which is the suite's whole time. ``<layer>.self_s``
    sums the self time of the layer's spans. The root span of a run is
    ``cli.main``; its self time is serialisation and orchestration.
    """
    names = [ROOT] + [name for *_, name, _ in WRAPS if isinstance(name, str)]
    names += [f"suites.{suite}" for suite in suites]
    totals: dict[str, float] = defaultdict(float)
    for name in names:
        totals[f"{name}.calls"] = totals[f"{name}.s"] = 0.0
        totals[f"{name.split('.')[0]}.self_s"] = 0.0
    amplitudes = 0
    buckets = {label: [] for label, _, _ in SIZE_BUCKETS}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, run_id, size = span
        totals[f"{name}.calls"] += 1
        # a suite is the root of everything it checks, so it reports its whole time
        totals[f"{name}.s"] += end - start if name.startswith("suites.") else own
        totals[f"{name.split('.')[0]}.self_s"] += own
        if name == "evolution.evolve":
            amplitudes += size
        elif name == "rotation.u_minus_s_block":
            for label, low, high in SIZE_BUCKETS:
                if low <= size <= high:
                    buckets[label].append(end - start)
    metrics = {name: value / runs for name, value in totals.items()}
    metrics["evolution.evolve.amplitudes"] = amplitudes / runs
    metrics["evolution.operators"] = metrics["evolution.operator.calls"]
    metrics["cli.main.self_s"] = metrics["cli.main.s"]
    for label, durations in buckets.items():
        metrics[f"rotation.u_minus_s_block.s_per_call.{label}"] = (
            sum(durations) / len(durations) if durations else 0.0
        )
    searches = totals["analysis.find_exchange_time.calls"]
    metrics["analysis.find_exchange_time.evolves_per_call"] = (
        _calls_under(spans, "evolution.evolve", "analysis.find_exchange_time") / searches
        if searches else 0.0
    )
    return metrics


def _calls_under(spans: list[tuple], name: str, ancestor: str) -> int:
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
