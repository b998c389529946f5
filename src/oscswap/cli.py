"""Command-line front end: scenario runs and verification suites.

Outputs are deterministic: identical scenarios produce byte-identical CSV
files (17 significant digits, '.' decimal separator, '\\n' line endings on
every platform). Each cell is what ``"%.17g" % value`` writes. Arrays of at
least ``_ARRAY_MIN_CELLS`` cells are formatted by :func:`_format_cells`,
which computes the same digits with numpy and leaves to ``%`` only the cells
it cannot prove; smaller arrays are formatted by ``%`` throughout.

Each CSV is written as bytes while the run computes it: every chunk of
rows, and within it every ``_CHUNK_CELLS`` cells, goes to its file as soon
as it is formatted, so a run holds one chunk of its output at a time, never
a whole CSV. If a run fails after a CSV is opened (a numerical self-check,
exit 3), every CSV it opened is deleted, so no partial output is left.

:func:`main` may be called any number of times in one process, as a
closed-loop client or a test suite does: it builds its argument parser on
the first call only, and each call parses its own arguments into a fresh
namespace, so nothing carries over from one call to the next.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .core import (
    DecoupledSystemError,
    NumericalIntegrityError,
    TruncationTooSmallError,
    TwoModeState,
    ZeroVectorError,
)
from .evolution import EvolutionOperator, _chunks
from .scenario import Scenario, ScenarioError, build_initial_state, csv_header, load_scenario
from .suites import UnknownSuiteError, verify_suite

# Not used here. perfbench/spans.py wraps the name cli.norm, so it stays
# importable until the benchmark's trace list changes.
from .core import norm  # noqa: F401


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Below this many cells `%` is the faster writer: the array formatter costs
# about 150-200 us per call plus 0.3 us per cell, `%` about 1 us per cell
# (measured on a 2-vCPU x86-64 box: the two meet between 200 and 256 cells).
_ARRAY_MIN_CELLS = 256
_CHUNK_CELLS = 16384
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# 10**p is tabled as hi + lo for these p; a cell of decimal exponent k is
# scaled by 10**(16 - k), and every product and split stays finite and normal
_P_MIN, _P_MAX = -274, 299
_K_MIN = 16 - _P_MAX
# slots of a cell: sign, "0.000" prefix, 17 digits with the point among them,
# "e+308" exponent, separator; an empty slot holds a zero byte
_SLOTS = 30
_AFFIX_SLOTS = np.r_[1:6, 24:29]
_ONE_TO_17 = np.arange(1, 18, dtype=np.uint8)[:, None]
_ZERO_TO_17 = np.arange(18, dtype=np.uint8)[:, None]


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _powers() -> np.ndarray:
    """Rows hi, lo, and the two halves of hi, of 10**p = hi + lo for p = _P_MIN.._P_MAX."""
    table = np.empty((4, _P_MAX - _P_MIN + 1))
    for i, p in enumerate(range(_P_MIN, _P_MAX + 1)):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        table[:2, i] = hi, (num * hi_den - hi_num * den) / (den * hi_den)
    table[2:] = _split(table[0])
    table.setflags(write=False)
    return table


@functools.cache
def _affixes() -> tuple[np.ndarray, np.ndarray]:
    """Per decimal exponent k: the prefix and exponent slots, and the digits before the point."""
    ks = range(_K_MIN, 17 - _P_MIN)
    affix = np.zeros((len(ks), 10), np.uint8)
    lead = np.ones(len(ks), np.uint8)
    for i, k in enumerate(ks):
        text = f"{'':5}e{k:+03d}"  # %g writes k < -4 and k > 16 as exponents
        if -4 <= k <= 16:
            text, lead[i] = ("0." + "0" * (-k - 1), 0) if k < 0 else ("", k + 1)
        affix[i] = np.frombuffer(text.ljust(10).replace(" ", "\0").encode(), np.uint8)
    affix.setflags(write=False)
    lead.setflags(write=False)
    return affix, lead


def _format_cells(values: np.ndarray, seps: np.ndarray) -> bytes:
    """Each value as ``"%.17g" % value`` followed by its separator byte, concatenated.

    The 17 digits are |value| * 10**(16 - k), k = floor(log10|value|),
    rounded to an integer. With 10**(16 - k) as hi + lo, Dekker's split
    product gives |value| * hi exactly, so the scaled value is known to
    within about 1e-14 and rounds right unless its fraction lies within 1e-6
    of a half. Such near-ties, a k that log10 got one off (the scaled value
    then leaves [1e16, 1e17)), nonzero values outside the power table, inf
    and nan are written by ``%``.
    """
    n = len(values)
    a = np.abs(values)
    zero = a == 0
    fast = np.isfinite(a) & ~zero
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.intp)
    slot = 16 - k - _P_MIN
    fast &= (slot >= 0) & (slot <= _P_MAX - _P_MIN)
    slot[~fast] = -_P_MIN
    a[~fast] = 1.0
    hi, lo, hi_head, hi_tail = (row.take(slot) for row in _powers())
    prod = a * hi
    head, tail = _split(a)
    err = ((head * hi_head - prod) + head * hi_tail + tail * hi_head) + tail * hi_tail
    whole = np.floor(prod)
    rest = (prod - whole) + err + a * lo
    rest_floor = np.floor(rest)
    frac = rest - rest_floor
    mantissa = whole.astype(np.int64) + rest_floor.astype(np.int64)
    fast &= (mantissa >= 10**16) & (np.abs(frac - 0.5) > 1e-6)
    mantissa += frac > 0.5
    fast &= mantissa < 10**17
    mantissa[~fast] = 0
    k[~fast] = 0  # a zero is written as the digit 0 at k = 0; the rest of ~fast by `%`

    # digits by halves below 10**9, where float floor division by 10 is exact
    top = mantissa // 10**9
    halves = np.stack([top, mantissa - top * 10**9]).astype(np.float64)
    digits = np.zeros((19, n), np.uint8)  # a pad, the 17 digits, a pad
    for j in range(8, -1, -1):
        tens = np.floor(halves * 0.1)
        np.subtract(halves, 10.0 * tens, out=digits[:18].reshape(2, 9, n)[:, j], casting="unsafe")
        halves = tens
    significant = (_ONE_TO_17 * (digits[1:18] != 0)).max(axis=0)
    affix, lead = _affixes()
    k -= _K_MIN
    lead = lead.take(k)
    digits[1:18] += np.uint8(ord("0"))
    digits[1:18] *= _ONE_TO_17 <= np.maximum(significant, lead)  # zeros after the point go
    # the point goes after `lead` digits when digits follow it; a cell with
    # lead 0 has its point in the prefix
    point = np.where((significant > lead) & (lead > 0), lead, np.uint8(18))
    before = (_ZERO_TO_17 < point).view(np.uint8)
    at = (_ZERO_TO_17 == point).view(np.uint8)
    out = np.empty((n, _SLOTS), np.uint8)
    out[:, 0] = np.signbit(values).view(np.uint8) * np.uint8(ord("-"))
    out[:, _AFFIX_SLOTS] = affix.take(k, axis=0)
    out[:, 6:24] = (digits[1:] * before + digits[:-1] * (1 - before - at)
                    + at * np.uint8(ord("."))).T
    out[:, -1] = seps
    for i in np.flatnonzero(~fast & ~zero):
        text = ("%.17g" % values[i]).encode()  # at most 24 bytes, before the separator
        out[i, :-1] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")


def _csv_rows(rows: np.ndarray):
    """CSV lines of a 2-D array as ASCII byte chunks, every value written as
    :func:`_fmt` writes it.

    Arrays of at least ``_ARRAY_MIN_CELLS`` cells go through
    :func:`_format_cells`, one chunk per ``_CHUNK_CELLS`` cells; smaller
    ones, for which that costs more than it saves, are formatted by ``%``
    directly, as one chunk.
    """
    if rows.size < _ARRAY_MIN_CELLS:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        yield "".join(line % tuple(row) for row in rows.tolist()).encode("ascii")
        return
    values = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    seps = np.full(rows.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.reshape(-1)
    for i in range(0, values.size, _CHUNK_CELLS):
        yield _format_cells(values[i:i + _CHUNK_CELLS], seps[i:i + _CHUNK_CELLS])


class _CsvFiles:
    """The CSV files of one run in ``out_dir``, each opened once in binary
    mode and written chunk by chunk as its rows are formatted.

    Used as a context manager: on leaving it every file is closed, and if
    the run raised, every CSV opened so far is also deleted, so a failed
    run leaves no partial output.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._files = {}

    def open(self, name: str, header: list[str]) -> None:
        self._files[name] = out = (self.out_dir / f"{name}.csv").open("wb")
        out.write((",".join(header) + "\n").encode("ascii"))

    def write(self, name: str, rows: np.ndarray) -> None:
        self._files[name].writelines(_csv_rows(rows))

    def __enter__(self) -> "_CsvFiles":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for out in self._files.values():
            out.close()
            if exc_type is not None:
                Path(out.name).unlink()


def _echo_lines(scenario: Scenario, evo: EvolutionOperator) -> list[str]:
    p, mix = scenario.params, evo.mix
    return [
        f"omega1: {_fmt(p.omega1)}",
        f"omega2: {_fmt(p.omega2)}",
        f"lambda: {_fmt(p.lam)}",
        f"mixing_x: {_fmt(mix.x)}",
        f"mixing_s: {_fmt(mix.s)}",
        f"mixing_c: {_fmt(mix.c)}",
        f"omega1p: {_fmt(mix.omega1p)}",
        f"omega2p: {_fmt(mix.omega2p)}",
        f"initial: {scenario.initial.kind}",
        f"n_max: {scenario.n_max}",
    ]


def _run_time_grid(scenario: Scenario, evo: EvolutionOperator, state0: TwoModeState,
                   phi: np.ndarray, csvs: _CsvFiles) -> tuple[float, float, list[str]]:
    sched = scenario.schedule
    ts = np.linspace(sched.t_start, sched.t_end, sched.steps)
    dim = scenario.n_max + 1
    occupied = [n for n in range(1, len(phi)) if phi[n] != 0]
    fidelities = analysis.exchange_fidelities(state0, evo, ts)
    names = [name for name in scenario.outputs if name != "report"]
    for name in names:
        csvs.open(name, csv_header(name, scenario.n_max, occupied))
    if "fidelity" in names:
        csvs.write("fidelity", np.column_stack([ts, fidelities]))
    if "transfer_profile" in names:
        levels = np.array(occupied)
        for times in _chunks(ts, max(1, len(occupied))):
            profile = analysis.transfer_probability(evo.mix, scenario.params.lam, levels,
                                                    times[:, np.newaxis])
            csvs.write("transfer_profile", np.column_stack([times, profile]))
    column = state0.table[:, 0]  # phi, normalized and padded to n_max + 1
    # amplitude tables only for the densities
    densities = [name for name in names if name in ("number_distribution", "reduced_density")]
    if densities:
        for times, tables in evo.product_grid(column, ts):
            count = len(times)
            rhos = np.stack([analysis.reduced_densities(tables, mode) for mode in (1, 2)], axis=1)
            diagonals = np.diagonal(rhos, axis1=2, axis2=3).real
            columns = {
                "number_distribution": diagonals.reshape(count, 2 * dim),
                # csv_header's order: mode, row, column, then re and im side by side
                "reduced_density": rhos.view(np.float64).reshape(count, 4 * dim * dim),
            }
            for name in densities:
                csvs.write(name, np.column_stack([times, columns[name]]))

    best = int(np.argmax(fidelities))
    best_f, t_best = fidelities[best], float(ts[best])
    lines = [
        f"t_start: {_fmt(sched.t_start)}",
        f"t_end: {_fmt(sched.t_end)}",
        f"steps: {sched.steps}",
        f"max_fidelity: {_fmt(best_f)}",
        f"t_at_max: {_fmt(t_best)}",
    ]
    if "report" in scenario.outputs:
        final_norm = evo.product_norms(column, ts[-1:])[0]
        lines.append(f"final_norm: {_fmt(final_norm)}")
    return best_f, t_best, lines


def _run_exchange_scan(scenario: Scenario, evo: EvolutionOperator, state0: TwoModeState,
                       phi: np.ndarray, csvs: _CsvFiles) -> tuple[float, float, list[str]]:
    taus = analysis.exchange_times(evo.mix, scenario.params.lam, scenario.schedule.k_max)
    grades = analysis.statistics_exchanges(state0, evo, taus)
    csvs.open("exchange_scan", ["k", "tau", "fidelity", "statistics_match", "phase_defect"])
    csvs.write("exchange_scan", np.column_stack([np.arange(len(taus)), taus, grades]))
    candidates = list(zip(taus, grades[:, 0].tolist()))

    window_end = taus[-1] + taus[0]  # half an exchange period past the last tau_k
    t_scan, f_scan = analysis.find_exchange_time(evo, phi, 0.0, window_end)
    candidates.append((t_scan, f_scan))
    best_f = max(f for _, f in candidates)
    # near-ties resolve to the earliest candidate; closed-form times come first
    t_best = next(t for t, f in candidates if f >= best_f - 1e-12)
    return best_f, t_best, [
        f"k_max: {scenario.schedule.k_max}",
        f"scan_window: 0 .. {_fmt(window_end)}",
        f"numerical_scan_t: {_fmt(t_scan)}",
        f"numerical_scan_fidelity: {_fmt(f_scan)}",
        f"max_fidelity: {_fmt(best_f)}",
        f"t_at_max: {_fmt(t_best)}",
    ]


def _write_report(out_dir: Path, lines: list[str]) -> None:
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", newline="\n")


def _run_suite(name: str, tol: float | None = None, out_dir: Path | None = None) -> int:
    """Run a verification suite and print its report, writing it to ``out_dir`` if given."""
    report = verify_suite(name, tol=tol)
    text = report.format()
    if out_dir is not None:
        _write_report(out_dir, [text])
    print(text)
    return 0 if report.passed else 1


def run_scenario(scenario: Scenario, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = scenario.schedule.kind
    if kind == "verify":
        return _run_suite(scenario.schedule.suite, out_dir=out_dir)
    evo = EvolutionOperator(scenario.params)
    state0, phi, discarded = build_initial_state(scenario)
    coherent = scenario.initial.kind == "coherent"
    if coherent:
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    run = _run_time_grid if kind == "time_grid" else _run_exchange_scan
    with _CsvFiles(out_dir) as csvs:
        best_f, t_best, lines = run(scenario, evo, state0, phi, csvs)
    if "report" in scenario.outputs:
        lines = [f"schedule: {kind}", *_echo_lines(scenario, evo), *lines]
        if coherent:
            lines.append(f"coherent_tail_discarded: {_fmt(discarded)}")
        _write_report(out_dir, lines)
    print(f"max_fidelity={_fmt(best_f)} t={_fmt(t_best)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        return run_scenario(scenario, args.out)
    except OSError as exc:
        print(f"error: --out {args.out}: cannot write outputs ({exc.strerror or exc})",
              file=sys.stderr)
        return 2


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="oscswap",
        description="Exact simulation of state exchange between two coupled oscillators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a scenario file")
    run_parser.add_argument("scenario", type=Path, help="path to the scenario YAML file")
    run_parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    verify_parser = sub.add_parser("verify", help="run a verification suite")
    verify_parser.add_argument("suite", help="rotation, evolution, oracle, or exchange")
    verify_parser.add_argument("--tol", type=_tolerance, default=None,
                               help="override every check tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _run_suite(args.suite, args.tol)
    except (ScenarioError, UnknownSuiteError, DecoupledSystemError,
            ZeroVectorError, TruncationTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
