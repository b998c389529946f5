"""Command-line front end: scenario runs and verification suites.

Outputs are deterministic: identical scenarios produce byte-identical CSV
files (17 significant digits, '.' decimal separator, '\\n' line endings on
every platform). Each cell is what ``"%.17g" % value`` writes. Arrays of at
least ``_ARRAY_MIN_CELLS`` cells are formatted by :func:`_cell_slots`,
which computes the same digits with numpy, builds each cell as a 32-byte row
of four 64-bit words from a table of 4-digit groups, and leaves to ``%`` only
the cells it cannot prove; smaller arrays are formatted by ``%`` throughout. A
``reduced_density`` row holds the Hermitian part of each mode's matrix, so
each cell below a diagonal has the magnitude of its mirror above it: only
the mirror is formatted, and the cell copies its digits and writes its own
sign.

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
    ZeroVectorError,
)
from .evolution import EvolutionOperator, _chunks
from .scenario import (
    Scenario,
    ScenarioError,
    build_initial_state,
    csv_header,
    csv_width,
    load_scenario,
)
from .suites import UnknownSuiteError, verify_suite

# Not used here. perfbench/spans.py wraps the name cli.norm, so it stays
# importable until the benchmark's trace list changes.
from .core import norm  # noqa: F401


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Below this many cells `%` is the faster writer: the array formatter costs
# about 300 us per call plus 0.08 us per cell, `%` about 0.84 us per cell
# (measured on a 2-vCPU x86-64 box: the two meet between 384 and 448 cells).
_ARRAY_MIN_CELLS = 384
_CHUNK_CELLS = 16384
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# 10**p is tabled as hi + lo for these p; a cell of decimal exponent k is
# scaled by 10**(16 - k), and every product and split stays finite and normal
_P_MIN, _P_MAX = -274, 299
_K_MIN = 16 - _P_MAX
# a cell is four little-endian 64-bit words: sign, "0.000" prefix, first digit
# in byte 7 (or in 6, a point in 7); digits 2-17; the digit a point pushes
# out, the "e+308" exponent, and the separator. Empty bytes hold zero.
_SLOTS = 32
_WORD = np.dtype("<u8")  # explicit, so that a big-endian host writes the same bytes
_BYTE, _LAST_BYTE = np.uint64(8), np.uint64(56)


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
def _tables() -> tuple[np.ndarray, ...]:
    """Per k - _K_MIN: the digits before the point. Per group g < 10**4: its
    text f"{g:04d}" as the low and the high half of a word, and its trailing
    zeros (4 for g = 0). Columns of two words: per k - _K_MIN, words 0 and 3
    bare of sign and digits; per m < 18, the bytes of digits 2..m in words 1
    and 2; per point after digit p < 17, the bytes before it, after it, and it."""
    texts, leads = [], []
    for k in range(_K_MIN, 17 - _P_MIN):
        prefix, suffix, lead = "", f"e{k:+03d}", 1  # %g writes k < -4 and k > 16 as exponents
        if -4 <= k <= 16:
            prefix, suffix, lead = ("0." + "0" * (-k - 1), "", 0) if k < 0 else ("", "", k + 1)
        texts.append(f"\0{prefix:\0<5}\0\0\0{suffix:\0<5}\0\0")
        leads.append(lead)
    g = np.arange(10**4)[:, None]
    text = (g // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8).view("<u4")
    zeros = (g % 10 ** np.arange(1, 5) == 0).sum(axis=1)
    b, m, q = np.arange(16), np.arange(18)[:, None], np.arange(17)[:, None] - 1
    rows = [np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 16),
            (b + 2 <= m) * 0xFF, (b < q) * 0xFF, (b > q) * 0xFF, (b == q) * ord(".")]
    words = (row.astype(np.uint8).view(_WORD).T.copy() for row in rows)
    return np.array(leads, np.intp), text, text.astype(_WORD) << np.uint64(32), zeros, *words


def _cell_slots(values: np.ndarray) -> np.ndarray:
    """Each value as ``"%.17g" % value``, one row of ``_SLOTS`` bytes (four
    64-bit words) per value: its sign in byte 0, the text of its magnitude
    after it and zero bytes in the empty slots. The last byte is left for a
    separator.

    The 17 digits are |value| * 10**(16 - k), k = floor(log10|value|),
    rounded to an integer. With 10**(16 - k) as hi + lo, Dekker's split
    product gives |value| * hi exactly, so the scaled value is known to
    within about 1e-14 and rounds right unless its fraction lies within 1e-6
    of a half. Such near-ties, a k that log10 got one off (the scaled value
    then leaves [1e16, 1e17)), nonzero values outside the power table, inf
    and nan are written by ``%``. Every byte after the sign depends only on
    |value|, so two values of one magnitude share them.
    """
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

    top = mantissa // 10**8
    halves = np.stack([top, mantissa - top * 10**8]).astype(np.uint32)  # digits 1-9, 10-17
    first = halves[0] // np.uint32(10**8)
    halves[0] -= first * np.uint32(10**8)
    fore = halves // np.uint32(10**4)
    aft = halves - fore * np.uint32(10**4)  # the groups in order: fore[0], aft[0], fore[1], aft[1]
    leads, text4, high_text4, zeros, affixes, kept, before, after, dot = _tables()
    pair = text4.take(fore) | high_text4.take(aft)  # words 1 and 2: digits 2-17 as text
    significant, rest = 17 - zeros.take(aft[1]), np.flatnonzero(aft[1] == 0)
    for group in (fore[1], aft[0], fore[0]):  # it counts only where the groups after it are 0
        significant[rest] -= zeros.take(group[rest])
        rest = rest[group[rest] == 0]
    k -= _K_MIN
    lead = leads.take(k)
    pair &= kept.take(np.maximum(significant, lead), axis=1)  # zeros after the point go
    words = np.empty((len(values), 4), _WORD)
    words[:, 0], words[:, 3] = affixes.take(k, axis=1)
    out = words.view(np.uint8)
    out[:, 0] = _signs(values)
    # the point goes after `lead` digits when digits follow it: in the prefix
    # for lead 0, in byte 7 for lead 1 (the first digit moving to byte 6), and
    # for more, it pushes the digits after it one byte up
    point = lead * (significant > lead)
    first += np.uint32(ord("0"))  # bytes 6-7: the digit and a point, or the digit in 7
    out.view("<u2")[:, 3] = np.where(point == 1, first | np.uint32(ord(".") << 8),
                                     first << np.uint32(8))
    inside = np.flatnonzero(point > 1)
    p, moved = point[inside], pair.take(inside, axis=1)
    shifted = np.stack([moved[0] << _BYTE, moved[1] << _BYTE | moved[0] >> _LAST_BYTE])
    pair[:, inside] = ((moved & before.take(p, axis=1)) | (shifted & after.take(p, axis=1))
                       | dot.take(p, axis=1))
    words[inside, 3] |= moved[1] >> _LAST_BYTE
    words[:, 1], words[:, 2] = pair
    for i in np.flatnonzero(~fast & ~zero):
        text = ("%.17g" % abs(values[i])).encode()  # at most 23 bytes
        out[i, 1:] = 0
        out[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
    return out


def _signs(values: np.ndarray) -> np.ndarray:
    """The sign slot of each value: "-" where `%` writes one, else a zero byte.
    `%` writes a negative nan as "nan"."""
    return (np.signbit(values) & ~np.isnan(values)).view(np.uint8) * np.uint8(ord("-"))


def _csv_rows(rows: np.ndarray, twins: np.ndarray | None = None):
    """CSV lines of a 2-D array as ASCII byte chunks, every value written as
    :func:`_fmt` writes it.

    Arrays of at least ``_ARRAY_MIN_CELLS`` cells go through
    :func:`_cell_slots`, at most ``_CHUNK_CELLS`` cells per call and per
    chunk, even within one row; smaller ones, for which that costs more than
    it saves, are formatted by ``%`` directly, as one chunk.

    ``twins``, one column index per column, may name for each column ``c`` a
    column whose values have the magnitudes of column ``c``'s, as the lower
    triangle of a Hermitian matrix mirrors the upper one; a column that
    names itself is formatted, and every column named must name itself.
    Every other cell copies its twin's slots after the sign and takes its
    sign from its own value. A cell whose magnitude is not equal to its
    twin's (a nan never is) is formatted itself, so the map never changes
    what is written.
    """
    if rows.size < _ARRAY_MIN_CELLS:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        yield "".join(line % tuple(row) for row in rows.tolist()).encode("ascii")
        return
    values = np.ascontiguousarray(rows, dtype=np.float64)
    count, width = values.shape
    columns = np.arange(width)
    twins = columns if twins is None else np.asarray(twins)
    formats = twins == columns
    own = np.flatnonzero(formats)
    per_group = max(1, _CHUNK_CELLS // len(own))  # rows whose cells are formatted together
    # each cell of a group of rows: the index of its twin among the group's formatted cells
    source = (np.arange(per_group)[:, None] * len(own) + (np.cumsum(formats) - 1)[twins]).ravel()
    seps = np.full((per_group, width), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    for start in range(0, count, per_group):
        group = values[start:start + per_group]
        cells = group.reshape(-1)
        formatted = group[:, own].reshape(-1)
        pieces = [_cell_slots(formatted[i:i + _CHUNK_CELLS])
                  for i in range(0, formatted.size, _CHUNK_CELLS)]
        slots = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        for i in range(0, cells.size, _CHUNK_CELLS):
            end = min(i + _CHUNK_CELLS, cells.size)
            out = slots[i:end]
            if len(own) < width:
                piece, twin = cells[i:end], source[i:end]
                out = slots.view(f"V{_SLOTS}").take(twin).view(np.uint8).reshape(-1, _SLOTS)
                out[:, 0] = _signs(piece)
                apart = np.flatnonzero(np.abs(piece) != np.abs(formatted.take(twin)))
                if apart.size:
                    out[apart] = _cell_slots(piece[apart])
            out[:, -1] = seps[i:end]
            yield out.tobytes().translate(None, b"\0")


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

    def write(self, name: str, rows: np.ndarray, twins: np.ndarray | None = None) -> None:
        self._files[name].writelines(_csv_rows(rows, twins))

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


def _hermitian_twins(dim: int) -> np.ndarray:
    """The twin map (see :func:`_csv_rows`) of a ``reduced_density`` row, in
    csv_header's order: ``t``, then mode, row, column, and re and im side by
    side. Each cell below a diagonal names its mirror above it, the smaller
    index; every other cell names itself."""
    cells = np.arange(4 * dim * dim).reshape(2, dim, dim, 2)
    return np.r_[0, 1 + np.minimum(cells, cells.swapaxes(1, 2)).ravel()]


def _run_time_grid(scenario: Scenario, evo: EvolutionOperator, phi: np.ndarray,
                   csvs: _CsvFiles) -> tuple[float, float, list[str]]:
    sched = scenario.schedule
    ts = np.linspace(sched.t_start, sched.t_end, sched.steps)
    dim = scenario.n_max + 1
    occupied = [n for n in range(1, len(phi)) if phi[n] != 0]
    fidelities = analysis.exchange_fidelities(phi, evo, ts)
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
    # amplitude tables only for the densities
    densities = [name for name in names if name in ("number_distribution", "reduced_density")]
    if densities:
        twins = {"reduced_density": _hermitian_twins(dim)}
        for times, tables in evo.product_grid(phi, ts):
            # each row: t, then mode 1's columns, then mode 2's, filled in place
            rows = {name: np.empty((len(times), csv_width(name, scenario.n_max, ())))
                    for name in densities}
            for mode in (1, 2):
                rho = analysis.reduced_densities(tables, mode)
                parts = {
                    "number_distribution": np.diagonal(rho, axis1=1, axis2=2).real,
                    # row, column, then re and im side by side
                    "reduced_density": rho.view(np.float64).reshape(len(times), -1),
                }
                for name in densities:
                    width = parts[name].shape[1]
                    rows[name][:, 1 + (mode - 1) * width:1 + mode * width] = parts[name]
            for name in densities:
                rows[name][:, 0] = times
                csvs.write(name, rows[name], twins.get(name))

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
        final_norm = evo.product_norms(phi, ts[-1:])[0]
        lines.append(f"final_norm: {_fmt(final_norm)}")
    return best_f, t_best, lines


def _run_exchange_scan(scenario: Scenario, evo: EvolutionOperator, phi: np.ndarray,
                       csvs: _CsvFiles) -> tuple[float, float, list[str]]:
    taus = analysis.exchange_times(evo.mix, scenario.params.lam, scenario.schedule.k_max)
    grades = analysis.statistics_exchanges(phi, evo, taus)
    csvs.open("exchange_scan", ["k", "tau", "fidelity", "statistics_match", "phase_defect"])
    csvs.write("exchange_scan", np.column_stack([np.arange(len(taus)), taus, grades]))
    candidates = list(zip(taus, grades[:, 0].tolist()))

    window_end = taus[-1] + taus[0]  # half an exchange period past the last tau_k
    # the scan normalizes phi again, over the given entries only: padding reorders the norm's sum
    given = scenario.initial.support[0] + 1
    t_scan, f_scan = analysis.find_exchange_time(evo, phi[:given], 0.0, window_end)
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
    phi, discarded = build_initial_state(scenario)
    coherent = scenario.initial.kind == "coherent"
    if coherent:
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    run = _run_time_grid if kind == "time_grid" else _run_exchange_scan
    with _CsvFiles(out_dir) as csvs:
        best_f, t_best, lines = run(scenario, evo, phi, csvs)
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
