"""Command-line front end: scenario runs and verification suites.

Outputs are deterministic: identical scenarios produce byte-identical CSV
files (17 significant digits, '.' decimal separator, '\\n' line endings on
every platform). Each cell is what ``"%.17g" % value`` writes. Arrays of at
least ``_ARRAY_MIN_CELLS`` cells are formatted by :func:`_cell_slots`,
which computes the same digits with numpy, builds each cell as a 32-byte row
of four 64-bit words from a table of 4-digit groups, and leaves to ``%`` only
the cells it cannot prove; smaller arrays are formatted by ``%`` throughout. A
``reduced_density`` row holds the Hermitian part of each mode's matrix, so
each cell below a diagonal has the magnitude of its mirror above it: up to
n_max 89 only the mirror is formatted, and the cell copies its digits and
writes its own sign.

Every ``time_grid`` output comes from the closed form for |phi> (x) |0>:
``fidelity`` and ``transfer_profile`` (|T^n|^2 per occupied level) from the
powers T^n that ``product_hops`` yields, ``number_distribution`` from
``product_populations`` and ``reduced_density`` from ``product_grid``.

Each CSV is written as bytes while the run computes it: its header a piece
at a time (see :func:`~oscswap.scenario.csv_header`), then each chunk of its rows (see
:func:`_csv_rows`) as it is formatted, so a run holds one chunk of its
output, never a whole CSV, header or row. ``reduced_density`` computes its
rows, with their partial traces and checks, one formatting chunk at a time,
and plans its twin map once (see :func:`_write_densities`). The formatter's
working arrays are those of one :class:`_Workspace` per run, held by the
run's :class:`_CsvFiles` and reused chunk after chunk. If a run fails after
a CSV is opened (a numerical self-check, exit 3), every CSV it opened is
deleted.

:func:`main` may be called any number of times in one process, as a
closed-loop client or a test suite does: it builds its argument parser on
the first call only, each call parses its own arguments into a fresh
namespace, and each run has a workspace of its own, so nothing carries over
from one call to the next.
"""

import argparse
import functools
import itertools
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .core import (
    DecoupledSystemError,
    NumericalIntegrityError,
    TruncationTooSmallError,
    ZeroVectorError,
)
from .evolution import EvolutionOperator
from .scenario import (
    Scenario,
    ScenarioError,
    build_initial_state,
    csv_header,
    load_scenario,
)
from .suites import UnknownSuiteError, verify_suite

# Not used here. perfbench/spans.py wraps the name cli.norm, so it stays
# importable until the benchmark's trace list changes.
from .core import norm  # noqa: F401


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# Arrays below this many cells are written by `%`, the rest by the array
# formatter. With a fresh workspace the array formatter costs about 135 us per
# call plus 0.07 us per cell, `%` about 0.5 us per cell, less on wider rows
# (_csv_rows on normal-distributed values, one BLAS thread, a 2-vCPU x86-64
# box: 6 cells 4.0 vs 132 us; 320 cells in rows of 2, 167 vs 153 us; 330 in
# rows of 5, 151 vs 153 us; 488 in rows of 2, 258 vs 162 us). The two meet
# near 290 cells in rows of 2 (the fidelity CSV), 336 in rows of 5
# (exchange_scan) and 361 in rows of 21; the threshold lies between the first two.
_ARRAY_MIN_CELLS = 320
_CHUNK_CELLS = 16384
_TEXT_CELLS = 4096  # cells whose slots are joined into one piece of text: 128 KiB at a time
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


def _split(x: np.ndarray, hi: np.ndarray | None = None,
           lo: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo, written into ``hi`` and ``lo`` where given."""
    t = np.multiply(_SPLIT, x, out=hi)
    lo = np.subtract(t, x, out=lo)
    hi = np.subtract(t, lo, out=t)  # t - (t - x)
    return hi, np.subtract(x, hi, out=lo)


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
    zeros = (g % 10 ** np.arange(1, 5) == 0).sum(axis=1, dtype=np.int64)
    b, m, q = np.arange(16), np.arange(18)[:, None], np.arange(17)[:, None] - 1
    rows = [np.frombuffer("".join(texts).encode(), np.uint8).reshape(-1, 16),
            (b + 2 <= m) * 0xFF, (b < q) * 0xFF, (b > q) * 0xFF, (b == q) * ord(".")]
    words = (row.astype(np.uint8).view(_WORD).T.copy() for row in rows)
    return np.array(leads, np.int64), text, text.astype(_WORD) << np.uint64(32), zeros, *words


# The bytes per cell of each working array of _cell_slots, then of _csv_rows'
# twin path; the masks come last, so that every other array stays 8-byte aligned
_LAYOUT = {"a": 8, "x": 8, "prod": 8, "head": 8, "tail": 8, "hi_tail": 8, "err": 8, "k": 8,
           "slot": 8, "pair": 16, "words": _SLOTS, "own": 8, "text": _SLOTS, "mirrored": 8,
           "magnitude": 8, "zero": 1, "fast": 1, "mask": 1, "sign": 1, "nan": 1, "apart": 1}


class _Workspace:
    """The cell formatter's working arrays, reused chunk after chunk through
    ``out=``: views of one buffer with room for as many cells of each array
    of ``_LAYOUT`` as the largest chunk so far. After a run's largest chunk,
    formatting allocates nothing but the text it yields; and as one block,
    which glibc's malloc serves again to the next run rather than returning
    its pages, the buffer costs no page faults after the first run. A
    :class:`_CsvFiles` holds one per run."""

    def __init__(self, cells: int = 0):
        self._cells, self._buffer, self._starts = 0, None, {}
        self.reserve(cells)

    def reserve(self, cells: int) -> None:
        """Room for ``cells`` cells, in a new buffer if the old one holds
        fewer: arrays taken from the old one stay valid, but are its last."""
        if cells > self._cells:
            sizes = [cells * size for size in _LAYOUT.values()]
            self._starts = dict(zip(_LAYOUT, itertools.accumulate(sizes, initial=0)))
            self._buffer = None  # freed first, unless an array taken from it lives on
            self._buffer, self._cells = np.empty(sum(sizes), np.uint8), cells

    def __call__(self, name: str, cells: int, dtype=np.float64) -> np.ndarray:
        """The array ``name`` for ``cells`` cells, a 1-D ``dtype`` view of
        ``_LAYOUT[name]`` bytes per cell, of undefined content."""
        if cells > self._cells:
            raise ValueError(f"{cells} cells, above the {self._cells} reserved")
        start = self._starts[name]
        return self._buffer[start:start + cells * _LAYOUT[name]].view(dtype)


def _cell_slots(values: np.ndarray, work: _Workspace) -> np.ndarray:
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

    It computes in arrays of ``work``: nine of one 64-bit word per value,
    one of two, and a few masks; an array takes new contents, under a new
    name, once its old ones are read for the last time. The result is one
    more of them, read before the next call with ``work``.
    """
    n = len(values)
    a, x, prod, head, tail, hi_tail, err = (work(name, n) for name in
                                           ("a", "x", "prod", "head", "tail", "hi_tail", "err"))
    k, slot = work("k", n, np.int64), work("slot", n, np.int64)
    zero, fast, mask = (work(name, n, np.bool_) for name in ("zero", "fast", "mask"))
    np.abs(values, out=a)
    np.equal(a, 0.0, out=zero)
    np.isfinite(a, out=fast)
    fast &= np.logical_not(zero, out=mask)  # mask: each use reads it right after writing it
    np.copyto(x, a)
    np.copyto(x, 1.0, where=np.logical_not(fast, out=mask))
    np.copyto(k, np.floor(np.log10(x, out=x), out=x), casting="unsafe")
    np.subtract(16 - _P_MIN, k, out=slot)
    fast &= np.greater_equal(slot, 0, out=mask)
    fast &= np.less_equal(slot, _P_MAX - _P_MIN, out=mask)
    np.logical_not(fast, out=mask)
    np.copyto(slot, -_P_MIN, where=mask)
    np.copyto(a, 1.0, where=mask)
    powers = _powers()  # rows hi, lo, and the two halves of hi
    np.multiply(a, _take(powers[0], slot, x), out=prod)
    _split(a, head, tail)
    # err = ((head hi_head - prod) + head hi_tail + tail hi_head) + tail hi_tail
    hi_head = _take(powers[2], slot, x)
    _take(powers[3], slot, hi_tail)
    np.multiply(head, hi_head, out=err)
    err -= prod
    err += np.multiply(head, hi_tail, out=head)
    err += np.multiply(tail, hi_head, out=hi_head)
    err += np.multiply(tail, hi_tail, out=tail)
    whole = np.floor(prod, out=head)
    rest = np.subtract(prod, whole, out=prod)
    rest += err
    rest += np.multiply(a, _take(powers[1], slot, x), out=x)
    rest_floor = np.floor(rest, out=err)
    frac = np.subtract(rest, rest_floor, out=rest)
    mantissa, spare = tail.view(np.int64), hi_tail.view(np.int64)
    np.copyto(mantissa, whole, casting="unsafe")
    np.copyto(spare, rest_floor, casting="unsafe")
    mantissa += spare
    fast &= np.greater_equal(mantissa, 10**16, out=mask)
    fast &= np.greater(np.abs(np.subtract(frac, 0.5, out=whole), out=whole), 1e-6, out=mask)
    mantissa += np.greater(frac, 0.5, out=mask)
    fast &= np.less(mantissa, 10**17, out=mask)
    np.logical_not(fast, out=mask)
    np.copyto(mantissa, 0, where=mask)
    np.copyto(k, 0, where=mask)  # a zero is written as the digit 0 at k = 0; the rest of ~fast by `%`

    # the float arrays, done with, as integers: digits 1-9 and 10-17 as
    # `high` and `low`, the first digit, then the groups of four digits in
    # order fore[0], aft[0], fore[1], aft[1]. Each index array is int64, so
    # that no take converts one
    scratch, first, fore0, fore1, lead = (array.view(np.int64) for array in (a, x, prod, head, err))
    high, low = np.floor_divide(mantissa, 10**8, out=spare), mantissa
    low -= np.multiply(high, 10**8, out=scratch)
    np.floor_divide(high, 10**8, out=first)
    high -= np.multiply(first, 10**8, out=scratch)
    fore = np.floor_divide(high, 10**4, out=fore0), np.floor_divide(low, 10**4, out=fore1)
    aft = high, low
    for fore_group, aft_group in zip(fore, aft):
        aft_group -= np.multiply(fore_group, 10**4, out=scratch)
    leads, text4, high_text4, zeros, affixes, kept, before, after, dot = _tables()
    pair = work("pair", n, _WORD).reshape(2, n)
    for digits, fore_group, aft_group in zip(pair, fore, aft):  # words 1 and 2: digits 2-17
        _take(high_text4, aft_group, digits)
        digits |= _take(text4, fore_group, scratch.view(np.uint32)[:n])
    significant = np.subtract(17, _take(zeros, aft[1], slot), out=slot)
    rest = np.flatnonzero(np.equal(aft[1], 0, out=mask))
    for group in (fore[1], aft[0], fore[0]):  # it counts only where the groups after it are 0
        significant[rest] -= zeros.take(group[rest])
        rest = rest[group[rest] == 0]
    k -= _K_MIN
    _take(leads, k, lead)
    np.maximum(significant, lead, out=scratch)
    for digits, keep in zip(pair, kept):  # zeros after the point go
        digits &= _take(keep, scratch, fore0.view(_WORD))
    words = work("words", n, _WORD).reshape(n, 4)
    for column, affix in zip((0, 3), affixes):
        words[:, column] = _take(affix, k, fore0.view(_WORD))
    out = words.view(np.uint8)
    out[:, 0] = _signs(values, work)
    # the point goes after `lead` digits when digits follow it: in the prefix
    # for lead 0, in byte 7 for lead 1 (the first digit moving to byte 6), and
    # for more, it pushes the digits after it one byte up
    point = np.multiply(lead, np.greater(significant, lead, out=mask), out=lead)
    first += ord("0")  # bytes 6-7: the digit and a point, or the digit in 7
    digit = np.left_shift(first, 8, out=scratch)
    np.copyto(digit, np.bitwise_or(first, ord(".") << 8, out=first),
              where=np.equal(point, 1, out=mask))
    out.view("<u2")[:, 3] = digit
    inside = np.flatnonzero(np.greater(point, 1, out=mask))
    p, moved = point[inside], pair.take(inside, axis=1)
    shifted = np.stack([moved[0] << _BYTE, moved[1] << _BYTE | moved[0] >> _LAST_BYTE])
    pair[:, inside] = ((moved & before.take(p, axis=1)) | (shifted & after.take(p, axis=1))
                       | dot.take(p, axis=1))
    words[inside, 3] |= moved[1] >> _LAST_BYTE
    words[:, 1], words[:, 2] = pair
    slow = np.flatnonzero(np.logical_not(np.logical_or(fast, zero, out=mask), out=mask))
    if slow.size:  # each text is at most 23 bytes, zero-padded to the slots after the sign
        texts = ["%.17g" % value for value in np.abs(values.take(slow)).tolist()]
        out[slow, 1:] = np.array(texts, f"S{_SLOTS - 1}").view(np.uint8).reshape(-1, _SLOTS - 1)
    return out


def _take(table: np.ndarray, indices: np.ndarray, out: np.ndarray,
          axis: int | None = None) -> np.ndarray:
    """``table.take(indices, axis)`` written into ``out``. Every index is in
    range: mode "clip" only spares the buffered copy that "raise" makes."""
    return np.take(table, indices, axis=axis, out=out, mode="clip")


def _signs(values: np.ndarray, work: _Workspace) -> np.ndarray:
    """The sign slot of each value: "-" where `%` writes one, else a zero byte.
    `%` writes a negative nan as "nan". The result is one of ``work``'s arrays."""
    sign = np.signbit(values, out=work("sign", len(values), np.bool_))
    nan = np.isnan(values, out=work("nan", len(values), np.bool_))
    sign &= np.logical_not(nan, out=nan)
    return np.multiply(sign.view(np.uint8), np.uint8(ord("-")), out=sign.view(np.uint8))


def _twin_plan(twins: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The plan of a twin map for :func:`_csv_rows`: the columns ``own`` it
    formats, and ``source``: for each cell of as many whole rows as their own
    cells fit in a chunk, the index of its twin among those rows' own cells.
    None where the map saves nothing or a row's own cells exceed a chunk.

    A twin map, one column index per column, may name for each column ``c`` a
    column whose values have the magnitudes of column ``c``'s, as the lower
    triangle of a Hermitian matrix mirrors the upper one; a column that names
    itself is formatted, and every column named must name itself."""
    formats = twins == np.arange(len(twins))
    own = np.flatnonzero(formats)
    per_chunk = _CHUNK_CELLS // len(own)  # whole rows whose own cells fit in a chunk
    if not per_chunk or len(own) == len(twins):
        return None
    return own, (np.arange(per_chunk)[:, None] * len(own) + (np.cumsum(formats) - 1)[twins]).ravel()


def _csv_rows(rows: np.ndarray, plan: tuple | None = None, work: _Workspace | None = None):
    """CSV lines of a 2-D array as ASCII byte chunks, every value written as
    :func:`_fmt` writes it.

    Arrays of at least ``_ARRAY_MIN_CELLS`` cells go through
    :func:`_cell_slots` ``_CHUNK_CELLS`` of their flattened cells at a time,
    a chunk that may begin and end inside a row, in the arrays of ``work``
    (a workspace of this call's own where none is given), and their text is
    yielded ``_TEXT_CELLS`` cells at a time; smaller ones, for which that
    costs more than it saves, are formatted by ``%`` as one chunk.

    With the ``plan`` of a twin map (see :func:`_twin_plan`), a chunk is as
    many whole rows as their own columns fit, and every other cell copies
    its twin's slots after the sign and takes its sign from its own value;
    a cell whose magnitude is not its twin's (a nan never is) is formatted
    itself, so the map never changes what is written.
    """
    if rows.size < _ARRAY_MIN_CELLS:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        yield "".join(line % tuple(row) for row in rows.tolist()).encode("ascii")
        return
    width = rows.shape[1]
    cells = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    work = _Workspace() if work is None else work
    work.reserve(min(cells.size, _CHUNK_CELLS))  # the most cells one _cell_slots call or piece holds
    step = _CHUNK_CELLS if plan is None else len(plan[1])
    for start in range(0, cells.size, step):
        chunk = cells[start:start + step]
        if plan is not None:  # the chunk's own cells, formatted once for all its pieces
            own, source = plan
            formatted = work("own", chunk.size // width * len(own)).reshape(-1, len(own))
            formatted = _take(chunk.reshape(-1, width), own, formatted, axis=1).reshape(-1)
            slots = _cell_slots(formatted, work).view(_WORD)
        for offset in range(0, chunk.size, _CHUNK_CELLS):  # the text of at most a chunk of cells
            piece = chunk[offset:offset + _CHUNK_CELLS]
            if plan is None:
                out = _cell_slots(piece, work)
            else:
                twin = source[offset:offset + piece.size]
                out = _take(slots, twin, work("text", piece.size, _WORD).reshape(-1, 4), axis=0)
                out = out.view(np.uint8)
                out[:, 0] = _signs(piece, work)
                mirrored = _take(formatted, twin, work("mirrored", piece.size))
                apart = np.not_equal(np.abs(piece, out=work("magnitude", piece.size)),
                                     np.abs(mirrored, out=mirrored),
                                     out=work("apart", piece.size, np.bool_))
                apart = np.flatnonzero(apart)
                if apart.size:  # in a workspace of their own: `slots` serves the later pieces
                    out[apart] = _cell_slots(piece[apart], _Workspace(apart.size))
            out[:, -1] = ord(",")
            out[width - 1 - (start + offset) % width::width, -1] = ord("\n")
            for part in range(0, len(out), _TEXT_CELLS):  # copied out a few slots at a time
                yield out[part:part + _TEXT_CELLS].tobytes().translate(None, b"\0")


class _CsvFiles:
    """The CSV files of one run in ``out_dir``, each opened once in binary
    mode and written chunk by chunk, its header included, as it is formatted,
    through the run's one :class:`_Workspace`.

    Used as a context manager: on leaving it every file is closed, and if
    the run raised, every CSV opened so far is also deleted, so a failed
    run leaves no partial output.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._files = {}
        self._work = _Workspace()

    def open(self, name: str, header: Iterable[str]) -> None:
        self._files[name] = out = (self.out_dir / f"{name}.csv").open("wb")
        for i, piece in enumerate(header):  # one or more names, joined by ','
            out.write(f"{',' if i else ''}{piece}".encode("ascii"))
        out.write(b"\n")

    def write(self, name: str, rows: np.ndarray, plan: tuple | None = None) -> None:
        self._files[name].writelines(_csv_rows(rows, plan, self._work))

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


def _hermitian_twins(dim: int) -> np.ndarray | None:
    """The twin map (see :func:`_csv_rows`) of a ``reduced_density`` row, in
    csv_header's order: ``t``, then mode, row, column, and re and im side by
    side. Each cell below a diagonal names its mirror above it, the smaller
    index; every other cell names itself. None from n_max 90, where it goes unused."""
    if _own_density_cells(dim) > _CHUNK_CELLS:
        return None
    cells = np.arange(4 * dim * dim).reshape(2, dim, dim, 2)
    return np.r_[0, 1 + np.minimum(cells, cells.swapaxes(1, 2)).ravel()]


def _own_density_cells(dim: int) -> int:
    """The cells of a ``reduced_density`` row its twin map formats: t and each upper triangle."""
    return 1 + 2 * dim * (dim + 1)


def _write_densities(csvs: _CsvFiles, evo: EvolutionOperator, phi: np.ndarray,
                     ts: np.ndarray) -> None:
    """``reduced_density`` one chunk at a time, a chunk being the whole rows
    :func:`_csv_rows` formats together: 17 times at n_max 20, one from n_max
    63 up. Each chunk's tables, partial traces, checks and rows are built
    just before it is formatted, the rows in one array reused by every chunk,
    with the plan of their twin map, built once."""
    dim = len(phi)
    twins, width = _hermitian_twins(dim), 2 * dim * dim
    per_chunk = max(1, _CHUNK_CELLS // _own_density_cells(dim))
    rows = np.empty((min(per_chunk, len(ts)), 1 + 2 * width))
    plan = None if twins is None else _twin_plan(twins)
    for times, tables in evo.product_grid(phi, ts, per_chunk):
        # each row: t, then mode 1's matrix, then mode 2's, filled in place
        chunk = rows[:len(times)]
        chunk[:, 0] = times
        for mode in (1, 2):  # row, column, then re and im side by side
            rho = analysis.reduced_densities(tables, mode).view(np.float64)
            chunk[:, 1 + (mode - 1) * width:1 + mode * width] = rho.reshape(len(times), -1)
            del rho  # freed before mode 2's is built: 16 MB per time at n_max 1000
        csvs.write("reduced_density", chunk, plan)


def _run_time_grid(scenario: Scenario, evo: EvolutionOperator, phi: np.ndarray,
                   csvs: _CsvFiles) -> tuple[float, float, list[str]]:
    sched = scenario.schedule
    ts = np.linspace(sched.t_start, sched.t_end, sched.steps)
    occupied = [n for n in range(1, len(phi)) if phi[n] != 0]
    fidelities = analysis.exchange_fidelities(phi, evo, ts)
    names = [name for name in scenario.outputs if name != "report"]
    for name in names:
        csvs.open(name, csv_header(name, scenario.n_max, occupied))
    if "fidelity" in names:
        csvs.write("fidelity", np.column_stack([ts, fidelities]))
    if "transfer_profile" in names:
        for times, *_, hops in evo.product_hops(phi, ts):  # |T^n|^2, T the single-quantum hop
            csvs.write("transfer_profile", np.column_stack([times, np.abs(hops[:, occupied]) ** 2]))
    if "number_distribution" in names:
        for times, p1, p2 in evo.product_populations(phi, ts):
            csvs.write("number_distribution", np.column_stack([times, p1, p2]))
    if "reduced_density" in names:
        _write_densities(csvs, evo, phi, ts)

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
