"""Independent output checker.

It imports nothing from oscswap. Every scenario the benchmark generates
starts in |phi> (x) |0>, for which the exchange fidelity has the closed form

    F(t) = |sum_n p_n T(t)**n|**2,   p_n = |phi_n|**2 / sum_m |phi_m|**2,
    T(t) = exp(-i (w1 + w2) t / 2) * (-i sin(d t) / sqrt(1 + x**2)),

with x = (w1 - w2) / (2 lam) and d = lam sqrt(1 + x**2). The maximal-transfer
times of ``exchange_scan`` are tau_k = (2k + 1) pi / (2 d).

A run is "ok" when its outputs match the closed form, "refused" when it
exits 3 because a rotation block of 38 or more quanta lost orthogonality
(the known truncation ceiling of the closed-form rotation), and "failed"
otherwise: any other exit code, an exception, or an output mismatch.
"""

import cmath
import math
import re
from dataclasses import dataclass
from pathlib import Path

FIDELITY_TOL = 1e-9
TIME_TOL = 1e-12  # relative; times are recomputed, not parsed from the program
CEILING_BLOCK = 38

_CEILING = re.compile(r"rotation block (\d+) lost orthogonality")


@dataclass(frozen=True)
class Outcome:
    status: str  # "ok", "refused" or "failed"
    detail: str = ""


class Mismatch(Exception):
    """An output disagrees with the closed form."""


def populations(entry: dict) -> list[float]:
    """Normalized mode-1 occupation probabilities p_n of the initial state."""
    init = entry["initial"]
    if init["kind"] == "amplitudes":
        weights = [re * re + im * im for re, im in init["values"]]
    elif init["kind"] == "coherent":
        intensity = init["alpha"][0] ** 2 + init["alpha"][1] ** 2
        weights = [1.0]
        for n in range(1, init["truncation"] + 1):
            weights.append(weights[-1] * intensity / n)
    else:
        raise ValueError(f"no closed form for initial kind {init['kind']!r}")
    total = math.fsum(weights)
    return [w / total for w in weights]


def half_splitting(params: dict) -> float:
    return math.hypot(params["lambda"], 0.5 * (params["omega1"] - params["omega2"]))


def fidelity(params: dict, pops: list[float], t: float) -> float:
    d = half_splitting(params)
    mean = 0.5 * (params["omega1"] + params["omega2"])
    hop = cmath.exp(-1j * mean * t) * (-1j * math.sin(d * t) * params["lambda"] / d)
    total = 0j
    power = 1 + 0j
    for p in pops:
        total += p * power
        power *= hop
    return abs(total) ** 2


def exchange_times(params: dict, k_max: int) -> list[float]:
    d = half_splitting(params)
    return [(2 * k + 1) * math.pi / (2.0 * d) for k in range(k_max + 1)]


def linspace(start: float, end: float, steps: int) -> list[float]:
    if steps == 1:
        return [start]
    return [start + (end - start) * i / (steps - 1) for i in range(steps)]


def check_run(entry: dict, exit_code: int | None, stderr: str, out_dir: Path) -> Outcome:
    """Classify one scenario run from its exit code, stderr and output files."""
    if exit_code == 3:
        match = _CEILING.search(stderr)
        if match and int(match.group(1)) >= CEILING_BLOCK:
            return Outcome("refused", f"block {match.group(1)}")
        return Outcome("failed", f"exit 3: {stderr.strip()[:200]}")
    if exit_code != 0:
        return Outcome("failed", f"exit {exit_code}: {stderr.strip()[:200]}")
    kind = entry["schedule"]["kind"]
    try:
        if kind == "time_grid":
            _check_time_grid(entry, out_dir)
        elif kind == "exchange_scan":
            _check_exchange_scan(entry, out_dir)
        else:
            _check_verify(out_dir)
    except (Mismatch, OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome("failed", f"{type(exc).__name__}: {exc}")
    return Outcome("ok")


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _read_report(path: Path) -> dict[str, str]:
    report = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def _expect_close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise Mismatch(f"{what}: got {got!r}, closed form {want!r} (tol {tol:g})")


def _expect_time(what: str, got: float, want: float) -> None:
    _expect_close(what, got, want, TIME_TOL * max(1.0, abs(want)))


def _check_time_grid(entry: dict, out_dir: Path) -> None:
    params, sched = entry["params"], entry["schedule"]
    pops = populations(entry)
    times = linspace(sched["t_start"], sched["t_end"], sched["steps"])
    header, rows = _read_csv(out_dir / "fidelity.csv")
    if header != ["t", "fidelity"] or len(rows) != len(times):
        raise Mismatch(f"fidelity.csv has header {header} and {len(rows)} rows")
    for t, (got_t, got_f) in zip(times, rows):
        _expect_time("fidelity.csv t", got_t, t)
        _expect_close(f"fidelity at t={t!r}", got_f, fidelity(params, pops, t), FIDELITY_TOL)
    report = _read_report(out_dir / "report.txt")
    best = max(f for _, f in rows)
    _expect_close("report max_fidelity", float(report["max_fidelity"]), best, 0.0)
    t_best = float(report["t_at_max"])
    _expect_close("fidelity at t_at_max", fidelity(params, pops, t_best), best, FIDELITY_TOL)


def _check_exchange_scan(entry: dict, out_dir: Path) -> None:
    params = entry["params"]
    pops = populations(entry)
    taus = exchange_times(params, entry["schedule"]["k_max"])
    header, rows = _read_csv(out_dir / "exchange_scan.csv")
    if header[:3] != ["k", "tau", "fidelity"] or len(rows) != len(taus):
        raise Mismatch(f"exchange_scan.csv has header {header} and {len(rows)} rows")
    on_grid = []
    for k, (tau, row) in enumerate(zip(taus, rows)):
        if row[0] != k:
            raise Mismatch(f"exchange_scan.csv row {k} has k = {row[0]}")
        _expect_time(f"tau_{k}", row[1], tau)
        want = fidelity(params, pops, tau)
        _expect_close(f"fidelity at tau_{k}", row[2], want, FIDELITY_TOL)
        on_grid.append(want)
    report = _read_report(out_dir / "report.txt")
    best = float(report["max_fidelity"])
    if best < max(on_grid) - FIDELITY_TOL or best > 1.0 + FIDELITY_TOL:
        raise Mismatch(f"max_fidelity {best!r} outside [{max(on_grid)!r}, 1]")
    _expect_close("fidelity at t_at_max",
                  fidelity(params, pops, float(report["t_at_max"])), best, FIDELITY_TOL)
    _expect_close("fidelity at numerical_scan_t",
                  fidelity(params, pops, float(report["numerical_scan_t"])),
                  float(report["numerical_scan_fidelity"]), FIDELITY_TOL)


def _check_verify(out_dir: Path) -> None:
    last = (out_dir / "report.txt").read_text().splitlines()[-1]
    if last != "result: PASS":
        raise Mismatch(f"suite report ends with {last!r}")
