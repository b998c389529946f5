"""Command-line front end: scenario runs and verification suites.

Outputs are deterministic: identical scenarios produce byte-identical CSV
files (17 significant digits, '.' decimal separator, '\\n' line endings).
"""

import argparse
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
    norm,
)
from .evolution import EvolutionOperator, _chunks
from .scenario import Scenario, ScenarioError, build_initial_state, csv_header, load_scenario
from .suites import UnknownSuiteError, verify_suite


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_rows(rows: np.ndarray) -> str:
    """CSV lines of a 2-D array, every value written as :func:`_fmt` writes it."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def _write_csv(path: Path, header: list[str], parts: list[str]) -> None:
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        out.writelines(parts)


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


def _run_time_grid(scenario: Scenario, out_dir: Path) -> int:
    evo = EvolutionOperator(scenario.params)
    state0, phi, discarded = build_initial_state(scenario)
    if scenario.initial.kind == "coherent":
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    sched = scenario.schedule
    ts = np.linspace(sched.t_start, sched.t_end, sched.steps)
    dim = scenario.n_max + 1
    occupied = [n for n in range(1, len(phi)) if phi[n] != 0]
    fidelities = analysis.exchange_fidelities(state0, evo, ts)
    parts = {name: [] for name in scenario.outputs if name != "report"}
    if "fidelity" in parts:
        parts["fidelity"].append(_csv_rows(np.column_stack([ts, fidelities])))
    if "transfer_profile" in parts:
        for times in _chunks(ts, max(1, len(occupied))):
            probs = [analysis.transfer_probability(evo.mix, scenario.params.lam, n, times)
                     for n in occupied]
            profile = np.reshape(probs, (len(occupied), len(times))).T
            parts["transfer_profile"].append(_csv_rows(np.column_stack([times, profile])))
    # amplitude tables only for the densities, and for the report's final norm
    final = None
    column = state0.table[:, 0]  # phi, normalized and padded to n_max + 1
    if "number_distribution" in parts or "reduced_density" in parts:
        for times, tables in evo.product_grid(column, ts):
            count = len(times)
            rhos = np.stack([analysis.reduced_densities(tables, mode) for mode in (1, 2)], axis=1)
            diagonals = np.diagonal(rhos, axis1=2, axis2=3).real
            columns = {
                "number_distribution": diagonals.reshape(count, 2 * dim),
                # csv_header's order: mode, row, column, then re and im side by side
                "reduced_density": rhos.view(np.float64).reshape(count, 4 * dim * dim),
            }
            for name in parts.keys() & columns.keys():
                parts[name].append(_csv_rows(np.column_stack([times, columns[name]])))
            final = tables[-1]

    for name, rows in parts.items():
        _write_csv(out_dir / f"{name}.csv", csv_header(name, scenario.n_max, occupied), rows)

    best = int(np.argmax(fidelities))
    if "report" in scenario.outputs:
        if final is None:
            _, tables = next(evo.product_grid(column, ts[-1:]))
            final = tables[0]
        lines = ["schedule: time_grid"]
        lines += _echo_lines(scenario, evo)
        lines += [
            f"t_start: {_fmt(sched.t_start)}",
            f"t_end: {_fmt(sched.t_end)}",
            f"steps: {sched.steps}",
            f"max_fidelity: {_fmt(fidelities[best])}",
            f"t_at_max: {_fmt(float(ts[best]))}",
            f"final_norm: {_fmt(norm(TwoModeState(final)))}",
        ]
        if scenario.initial.kind == "coherent":
            lines.append(f"coherent_tail_discarded: {_fmt(discarded)}")
        (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"max_fidelity={_fmt(fidelities[best])} t={_fmt(float(ts[best]))}")
    return 0


def _run_exchange_scan(scenario: Scenario, out_dir: Path) -> int:
    evo = EvolutionOperator(scenario.params)
    state0, phi, discarded = build_initial_state(scenario)
    if scenario.initial.kind == "coherent":
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    taus = analysis.exchange_times(evo.mix, scenario.params.lam, scenario.schedule.k_max)
    header = ["k", "tau", "fidelity", "statistics_match", "phase_defect"]
    grades = analysis.statistics_exchanges(state0, evo, taus)
    rows = np.column_stack([np.arange(len(taus)), taus, grades])
    _write_csv(out_dir / "exchange_scan.csv", header, [_csv_rows(rows)])
    candidates = list(zip(taus, grades[:, 0].tolist()))

    window_end = taus[-1] + taus[0]  # half an exchange period past the last tau_k
    t_scan, f_scan = analysis.find_exchange_time(evo, phi, 0.0, window_end)
    candidates.append((t_scan, f_scan))
    best_f = max(f for _, f in candidates)
    # near-ties resolve to the earliest candidate; closed-form times come first
    t_best = next(t for t, f in candidates if f >= best_f - 1e-12)

    if "report" in scenario.outputs:
        lines = ["schedule: exchange_scan"]
        lines += _echo_lines(scenario, evo)
        lines += [
            f"k_max: {scenario.schedule.k_max}",
            f"scan_window: 0 .. {_fmt(window_end)}",
            f"numerical_scan_t: {_fmt(t_scan)}",
            f"numerical_scan_fidelity: {_fmt(f_scan)}",
            f"max_fidelity: {_fmt(best_f)}",
            f"t_at_max: {_fmt(t_best)}",
        ]
        (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"max_fidelity={_fmt(best_f)} t={_fmt(t_best)}")
    return 0


def _run_verify_schedule(scenario: Scenario, out_dir: Path) -> int:
    report = verify_suite(scenario.schedule.suite)
    text = report.format()
    (out_dir / "report.txt").write_text(text + "\n")
    print(text)
    return 0 if report.passed else 1


def run_scenario(scenario: Scenario, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    if scenario.schedule.kind == "time_grid":
        return _run_time_grid(scenario, out_dir)
    if scenario.schedule.kind == "exchange_scan":
        return _run_exchange_scan(scenario, out_dir)
    return _run_verify_schedule(scenario, out_dir)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        return run_scenario(scenario, args.out)
    except OSError as exc:
        print(f"error: --out {args.out}: cannot write outputs ({exc.strerror or exc})",
              file=sys.stderr)
        return 2


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(args.suite, tol=args.tol)
    print(report.format())
    return 0 if report.passed else 1


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (ScenarioError, UnknownSuiteError, DecoupledSystemError,
            ZeroVectorError, TruncationTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
