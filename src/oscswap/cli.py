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
    decoupled_mixing,
    norm,
)
from .evolution import EvolutionOperator
from .scenario import Scenario, ScenarioError, build_initial_state, load_scenario
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


def _echo_lines(scenario: Scenario, evo: EvolutionOperator | None) -> list[str]:
    p = scenario.params
    lines = [
        f"omega1: {_fmt(p.omega1)}",
        f"omega2: {_fmt(p.omega2)}",
        f"lambda: {_fmt(p.lam)}",
        f"initial: {scenario.initial.kind}",
        f"n_max: {scenario.n_max}",
    ]
    if evo is not None:
        mix = evo.mix
        lines[3:3] = [
            f"mixing_x: {_fmt(mix.x)}",
            f"mixing_s: {_fmt(mix.s)}",
            f"mixing_c: {_fmt(mix.c)}",
            f"omega1p: {_fmt(mix.omega1p)}",
            f"omega2p: {_fmt(mix.omega2p)}",
        ]
    return lines


def _make_evolution(scenario: Scenario) -> EvolutionOperator:
    params = scenario.params
    if params.is_decoupled:
        return EvolutionOperator(params, mix=decoupled_mixing(params))
    return EvolutionOperator(params)


def _run_time_grid(scenario: Scenario, out_dir: Path) -> int:
    evo = _make_evolution(scenario)
    state0, phi, discarded = build_initial_state(scenario)
    if scenario.initial.kind == "coherent":
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    sched = scenario.schedule
    ts = np.linspace(sched.t_start, sched.t_end, sched.steps)
    dim = scenario.n_max + 1
    occupied = [n for n in range(1, len(phi)) if phi[n] != 0]
    parts = {name: [] for name in scenario.outputs}
    fidelities = []
    for times, tables in evo.evolve_grid(state0, ts):
        count = len(times)
        fid = analysis.exchange_fidelities(tables, phi)
        fidelities.append(fid)
        columns = {"fidelity": fid.reshape(count, 1)}
        if "number_distribution" in parts or "reduced_density" in parts:
            rhos = np.stack([analysis.reduced_densities(tables, mode) for mode in (1, 2)], axis=1)
            diagonals = np.diagonal(rhos, axis1=2, axis2=3).real
            columns["number_distribution"] = diagonals.reshape(count, 2 * dim)
            # mode, row, column, then re and im side by side
            columns["reduced_density"] = rhos.view(np.float64).reshape(count, 4 * dim * dim)
        if "transfer_profile" in parts:
            probs = [analysis.transfer_probability(evo.mix, scenario.params.lam, n, t)
                     for t in times.tolist() for n in occupied]
            columns["transfer_profile"] = np.array(probs).reshape(count, len(occupied))
        for name in parts.keys() & columns.keys():
            parts[name].append(_csv_rows(np.column_stack([times, columns[name]])))
        final = tables[-1]

    if "fidelity" in parts:
        _write_csv(out_dir / "fidelity.csv", ["t", "fidelity"], parts["fidelity"])
    if "number_distribution" in parts:
        header = ["t"] + [f"p{mode}_{n}" for mode in (1, 2) for n in range(dim)]
        _write_csv(out_dir / "number_distribution.csv", header, parts["number_distribution"])
    if "reduced_density" in parts:
        header = ["t"]
        for mode in (1, 2):
            for i in range(dim):
                for j in range(dim):
                    header += [f"rho{mode}_{i}_{j}_re", f"rho{mode}_{i}_{j}_im"]
        _write_csv(out_dir / "reduced_density.csv", header, parts["reduced_density"])
    if "transfer_profile" in parts:
        header = ["t"] + [f"transfer_prob_{n}" for n in occupied]
        _write_csv(out_dir / "transfer_profile.csv", header, parts["transfer_profile"])

    fidelities = np.concatenate(fidelities)
    best = int(np.argmax(fidelities))
    if "report" in scenario.outputs:
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
    evo = _make_evolution(scenario)
    state0, phi, discarded = build_initial_state(scenario)
    if scenario.initial.kind == "coherent":
        print(f"coherent_tail_discarded={_fmt(discarded)}")
    lam = scenario.params.lam
    taus = analysis.exchange_times(evo.mix, lam, scenario.schedule.k_max)
    header = ["k", "tau", "fidelity", "statistics_match", "phase_defect"]
    grades = analysis.statistics_exchanges(state0, evo, taus)
    rows = np.column_stack([np.arange(len(taus)), taus, grades])
    _write_csv(out_dir / "exchange_scan.csv", header, [_csv_rows(rows)])
    candidates = list(zip(taus, grades[:, 0].tolist()))

    window_end = taus[-1] + evo.mix.s * evo.mix.c * math.pi / lam
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
