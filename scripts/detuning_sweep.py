#!/usr/bin/env python3
"""Sweep the detuning and compare the measured single-quantum transfer peak
against the 1 / (1 + x^2) law.

The peak is located numerically (a grid, two zoom rounds on its best point,
then the vertex of the parabola through the last round's least leak and its
neighbours, each one batched evolution), so this doubles as an end-to-end
check of the evolution pipeline away from resonance.
"""

import argparse

import numpy as np

from oscswap.analysis import exchange_times, find_exchange_time
from oscswap.core import CouplingParams
from oscswap.evolution import EvolutionOperator


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lam", type=float, default=0.8, help="coupling constant")
    parser.add_argument("--x-max", type=float, default=5.0)
    parser.add_argument("--points", type=int, default=21)
    parser.add_argument("--csv", type=str, default=None)
    args = parser.parse_args()

    rows = ["x,t_peak,measured_peak,law,abs_error"]
    print(f"{'x':>8} {'measured peak':>16} {'1/(1+x^2)':>12} {'error':>10}")
    for x in np.linspace(0.0, args.x_max, args.points):
        omega2 = 1.1
        params = CouplingParams(omega1=omega2 + 2.0 * args.lam * x, omega2=omega2, lam=args.lam)
        evo = EvolutionOperator(params)
        tau0 = exchange_times(evo.mix, args.lam, 0)[0]
        t_peak, peak = find_exchange_time(evo, [0.0, 1.0], 0.5 * tau0, 1.5 * tau0)
        law = 1.0 / (1.0 + x * x)
        error = abs(peak - law)
        print(f"{x:8.3f} {peak:16.12f} {law:12.8f} {error:10.2e}")
        rows.append(f"{x:.17g},{t_peak:.17g},{peak:.17g},{law:.17g},{error:.17g}")

    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write("\n".join(rows) + "\n")
        print(f"sweep written to {args.csv}")


if __name__ == "__main__":
    main()
