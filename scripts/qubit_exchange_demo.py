#!/usr/bin/env python3
"""Microwave-domain qubit handoff between two coupled oscillators.

With omega / lambda = 3 the superposition C0 |0> + C1 |1> is exchanged
exactly at the first exchange time tau_0 = pi / (2 lambda), a few
nanoseconds at omega ~ 1e9 rad/s. Prints the numbers and optionally
writes the fidelity trace as CSV.

The closed-form product-state functions (``exchange_fidelities`` here) take
a normalized phi, as ``oscswap.core.product_amplitudes`` returns it.
"""

import argparse
import math

import numpy as np

from oscswap.analysis import exchange_fidelities, exchange_fidelity, exchange_times
from oscswap.core import CouplingParams, make_product_state, product_amplitudes
from oscswap.evolution import EvolutionOperator


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega", type=float, default=1.0e9, help="oscillator frequency (rad/s)")
    parser.add_argument("--c0", type=float, default=0.6)
    parser.add_argument("--c1", type=float, default=0.8)
    parser.add_argument("--csv", type=str, default=None, help="write the fidelity trace here")
    args = parser.parse_args()

    lam = args.omega / 3.0
    params = CouplingParams(omega1=args.omega, omega2=args.omega, lam=lam)
    evo = EvolutionOperator(params)
    phi = [args.c0, args.c1]
    state0 = make_product_state(phi)

    tau0 = exchange_times(evo.mix, lam, 0)[0]
    fid = exchange_fidelity(evo.evolve(state0, tau0), phi)
    print(f"omega = {args.omega:g} rad/s, lambda = omega/3 = {lam:g} rad/s")
    print(f"first exchange time tau_0 = pi/(2 lambda) = {tau0:.6e} s")
    print(f"exchange fidelity at tau_0: {fid:.15f}")

    expected = math.pi / (2.0 * lam)
    assert abs(tau0 - expected) < 1e-18 * max(1.0, expected)

    if args.csv:
        ts = np.linspace(0.0, 2.0 * tau0, 401)
        rows = ["t,fidelity"]
        for t, f in zip(ts, exchange_fidelities(product_amplitudes(phi), evo, ts)):
            rows.append(f"{t:.17g},{f:.17g}")
        with open(args.csv, "w") as handle:
            handle.write("\n".join(rows) + "\n")
        print(f"fidelity trace written to {args.csv}")


if __name__ == "__main__":
    main()
