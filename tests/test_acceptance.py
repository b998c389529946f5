"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oscswap.analysis import (
    NonPositiveRatioError,
    complete_exchange_ratio,
    exchange_fidelity,
    exchange_times,
    reduce,
    verify_statistics_exchange,
)
from oscswap.cli import main
from oscswap.core import CouplingParams, make_product_state
from oscswap.evolution import EvolutionOperator
from oscswap.oracle import compare_to_analytic, spectrum_deviation
from oscswap.suites import verify_suite
from conftest import random_phi


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def assert_suite_checks(suite, names):
    """Assert the named checks of one verification suite, each below its tolerance."""
    checks = {check.name: check for check in verify_suite(suite).checks}
    for name in names:
        check = checks[name]
        assert check.residual < check.tolerance, f"{name}: residual {check.residual:.3e}"


def random_coupling(rng):
    return CouplingParams(
        omega1=rng.uniform(0.1, 5.0), omega2=rng.uniform(0.1, 5.0), lam=rng.uniform(0.05, 1.5)
    )


def resonant_evolution(ratio, lam=1.0):
    return EvolutionOperator(CouplingParams(omega1=ratio * lam, omega2=ratio * lam, lam=lam))


def qubit_phi(rng, level):
    weight = rng.uniform(0.2, 0.8)
    phi = np.zeros(level + 1, dtype=complex)
    phi[0] = math.sqrt(weight) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    phi[level] = math.sqrt(1.0 - weight) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return phi


def test_criterion_1_oracle_equivalence():
    with criterion(1, "analytic evolution matches the Pade exponential (n <= 12, 1e-9)"):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(10):
            params = random_coupling(rng)
            t_grid = rng.uniform(0.0, 20.0, size=20)
            for n in range(13):
                worst = max(worst, compare_to_analytic(params, n, t_grid))
        assert worst < 1e-9, f"worst deviation {worst:.3e}"


def test_criterion_2_closed_form_identities():
    with criterion(2, "transfer/survival closed forms match the generic sums (n <= 20, 1e-10)"):
        assert_suite_checks("evolution", ["closed-form transfer/survival vs generic sum, n <= 20"])


def test_criterion_3_rotation_integrity():
    with criterion(3, "rotation blocks unitary, inverse exact, recursions and special rows"):
        assert_suite_checks(
            "rotation",
            [
                "block unitarity, n <= 30, detuning grid",
                "inverse times forward equals identity",
                "inverse block equals forward transpose",
                "ladder recursion residuals",
                "special first-row/column elements (relative)",
            ],
        )


def test_criterion_4_statistics_exchange():
    with criterion(4, "moduli swap and reduced-density phase-kick relation at tau_0 (1e-10)"):
        rng = np.random.default_rng(404)
        omega, lam = 2.37, 0.53
        evo = resonant_evolution(omega / lam, lam)
        tau0 = exchange_times(evo.mix, lam, 0)[0]
        worst_stats = worst_rho = 0.0
        for _ in range(20):
            phi = random_phi(rng, int(rng.integers(1, 7)))
            state0 = make_product_state(phi)
            report = verify_statistics_exchange(state0, evo, tau0)
            worst_stats = max(worst_stats, report.statistics_match)
            rho1_initial = reduce(state0, 1).entries
            rho2_final = reduce(evo.evolve(state0, tau0), 2).entries
            kick = np.exp(-1j * (omega * tau0 + 0.5 * math.pi) * np.arange(rho1_initial.shape[0]))
            predicted = np.outer(kick, kick.conj()) * rho1_initial
            worst_rho = max(worst_rho, float(np.max(np.abs(rho2_final - predicted))))
        assert worst_stats < 1e-10, f"worst moduli mismatch {worst_stats:.3e}"
        assert worst_rho < 1e-10, f"worst density-matrix deviation {worst_rho:.3e}"


def test_criterion_5_complete_exchange_condition():
    with criterion(5, "exact exchange at the matched ratio; +-5% measurably degrades it"):
        rng = np.random.default_rng(505)
        tested = []
        for level in (1, 2, 3, 5):
            try:
                ratio = complete_exchange_ratio(level, 1)
            except NonPositiveRatioError:
                assert 4 <= level, f"level {level} should admit a positive ratio"
                continue
            tested.append(level)
            for _ in range(10):
                phi = qubit_phi(rng, level)
                evo = resonant_evolution(ratio)
                tau0 = exchange_times(evo.mix, 1.0, 0)[0]
                fid = exchange_fidelity(evo.evolve(make_product_state(phi), tau0), phi)
                assert abs(fid - 1.0) < 1e-9, f"level {level}: fidelity {fid!r}"
                for factor in (0.95, 1.05):
                    off = resonant_evolution(ratio * factor)
                    tau_off = exchange_times(off.mix, 1.0, 0)[0]
                    fid_off = exchange_fidelity(off.evolve(make_product_state(phi), tau_off), phi)
                    assert fid_off < 1.0 - 1e-4, f"level {level}: perturbed fidelity {fid_off!r}"
        assert tested == [1, 2, 3]


def test_criterion_6_headline_numbers():
    with criterion(6, "microwave-domain first exchange time ~4.71e-9 s with qubit fidelity 1"):
        omega = 1.0e9
        lam = omega / 3.0
        evo = resonant_evolution(omega / lam, lam)
        tau0 = exchange_times(evo.mix, lam, 0)[0]
        assert tau0 == pytest.approx(math.pi / (2.0 * lam), rel=1e-12)
        assert tau0 == pytest.approx(4.71238898038469e-9, rel=1e-12)
        assert tau0 == pytest.approx(4.71e-9, rel=1e-3)
        phi = [0.6, 0.8]
        fid = exchange_fidelity(evo.evolve(make_product_state(phi), tau0), phi)
        assert abs(fid - 1.0) < 1e-9, f"fidelity {fid!r}"


def test_criterion_7_detuning_law():
    with criterion(7, "numerical peak of single-quantum transfer equals 1/(1+x^2) (1e-10)"):
        assert_suite_checks("exchange", ["peak single-quantum transfer equals 1/(1+x^2)"])


def test_criterion_8_spectrum_identity():
    with criterion(8, "Hamiltonian spectra equal the normal-mode combinations (1e-10)"):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(10):
            params = random_coupling(rng)
            for n in range(13):
                worst = max(worst, spectrum_deviation(params, n))
        assert worst < 1e-10, f"worst deviation {worst:.3e}"


def test_criterion_9_fock_exchange_at_every_exchange_time():
    with criterion(9, "Fock exchange exact at every tau_k regardless of the frequency ratio"):
        k_max = 4
        for ratio in (3.0, 1.7, 0.513):
            lam = 1.0
            evo = resonant_evolution(ratio, lam)
            taus = exchange_times(evo.mix, lam, k_max)
            for level in range(1, 6):
                phi = np.zeros(level + 1, dtype=complex)
                phi[level] = 1.0
                state0 = make_product_state(phi)
                for tau in taus:
                    fid = exchange_fidelity(evo.evolve(state0, tau), phi)
                    assert abs(fid - 1.0) < 1e-9, (
                        f"ratio {ratio}, level {level}, tau {tau}: fidelity {fid!r}"
                    )
            # the simpler printed instants tau_0 + 2 pi k / lambda hit only the
            # even-index exchange times: a strict subset, also exact
            printed = [taus[0] + 2.0 * math.pi * k / lam for k in range(2)]
            for t in printed:
                matches = [tau for tau in taus if abs(t - tau) < 1e-9]
                assert matches, f"instant {t} is not an exchange time"
            assert len(printed) < len(taus)
        print(
            "[NOTE] criterion 9: instants tau_0 + 2 pi k / lambda form a strict subset of"
            " the exchange times tau_k = (k + 1/2) pi / lambda; fidelity is 1 on both sets"
        )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical scenarios produce byte-identical CSV outputs"):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            """\
params: {omega1: 1.1, omega2: 0.9, lambda: 0.23}
initial: {kind: amplitudes, values: [[0.5, 0.1], [0.0, 0.6], [0.62, 0.0]]}
schedule: {kind: time_grid, t_start: 0.0, t_end: 25.0, steps: 101}
outputs: [fidelity, number_distribution, reduced_density, transfer_profile, report]
"""
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["run", str(scenario), "--out", str(out1)]) == 0
        assert main(["run", str(scenario), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert any(name.endswith(".csv") for name in names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
