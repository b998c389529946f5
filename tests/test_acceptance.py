"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import math
from contextlib import contextmanager

import pytest

from oscswap.analysis import exchange_fidelity, exchange_times
from oscswap.cli import main
from oscswap.core import CouplingParams, make_product_state
from oscswap.evolution import EvolutionOperator
from conftest import assert_suite_checks


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def resonant_evolution(ratio, lam=1.0):
    return EvolutionOperator(CouplingParams(omega1=ratio * lam, omega2=ratio * lam, lam=lam))


def test_criterion_1_oracle_equivalence():
    with criterion(1, "analytic evolution matches the Taylor exponential (n <= 12, 1e-9)"):
        assert_suite_checks("oracle", ["analytic vs Taylor exponential evolution, n <= 12"])


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
        assert_suite_checks(
            "exchange",
            [
                "modulus transfer at the first exchange time",
                "reduced-density phase-kick relation",
            ],
        )


def test_criterion_5_complete_exchange_condition():
    with criterion(5, "exact exchange at the matched ratio; +-5% measurably degrades it"):
        assert_suite_checks(
            "exchange",
            [
                "exact qubit exchange at the matched ratio",
                "ratio +-5% drops fidelity below 1 - 1e-4",
                "nonpositive ratio is rejected",
            ],
        )


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
        assert_suite_checks("oracle", ["spectrum equals normal-mode combinations"])


def test_criterion_9_fock_exchange_at_every_exchange_time():
    with criterion(9, "Fock exchange exact at every tau_k regardless of the frequency ratio"):
        assert_suite_checks("exchange", ["Fock exchange exact at every exchange time"])
        # the simpler printed instants tau_0 + 2 pi k / lambda hit only the
        # even-index exchange times: a strict subset, also exact
        for ratio in (3.0, 1.7, 0.513):
            lam = 1.0
            taus = exchange_times(resonant_evolution(ratio, lam).mix, lam, 4)
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
