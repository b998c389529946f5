import argparse
import contextlib
import io
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import yaml
from hypothesis import given, seed, settings, strategies as st

from oscswap import cli
from oscswap.cli import _csv_rows, _fmt, main
from oscswap.core import CouplingParams, TwoModeState, derive_mixing
from oscswap.scenario import ScenarioError, load_scenario, parse_scenario
from conftest import mp_exchange_fidelity

SHORT_GRID = "schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 3}\noutputs: [fidelity]"

QUBIT_SCAN = """\
params:
  omega1: 3.0
  omega2: 3.0
  lambda: 1.0
initial:
  kind: qubit
  c0: 0.6
  cn: 0.8
  n: 1
schedule:
  kind: exchange_scan
  k_max: 2
outputs: [report]
"""

FOCK_GRID = """\
params:
  omega1: 1.0
  omega2: 1.0
  lambda: 0.5
initial:
  kind: fock
  n: 1
schedule:
  kind: time_grid
  t_start: 0.0
  t_end: 12.0
  steps: 121
outputs: [fidelity, transfer_profile, number_distribution, report]
"""


# (initial state, the field its error names, the error's text): amplitudes
# that are not finite, or not a number or [re, im]
BAD_AMPLITUDES = [
    ("{kind: amplitudes, values: [.inf, 1.0]}", "initial.values[0]", "must be finite, got inf"),
    ("{kind: amplitudes, values: [1.0e+400, 1.0]}", "initial.values[0]",
     "must be finite, got inf"),
    ("{kind: amplitudes, values: [1%s, 1.0]}" % ("0" * 400), "initial.values[0]",
     "must be finite, got 1000"),
    ("{kind: amplitudes, values: [1.0, [0.5, .nan]]}", "initial.values[1]",
     "must be finite, got nan"),
    ("{kind: coherent, alpha: .inf, truncation: 10}", "initial.alpha", "must be finite, got inf"),
    ("{kind: coherent, alpha: [0.5, -.inf], truncation: 10}", "initial.alpha",
     "must be finite, got -inf"),
    ("{kind: qubit, c0: .nan, cn: 1.0, n: 1}", "initial.c0", "must be finite, got nan"),
    ("{kind: qubit, c0: 1.0, cn: [.inf, 0.0], n: 1}", "initial.cn", "must be finite, got inf"),
    ("{kind: amplitudes, values: [[1.0, 2.0, 3.0], 1.0]}", "initial.values[0]",
     "must be a number or [re, im], got [1.0, 2.0, 3.0]"),
    ("{kind: amplitudes, values: [1.0, [true, 0.0]]}", "initial.values[1]",
     "must be a number or [re, im], got [True, 0.0]"),
    ("{kind: qubit, c0: yes, cn: 1.0, n: 1}", "initial.c0",
     "must be a number or [re, im], got True"),
]
BAD_AMPLITUDE_IDS = ["inf", "overflowing-float", "overflowing-int", "nan-imaginary-part",
                     "alpha-inf", "alpha-inf-imaginary-part", "c0-nan", "cn-inf",
                     "three-parts", "bool-part", "c0-bool"]


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestRunCommand:
    def test_qubit_exchange_scan(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, QUBIT_SCAN)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        fields = dict(part.split("=") for part in summary.split())
        assert float(fields["max_fidelity"]) == pytest.approx(1.0, abs=1e-9)
        assert float(fields["t"]) == pytest.approx(math.pi / 2.0, rel=1e-12)
        header, rows = read_csv(out / "exchange_scan.csv")
        assert header == ["k", "tau", "fidelity", "statistics_match", "phase_defect"]
        assert rows[0, 1] == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert rows[0, 2] == pytest.approx(1.0, abs=1e-9)
        assert (out / "report.txt").exists()

    def test_fock_grid_traces_transfer_law(self, tmp_path):
        scenario = write_scenario(tmp_path, FOCK_GRID)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        header, rows = read_csv(out / "transfer_profile.csv")
        assert header == ["t", "transfer_prob_1"]
        expected = np.sin(0.5 * rows[:, 0]) ** 2
        np.testing.assert_allclose(rows[:, 1], expected, atol=1e-12)
        # for a one-quantum Fock start the exchange fidelity is that same law
        _, fid_rows = read_csv(out / "fidelity.csv")
        np.testing.assert_allclose(fid_rows[:, 1], expected, atol=1e-10)
        header, nd_rows = read_csv(out / "number_distribution.csv")
        assert header == ["t", "p1_0", "p1_1", "p2_0", "p2_1"]
        np.testing.assert_allclose(nd_rows[:, 2], 1.0 - expected, atol=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path, FOCK_GRID)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scenario), "--out", str(out1)]) == 0
        assert main(["run", str(scenario), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_coherent_tail_is_printed(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: coherent, alpha: 0.5, truncation: 10}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert "coherent_tail_discarded=" in stdout

    @pytest.mark.parametrize(
        "schedule",
        ["{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}",
         "{kind: exchange_scan, k_max: 1}"],
        ids=["time_grid", "exchange_scan"],
    )
    def test_coherent_tail_is_reported(self, tmp_path, capsys, schedule):
        scenario = write_scenario(
            tmp_path,
            "params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}\n"
            "initial: {kind: coherent, alpha: 0.5, truncation: 10}\n"
            f"schedule: {schedule}\noutputs: [report]\n",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert printed.startswith("coherent_tail_discarded=")
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert report[-1] == printed.replace("=", ": ")

    def test_coherent_tail_above_threshold_fails(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: coherent, alpha: 2.0, truncation: 3}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert "initial.truncation" in capsys.readouterr().err

    def test_amplitudes_with_complex_entries(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial:
  kind: amplitudes
  values: [[0.6, 0.0], [0.0, 0.8]]
schedule: {kind: time_grid, t_start: 0.0, t_end: 3.2, steps: 17}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "initial",
        ["{kind: amplitudes, values: [1.0e+200, 1.0]}",
         "{kind: amplitudes, values: [1.0e-320, 0.0]}",
         "{kind: qubit, c0: 1.0e+308, cn: 1.0, n: 1}"],
        ids=["huge", "subnormal", "huge-qubit"],
    )
    def test_extreme_amplitudes_are_normalized(self, tmp_path, initial):
        # their plain norm overflows or underflows
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: 1.0, omega2: 1.0, lambda: 0.5}}
initial: {initial}
schedule: {{kind: time_grid, t_start: 0.0, t_end: 3.0, steps: 4}}
outputs: [fidelity]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        _, rows = read_csv(out / "fidelity.csv")
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-15)  # the state is its own target at t = 0

    @pytest.mark.parametrize(
        "alpha, field, message",
        [
            ("1.0e+160", "initial.alpha", "|alpha|**2 overflows a double"),
            ("[0.0, 1.0e+200]", "initial.alpha", "|alpha|**2 overflows a double"),
            # every kept weight underflows to 0; the tail, 1, is below the threshold 2
            ("1000", "initial", "phi has zero norm and cannot be normalized"),
        ],
        ids=["real", "imaginary", "zero-norm"],
    )
    def test_huge_coherent_alpha_names_the_field(self, tmp_path, capsys, alpha, field, message):
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: 1.0, omega2: 1.0, lambda: 0.5}}
initial: {{kind: coherent, alpha: {alpha}, truncation: 10}}
coherent_tail_threshold: 2
schedule: {{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f'error: scenario field "{field}": {message}' in capsys.readouterr().err

    @pytest.mark.parametrize("initial, field, message", BAD_AMPLITUDES, ids=BAD_AMPLITUDE_IDS)
    def test_bad_amplitude_names_the_field(self, tmp_path, capsys, initial, field, message):
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: 1.0, omega2: 1.0, lambda: 0.5}}
initial: {initial}
schedule: {{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f'error: scenario field "{field}": {message}' in err
        assert not (tmp_path / "out").exists()

    def test_decoupled_time_grid_is_allowed(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 0.5, lambda: 0.0}
initial: {kind: fock, n: 2}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 3}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0

    def test_decoupled_exchange_scan_is_rejected(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 0.5, lambda: 0.0}
initial: {kind: fock, n: 1}
schedule: {kind: exchange_scan, k_max: 1}
outputs: [report]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert "coupling" in capsys.readouterr().err

    def test_numerical_breach_exits_three(self, tmp_path, monkeypatch):
        import oscswap.cli as cli_module

        def broken_initial(scenario):
            return np.array([2.0, 0.0]), 0.0  # not normalized

        monkeypatch.setattr(cli_module, "build_initial_state", broken_initial)
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [number_distribution]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 3


    def test_density_breach_at_one_interior_time_exits_three(self, tmp_path, capsys,
                                                              monkeypatch):
        import oscswap.cli as cli_module

        product_grid = cli_module.EvolutionOperator.product_grid

        def inflated(self, phi, ts):
            # scales the amplitudes at the second time only, after the norm check
            for times, tables in product_grid(self, phi, ts):
                tables[1] *= 1.001
                yield times, tables

        monkeypatch.setattr(cli_module.EvolutionOperator, "product_grid", inflated)
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 2}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 4}
outputs: [fidelity, reduced_density]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 3
        assert ("numerical integrity failure: density matrix trace is 1.002001"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_final_norm_breach_exits_three_leaving_no_output(self, tmp_path, capsys,
                                                             monkeypatch):
        import oscswap.cli as cli_module
        from oscswap.core import NumericalIntegrityError

        # the report's final norm is computed after both CSVs are written
        def failing(self, phi, ts):
            raise NumericalIntegrityError("evolution changed the norm by 1.000e-03")

        monkeypatch.setattr(cli_module.EvolutionOperator, "product_norms", failing)
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 2}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 4}
outputs: [fidelity, transfer_profile, report]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 3
        assert "numerical integrity failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_exchange_search_breach_exits_three_leaving_no_output(self, tmp_path, capsys,
                                                                  monkeypatch):
        import oscswap.cli as cli_module
        from oscswap.core import NumericalIntegrityError

        # the search runs after exchange_scan.csv is written
        def failing(*args):
            raise NumericalIntegrityError("evolution changed the norm by 1.000e-03")

        monkeypatch.setattr(cli_module.analysis, "find_exchange_time", failing)
        scenario = write_scenario(tmp_path, QUBIT_SCAN)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 3
        assert "numerical integrity failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_non_finite_evolution_exits_three(self, tmp_path, capsys):
        # omega t overflows, so every phase and the norm become NaN
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0e+300, omega2: 1.0e+300, lambda: 1.0}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0e+10, steps: 3}
outputs: [fidelity, report]
""",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 3
        assert "changed the norm by nan" in capsys.readouterr().err

    def test_huge_detuning_exchange_scan_names_params(self, tmp_path, capsys):
        # s underflows to 0, so every exchange time and the scan window are 0
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0e+300, omega2: 1, lambda: 1}
initial: {kind: fock, n: 1}
schedule: {kind: exchange_scan, k_max: 2}
outputs: [report]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith('error: scenario field "params": exchange times')
        assert "params.omega1" in err and "params.lambda" in err
        assert not (tmp_path / "out").exists()

    def test_tiny_lambda_exchange_scan_names_params(self, tmp_path, capsys):
        # s c pi / lambda overflows, so every exchange time and the scan window are inf
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1, omega2: 1, lambda: 1.0e-320}
initial: {kind: fock, n: 1}
schedule: {kind: exchange_scan, k_max: 2}
outputs: [report]
""",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith('error: scenario field "params": exchange times')
        assert "params.omega1" in err and "params.lambda" in err
        assert not (tmp_path / "out").exists()

    def test_coherent_alpha_20_at_truncation_534_matches_mpmath(self, tmp_path):
        # the tail beyond n = 534 is below the 1e-10 threshold; with omega / lambda = 3
        # the exchange is complete at t = pi / 2
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 3.0, omega2: 3.0, lambda: 1.0}
initial: {kind: coherent, alpha: 20, truncation: 534}
schedule: {kind: time_grid, t_start: 0.0, t_end: 3.141592653589793, steps: 11}
outputs: [fidelity, report]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        _, rows = read_csv(out / "fidelity.csv")
        with mpmath.workdps(50):
            poisson = [mpmath.exp(-400) * mpmath.mpf(400) ** n / mpmath.factorial(n)
                       for n in range(535)]
        params = CouplingParams(omega1=3.0, omega2=3.0, lam=1.0)
        for t, fidelity in rows:
            assert fidelity == pytest.approx(mp_exchange_fidelity(params, poisson, t), abs=1e-12)
        assert rows[5, 1] == pytest.approx(1.0, abs=1e-12)
        report = (out / "report.txt").read_text()
        assert "n_max: 534\n" in report
        final_norm = float(report.split("final_norm: ")[1].split()[0])
        assert final_norm == pytest.approx(1.0, abs=1e-12)

    def test_coherent_alpha_27_29_at_truncation_762_names_its_quarter_tail(
        self, tmp_path, capsys
    ):
        # mpmath: gammainc(763, 0, 27.29**2, regularized=True) = 0.2565. A Poisson
        # recursion started at the subnormal exp(-744.7) summed the kept weights to
        # 1.356 and reported a tail of 0.
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: coherent, alpha: 27.29, truncation: 762}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert 'scenario field "initial.truncation"' in err
        assert "discarded coherent tail probability 2.565" in err

    def test_coherent_alpha_28_at_truncation_1000_runs(self, tmp_path, capsys):
        # mpmath: gammainc(1001, 0, 784, regularized=True) = 5.96e-14, below the
        # threshold. The recursion, started at exp(-784) = 0, reported a tail of 1.
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: coherent, alpha: 28, truncation: 1000}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        tail = float(printed.split("coherent_tail_discarded=")[1])
        with mpmath.workdps(40):
            expected = float(mpmath.gammainc(1001, 0, 784, regularized=True))
        assert tail == pytest.approx(expected, rel=1e-12)

    def test_resonant_run_reaches_block_44(self, tmp_path):
        values = ", ".join(["1.0"] * 45)
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: 1.0, omega2: 1.0, lambda: 0.5}}
initial: {{kind: amplitudes, values: [{values}]}}
n_max: 44
schedule: {{kind: time_grid, t_start: 0.0, t_end: 3.0, steps: 3}}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0

    def test_resonant_coherent_run_past_the_closed_form_ceiling(self, tmp_path):
        # reaches block 50; the paper's alternating sum loses orthogonality from block 45
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: coherent, alpha: 4, truncation: 50}
schedule: {kind: time_grid, t_start: 0.0, t_end: 6.0, steps: 5}
outputs: [fidelity, report]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0

    def test_resonant_n_max_60_matches_closed_form(self, tmp_path):
        # F(t) = |sum_n p_n T**n|**2 with T = exp(-i omega t) (-i sin(lambda t)) at resonance
        omega, lam = 1.0, 0.5
        values = [math.sqrt(n + 1.0) for n in range(61)]
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: {omega}, omega2: {omega}, lambda: {lam}}}
initial: {{kind: amplitudes, values: {values}}}
n_max: 60
schedule: {{kind: time_grid, t_start: 0.0, t_end: 7.0, steps: 15}}
outputs: [fidelity]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        _, rows = read_csv(out / "fidelity.csv")
        p = np.array(values) ** 2 / np.sum(np.array(values) ** 2)
        for t, fidelity in rows:
            hop = np.exp(-1j * omega * t) * (-1j * math.sin(lam * t))
            assert fidelity == pytest.approx(abs(np.sum(p * hop ** np.arange(61))) ** 2, abs=1e-9)

    @pytest.mark.parametrize(
        "params, run",
        [("{omega1: 1.0e+300, omega2: 1.0, lambda: 1.0e-10}", SHORT_GRID),
         ("{omega1: 1.0e+308, omega2: -1.0e+308, lambda: 1.0}", SHORT_GRID),
         ("{omega1: 1.0, omega2: 1.0e+300, lambda: 1.0e-10}", SHORT_GRID),
         ("{omega1: -1.0e+308, omega2: 1.0e+308, lambda: 1.0}", SHORT_GRID),
         # the detuning is finite, but the scan step pi / (50 lambda) underflows to 0
         ("{omega1: 1.0e+300, omega2: 2, lambda: 1.7e+308}",
          "schedule: {kind: exchange_scan, k_max: 2}\noutputs: [report]")],
        ids=["detuning-overflows", "difference-overflows",
             "negative-detuning-overflows", "negative-difference-overflows",
             "scan-step-underflows"],
    )
    def test_overflowing_detuning_names_params(self, tmp_path, capsys, params, run):
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {params}
initial: {{kind: fock, n: 1}}
{run}
""",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert 'scenario field "params"' in capsys.readouterr().err

    def test_lambda_above_half_the_double_range_runs(self, tmp_path):
        # 2 lambda overflows; the detuning and the half splitting must not
        scenario = write_scenario(
            tmp_path,
            f"""\
params: {{omega1: 1.0e+300, omega2: 2, lambda: 1.7e+308}}
initial: {{kind: fock, n: 1}}
{SHORT_GRID}
""",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        mix = derive_mixing(CouplingParams(1.0e300, 2.0, 1.7e308))
        assert mix.x == 0.5 * (1.0e300 - 2.0) / 1.7e308
        assert math.isfinite(mix.half_splitting)
        _, rows = read_csv(tmp_path / "out" / "fidelity.csv")
        for t, fidelity in rows:
            hop = 2.0 * mix.s * mix.c * math.sin(mix.half_splitting * t)
            assert fidelity == pytest.approx(hop**2, abs=1e-12)

    def test_each_state_is_reduced_once_per_mode(self, tmp_path, monkeypatch):
        import oscswap.cli as cli_module

        # the whole grid is reduced by one batched call per mode; no per-state reduce
        calls = []
        batched = cli_module.analysis.reduced_densities
        monkeypatch.setattr(
            cli_module.analysis,
            "reduced_densities",
            lambda tables, mode: calls.append((len(tables), mode)) or batched(tables, mode),
        )
        monkeypatch.setattr(cli_module.analysis, "reduce", None)
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 2}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 4}
outputs: [number_distribution, reduced_density]
""",
        )
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        assert calls == [(4, 1), (4, 2)]


class TestValidation:
    def test_negative_lambda_names_the_field(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: -0.5}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5, omega3: 2.0}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "omega3" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "params.lambda" in capsys.readouterr().err

    def test_truncation_below_support(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 3}
n_max: 2
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "n_max" in capsys.readouterr().err

    def test_output_not_available_for_schedule(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 3.0, omega2: 3.0, lambda: 1.0}
initial: {kind: qubit, c0: 0.6, cn: 0.8, n: 1}
schedule: {kind: exchange_scan, k_max: 1}
outputs: [reduced_density]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "outputs[0]" in capsys.readouterr().err

    def test_reversed_time_window(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 2.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
""",
        )
        assert main(["run", str(scenario)]) == 2
        assert "schedule.t_end" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "inside-file"])
    def test_out_is_a_file(self, tmp_path, capsys, below):
        scenario = write_scenario(tmp_path, QUBIT_SCAN)
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main(["run", str(scenario), "--out", str(taken / below)]) == 2
        assert "error: --out" in capsys.readouterr().err
        assert taken.read_text() == "keep me\n"


BUDGET_BASE = """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 1}
schedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}
outputs: [fidelity]
"""


# (text in BUDGET_BASE, its replacement, the field the error names)
BUDGET_CASES = [
    ("{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}",
     "{kind: exchange_scan, k_max: 1001}", "schedule.k_max"),
    ("{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}",
     "{kind: exchange_scan, k_max: 100000000}", "schedule.k_max"),
    ("steps: 2", "steps: 100001", "schedule.steps"),
    ("outputs: [fidelity]", "n_max: 1001\noutputs: [fidelity]", "n_max"),
    ("{kind: fock, n: 1}", "{kind: fock, n: 1001}", "initial.n"),
    ("{kind: fock, n: 1}", "{kind: qubit, c0: 0.6, cn: 0.8, n: 1001}", "initial.n"),
    ("{kind: fock, n: 1}", "{kind: amplitudes, values: [%s]}" % ", ".join(["1"] * 1002),
     "initial.values"),
    ("{kind: fock, n: 1}", "{kind: coherent, alpha: 0.5, truncation: 1001}",
     "initial.truncation"),
    # the density outputs keep the limit n_max <= 200
    ("outputs: [fidelity]", "n_max: 201\noutputs: [fidelity, number_distribution]", "n_max"),
    ("{kind: fock, n: 1}\nschedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}\n"
     "outputs: [fidelity]",
     "{kind: fock, n: 201}\nschedule: {kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}\n"
     "outputs: [reduced_density]", "initial.n"),
    ("steps: 2}\noutputs: [fidelity]",
     "steps: 651}\nn_max: 61\noutputs: [reduced_density]", "outputs"),
    # with a density output, 16462 x (3 x 62**3 + 500000), 805 x (3 x 201**3 + 500000)
    # and 37895 x (3 x 21**3 + 500000) exceed 2e10
    ("steps: 2}\noutputs: [fidelity]",
     "steps: 16462}\nn_max: 61\noutputs: [number_distribution]", "schedule.steps"),
    ("steps: 2}\noutputs: [fidelity]",
     "steps: 805}\nn_max: 200\noutputs: [number_distribution]", "schedule.steps"),
    ("steps: 2}\noutputs: [fidelity]",
     "steps: 37895}\nn_max: 20\noutputs: [fidelity, reduced_density]", "schedule.steps"),
    ("{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}\noutputs: [fidelity]",
     "{kind: exchange_scan, k_max: 40}\nn_max: 1001\noutputs: [report]", "n_max"),
]
BUDGET_IDS = ["k_max", "k_max-huge", "steps", "n_max", "fock-n", "qubit-n", "amplitudes",
              "coherent", "n_max-density", "fock-n-density", "csv-cells", "grid-work-steps",
              "grid-work-density-n_max-200", "grid-work-density-n_max-20", "scan-n_max"]


class TestCostBudget:
    @pytest.mark.parametrize("old, new, field", BUDGET_CASES, ids=BUDGET_IDS)
    def test_over_budget_names_the_field(self, tmp_path, capsys, old, new, field):
        assert old in BUDGET_BASE
        scenario = write_scenario(tmp_path, BUDGET_BASE.replace(old, new))
        assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        assert f'scenario field "{field}"' in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# leaves for the scenario contract's property test: half of them plain, so
# that a case gets past its first fields and failures shrink toward them, half
# the extremes of each YAML scalar
EXTREME_LEAVES = [0, -1, 1e300, -1e300, 1.7e308, -1.7e308, 5e-324, 1e-320,
                  10**400, -(10**400), 2**64, True, False, "x", "", math.inf, math.nan]
_leaf = st.sampled_from([1, 0.5, 2]) | st.sampled_from(EXTREME_LEAVES)
_count = st.sampled_from([1, 2, 0, 3]) | _leaf
_amplitude = _leaf | st.lists(_leaf, min_size=2, max_size=2)
SCENARIO_TREES = st.fixed_dictionaries(
    {
        "params": st.fixed_dictionaries({"omega1": _leaf, "omega2": _leaf, "lambda": _leaf}),
        "initial": st.one_of(
            st.fixed_dictionaries({"kind": st.just("fock"), "n": _count}),
            st.fixed_dictionaries(
                {"kind": st.just("qubit"), "c0": _amplitude, "cn": _amplitude, "n": _count}
            ),
            st.fixed_dictionaries(
                {"kind": st.just("amplitudes"), "values": st.lists(_amplitude, max_size=3)}
            ),
            st.fixed_dictionaries(
                {"kind": st.just("coherent"), "alpha": _amplitude, "truncation": _count}
            ),
        ),
        "schedule": st.one_of(
            st.fixed_dictionaries({"kind": st.just("time_grid"), "t_start": _leaf,
                                   "t_end": _leaf, "steps": _count}),
            st.fixed_dictionaries({"kind": st.just("exchange_scan"), "k_max": _count}),
        ),
        "outputs": st.lists(st.sampled_from(["fidelity", "transfer_profile", "report",
                                             "number_distribution", "reduced_density"]),
                            max_size=3),
    },
    optional={"n_max": _count, "coherent_tail_threshold": _leaf},
)


def _parse_outcome(text, loader):
    """The parsed scenario, or the field its ScenarioError names."""
    try:
        return parse_scenario(yaml.load(text, Loader=loader))
    except ScenarioError as exc:
        return exc.field


@settings(max_examples=150, database=None)
@seed(20261018)
@given(tree=SCENARIO_TREES)
def test_scenario_contract_holds(tmp_path_factory, tree):
    # any scenario exits 0, exits 2 naming a field, or exits 3 on a self-check;
    # never 1 and never a traceback
    text = yaml.safe_dump(tree)
    outcomes = [_parse_outcome(text, loader) for loader in (yaml.SafeLoader, yaml.CSafeLoader)]
    assert outcomes[0] == outcomes[1]
    path = tmp_path_factory.mktemp("contract") / "scenario.yaml"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            np.errstate(all="ignore"):
        code = main(["run", str(path), "--out", str(path.parent / "out")])
    if isinstance(outcomes[0], str):
        assert code == 2 and f'scenario field "{outcomes[0]}"' in err.getvalue()
    else:
        assert code in (0, 2, 3), err.getvalue()
        if code == 2:
            assert 'scenario field "' in err.getvalue()
        if code == 3:
            assert "numerical integrity failure" in err.getvalue()


def csv_text(rows):
    """The byte chunks :func:`cli._csv_rows` yields, joined and decoded."""
    return b"".join(_csv_rows(rows)).decode("ascii")


def percent_rows(rows):
    """CSV lines as every value was written before the array formatter: the reference."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def assert_rows_match_percent(rows):
    # names the first differing cell; a diff of two long strings takes minutes
    got, expected = csv_text(rows), percent_rows(rows)
    if got != expected:
        cells = zip(rows.ravel().tolist(), re.split("[,\n]", got), re.split("[,\n]", expected))
        value, wrote, wanted = next((cell for cell in cells if cell[1] != cell[2]),
                                    (None, got[-60:], expected[-60:]))
        pytest.fail(f"{value!r} written as {wrote!r}, % writes {wanted!r}")


@pytest.mark.parametrize("seed", [0, 1])
def test_row_formatter_matches_fmt(seed):
    special = [0.0, -0.0, 5e-324, 1e-320, 1e308, math.nan, math.inf, -math.inf, 1.0 / 3.0]
    rng = np.random.default_rng(seed)
    rows = np.array([special, rng.normal(size=len(special)) * 10.0 ** rng.integers(-300, 300)])
    expected = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows.tolist())
    assert csv_text(rows) == expected
    # the same rows often enough to take the array formatter
    copies = cli._ARRAY_MIN_CELLS // rows.size + 1
    assert csv_text(np.tile(rows, (copies, 1))) == expected * copies


def test_row_formatter_matches_percent_on_random_bits():
    # every finite double is equally likely by exponent here, nan and inf included
    bits = np.random.default_rng(14).integers(0, 2**64, size=200_000, dtype=np.uint64)
    rows = bits.view(np.float64).reshape(-1, 8)
    assert_rows_match_percent(rows)


def test_row_formatter_edge_cases():
    powers = [float(f"1e{p}") for p in range(-323, 309)]
    ends = [10.0**k for k in (16 - cli._P_MAX, 16 - cli._P_MIN)]  # the power table's last cells
    values = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e17, 1.7976931348623157e308,
        0.30000000000000004, 0.1, 1e-4, 1e-5, 123456789012345678.0, 99999999999999999.0,
        # exact ties between two 17-digit decimals, which % rounds half to even
        1234567890123456.75, 1234567890123456.25, -1234567890123456.75, 123456789012345.125,
        *powers, *ends,
    ]
    values += [float(np.nextafter(v, toward)) for v in powers + ends for toward in (0.0, math.inf)]
    values += [-v for v in values]
    rows = np.array(values).reshape(-1, 2)
    assert_rows_match_percent(rows)
    assert rows.size >= cli._ARRAY_MIN_CELLS
    assert "1234567890123456.8,1234567890123456.2\n" in csv_text(rows)


def exact_decimals(k, count, rng):
    """Doubles whose %.17g text has ``count`` significant digits at decimal
    exponent ``k``, and their negatives: the first to print so of 500 random
    digit strings, and of 500 with zeros between their first and last digit.
    Of one digit there are only 9 strings, and at some k none prints so."""
    draws = rng.integers(0, 10, (2, 500, count))
    draws[:, :, [0, -1]] = rng.integers(1, 10, (2, 500, 2))
    draws[1, :, 1:-1] = 0
    found = []
    for strings in draws:
        for digits in strings:
            mantissa = "".join(map(str, digits))
            value = float(f"{mantissa[0]}.{mantissa[1:]}e{k}")
            if "%.16e" % value == f"{mantissa[0]}.{mantissa[1:]:0<16}e{k:+03d}":
                found += [value, -value]
                break
    return found


def test_row_formatter_matches_percent_at_every_exponent_and_digit_count():
    # every point position (k = 0..15 with more than k + 1 digits), the last
    # significant digit in each of the four groups of digits 2-17, zero
    # groups between nonzero digits, and the prefix and exponent forms
    rng = np.random.default_rng(22)
    values, missing = [], []
    for k in range(-6, 19):
        for count in range(1, 18):
            found = exact_decimals(k, count, rng)
            values += found
            if len(found) < 4:
                missing.append((k, count, len(found)))
    # no double prints as one digit times 1e-6 or 1e-5
    assert missing == [(-6, 1, 0), (-5, 1, 0)]
    values += [1.0000000000000002, 100000000.00000001, 10000000000000002.0,
               1.0000000000000003e-5, 0.00012000000000000002, 9000000000000000.0]
    assert_rows_match_percent(np.array(values).reshape(-1, 2))


def test_digit_group_tables_match_their_text():
    # each group g < 10**4 as its 4 ASCII digits, in the low and the high
    # half of a little-endian word, and its trailing zeros
    _, text4, high_text4, zeros, *_ = cli._tables()
    groups = [f"{g:04d}" for g in range(10**4)]
    assert text4.astype("<u4").tobytes() == "".join(groups).encode()
    assert high_text4.astype("<u8").tobytes() == "".join("\0" * 4 + g for g in groups).encode()
    assert zeros.tolist() == [len(g) - len(g.rstrip("0")) for g in groups]


def test_time_grid_csvs_match_percent_reference(tmp_path, monkeypatch):
    # every CSV of an n_max 20 run with all four outputs, byte for byte the
    # % expression applied to the arrays the run formats
    calls = []
    csv_rows = cli._csv_rows

    def recording(rows, twins=None):
        calls.append((rows.copy(), twins))
        return csv_rows(rows, twins)

    monkeypatch.setattr(cli, "_csv_rows", recording)
    values = np.random.default_rng(20).normal(size=(21, 2)).tolist()
    scenario = write_scenario(
        tmp_path,
        f"""\
params: {{omega1: 1.3, omega2: 0.9, lambda: 0.4}}
initial: {{kind: amplitudes, values: {values}}}
n_max: 20
schedule: {{kind: time_grid, t_start: 0.0, t_end: 9.0, steps: 40}}
outputs: [fidelity, number_distribution, reduced_density, transfer_profile]
""",
    )
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    sizes = [rows.size for rows, _ in calls]
    assert min(sizes) < cli._ARRAY_MIN_CELLS and max(sizes) > cli._CHUNK_CELLS
    for name in ("fidelity", "number_distribution", "reduced_density", "transfer_profile"):
        written = (out / f"{name}.csv").read_bytes()
        header = written.split(b"\n", 1)[0]
        # the four outputs differ in width, so the width tells which calls wrote a file
        width = header.count(b",") + 1
        body = "".join(percent_rows(rows) for rows, _ in calls if rows.shape[1] == width)
        assert written == header + b"\n" + body.encode()
    # the densities written are Hermitian parts, and their writer was told so
    (rows, twins), = [call for call in calls if call[0].shape[1] == 1 + 4 * 21**2]
    rho = rows[:, 1:].view(np.complex128).reshape(-1, 2, 21, 21)
    assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
    assert np.array_equal(twins, cli._hermitian_twins(21))


def hermitian_rows(rng, count, dim, pool):
    """Rows of reduced_density layout: t, then the Hermitian parts 0.5 (A + A^H)
    of a stack of two complex matrices per row, their entries drawn from ``pool``."""
    shape = (count, 2, dim, dim)
    a = rng.choice(pool, size=shape) + 1j * rng.choice(pool, size=shape)
    hermitian = a + a.conj().swapaxes(-1, -2)
    hermitian *= 0.5
    return np.column_stack([rng.normal(size=count), hermitian.view(np.float64).reshape(count, -1)])


# signed zeros, subnormals, exact ties and their neighbours, values outside
# the power table, and ordinary values over many exponents
HERMITIAN_POOL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-290, -3e-300, 1e300,
    -1.5e299, 2.5e-285, 1234567890123456.75, -1234567890123456.25, 123456789012345.125,
    float(np.nextafter(1234567890123456.75, 0.0)), float(np.nextafter(123456789012345.125, 2e15)),
    0.30000000000000004, 1e-4, -1e-5, 1e16, 1e17, 0.5, -0.25,
])


@pytest.mark.parametrize("chunk", [16384, 97, 256])
@pytest.mark.parametrize("dim", [1, 3, 21])
def test_hermitian_rows_match_percent(monkeypatch, dim, chunk):
    # every cell written as % writes it, with the twin map of the run, whether
    # a chunk holds many rows or a row spans many chunks
    monkeypatch.setattr(cli, "_CHUNK_CELLS", chunk)
    rng = np.random.default_rng(19 * dim + chunk)
    pool = np.concatenate([HERMITIAN_POOL, rng.normal(size=40) * 10.0 ** rng.integers(-30, 30, 40)])
    rows = hermitian_rows(rng, -(-cli._ARRAY_MIN_CELLS // (1 + 4 * dim * dim)) + 7, dim, pool)
    twins = cli._hermitian_twins(dim)
    assert b"".join(_csv_rows(rows, twins)).decode("ascii") == percent_rows(rows)


def test_hermitian_rows_format_each_pair_once(monkeypatch):
    # of a 21 x 21 pair of Hermitian matrices, t and the 2 x 231 upper
    # cells' re and im are formatted, 925 of 1765 cells per row
    formatted = []
    cell_slots = cli._cell_slots
    monkeypatch.setattr(cli, "_cell_slots", lambda values: formatted.append(values.size)
                        or cell_slots(values))
    rng = np.random.default_rng(925)
    rows = hermitian_rows(rng, 40, 21, rng.normal(size=50))
    assert b"".join(_csv_rows(rows, cli._hermitian_twins(21))).decode("ascii") == percent_rows(rows)
    assert sum(formatted) == 40 * 925
    assert max(formatted) <= cli._CHUNK_CELLS


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_twin_map_changes_nothing(seed):
    # cells whose magnitude is not their twin's, nan and inf among them, are
    # formatted themselves: the map only saves work
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(300, 12), dtype=np.uint64)
    rows = bits.view(np.float64)
    rows[:, 5] = -rows[:, 2]  # some twins that do mirror
    twins = np.arange(12)
    twins[[4, 5, 7, 9, 11]] = [0, 2, 2, 3, 3]
    assert b"".join(_csv_rows(rows, twins)).decode("ascii") == percent_rows(rows)


def test_time_grid_streams_its_csvs(tmp_path, monkeypatch):
    # with a few times per chunk, a run holds one chunk of its CSV at a time:
    # its traced peak stays far below the size of what it writes
    from oscswap import evolution

    monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 4 * 21 * 21)
    values = np.random.default_rng(20).normal(size=(21, 2)).tolist()
    scenario = write_scenario(
        tmp_path,
        f"""\
params: {{omega1: 1.3, omega2: 0.9, lambda: 0.4}}
initial: {{kind: amplitudes, values: {values}}}
n_max: 20
schedule: {{kind: time_grid, t_start: 0.0, t_end: 9.0, steps: 300}}
outputs: [reduced_density]
""",
    )
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (out / "reduced_density.csv").stat().st_size
    assert size >= 10 * 2**20
    assert peak < size / 3, f"traced peak {peak} bytes for a CSV of {size} bytes"


def test_final_norm_builds_no_table(tmp_path):
    # at n_max 1000 one amplitude table is 16 MB. The run carries phi alone:
    # the report's final norm is the closed form
    # sqrt(sum_n |phi_n|^2 (|S|^2 + |T|^2)^n), and an exchange scan grades
    # the amplitudes phi_n T^n, both O(n_max) per time
    table = 1001**2 * np.dtype(np.complex128).itemsize
    flat = ", ".join(["1.0"] * 1001)
    cases = [
        ("initial: {kind: fock, n: 1000}\n"
         "schedule: {kind: time_grid, t_start: 0.0, t_end: 10.0, steps: 5}\n"
         "outputs: [fidelity, report]\n", 2**20),
        (f"initial: {{kind: amplitudes, values: [{flat}]}}\n"
         "schedule: {kind: exchange_scan, k_max: 3}\noutputs: [report]\n", table),
    ]
    for i, (body, limit) in enumerate(cases):
        scenario = load_scenario(write_scenario(
            tmp_path, "params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}\n" + body, f"{i}.yaml"))
        tracemalloc.start()  # the initial state is built inside
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run_scenario(scenario, tmp_path / f"out{i}") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"traced peak {peak} bytes above {limit} for case {i}"
    report = (tmp_path / "out0" / "report.txt").read_text()
    final_norm = float(report.split("final_norm: ")[1].split()[0])
    assert final_norm == pytest.approx(1.0, abs=1e-12)


def test_runs_build_no_two_mode_state(tmp_path, monkeypatch):
    # a run carries phi alone; the densities come from plain arrays of tables
    def refuse(self):
        raise AssertionError("a TwoModeState was built on the run path")

    monkeypatch.setattr(TwoModeState, "__post_init__", refuse)
    five = FOCK_GRID.replace("outputs: [", "outputs: [reduced_density, ")
    for i, text in enumerate([five, QUBIT_SCAN]):
        scenario = write_scenario(tmp_path, text, f"{i}.yaml")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(scenario), "--out", str(tmp_path / f"out{i}")]) == 0
    assert len(list((tmp_path / "out0").glob("*.csv"))) == 4


def test_scan_does_not_depend_on_n_max(tmp_path):
    # find_exchange_time normalizes phi again, over the entries the scenario
    # gives; over phi padded to n_max + 1 the norm's sum would run in another
    # order, which moves the last digits of these amplitudes' scan
    values = ("[[-0.3996743969219966, -0.3171435340207458],"
              " [0.5454553063164224, -0.6300071469626134]]")
    scans = []
    for i, n_max in enumerate(["", "n_max: 34\n"]):
        scenario = write_scenario(tmp_path, (
            "params: {omega1: 1.3, omega2: 0.9, lambda: 0.4}\n"
            f"initial: {{kind: amplitudes, values: {values}}}\n{n_max}"
            "schedule: {kind: exchange_scan, k_max: 4}\noutputs: [report]\n"), f"{i}.yaml")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(scenario), "--out", str(tmp_path / f"out{i}")]) == 0
        lines = (tmp_path / f"out{i}" / "report.txt").read_text().splitlines()
        scans.append([line for line in lines if line.startswith("numerical_scan")])
    assert len(scans[0]) == 2
    assert scans[0] == scans[1]


@pytest.mark.parametrize("off", [-1.0, 1.0])
def test_row_formatter_survives_a_wrong_exponent(monkeypatch, off):
    # the decimal exponent is floor(log10|v|); when that is one off either way,
    # the scaled value leaves [1e16, 1e17) and the cell must be written by %
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + off)
    rows = np.random.default_rng(3).normal(size=(64, 5)) * 10.0 ** np.arange(-6, 9, 3)
    assert_rows_match_percent(rows)


@settings(max_examples=40, database=None, deadline=None)
@seed(20261014)
@given(
    values=st.lists(st.floats(), min_size=1, max_size=40),
    cells=st.sampled_from([cli._ARRAY_MIN_CELLS - 1, cli._ARRAY_MIN_CELLS,
                           cli._CHUNK_CELLS, cli._CHUNK_CELLS + 7]),
    columns=st.integers(1, 7),
)
def test_row_formatter_matches_percent(values, cells, columns):
    # drawn doubles of every kind, in arrays around both size thresholds
    rows = np.resize(np.array(values), -(-cells // columns) * columns).reshape(-1, columns)
    assert_rows_match_percent(rows)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["evolution", "oracle", "exchange"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", suite]) == 0
        stdout = capsys.readouterr().out
        assert "result: PASS" in stdout
        assert "max residual" in stdout

    def test_rotation_suite_passes(self, capsys):
        assert main(["verify", "rotation"]) == 0
        stdout = capsys.readouterr().out
        assert "result: PASS" in stdout
        assert stdout.count("[PASS]") == 5

    def test_unknown_suite(self, capsys):
        assert main(["verify", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_tolerance_override_can_fail(self, capsys):
        # an absurdly tight tolerance flips the battery to FAIL, exit 1
        assert main(["verify", "oracle", "--tol", "1e-30"]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
    def test_invalid_tolerance_is_rejected(self, capsys, tol):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "oracle", "--tol", tol])
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_verify_schedule_in_scenario(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            """\
params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}
initial: {kind: fock, n: 1}
schedule: {kind: verify, suite: oracle}
outputs: [report]
""",
        )
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        assert "result: PASS" in (out / "report.txt").read_text()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "oscswap" in capsys.readouterr().out


class TestRepeatedCalls:
    """``main`` in a closed loop, as one process: one parser, no state carried over."""

    def test_builds_one_parser(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        scenario = write_scenario(tmp_path, QUBIT_SCAN)
        for _ in range(3):
            assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
        assert main(["verify", "bogus"]) == 2
        with pytest.raises(SystemExit):
            main(["--version"])
        # one parser, with the parsers of its two subcommands
        assert built == ["oscswap", "oscswap run", "oscswap verify"]

    def test_a_tolerance_does_not_carry_over(self, capsys):
        assert main(["verify", "rotation", "--tol", "1e-300"]) == 1
        assert main(["verify", "rotation"]) == 0
        assert capsys.readouterr().out.count("result: PASS") == 1

    def test_a_failed_run_does_not_carry_over(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", str(tmp_path / "missing.yaml"), "--out", str(elsewhere)]) == 2
        scenario = write_scenario(tmp_path, QUBIT_SCAN)
        assert main(["run", str(scenario)]) == 0  # into the default --out
        assert (tmp_path / "out" / "report.txt").is_file()
        assert not elsewhere.exists()

    def test_version_exits_every_time(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["--version"])
            assert excinfo.value.code == 0
        assert capsys.readouterr().out.count("oscswap") == 2
