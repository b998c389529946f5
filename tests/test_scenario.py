import math

import mpmath
import numpy as np
import pytest

from oscswap.scenario import build_initial_state, parse_scenario


def raw_scenario(initial=None, schedule=None, **top):
    raw = {
        "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.5},
        "initial": initial or {"kind": "fock", "n": 1},
        "schedule": schedule or {"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 2},
    }
    raw.update(top)
    return raw


class TestCostBudgetLimitsParse:
    def test_k_max_limit(self):
        raw = raw_scenario(schedule={"kind": "exchange_scan", "k_max": 1000})
        assert parse_scenario(raw).schedule.k_max == 1000

    def test_steps_limit(self):
        raw = raw_scenario(
            schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 100000}
        )
        assert parse_scenario(raw).schedule.steps == 100000

    @pytest.mark.parametrize(
        "initial, top",
        [
            ({"kind": "fock", "n": 1}, {"n_max": 200}),
            ({"kind": "fock", "n": 200}, {}),
            ({"kind": "qubit", "c0": 0.6, "cn": 0.8, "n": 200}, {}),
            ({"kind": "amplitudes", "values": [1.0] * 201}, {}),
            ({"kind": "coherent", "alpha": 0.5, "truncation": 200}, {}),
        ],
        ids=["explicit", "fock", "qubit", "amplitudes", "coherent"],
    )
    def test_n_max_limit(self, initial, top):
        assert parse_scenario(raw_scenario(initial=initial, **top)).n_max == 200

    def test_csv_cells_limit(self):
        # 80000 steps x (1 + 2 * 62) number_distribution columns = 10**7 cells
        raw = raw_scenario(
            schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 80000},
            n_max=61,
            outputs=["number_distribution", "report"],
        )
        assert parse_scenario(raw).schedule.steps == 80000


    @pytest.mark.parametrize(
        "schedule",
        [
            # 2462 x 201**3 and 50 x 49 x 201**3 time points x (n_max + 1)**3 stay under 2e10
            {"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 2462},
            {"kind": "exchange_scan", "k_max": 48},
        ],
        ids=["time_grid", "exchange_scan"],
    )
    def test_grid_work_limit(self, schedule):
        assert parse_scenario(raw_scenario(schedule=schedule, n_max=200)).n_max == 200


class TestCoherentState:
    def test_large_truncation_is_finite_and_normalized(self):
        alpha, truncation = 12.0, 180
        raw = raw_scenario(
            initial={"kind": "coherent", "alpha": alpha, "truncation": truncation},
            coherent_tail_threshold=1.0,
        )
        _, phi, discarded = build_initial_state(parse_scenario(raw))
        assert phi.shape == (truncation + 1,)
        assert np.all(np.isfinite(phi))
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
        with mpmath.workdps(30):
            mean = mpmath.mpf(alpha) ** 2
            kept = mpmath.exp(-mean) * mpmath.fsum(
                mean**n / mpmath.factorial(n) for n in range(truncation + 1)
            )
            tail = float(1 - kept)
        assert 1e-4 < tail < 1e-2
        assert discarded == pytest.approx(tail, rel=1e-9)

    def test_amplitudes_follow_alpha_power_over_root_factorial(self):
        alpha = complex(0.8, 0.3)
        raw = raw_scenario(initial={"kind": "coherent", "alpha": [0.8, 0.3], "truncation": 20})
        _, phi, _ = build_initial_state(parse_scenario(raw))
        expected = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(21)])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(phi, expected, rtol=1e-14)
