import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscswap.analysis import (
    NonPositiveRatioError,
    check_densities,
    complete_exchange_ratio,
    exchange_fidelities,
    exchange_fidelity,
    exchange_times,
    find_exchange_time,
    reduce,
    statistics_exchanges,
    transfer_probability,
    verify_statistics_exchange,
)
from oscswap.core import (
    CouplingParams,
    DecoupledSystemError,
    NumericalIntegrityError,
    TwoModeState,
    ZeroVectorError,
    make_product_state,
    product_amplitudes,
)
from oscswap import analysis, evolution, suites
from oscswap.evolution import EvolutionOperator
from conftest import (
    assert_suite_checks,
    mixing_for_detuning,
    params_for_detuning,
    random_phi,
    random_state,
    record_one_quantum,
    suite_report,
)


def resonant_evolution(ratio, lam=1.0):
    """Resonant pair with omega / lambda equal to the given ratio."""
    return EvolutionOperator(CouplingParams(omega1=ratio * lam, omega2=ratio * lam, lam=lam))


class TestExchangeTimes:
    def test_resonance_base_case(self):
        mix = mixing_for_detuning(0.0, lam=0.5)
        times = exchange_times(mix, 0.5, 1)
        assert times[0] == pytest.approx(math.pi, rel=1e-12)
        assert times[1] == pytest.approx(3.0 * math.pi, rel=1e-12)

    def test_resonance_first_time_is_quarter_period(self):
        for lam in (0.1, 1.0, 7.3):
            mix = mixing_for_detuning(0.0, lam=lam)
            assert exchange_times(mix, lam, 0)[0] == pytest.approx(
                math.pi / (2.0 * lam), rel=1e-12
            )

    def test_detuned_value(self):
        mix = mixing_for_detuning(1.0)
        assert exchange_times(mix, 1.0, 0)[0] == pytest.approx(
            math.pi / (2.0 * math.sqrt(2.0)), rel=1e-12
        )

    def test_decoupled_rejected(self):
        mix = mixing_for_detuning(0.0)
        with pytest.raises(DecoupledSystemError):
            exchange_times(mix, 0.0, 2)


class TestTransferProbability:
    def test_certain_at_first_exchange_time_on_resonance(self):
        lam = 0.8
        mix = mixing_for_detuning(0.0, lam=lam)
        tau0 = exchange_times(mix, lam, 0)[0]
        for n in (1, 2, 5, 9):
            assert transfer_probability(mix, lam, n, tau0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_start(self):
        mix = mixing_for_detuning(0.7)
        for n in (1, 2, 4):
            assert transfer_probability(mix, 1.0, n, 0.0) == 0.0
        assert transfer_probability(mix, 1.0, 0, 0.0) == 1.0

    def test_level_array_matches_each_level(self):
        mix = mixing_for_detuning(0.7, lam=0.8)
        ts = np.linspace(0.0, 9.0, 37)
        levels = np.array([0, 1, 3, 30])
        profile = transfer_probability(mix, 0.8, levels, ts[:, np.newaxis])
        assert profile.shape == (37, 4)
        for j, n in enumerate(levels.tolist()):
            np.testing.assert_array_equal(profile[:, j], transfer_probability(mix, 0.8, n, ts))
        with pytest.raises(ValueError):
            transfer_probability(mix, 0.8, np.array([2, -1]), ts)

    def test_decoupled_limit_never_transfers(self):
        from oscswap.core import decoupled_mixing

        mix = decoupled_mixing(CouplingParams(1.4, 0.9, 0.0))
        for t in (0.0, 1.3, 9.9):
            assert transfer_probability(mix, 0.0, 2, t) == 0.0

    @pytest.mark.parametrize("x", (0.0, 0.5, 1.0, 2.0, 5.0))
    def test_peak_value_follows_detuning_law(self, x):
        # peak of the single-quantum profile located numerically
        lam = 0.8
        mix = mixing_for_detuning(x, lam=lam)
        tau0 = exchange_times(mix, lam, 0)[0]
        ts = np.linspace(0.5 * tau0, 1.5 * tau0, 2001)
        peak = max(transfer_probability(mix, lam, 1, t) for t in ts)
        assert abs(peak - 1.0 / (1.0 + x * x)) < 1e-6
        assert transfer_probability(mix, lam, 1, tau0) == pytest.approx(
            1.0 / (1.0 + x * x), abs=1e-12
        )


class TestReduce:
    def test_product_state_is_pure(self):
        phi = np.array([0.6, 0.0, 0.8j])
        state = make_product_state(phi)
        rho1 = reduce(state, 1)
        rho2 = reduce(state, 2)
        np.testing.assert_allclose(rho1, np.outer(phi, phi.conj()), atol=1e-14)
        expected_vacuum = np.zeros((3, 3))
        expected_vacuum[0, 0] = 1.0
        np.testing.assert_allclose(rho2, expected_vacuum, atol=1e-14)

    def test_bell_like_state_mixes_maximally(self):
        state = TwoModeState(np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0))
        rho1 = reduce(state, 1)
        np.testing.assert_allclose(rho1, 0.5 * np.eye(2), atol=1e-14)

    def test_phase_kick_relation_at_exchange_time(self):
        # after a resonant exchange, mode 2 carries mode 1's initial matrix
        # conjugated by the diagonal phase kick
        rng = np.random.default_rng(3)
        omega, lam = 2.37, 0.53
        evo = resonant_evolution(omega / lam, lam)
        tau0 = exchange_times(evo.mix, lam, 0)[0]
        for _ in range(5):
            phi = random_phi(rng, 5)
            state0 = make_product_state(phi)
            rho1_initial = reduce(state0, 1)
            rho2_final = reduce(evo.evolve(state0, tau0), 2)
            kick = np.exp(-1j * (omega * tau0 + 0.5 * math.pi) * np.arange(6))
            predicted = np.outer(kick, kick.conj()) * rho1_initial
            assert np.max(np.abs(rho2_final - predicted)) < 1e-10
            # unimodular kick: the number distributions agree exactly
            np.testing.assert_allclose(
                np.diag(rho2_final), np.diag(rho1_initial), atol=1e-10
            )

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_density_matrix_contracts(self, seed):
        state = random_state(np.random.default_rng(seed), n_max=4)
        for mode in (1, 2):
            arr = reduce(state, mode)
            assert np.max(np.abs(arr - arr.conj().T)) < 1e-12
            assert np.trace(arr).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(arr)) > -1e-10

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            reduce(make_product_state([1.0]), 0)


class TestDensityChecks:
    BREACHES = {
        "hermiticity": (np.array([[0.5, 1e-9], [0.0, 0.5]]), "not Hermitian (defect 1.000e-09)"),
        "trace": (np.diag([0.5, 0.5 + 2e-10]), "trace is 1.0000000002, expected 1"),
        "eigenvalue": (np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]]),
                       "eigenvalue -1.000e-09 below the floor -1e-10"),
        # eigenvalues 1 + 2e-10 and -2e-10: twice the floor, just beyond it
        "eigenvalue-near-floor": (np.array([[0.5, 0.5 + 2e-10], [0.5 + 2e-10, 0.5]]),
                                  "eigenvalue -2.000e-10 below the floor -1e-10"),
        "nan": (np.full((2, 2), np.nan), "not Hermitian (defect nan)"),
    }

    @pytest.mark.parametrize("breach", sorted(BREACHES))
    def test_one_interior_matrix_of_a_stack_fails_as_a_single_one(self, breach):
        bad, message = self.BREACHES[breach]
        stack = np.array([np.diag([1.0, 0.0]), bad, np.eye(2) / 2])
        with pytest.raises(NumericalIntegrityError, match=re.escape(message)):
            check_densities(stack)

    @pytest.mark.parametrize("mode", [1, 2])
    @pytest.mark.parametrize(
        "table, message",
        [([[1.0 + 1e-10]], "trace is 1.0000000002"), ([[np.nan]], "not Hermitian (defect nan)")],
        ids=["trace", "nan"],
    )
    def test_reduce_checks_the_density_it_returns(self, table, message, mode):
        with pytest.raises(NumericalIntegrityError, match=re.escape(message)):
            reduce(TwoModeState(table), mode)

    def test_valid_stack_passes(self):
        check_densities(np.array([np.diag([1.0, 0.0]), np.eye(2) / 2]))

    def test_eigenvalue_above_the_floor_passes(self, monkeypatch):
        # eigenvalues 1 + 5e-11 and -5e-11, half the floor: Cholesky alone decides
        rho = np.array([[0.5, 0.5 + 5e-11], [0.5 + 5e-11, 0.5]])
        assert np.min(np.linalg.eigvalsh(rho)) == pytest.approx(-5e-11, rel=1e-5)
        monkeypatch.setattr(np.linalg, "eigvalsh", self.no_spectrum)
        check_densities(rho)
        check_densities(np.array([np.eye(2) / 2, rho]))

    def test_eigenvalue_below_the_floor_fails_alone(self):
        bad, message = self.BREACHES["eigenvalue-near-floor"]
        with pytest.raises(NumericalIntegrityError, match=re.escape(message)):
            check_densities(bad)

    @pytest.mark.parametrize(
        "bad", [np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]])],
        ids=["diagonal", "off-diagonal"],
    )
    def test_nan_fails(self, bad):
        with pytest.raises(NumericalIntegrityError):
            check_densities(np.array([np.eye(2) / 2, bad]))

    @staticmethod
    def no_spectrum(_):
        raise AssertionError("eigvalsh called on a valid stack")

    def test_valid_stack_needs_no_spectrum(self, monkeypatch):
        # the positivity of a valid stack is settled by the factorization alone
        monkeypatch.setattr(np.linalg, "eigvalsh", self.no_spectrum)
        state = random_state(np.random.default_rng(3), n_max=6)
        for mode in (1, 2):
            reduce(state, mode)

    def test_returns_the_hermitian_part_of_an_untouched_input(self):
        # a random density matrix with a 1e-14 anti-Hermitian defect
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        rho = a @ a.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
        rho += 1e-14j * rng.normal(size=rho.shape)
        before = rho.copy()
        hermitian = check_densities(rho)
        assert np.array_equal(rho, before)
        assert np.array_equal(hermitian, 0.5 * (rho + rho.conj().swapaxes(-1, -2)))
        assert np.array_equal(np.abs(hermitian), np.abs(hermitian.swapaxes(-1, -2)))


class TestExchangeFidelity:
    def test_exchanged_state_scores_one(self):
        phi = [0.6, 0.8]
        state = TwoModeState([[0.6, 0.8], [0.0, 0.0]])
        assert exchange_fidelity(state, phi) == pytest.approx(1.0, abs=1e-14)

    def test_unexchanged_fock_state_scores_zero(self):
        state = make_product_state([0.0, 1.0])
        assert exchange_fidelity(state, [0.0, 1.0]) == 0.0

    def test_qubit_at_matched_ratio(self):
        evo = resonant_evolution(3.0)
        tau0 = exchange_times(evo.mix, 1.0, 0)[0]
        phi = [0.6, 0.8]
        out = evo.evolve(make_product_state(phi), tau0)
        assert exchange_fidelity(out, phi) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_zero_target(self):
        with pytest.raises(ZeroVectorError):
            exchange_fidelity(make_product_state([1.0]), [0.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_tiny_and_huge_targets_score_as_their_direction(self, scale):
        # the norm of [1e-170, 1e-170] underflows to 0 and that of
        # [1e200, 1e200] overflows; the target is only a direction
        state = TwoModeState([[0.6, 0.8], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fid = exchange_fidelity(state, [scale, scale])
        assert fid == pytest.approx(exchange_fidelity(state, [1.0, 1.0]), abs=1e-15)
        assert fid == pytest.approx(0.98, abs=1e-15)

    def test_target_beyond_the_truncation_is_dropped_after_normalizing(self):
        state = TwoModeState([[0.6, 0.8], [0.0, 0.0]])
        # [1, 0, 1] / sqrt(2) cut to n_max = 1: |0.6 / sqrt(2)|^2
        assert exchange_fidelity(state, [1.0, 0.0, 1.0]) == pytest.approx(0.18, abs=1e-15)

    def test_no_times_give_no_fidelities(self, detuned):
        fids = exchange_fidelities(np.array([0.6, 0.8]), EvolutionOperator(detuned), [])
        assert fids.shape == (0,) and fids.dtype == np.float64


class TestCompleteExchangeRatio:
    def test_qubit_level(self):
        assert complete_exchange_ratio(1, 1) == 3.0

    def test_level_two(self):
        assert complete_exchange_ratio(2, 1) == 1.0

    def test_level_five_second_turn(self):
        assert complete_exchange_ratio(5, 2) == pytest.approx(0.6)

    def test_boundary_is_rejected(self):
        with pytest.raises(NonPositiveRatioError):
            complete_exchange_ratio(4, 1)
        with pytest.raises(NonPositiveRatioError):
            complete_exchange_ratio(5, 1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            complete_exchange_ratio(0, 1)
        with pytest.raises(ValueError):
            complete_exchange_ratio(1, 0)

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_matched_ratio_gives_exact_exchange(self, level):
        rng = np.random.default_rng(17 + level)
        ratio = complete_exchange_ratio(level, 1)
        evo = resonant_evolution(ratio)
        tau0 = exchange_times(evo.mix, 1.0, 0)[0]
        for _ in range(5):
            weight = rng.uniform(0.2, 0.8)
            phi = np.zeros(level + 1, dtype=complex)
            phi[0] = math.sqrt(weight) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            phi[level] = math.sqrt(1.0 - weight) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            out = evo.evolve(make_product_state(phi), tau0)
            assert exchange_fidelity(out, phi) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_detuning_the_ratio_costs_fidelity(self, level):
        ratio = complete_exchange_ratio(level, 1)
        phi = np.zeros(level + 1, dtype=complex)
        phi[0], phi[level] = 0.6, 0.8
        for factor in (0.95, 1.05):
            evo = resonant_evolution(ratio * factor)
            tau0 = exchange_times(evo.mix, 1.0, 0)[0]
            fid = exchange_fidelity(evo.evolve(make_product_state(phi), tau0), phi)
            assert fid < 1.0 - 1e-4

    def test_fidelity_decreases_monotonically_near_optimum(self):
        ratio = complete_exchange_ratio(1, 1)
        phi = [0.6, 0.8]
        fidelities = []
        for epsilon in (0.0, 0.01, 0.02, 0.04):
            evo = resonant_evolution(ratio * (1.0 + epsilon))
            tau0 = exchange_times(evo.mix, 1.0, 0)[0]
            fidelities.append(exchange_fidelity(evo.evolve(make_product_state(phi), tau0), phi))
        assert all(b < a for a, b in zip(fidelities, fidelities[1:]))


class TestStatisticsExchange:
    def test_moduli_swap_at_first_exchange_time(self):
        rng = np.random.default_rng(29)
        omega, lam = 2.37, 0.53
        evo = resonant_evolution(omega / lam, lam)
        taus = exchange_times(evo.mix, lam, 4)
        for _ in range(10):
            phi = product_amplitudes(random_phi(rng, int(rng.integers(1, 7))))
            # the hop -2i s c sin(lam t) changes sign from one exchange time to the next
            for tau in taus:
                report = verify_statistics_exchange(phi, evo, tau)
                assert report.statistics_match < 1e-10
                assert report.phase_defect < 1e-10
                assert 0.0 <= report.fidelity_exchange <= 1.0

    def test_no_transfer_at_start(self):
        evo = resonant_evolution(3.0)
        phi = np.array([0.6, 0.8])
        report = verify_statistics_exchange(product_amplitudes(phi), evo, 0.0)
        # nothing has moved yet: the mismatch is the whole excited weight
        assert report.statistics_match == pytest.approx(0.8, abs=1e-12)

    def test_fock_state_exchanges_at_every_exchange_time(self):
        for ratio in (3.0, 1.7):
            evo = resonant_evolution(ratio)
            taus = exchange_times(evo.mix, 1.0, 4)
            for level in (1, 3, 5):
                phi = np.zeros(level + 1, dtype=complex)
                phi[level] = 1.0
                for tau in taus:
                    report = verify_statistics_exchange(phi, evo, tau)
                    assert report.fidelity_exchange == pytest.approx(1.0, abs=1e-9)

    def test_suite_checks_the_grades_against_eigen_tables(self):
        assert_suite_checks("exchange", ["exchange grades: closed form vs eigen tables"])

    @pytest.mark.parametrize("x", [0.0, 0.7, -3.0])
    def test_table_matches_loop_over_single_states(self, monkeypatch, x):
        # three times per chunk of the seven powers T^n, so ten times span four chunks
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 3 * 7)
        rng = np.random.default_rng(41)
        evo = EvolutionOperator(params_for_detuning(x, lam=0.6, omega2=1.9))
        phi = random_phi(rng, 6)
        phi[2] = 0.0  # a level below the amplitude floor is skipped by both
        state0 = make_product_state(phi)
        taus = exchange_times(evo.mix, 0.6, 5)
        ts = np.array(taus + list(rng.uniform(0.0, 20.0, 4)))
        table = statistics_exchanges(state0.table[:, 0], evo, ts)
        assert table.shape == (len(ts), 3)
        for t, (fid, stats, defect) in zip(ts.tolist(), table.tolist()):
            want = graded_by_loop(state0, evo, t)
            assert fid == pytest.approx(want[0], abs=1e-14)
            assert stats == pytest.approx(want[1], abs=1e-14)
            assert abs(math.remainder(defect - want[2], math.tau)) < 1e-12
            report = verify_statistics_exchange(state0.table[:, 0], evo, t)
            assert report.time == t
            assert report.fidelity_exchange == pytest.approx(fid, abs=1e-14)
            assert report.statistics_match == pytest.approx(stats, abs=1e-14)
            assert abs(math.remainder(report.phase_defect - defect, math.tau)) < 1e-12

    def test_no_times_give_no_rows(self, detuned):
        rows = statistics_exchanges(np.array([0.6, 0.8]), EvolutionOperator(detuned), [])
        assert rows.shape == (0, 3) and rows.dtype == np.float64

    def test_s_and_t_are_evaluated_once_per_chunk(self, monkeypatch, detuned):
        # three times per chunk of the seven powers T^n, so ten times span four chunks
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 3 * 7)
        phi = random_phi(np.random.default_rng(43), 6)
        calls = record_one_quantum(monkeypatch)
        statistics_exchanges(phi, EvolutionOperator(detuned), np.linspace(0.0, 20.0, 10))
        assert [ts.size for ts in calls] == [3, 3, 3, 1]


def graded_by_loop(state0, evo, t, floor=1e-12):
    """Reference for the batched grading: the exchange grades of one time by
    a per-level loop over the amplitudes of one evolved state."""
    phi0 = state0.table[:, 0]
    out = evo.evolve(state0, t)
    swapped = out.table[0, :]
    stats = float(np.max(np.abs(np.abs(swapped) - np.abs(phi0))))
    mean = 0.5 * (evo.params.omega1 + evo.params.omega2)
    # the phase of the hop -2i s c sin(d t): -pi/2, or +pi/2 where the sine is negative
    hop = -0.5 * math.pi if math.sin(evo.mix.half_splitting * t) >= 0 else 0.5 * math.pi
    defect = 0.0
    for n in range(out.n_max + 1):
        if abs(swapped[n]) < floor or abs(phi0[n]) < floor:
            continue
        predicted = cmath.phase(phi0[n]) + (hop - mean * t) * n
        defect = max(defect, abs(math.remainder(cmath.phase(swapped[n]) - predicted, math.tau)))
    return exchange_fidelity(out, phi0), stats, defect


class TestFindExchangeTime:
    def test_finds_matched_qubit_optimum(self):
        evo = resonant_evolution(3.0)
        t_best, f_best = find_exchange_time(evo, [0.6, 0.8], 0.0, 4.0)
        assert f_best == pytest.approx(1.0, abs=1e-9)
        assert t_best == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_detuned_peak_matches_law(self):
        lam = 0.8
        evo = EvolutionOperator(params_for_detuning(1.0, lam=lam, omega2=1.1))
        tau0 = exchange_times(evo.mix, lam, 0)[0]
        t_best, f_best = find_exchange_time(evo, [0.0, 1.0], 0.5 * tau0, 1.5 * tau0)
        assert f_best == pytest.approx(0.5, abs=1e-10)
        assert t_best == pytest.approx(tau0, rel=1e-6)

    def test_rejects_empty_window(self):
        evo = resonant_evolution(3.0)
        with pytest.raises(ValueError):
            find_exchange_time(evo, [1.0], 1.0, 1.0)

    def test_rejects_a_step_that_underflows(self):
        # pi / (50 max(lambda, half splitting)) is 0 above about 3.6e306
        evo = EvolutionOperator(CouplingParams(1e300, 2, 1.7e308))
        with pytest.raises(ValueError, match="coarse step"):
            find_exchange_time(evo, [0, 1], 0.0, 1.0)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize(
        "ratio, phi",
        [(3.0, [0.6, 0.8]), (2.0, [0.0, 1.0]), (1.7, [0.0, 0.0, 0.0, 1.0]),
         (3.0, [0.3, 0.5, 0.1, 0.7])],
        ids=["matched-qubit", "fock-1", "fock-3", "any-state-ratio-3"],
    )
    def test_resonance_finds_quarter_period_within_old_xatol(self, lam, ratio, phi):
        evo = resonant_evolution(ratio, lam)
        tau0 = math.pi / (2.0 * lam)
        # no coarse grid point falls on tau0, so the refinement has to find it
        t_start, t_end = 0.3 * tau0, 1.7 * tau0
        steps = math.ceil((t_end - t_start) / (math.pi / (50.0 * lam))) + 1
        xatol = 2.0 * (t_end - t_start) / (steps - 1) * 1e-9  # the bounded search's
        t_best, f_best = find_exchange_time(evo, phi, t_start, t_end)
        assert abs(t_best - tau0) < xatol
        assert f_best == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("zoom_points", [65, 2], ids=["zoom", "zoom-misses-the-peak"])
    @pytest.mark.parametrize("seed", range(6))
    def test_fidelity_never_below_the_coarse_best(self, monkeypatch, seed, zoom_points):
        # a two-point zoom evaluates only the best point's neighbours
        monkeypatch.setattr(analysis, "_ZOOM_POINTS", zoom_points)
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.3, 2.0))
        x = 0.0 if seed % 2 else float(rng.uniform(-2.0, 2.0))
        evo = EvolutionOperator(params_for_detuning(x, lam=lam, omega2=float(rng.uniform(0.5, 4))))
        phi = random_phi(rng, int(rng.integers(1, 5)))
        t_start, t_end = sorted(rng.uniform(0.0, 15.0, 2))
        t_best, f_best = find_exchange_time(evo, phi, t_start, t_end)
        # the coarse grid find_exchange_time scans, to the last bit: step at most
        # pi / (50 max(lam, half_splitting)), each time in closed form
        step = math.pi / (50.0 * max(lam, evo.mix.half_splitting))
        ts = np.linspace(t_start, t_end, max(3, math.ceil((t_end - t_start) / step) + 1))
        assert f_best >= np.max(exchange_fidelities(product_amplitudes(phi), evo, ts))
        evolved = evo.evolve(make_product_state(phi), t_best)
        assert f_best == pytest.approx(exchange_fidelity(evolved, phi), abs=1e-14)
        assert t_start <= t_best <= t_end

    @pytest.mark.parametrize("side", ["first", "last"])
    def test_peak_at_a_window_edge(self, monkeypatch, side):
        evo = resonant_evolution(2.0)  # a Fock state: F = sin(t)**2, peak at pi / 2
        window = (0.2, 1.4) if side == "last" else (1.75, 2.9)
        calls = record_one_quantum(monkeypatch)
        t_best, f_best = find_exchange_time(evo, [0.0, 1.0], *window)
        end = -1 if side == "last" else 0
        assert t_best == window[end]
        assert f_best == pytest.approx(math.sin(window[end]) ** 2, abs=1e-14)
        # the edge ends every grid, the last one too, so no vertex is evaluated
        assert [ts.size for ts in calls[1:]] == [analysis._ZOOM_POINTS] * analysis._ZOOM_ROUNDS
        assert all(ts[end] == t_best for ts in calls)
        # the coarse grid find_exchange_time scans: step at most pi / 50
        ts = np.linspace(*window, math.ceil((window[1] - window[0]) / (math.pi / 50.0)) + 1)
        assert f_best >= np.max(exchange_fidelities(np.array([0.0, 1.0]), evo, ts))

    def test_a_constant_leak_returns_the_coarse_result(self, monkeypatch):
        # decoupled, T = 0 at every time, so F is constant: one evaluation, at t_start
        evo = EvolutionOperator(CouplingParams(omega1=1.7, omega2=0.9, lam=0.0))
        calls = record_one_quantum(monkeypatch)
        t_best, f_best = find_exchange_time(evo, [0.6, 0.0, 0.8], 0.3, 5.0)
        assert (t_best, f_best) == (0.3, pytest.approx(0.36**2, abs=1e-15))
        assert [ts.tolist() for ts in calls] == [[0.3]]

    @pytest.mark.parametrize("omega1, omega2", [(1.3, 1.3), (1.7, 0.9)])
    def test_the_decoupled_limit_returns_the_window_start(self, omega1, omega2):
        # with weight on n = 1 the leak's 1 - |S|^2 term moves by an ulp from
        # time to time while F stays 0.36^2; a search chased it to 2.321 and 2.344
        evo = EvolutionOperator(CouplingParams(omega1=omega1, omega2=omega2, lam=0.0))
        assert find_exchange_time(evo, [0.6, 0.8], 0.3, 5.0) == (0.3, 0.1296)

    def test_a_vertex_leaking_more_than_the_grid_is_not_kept(self, monkeypatch):
        # the vertex's S and T are read pi / 4 late, far from the peak at pi / 2
        evo = resonant_evolution(3.0)
        original = EvolutionOperator.one_quantum

        def late_vertex(self, t):
            return original(self, t + 0.25 * math.pi if np.size(t) == 1 else t)

        monkeypatch.setattr(EvolutionOperator, "one_quantum", late_vertex)
        calls = record_one_quantum(monkeypatch)
        t_best, f_best = find_exchange_time(evo, [0.6, 0.8], 0.0, 4.0)
        *_, last, vertex = calls
        assert vertex.size == 1 and t_best != vertex[0] and t_best in last
        assert t_best == pytest.approx(math.pi / 2.0, abs=1e-4)
        evolved = evo.evolve(make_product_state([0.6, 0.8]), t_best)
        assert f_best == pytest.approx(exchange_fidelity(evolved, [0.6, 0.8]), abs=1e-14)
        assert 1e-12 < 1.0 - f_best < 1e-8  # a grid point's, which the vertex would beat

    def test_s_and_t_are_evaluated_once_per_grid(self, monkeypatch):
        evo = EvolutionOperator(params_for_detuning(0.7, lam=0.6, omega2=1.9))
        calls = record_one_quantum(monkeypatch)
        find_exchange_time(evo, [0.6, 0.8j, -0.3], 0.0, 10.0)
        # the coarse grid, one grid per zoom round and the vertex, each in one chunk
        sizes = [ts.size for ts in calls]
        assert len(sizes) == 1 + analysis._ZOOM_ROUNDS + 1 == 4
        assert sizes[1:] == [analysis._ZOOM_POINTS] * analysis._ZOOM_ROUNDS + [1] == [65, 65, 1]

    def test_scan_holds_at_most_one_chunk_beside_its_powers(self):
        # at n_max 1000 a chunk of powers T^n is 8 MiB, and a window of 2388
        # coarse times takes five chunks. The scan works on the powers in
        # place and frees each chunk's arrays before the next one is built
        chunk = evolution._CHUNK_AMPLITUDES * np.dtype(np.complex128).itemsize
        evo = resonant_evolution(2.0, 0.5)
        tracemalloc.start()
        try:
            find_exchange_time(evo, np.ones(1001), 0.0, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * chunk, f"traced peak {peak / 2**20:.1f} MiB"


class TestExchangeSuiteReads:
    """The exchange suite reads each eigen block once per operator and time and
    grades every state from that read; each read against the per-state path."""

    @pytest.mark.parametrize("level", (1, 2, 3))
    def test_two_amplitude_fidelity_is_the_evolved_states(self, level):
        rng = np.random.default_rng(60 + level)
        ratio = complete_exchange_ratio(level, 1)
        for factor in (1.0, 0.95, 1.05, rng.uniform(0.5, 1.5)):
            evo = resonant_evolution(ratio * factor)
            tau = exchange_times(evo.mix, 1.0, 0)[0]
            swap = np.array([evo.ut_block(0, tau)[0, 0], evo.ut_block(level, tau)[level, 0]])
            for _ in range(10):
                phi = np.zeros(level + 1, dtype=complex)
                phi[[0, level]] = rng.normal(size=2) + 1j * rng.normal(size=2)
                weights = np.abs(product_amplitudes(phi)[[0, level]]) ** 2
                evolved = evo.evolve(make_product_state(phi), tau)
                assert abs(abs(weights @ swap) ** 2 - exchange_fidelity(evolved, phi)) < 1e-14

    @pytest.mark.parametrize("x", [0.0, 0.7, -3.0])
    def test_scattered_block_columns_are_the_evolved_tables(self, x):
        rng = np.random.default_rng(70)
        evo = EvolutionOperator(params_for_detuning(x, lam=0.53, omega2=2.37))
        draws = [product_amplitudes(random_phi(rng, top)) for top in (0, 1, 3, 6, 6, 2)]
        phis = np.array([np.pad(phi, (0, 7 - len(phi))) for phi in draws])
        for t in (0.0, 0.37, exchange_times(evo.mix, 0.53, 0)[0], 11.9):
            tables = suites._product_tables(evo, phis, t)
            for phi, table in zip(draws, tables):
                dim = len(phi)
                want = evo.evolve(make_product_state(phi), t).table
                assert np.max(np.abs(table[:dim, :dim] - want)) < 1e-15
                assert not table[dim:].any() and not table[:, dim:].any()

    def test_suite_residuals_are_the_per_state_ones(self):
        # the suite's samples in its draw order, graded one state at a time by
        # evolve, reduce and exchange_fidelity
        rng = np.random.default_rng(424242)
        omega, lam = 2.37, 0.53
        evo = EvolutionOperator(CouplingParams(omega1=omega, omega2=omega, lam=lam))
        tau0 = exchange_times(evo.mix, lam, 0)[0]
        worst_stats = worst_rho = 0.0
        for _ in range(20):
            state0 = make_product_state(suites._random_phi(rng, rng.integers(1, 7)))
            stats = verify_statistics_exchange(state0.table[:, 0], evo, tau0).statistics_match
            worst_stats = max(worst_stats, stats)
            rho1 = reduce(state0, 1)
            rho2 = reduce(evo.evolve(state0, tau0), 2)
            kick = np.exp(-1j * (omega * tau0 + 0.5 * math.pi) * np.arange(len(rho1)))
            worst_rho = max(worst_rho, np.max(np.abs(rho2 - np.outer(kick, kick.conj()) * rho1)))
        worst_exact, worst_margin = 0.0, -math.inf
        for level in (1, 2, 3):
            runs = []
            for factor in (1.0, 0.95, 1.05):
                evo_q = resonant_evolution(complete_exchange_ratio(level, 1) * factor)
                runs.append((evo_q, exchange_times(evo_q.mix, 1.0, 0)[0]))
            for _ in range(10):
                weight = rng.uniform(0.2, 0.8)
                phi = np.zeros(level + 1, dtype=complex)
                phi[0] = math.sqrt(weight) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                phi[level] = math.sqrt(1 - weight) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                state0 = make_product_state(phi)
                fids = [exchange_fidelity(e.evolve(state0, t), phi) for e, t in runs]
                worst_exact = max(worst_exact, abs(1.0 - fids[0]))
                worst_margin = max(worst_margin, max(fids[1:]) - (1.0 - 1e-4))
        worst_fock = 0.0
        for ratio in (3.0, 1.7, 0.513):
            evo_f = resonant_evolution(ratio)
            for level in range(1, 6):
                phi = np.eye(level + 1)[level]
                for tau in exchange_times(evo_f.mix, 1.0, 4):
                    evolved = evo_f.evolve(make_product_state(phi), tau)
                    worst_fock = max(worst_fock, abs(1.0 - exchange_fidelity(evolved, phi)))
        report = {check.name: check.residual for check in suite_report("exchange").checks}
        assert abs(report["ratio +-5% drops fidelity below 1 - 1e-4"] - worst_margin) < 1e-12
        assert abs(report["modulus transfer at the first exchange time"] - worst_stats) < 1e-14
        assert abs(report["reduced-density phase-kick relation"] - worst_rho) < 1e-14
        assert abs(report["exact qubit exchange at the matched ratio"] - worst_exact) < 1e-14
        assert abs(report["Fock exchange exact at every exchange time"] - worst_fock) < 1e-14
