import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscswap.core import (
    CouplingParams,
    NumericalIntegrityError,
    TwoModeState,
    annihilation_expectation,
    decoupled_mixing,
    derive_mixing,
    make_product_state,
    make_state,
    norm,
    unitarity_defect,
)
from oscswap import evolution, suites
from oscswap.analysis import exchange_fidelities, exchange_fidelity, reduce, reduced_densities
from oscswap.evolution import EvolutionOperator
from oscswap.oracle import build_block, compare_to_analytic, expm_evolution
from conftest import (
    assert_suite_checks,
    block_slots,
    mp_rotation_element,
    params_for_detuning,
    random_state,
)

T_GRID = (0.0, 0.1, 0.37, 1.0, 2.9, 7.3, 20.0)


class TestOperatorBasics:
    def test_identity_at_time_zero(self, detuned):
        evo = EvolutionOperator(detuned)
        for n in range(6):
            block = evo.ut_block(n, 0.0).entries
            assert np.max(np.abs(block - np.eye(n + 1))) < 1e-12
        assert evo.ut_element(2, 1, 1, 2, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert evo.ut_element(2, 1, 2, 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_is_stationary(self, detuned):
        evo = EvolutionOperator(detuned)
        for t in T_GRID:
            assert evo.ut_element(0, 0, 0, 0, t) == pytest.approx(1.0, abs=1e-14)

    def test_selection_rule(self, detuned):
        evo = EvolutionOperator(detuned)
        assert evo.ut_element(1, 0, 2, 0, 0.7) == 0

    def test_suite_covers_unitarity_group_closed_forms_and_periodicity(self):
        assert_suite_checks(
            "evolution",
            [
                "block unitarity over time grid",
                "group property U(t1) U(t2) = U(t1+t2)",
                "closed-form transfer/survival vs generic sum, n <= 20",
                "transfer modulus periodicity",
            ],
        )


class TestClosedForms:
    def test_single_quantum_resonance(self, resonant):
        # transfer -i e^{-i w t} sin(lam t), survival e^{-i w t} cos(lam t)
        evo = EvolutionOperator(resonant)
        w, lam = resonant.omega1, resonant.lam
        for t in (0.0, 0.4, 1.9, 6.0):
            expected_hop = -1j * cmath.exp(-1j * w * t) * math.sin(lam * t)
            expected_stay = cmath.exp(-1j * w * t) * math.cos(lam * t)
            assert evo.transfer_amplitude(1, t) == pytest.approx(expected_hop, abs=1e-14)
            assert evo.survival_amplitude(1, t) == pytest.approx(expected_stay, abs=1e-14)

    def test_transfer_vanishes_at_zero(self, detuned):
        evo = EvolutionOperator(detuned)
        for n in range(1, 8):
            assert evo.transfer_amplitude(n, 0.0) == 0
        assert evo.survival_amplitude(3, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_two_quanta_transfer_matches_generic_sum(self):
        evo = EvolutionOperator(params_for_detuning(1.0, lam=0.2, omega2=0.8))
        t = 1.0
        assert evo.transfer_amplitude(2, t) == pytest.approx(
            evo.ut_element(0, 2, 2, 0, t), abs=1e-12
        )

    def test_single_quantum_probability_conservation(self, detuned):
        evo = EvolutionOperator(detuned)
        for t in T_GRID:
            total = abs(evo.transfer_amplitude(1, t)) ** 2 + abs(evo.survival_amplitude(1, t)) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_vacuum_fixed_point(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_product_state([1.0], n_max=3)
        out = evo.evolve(state, 4.2)
        assert out.amplitude(0, 0) == pytest.approx(1.0, abs=1e-14)
        assert norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_full_transfer_of_one_quantum_at_resonance(self, resonant):
        evo = EvolutionOperator(resonant)
        tau0 = math.pi / (2.0 * resonant.lam)
        out = evo.evolve(make_product_state([0.0, 1.0]), tau0)
        assert abs(out.amplitude(0, 1)) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.amplitude(1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_diagonalization(self):
        # five-quanta random state against the brute-force route
        rng = np.random.default_rng(11)
        params = CouplingParams(omega1=1.7, omega2=0.9, lam=0.34)
        evo = EvolutionOperator(params)
        state = random_state(rng, n_max=5)
        t = 0.37
        evolved = evo.evolve(state, t)
        for n in range(6):
            brute = expm_evolution(build_block(params, n), t).entries @ state.table[block_slots(n)]
            assert np.max(np.abs(evolved.table[block_slots(n)] - brute)) < 1e-9

    def test_conserves_total_quanta(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_state({(2, 0): 1.0, (1, 1): 1.0}, n_max=6)
        out = evo.evolve(state, 3.3)
        for n in (0, 1, 3, 4, 5, 6):
            assert np.all(out.table[block_slots(n)] == 0)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 50.0),
        x=st.floats(-5.0, 5.0),
    )
    def test_norm_conservation(self, seed, t, x):
        rng = np.random.default_rng(seed)
        evo = EvolutionOperator(params_for_detuning(x, lam=0.6, omega2=1.1))
        state = random_state(rng, n_max=4)
        assert norm(evo.evolve(state, t)) == pytest.approx(1.0, abs=1e-10)

    def test_decoupled_evolution_via_explicit_limit(self):
        params = CouplingParams(omega1=1.5, omega2=0.7, lam=0.0)
        evo = EvolutionOperator(params, mix=decoupled_mixing(params))
        out = evo.evolve(make_product_state([0.0, 1.0]), 2.0)
        # free rotation: |1, 0> only picks up the phase e^{-i omega1 t}
        assert out.amplitude(1, 0) == pytest.approx(cmath.exp(-2.0j * 1.5), abs=1e-12)
        assert out.amplitude(0, 1) == 0

    @pytest.mark.parametrize("omega1, omega2", [(1.5, 0.7), (0.7, 1.5), (1.1, 1.1)])
    def test_decoupled_blocks_are_bare_phases(self, omega1, omega2):
        # eigenvectors pair with the frequencies by sort order, whichever mode is faster
        params = CouplingParams(omega1=omega1, omega2=omega2, lam=0.0)
        evo = EvolutionOperator(params, mix=decoupled_mixing(params))
        t = 0.9
        for n in (1, 2, 5):
            phases = [cmath.exp(-1j * ((n - l) * omega1 + l * omega2) * t) for l in range(n + 1)]
            np.testing.assert_allclose(evo.ut_block(n, t).entries, np.diag(phases), atol=1e-14)


def state_with_empty_blocks(n_max, empty=(0, 3, 5)):
    table = random_state(np.random.default_rng(n_max), n_max).table.copy()
    for n in empty:
        table[block_slots(n)] = 0.0
    return TwoModeState(table / np.linalg.norm(table))


class TestEvolveGrid:
    @pytest.mark.parametrize("n_max", (12, 60))
    @pytest.mark.parametrize("x", (0.0, 1.0, -5.0))
    def test_matches_evolve_loop_across_chunks(self, monkeypatch, n_max, x):
        # seven times per chunk, so 17 times give chunks of 7, 7 and 3
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 7 * (n_max + 1) ** 2 + 3)
        evo = EvolutionOperator(params_for_detuning(x, lam=0.7, omega2=1.3))
        state = state_with_empty_blocks(n_max)
        ts = np.linspace(0.0, 23.0, 17)
        chunks = list(evo.evolve_grid(state, ts))
        assert [len(times) for times, _ in chunks] == [7, 7, 3]
        np.testing.assert_array_equal(np.concatenate([times for times, _ in chunks]), ts)
        tables = np.concatenate([tables for _, tables in chunks])
        assert tables.shape == (17, n_max + 1, n_max + 1)
        for t, table in zip(ts, tables):
            looped = evo.evolve(state, float(t))
            assert np.max(np.abs(table - looped.table)) < 1e-14
            assert np.max(np.abs(looped.table - self.unbatched(evo, state, t))) < 1e-14

    @staticmethod
    def unbatched(evo, state, t):
        # the per-block phase sandwich W diag(e^{-iEt}) W^T applied to one state
        table = np.zeros_like(state.table)
        for n in range(state.n_max + 1):
            w, freqs = evo._block_data(n)
            slots = block_slots(n)
            table[slots] = (w * np.exp(-1j * freqs * t)) @ (w.T @ state.table[slots])
        return table

    def test_empty_blocks_stay_exactly_zero(self, detuned):
        evo = EvolutionOperator(detuned)
        n_max = 8
        state = state_with_empty_blocks(n_max)
        for _, tables in evo.evolve_grid(state, np.linspace(0.0, 40.0, 9)):
            n1, n2 = np.indices((n_max + 1, n_max + 1))
            for n in (0, 3, 5):
                assert np.all(tables[:, n1 + n2 == n] == 0)
            assert np.all(tables[:, n1 + n2 > n_max] == 0)  # beyond the truncation

    def test_chunks_cap_the_table_size(self, detuned):
        evo = EvolutionOperator(detuned)
        n_max = 60
        per_chunk = evolution._CHUNK_AMPLITUDES // (n_max + 1) ** 2
        ts = np.linspace(0.0, 5.0, 2 * per_chunk + 1)
        state = make_product_state([1.0] * (n_max + 1))
        sizes = [tables.size for _, tables in evo.evolve_grid(state, ts)]
        assert len(sizes) == 3
        assert max(sizes) <= evolution._CHUNK_AMPLITUDES

    def test_batched_fidelity_and_densities_match_per_state(self, detuned):
        evo = EvolutionOperator(detuned)
        phi = [0.3, 0.0, 0.5j, -0.2, 0.7]
        state = make_product_state(phi, n_max=6)
        ts = np.linspace(0.0, 30.0, 11)
        (_, tables), = evo.evolve_grid(state, ts)
        fidelities = exchange_fidelities(tables, phi)
        for mode in (1, 2):
            rhos = reduced_densities(tables, mode)
            for k, t in enumerate(ts):
                out = evo.evolve(state, float(t))
                assert fidelities[k] == pytest.approx(exchange_fidelity(out, phi), abs=1e-14)
                assert np.max(np.abs(rhos[k] - reduce(out, mode).entries)) < 1e-14

    def test_norm_breach_at_one_interior_time(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_product_state([0.6, 0.8])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="evolution changed the norm by nan"):
                list(evo.evolve_grid(state, [0.0, 1.0, math.nan, 2.0]))


class TestHeisenbergPicture:
    def test_vacuum_expectation_is_zero(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_product_state([1.0], n_max=2)
        for t in (0.0, 1.7):
            assert evo.heisenberg_mode_expectation(state, 1, t) == 0
            assert evo.heisenberg_mode_expectation(state, 2, t) == 0

    def test_half_quantum_formula(self, detuned):
        evo = EvolutionOperator(detuned)
        mix = evo.mix
        state = make_product_state([1.0, 1.0])
        for t in (0.0, 0.9, 4.4):
            expected = 0.5 * (
                mix.c**2 * cmath.exp(-1j * mix.omega1p * t)
                + mix.s**2 * cmath.exp(-1j * mix.omega2p * t)
            )
            assert evo.heisenberg_mode_expectation(state, 1, t) == pytest.approx(
                expected, abs=1e-14
            )

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 20.0))
    def test_picture_equivalence(self, seed, t):
        rng = np.random.default_rng(seed)
        params = CouplingParams(
            omega1=rng.uniform(0.2, 4.0), omega2=rng.uniform(0.2, 4.0), lam=rng.uniform(0.05, 1.5)
        )
        evo = EvolutionOperator(params)
        state = random_state(rng, n_max=4)
        evolved = evo.evolve(state, t)
        for mode in (1, 2):
            heisenberg = evo.heisenberg_mode_expectation(state, mode, t)
            schrodinger = annihilation_expectation(evolved, mode)
            assert heisenberg == pytest.approx(schrodinger, abs=1e-10)

    @pytest.mark.parametrize("n_max", (0, 4, 9))
    def test_suite_sample_draws_block_by_block(self, n_max):
        # the evolution suite's random states come from the same draws, in the
        # same order, as this module's block-by-block reference
        got = suites._random_state(np.random.default_rng(17), n_max)
        want = random_state(np.random.default_rng(17), n_max)
        assert np.max(np.abs(got.table - want.table)) <= 1e-15


def mp_ut_elements(params, n, rows, times):
    """<n - r, r| U(t) |n - c, c> for r, c in ``rows``, from the rotation's
    finite sum and the normal-mode phases in 60-digit arithmetic."""
    with mpmath.workdps(60):
        w1, w2, lam = (mpmath.mpf(v) for v in (params.omega1, params.omega2, params.lam))
        x = (w1 - w2) / (2 * lam)
        h = mpmath.sqrt(1 + x * x)
        shift = lam * (h - x)  # lam s / c
        freqs = [(n - k) * (w1 + shift) + k * (w2 - shift) for k in range(n + 1)]
        # inverse rotation: (-1)**(k - l) times the forward element
        w = {
            l: [(-1) ** (k - l) * mp_rotation_element(x, n - l, l, n - k, k) for k in range(n + 1)]
            for l in rows
        }
        return {
            (r, c, t): complex(
                mpmath.fsum(mpmath.expj(-f * t) * a * b for f, a, b in zip(freqs, w[r], w[c]))
            )
            for r in rows
            for c in rows
            for t in times
        }


class TestEigenPath:
    """Blocks far beyond the closed form's reach, checked against independent routes."""

    @pytest.mark.parametrize("x", (0.0, 1.0, -5.0))
    def test_block_100_matches_mpmath(self, x):
        params = params_for_detuning(x, lam=0.5, omega2=1.0)
        evo = EvolutionOperator(params)
        reference = mp_ut_elements(params, 100, rows=(0, 33, 50, 100), times=(0.7, 2.9))
        for (r, c, t), expected in reference.items():
            assert abs(evo.ut_element(100 - r, r, 100 - c, c, t) - expected) < 1e-13

    @pytest.mark.parametrize("x", (0.0, 5.0))
    def test_block_400_unitary_and_matches_pade(self, x):
        params = params_for_detuning(x, lam=0.5, omega2=1.0)
        assert unitarity_defect(EvolutionOperator(params).ut_block(400, 2.1).entries) <= 1e-12
        assert compare_to_analytic(params, 400, [2.1]) <= 1e-12

    def test_solver_failure_is_an_integrity_error(self, monkeypatch, resonant):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalIntegrityError, match="block 3"):
            EvolutionOperator(resonant).ut_block(3, 1.0)

    def test_non_finite_block_is_an_integrity_error(self):
        # omega1 - omega2 overflows; the decoupled mixing itself is finite
        params = CouplingParams(omega1=1e308, omega2=-1e308, lam=0.0)
        evo = EvolutionOperator(params, mix=decoupled_mixing(params))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="not finite"):
                evo.ut_block(2, 1.0)
