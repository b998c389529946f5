import cmath
import math
import sys
import threading
import tracemalloc

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
    norm,
    product_amplitudes,
    unitarity_defect,
)
from oscswap import evolution, suites
from oscswap.analysis import exchange_fidelities, exchange_fidelity, reduce, reduced_densities
from oscswap.evolution import EvolutionOperator, ut_blocks
from oscswap.oracle import build_block, compare_to_analytic, expm_evolution
from oscswap.rotation import u_minus_s_block, us_block
from conftest import (
    assert_suite_checks,
    block_slots,
    params_for_detuning,
    random_phi,
    random_state,
)

T_GRID = (0.0, 0.1, 0.37, 1.0, 2.9, 7.3, 20.0)
EPS = np.finfo(float).eps

BLOCK_MAKERS = {
    "us_block": lambda p, n: us_block(derive_mixing(p), n),
    "u_minus_s_block": lambda p, n: u_minus_s_block(derive_mixing(p), n),
    "ut_block": lambda p, n: EvolutionOperator(p).ut_block(n, 0.7),
    "build_block": build_block,
    "expm_evolution": lambda p, n: expm_evolution(build_block(p, n), 0.7),
    "reduce": lambda p, n: reduce(random_state(np.random.default_rng(n), n_max=n), 2),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MAKERS))
@pytest.mark.parametrize("n", [0, 4])
def test_blocks_and_densities_are_read_only_arrays(detuned, name, n):
    made = BLOCK_MAKERS[name](detuned, n)
    assert type(made) is np.ndarray
    assert made.shape == (n + 1, n + 1)
    assert made.dtype == (np.float64 if name == "build_block" else np.complex128)
    with pytest.raises(ValueError, match="read-only"):
        made[0, 0] = 1.0


class TestOperatorBasics:
    def test_identity_at_time_zero(self, detuned):
        evo = EvolutionOperator(detuned)
        for n in range(6):
            block = evo.ut_block(n, 0.0)
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


def closed_powers(evo, ts, count):
    """S^n and T^n at every time of ``ts`` for n < count, as the run path forms them."""
    return [evolution._powers(z, count) for z in evo.one_quantum(ts)]


class TestClosedForms:
    def test_transfer_vanishes_at_zero(self, detuned):
        stays, hops = closed_powers(EvolutionOperator(detuned), [0.0], 8)
        for n in range(1, 8):
            assert hops[0, n] == 0
        assert stays[0, 3] == pytest.approx(1.0, abs=1e-14)

    def test_two_quanta_transfer_matches_generic_sum(self):
        evo = EvolutionOperator(params_for_detuning(1.0, lam=0.2, omega2=0.8))
        t = 1.0
        _, hops = closed_powers(evo, [t], 3)
        assert hops[0, 2] == pytest.approx(evo.ut_element(0, 2, 2, 0, t), abs=1e-12)

    def test_single_quantum_probability_conservation(self, detuned):
        evo = EvolutionOperator(detuned)
        for t in T_GRID:
            stay, hop = evo.one_quantum(t)
            total = abs(hop) ** 2 + abs(stay) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


class TestEvolve:
    def test_vacuum_fixed_point(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_product_state([1.0], n_max=3)
        out = evo.evolve(state, 4.2)
        assert out.table[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_full_transfer_of_one_quantum_at_resonance(self, resonant):
        evo = EvolutionOperator(resonant)
        tau0 = math.pi / (2.0 * resonant.lam)
        out = evo.evolve(make_product_state([0.0, 1.0]), tau0)
        assert abs(out.table[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.table[1, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_diagonalization(self):
        # five-quanta random state against the brute-force route
        rng = np.random.default_rng(11)
        params = CouplingParams(omega1=1.7, omega2=0.9, lam=0.34)
        evo = EvolutionOperator(params)
        state = random_state(rng, n_max=5)
        t = 0.37
        evolved = evo.evolve(state, t)
        for n in range(6):
            brute = expm_evolution(build_block(params, n), t) @ state.table[block_slots(n)]
            assert np.max(np.abs(evolved.table[block_slots(n)] - brute)) < 1e-9

    def test_conserves_total_quanta(self, detuned):
        evo = EvolutionOperator(detuned)
        table = np.zeros((7, 7))
        table[2, 0] = table[1, 1] = math.sqrt(0.5)
        state = TwoModeState(table)
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

    def test_decoupled_evolution_takes_the_free_limit(self):
        params = CouplingParams(omega1=1.5, omega2=0.7, lam=0.0)
        evo = EvolutionOperator(params)
        assert evo.mix == decoupled_mixing(params)
        out = evo.evolve(make_product_state([0.0, 1.0]), 2.0)
        # free rotation: |1, 0> only picks up the phase e^{-i omega1 t}
        assert out.table[1, 0] == pytest.approx(cmath.exp(-2.0j * 1.5), abs=1e-12)
        assert out.table[0, 1] == 0

    @pytest.mark.parametrize("omega1, omega2", [(1.5, 0.7), (0.7, 1.5), (1.1, 1.1)])
    def test_decoupled_blocks_are_bare_phases(self, omega1, omega2):
        # eigenvectors pair with the frequencies by sort order, whichever mode is faster
        evo = EvolutionOperator(CouplingParams(omega1=omega1, omega2=omega2, lam=0.0))
        t = 0.9
        for n in (1, 2, 5):
            phases = [cmath.exp(-1j * ((n - l) * omega1 + l * omega2) * t) for l in range(n + 1)]
            np.testing.assert_allclose(evo.ut_block(n, t), np.diag(phases), atol=1e-14)


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
        # closed form, against the eigen path
        fidelities = exchange_fidelities(state.table[:, 0], evo, ts)
        for mode in (1, 2):
            rhos = reduced_densities(tables, mode)
            for k, t in enumerate(ts):
                out = evo.evolve(state, float(t))
                assert fidelities[k] == pytest.approx(exchange_fidelity(out, phi), abs=1e-14)
                assert np.max(np.abs(rhos[k] - reduce(out, mode))) < 1e-14

    def test_faulty_propagator_shows_in_the_oracle_and_the_grid(self, monkeypatch, detuned):
        # ut_block, ut_blocks (which the Taylor-exponential oracle and its suite check) and
        # evolve_grid share one expression
        state = make_product_state([0.6, 0.0, 0.8])
        ts = np.linspace(0.0, 5.0, 4)
        pair = [detuned, params_for_detuning(-1.0, lam=0.7, omega2=1.3)]
        (_, good), = EvolutionOperator(detuned).evolve_grid(state, ts)
        good_stack = ut_blocks([EvolutionOperator(p) for p in pair], 2, [ts, ts])

        def reversed_phases(w, freqs, times, coeffs):
            return (np.exp(1j * (times * freqs)) * coeffs) @ np.swapaxes(w, -1, -2)

        monkeypatch.setattr(evolution, "_propagate", reversed_phases)
        assert compare_to_analytic(detuned, 2, [1.0])[0] > 1e-9
        bad_stack = ut_blocks([EvolutionOperator(p) for p in pair], 2, [ts, ts])
        assert np.min(np.max(np.abs(bad_stack - good_stack)[:, 1:], axis=(1, 2, 3))) > 1e-9
        checks = {check.name: check for check in suites.verify_suite("oracle").checks}
        deviation = checks["analytic vs Taylor exponential evolution, n <= 12"]
        assert deviation.residual > deviation.tolerance
        (_, bad), = EvolutionOperator(detuned).evolve_grid(state, ts)
        assert np.max(np.abs(bad[1:] - good[1:])) > 1e-9

    def test_norm_breach_at_one_interior_time(self, detuned):
        evo = EvolutionOperator(detuned)
        state = make_product_state([0.6, 0.8])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="evolution changed the norm by nan"):
                list(evo.evolve_grid(state, [0.0, 1.0, math.nan, 2.0]))


class TestProductClosedForm:
    """The closed form of product states, the run path, against the eigen path."""

    @pytest.mark.parametrize(
        "n_max, x", [(7, 5.0), (24, 0.0), (200, -4.3)],
        ids=["n7-x5", "n24-resonant", "n200-x-4.3"],
    )
    def test_tables_match_evolve_grid(self, n_max, x):
        rng = np.random.default_rng(n_max)
        evo = EvolutionOperator(params_for_detuning(x, lam=0.7, omega2=1.3))
        state = make_product_state(random_phi(rng, n_max))
        ts = np.sort(rng.uniform(0.0, 20.0, 50))
        eigen = np.concatenate([tables for _, tables in evo.evolve_grid(state, ts)])
        closed = np.concatenate([tables for _, tables in evo.product_grid(state.table[:, 0], ts)])
        assert np.max(np.abs(closed - eigen)) < 1e-12

    def test_hops_and_tables_agree_and_chunk(self, monkeypatch, detuned):
        # five times per table chunk, so that eleven times give chunks of 5, 5 and 1
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 5 * 9**2)
        evo = EvolutionOperator(detuned)
        phi = make_product_state([0.3, 0.0, 0.5j, -0.2, 0.7], n_max=8).table[:, 0]
        ts = np.linspace(0.0, 30.0, 11)
        chunks = list(evo.product_grid(phi, ts))
        assert [len(times) for times, _ in chunks] == [5, 5, 1]
        tables = np.concatenate([tables for _, tables in chunks])
        hops = np.concatenate([hops for *_, hops in evo.product_hops(phi, ts)])
        # the amplitudes on |0, n> are phi_n T^n
        assert np.max(np.abs(tables[:, 0, :] - phi * hops)) < 1e-15
        n1, n2 = np.indices((9, 9))
        assert np.all(tables[:, n1 + n2 > 8] == 0)  # beyond the truncation

    def test_hops_carry_the_transfer_amplitude_bit_for_bit(self, monkeypatch, detuned):
        # four times per chunk at six levels, so that eleven times give chunks of 4, 4 and 3
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 4 * 6)
        evo = EvolutionOperator(detuned)
        phi = make_product_state([0.3, 0.0, 0.5j, -0.2, 0.7], n_max=5).table[:, 0]
        ts = np.linspace(0.0, 40.0, 11)
        chunks = list(evo.product_hops(phi, ts))
        assert [len(times) for times, *_ in chunks] == [4, 4, 3]
        # each chunk's S and T are one_quantum's, and T is the powers' base
        for times, stay, hop, hops in chunks:
            assert (stay.tobytes(), hop.tobytes()) == tuple(
                z.tobytes() for z in evo.one_quantum(times))
            assert hops[:, 1].tobytes() == hop.tobytes()
        hops = np.concatenate([hops for *_, hops in chunks])
        assert hops[:, 1].tobytes() == evo.one_quantum(ts)[1].tobytes()
        # the closed-form norm is the norm of the tables, and the check reads it
        tables = np.concatenate([tables for _, tables in evo.product_grid(phi, ts)])
        assert np.max(np.abs(evo.product_norms(phi, ts)
                             - np.linalg.norm(tables.reshape(11, -1), axis=1))) < 1e-14
        assert evo.product_norms(1.001 * phi, ts) == pytest.approx(1.001, abs=1e-14)
        with pytest.raises(NumericalIntegrityError, match="evolution changed the norm by 1.000e-03"):
            list(evo.product_hops(1.001 * phi, ts))

    def test_time_zero_is_the_initial_state(self, detuned):
        # T(0) = 0, so 0^0 = 1 keeps column 0 and every other column is exactly 0
        evo = EvolutionOperator(detuned)
        state = make_product_state([0.6, 0.0, 0.8j], n_max=4)
        (_, tables), = evo.product_grid(state.table[:, 0], [0.0])
        assert np.max(np.abs(tables[0] - state.table)) < 1e-15
        assert np.all(tables[0, :, 1:] == 0)

    def test_binomials_do_not_overflow_at_n_max_1000(self):
        evo = EvolutionOperator(params_for_detuning(0.0, lam=0.5, omega2=1.0))
        phi = np.zeros(1001, dtype=complex)
        phi[1000] = 1.0  # sqrt(binom(1000, 500)) is about 1.6e149
        (_, tables), = evo.product_grid(phi, [math.pi / 2.0])  # lam t = pi / 4: a 50:50 split
        assert np.all(np.isfinite(tables))
        assert norm(TwoModeState(tables[0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["product_hops", "product_grid", "product_populations"])
    def test_norm_breach_is_an_integrity_error(self, detuned, method):
        evo = EvolutionOperator(detuned)
        phi = np.array([0.6, 0.8])
        # the populations sum to the squared norm, 4
        drift = "3.000e" if method == "product_populations" else "1.000e"
        with pytest.raises(NumericalIntegrityError, match=f"evolution changed the norm by {drift}"):
            list(getattr(evo, method)(2.0 * phi, [0.0, 1.0]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="evolution changed the norm by nan"):
                list(getattr(evo, method)(phi, [0.0, 1.0, math.nan, 2.0]))

    def test_suite_checks_the_closed_form_against_the_eigen_path(self):
        assert_suite_checks(
            "evolution", ["closed-form product tables vs eigen tables, n_max <= 20",
                          "binomial thinning vs eigen density diagonals"]
        )

    @pytest.mark.parametrize("n_max, x", [(7, 5.0), (60, -2.0)], ids=["n7-x5", "n60-x-2"])
    def test_populations_are_the_density_diagonals_across_chunks(self, monkeypatch, n_max, x):
        # four times per chunk, so that eleven times give chunks of 4, 4 and 3
        monkeypatch.setattr(evolution, "_CHUNK_AMPLITUDES", 4 * (n_max + 1))
        evo = EvolutionOperator(params_for_detuning(x, lam=0.7, omega2=1.3))
        phi = product_amplitudes(random_phi(np.random.default_rng(n_max), n_max))
        ts = np.linspace(0.0, 20.0, 11)
        chunks = list(evo.product_populations(phi, ts))
        assert [len(times) for times, _, _ in chunks] == [4, 4, 3]
        tables = np.concatenate([tables for _, tables in evo.product_grid(phi, ts)])
        for mode in (1, 2):
            closed = np.concatenate([chunk[mode] for chunk in chunks])
            diagonals = np.diagonal(reduced_densities(tables, mode), axis1=1, axis2=2).real
            assert np.max(np.abs(closed - diagonals)) < 1e-13

    def test_populations_exchange_the_statistics_at_resonance(self):
        # at resonance |T(tau_k)| = 1: mode 2 holds mode 1's initial number
        # distribution, and mode 1 is left in vacuum
        lam = 0.5
        evo = EvolutionOperator(params_for_detuning(0.0, lam=lam, omega2=1.0))
        phi = product_amplitudes(random_phi(np.random.default_rng(7), 30))
        taus = [(k + 0.5) * math.pi / lam for k in range(4)]
        (_, p1, p2), = evo.product_populations(phi, taus)
        assert np.max(np.abs(p2 - np.abs(phi) ** 2)) < 1e-12
        assert np.max(np.abs(p1[:, 0] - 1.0)) < 1e-12
        assert np.max(p1[:, 1:]) < 1e-12

    @pytest.mark.parametrize("n_max", [20, 200, 1000])
    def test_scale_is_bitwise_the_out_of_place_expression(self, n_max):
        def out_of_place(phi):  # the expression _product_scale evaluated before it worked in place
            dim = len(phi)
            n1, n2 = np.ogrid[:dim, :dim]
            inside = n1 + n2 < dim
            level = np.where(inside, n1 + n2, 0)
            log_fact = np.array([math.lgamma(k + 1.0) for k in range(dim)])
            root_binom = np.exp(0.5 * (log_fact[level] - log_fact[n1] - log_fact[n2]))
            return np.where(inside, phi[level] * root_binom, 0.0)

        rng = np.random.default_rng(n_max)
        fock = np.zeros(n_max + 1, dtype=complex)
        fock[n_max] = -1j
        for phi in (product_amplitudes(random_phi(rng, n_max)), np.full(n_max + 1, -0.5 + 0.5j),
                    fock):
            got, want = evolution._product_scale(phi), out_of_place(phi)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_scale_holds_one_level_table_one_buffer_and_the_output(self):
        # at n_max 1000: an int64 level table and a float64 buffer of 8 MB each, and the
        # 16 MB complex output, 31.5 MiB in all; the out-of-place expression peaked at 46.9 MiB
        phi = np.full(1001, 1.0 / math.sqrt(1001), dtype=complex)
        tracemalloc.start()
        try:
            evolution._product_scale(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


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


class TestEigenPath:
    """Blocks far beyond the closed form's reach, checked against independent routes."""

    @pytest.mark.parametrize("x", (0.0, 5.0))
    def test_block_400_unitary_and_matches_pade(self, x):
        params = params_for_detuning(x, lam=0.5, omega2=1.0)
        assert unitarity_defect(EvolutionOperator(params).ut_block(400, 2.1)) <= 1e-12
        deviation, defect = compare_to_analytic(params, 400, [2.1])
        assert deviation <= 1e-12 and defect <= 1e-12

    def test_solver_failure_is_an_integrity_error(self, monkeypatch, resonant):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalIntegrityError, match="block 3"):
            EvolutionOperator(resonant).ut_block(3, 1.0)

    def test_non_finite_block_is_an_integrity_error(self):
        # omega1 - omega2 overflows; the decoupled mixing itself is finite
        evo = EvolutionOperator(CouplingParams(omega1=1e308, omega2=-1e308, lam=0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="not finite"):
                evo.ut_block(2, 1.0)


class TestStackedBlocks:
    """ut_blocks and the one eigen-block builder behind it, stacked over operators."""

    @staticmethod
    def operators():
        # coupled, decoupled (lambda = 0) and resonant, then the first one again
        ops = [EvolutionOperator(params_for_detuning(x, lam=0.7, omega2=1.3)) for x in (1.0, -5.0)]
        ops += [EvolutionOperator(CouplingParams(omega1=1.4, omega2=0.6, lam=0.0)),
                EvolutionOperator(CouplingParams(omega1=0.9, omega2=0.9, lam=0.3))]
        return ops + ops[:1]

    @pytest.mark.parametrize("n", (0, 1, 12, 20))
    def test_slices_equal_single_blocks_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        ops = self.operators()
        ops[3]._block_data(n)  # one block built singly before the stacked build
        times = rng.uniform(0.0, 20.0, size=(len(ops), 6))
        stack = ut_blocks(ops, n, times)
        assert stack.shape == (len(ops), 6, n + 1, n + 1) and stack.dtype == np.complex128
        assert not stack.flags.writeable
        rows = ut_blocks(ops, n, times[:, :1])  # a one-time row per operator
        points = ut_blocks(ops, n, times[:, 0])  # one time per operator, no time axis
        assert rows.shape == (len(ops), 1, n + 1, n + 1) and points.shape == (len(ops), n + 1, n + 1)
        for op, t, block, row, point in zip(ops, times, stack, rows, points):
            alone = EvolutionOperator(op.params)  # built by itself, not in the stack
            assert np.array_equal(block, alone.ut_block(n, t))
            assert np.array_equal(row, alone.ut_block(n, t[:1]))
            assert np.array_equal(point, alone.ut_block(n, t[0]))
            assert np.array_equal(block, op.ut_block(n, t))

    def test_stacked_build_gives_the_single_builds(self):
        rng = np.random.default_rng(31)
        params = [CouplingParams(*rng.uniform(0.1, 5.0, 2), lam=rng.uniform(0.05, 1.5))
                  for _ in range(8)] + [CouplingParams(omega1=2.0, omega2=0.5, lam=0.0)]
        for n in range(25):
            ops = [EvolutionOperator(p) for p in params]
            evolution._eigen_blocks(ops, n)
            for op in ops:
                w, freqs = op._block_data(n)
                w_alone, freqs_alone = EvolutionOperator(op.params)._block_data(n)
                assert np.array_equal(w, w_alone) and np.array_equal(freqs, freqs_alone)
                assert not w.flags.writeable and not freqs.flags.writeable

    def test_an_operator_keeps_only_its_own_slice(self):
        # after a stacked build of ten, one surviving operator holds one block, not ten
        ops = [EvolutionOperator(params_for_detuning(x, lam=0.5)) for x in np.linspace(-2, 2, 10)]
        tracemalloc.start()
        try:
            ut_blocks(ops, 150, np.zeros((10, 1)))
            del ops[1:]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 151**2 * 8 <= retained < 2 * 151**2 * 8

    def test_negative_block_index_is_refused_before_building(self, detuned):
        evo = EvolutionOperator(detuned)
        with pytest.raises(ValueError, match=r"^n_total must be >= 0, got -1$"):
            evo.ut_block(-1, 0.3)
        with pytest.raises(ValueError, match=r"^n_total must be >= 0, got -1$"):
            ut_blocks([evo, evo], -1, [[0.3], [0.4]])
        assert evo._blocks == {}

    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_non_finite_times_are_refused(self, detuned, bad):
        evo = EvolutionOperator(detuned)
        with pytest.raises(ValueError, match="times must be finite"):
            evo.ut_block(2, bad)
        with pytest.raises(ValueError, match="times must be finite"):
            evo.ut_block(2, [0.0, bad])
        with pytest.raises(ValueError, match="times must be finite"):
            ut_blocks([evo, evo], 2, [[0.1, 0.2], [0.3, bad]])
        for indices in ((0, 0, 0, 0), (1, 1, 2, 0), (1, 0, 2, 0)):  # the last is off-block
            with pytest.raises(ValueError, match="times must be finite"):
                evo.ut_element(*indices, bad)

    def test_times_must_have_one_row_per_operator(self, detuned):
        evo = EvolutionOperator(detuned)
        for times in (0.3, [0.1, 0.2, 0.3], [[0.1], [0.2], [0.3]]):
            with pytest.raises(ValueError, match="do not fit 2 operators"):
                ut_blocks([evo, evo], 1, times)

    @pytest.mark.parametrize("params", [
        CouplingParams(omega1=1e308, omega2=-1e308, lam=0.0),  # omega1 - omega2 overflows
        CouplingParams(omega1=1.0, omega2=0.5, lam=1e308),  # 2 omega1' overflows
    ], ids=["hamiltonian", "spectrum"])
    def test_non_finite_block_in_a_stack_is_an_integrity_error(self, detuned, params):
        ops = [EvolutionOperator(detuned), EvolutionOperator(params), EvolutionOperator(detuned)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalIntegrityError, match="block 2 or its spectrum is not"):
                ut_blocks(ops, 2, [[1.0], [1.0], [1.0]])
        assert np.isfinite(ut_blocks(ops[:1], 2, [[1.0]])).all()

    @pytest.mark.parametrize(
        "name, calls", [("oracle", 13), ("evolution", 26), ("exchange", 25)]
    )
    def test_suites_build_each_block_once(self, monkeypatch, name, calls):
        # one stacked eigh per block size and group of operators, and no
        # (operator, n) pair built twice: every matrix solved ends in a cache
        shapes, operators = [], []
        eigh, init = np.linalg.eigh, EvolutionOperator.__init__

        def counting(matrices, *args, **kwargs):
            shapes.append(np.shape(matrices))
            return eigh(matrices, *args, **kwargs)

        def recording(self, params):
            operators.append(self)
            init(self, params)

        monkeypatch.setattr(evolution.np.linalg, "eigh", counting)
        monkeypatch.setattr(EvolutionOperator, "__init__", recording)
        assert suites.verify_suite(name).passed
        assert len(shapes) == calls
        assert sum(shape[0] for shape in shapes) == sum(len(op._blocks) for op in operators)
        if name == "oracle":
            assert shapes == [(10, n + 1, n + 1) for n in range(13)]

    def test_concurrent_stacks_build_each_block_once(self, monkeypatch):
        # more threads than cores, overlapping stacks of shared operators: a block built
        # twice (a lost check-then-act) would solve more matrices than end in the caches
        rng = np.random.default_rng(7)
        ops = [EvolutionOperator(params_for_detuning(x, lam=0.6, omega2=1.1))
               for x in (0.0, 0.5, -1.0, 2.0, -3.0, 5.0)]
        work = [[(n, list(rng.choice(len(ops), size=4))) for n in rng.permutation(10)]
                for _ in range(6)]
        solved, results, eigh = [], [], np.linalg.eigh

        def counting(matrices, *args, **kwargs):
            solved.append(len(matrices))
            return eigh(matrices, *args, **kwargs)

        def run(tasks):
            for n, picks in tasks:
                stack = ut_blocks([ops[i] for i in picks], n, np.full((4, 2), 0.7))
                results.append((n, picks, stack))

        monkeypatch.setattr(evolution.np.linalg, "eigh", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(tasks,)) for tasks in work]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 60
        assert sum(solved) == sum(len(op._blocks) for op in ops)
        for n, picks, stack in results:
            for i, block in zip(picks, stack):
                assert np.array_equal(block[0], ops[i].ut_block(n, 0.7))
