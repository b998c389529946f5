import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oscswap.core import (
    CouplingParams,
    DecoupledSystemError,
    MixingParams,
    TruncationTooSmallError,
    TwoModeState,
    ZeroVectorError,
    annihilation_expectation,
    decoupled_mixing,
    derive_mixing,
    make_product_state,
    norm,
    product_amplitudes,
)
from conftest import mixing_for_detuning

INV_SQRT2 = 0.7071067811865476


coupling_params = st.builds(
    CouplingParams,
    omega1=st.floats(-20.0, 20.0),
    omega2=st.floats(-20.0, 20.0),
    lam=st.floats(1e-3, 20.0),
)


class TestCouplingParams:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            CouplingParams(omega1=1.0, omega2=1.0, lam=-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="omega1"):
            CouplingParams(omega1=math.inf, omega2=1.0, lam=0.1)

    def test_decoupled_flag(self):
        assert CouplingParams(1.0, 2.0, 0.0).is_decoupled
        assert not CouplingParams(1.0, 2.0, 0.5).is_decoupled


class TestDeriveMixing:
    def test_resonance(self):
        mix = derive_mixing(CouplingParams(1.0, 1.0, 0.1))
        assert mix.x == 0.0
        assert mix.s == pytest.approx(INV_SQRT2, abs=1e-15)
        assert mix.c == pytest.approx(INV_SQRT2, abs=1e-15)
        assert mix.omega1p == pytest.approx(1.1, rel=1e-14)
        assert mix.omega2p == pytest.approx(0.9, rel=1e-14)

    def test_decoupled_raises(self):
        with pytest.raises(DecoupledSystemError):
            derive_mixing(CouplingParams(1.0, 1.0, 0.0))

    def test_detuned_example(self, detuned):
        # x = 1: s = sqrt(1/2 - 1/(2 sqrt 2)), c = sqrt(1/2 + 1/(2 sqrt 2))
        mix = derive_mixing(detuned)
        assert mix.x == pytest.approx(1.0, rel=1e-14)
        assert mix.s == pytest.approx(0.38268343236508984, rel=1e-12)
        assert mix.c == pytest.approx(0.9238795325112867, rel=1e-12)
        assert mix.omega1p == pytest.approx(1.2828427124746191, rel=1e-12)
        assert mix.omega2p == pytest.approx(0.7171572875253809, rel=1e-12)
        assert mix.c**2 + mix.s**2 == pytest.approx(1.0, abs=1e-12)
        assert mix.omega1p - mix.omega2p == pytest.approx(
            detuned.lam / (mix.c * mix.s), rel=1e-12
        )

    def test_decoupled_limit_constructor(self):
        params = CouplingParams(1.3, 0.4, 0.0)
        mix = decoupled_mixing(params)
        assert (mix.s, mix.c) == (0.0, 1.0)
        assert (mix.omega1p, mix.omega2p) == (1.3, 0.4)
        with pytest.raises(ValueError):
            decoupled_mixing(CouplingParams(1.3, 0.4, 0.1))

    @given(coupling_params)
    def test_invariants(self, params):
        mix = derive_mixing(params)
        assert mix.s >= 0 and mix.c >= 0
        assert mix.c**2 + mix.s**2 == pytest.approx(1.0, abs=1e-12)
        assert mix.omega1p + mix.omega2p == pytest.approx(
            params.omega1 + params.omega2, rel=1e-12, abs=1e-12
        )
        assert mix.omega1p - mix.omega2p == pytest.approx(
            params.lam / (mix.c * mix.s), rel=1e-12
        )

    def test_monotone_in_detuning(self):
        xs = np.linspace(-6.0, 6.0, 25)
        mixes = [mixing_for_detuning(x, lam=0.5) for x in xs]
        s_values = [m.s for m in mixes]
        c_values = [m.c for m in mixes]
        assert all(b < a for a, b in zip(s_values, s_values[1:]))
        assert all(b > a for a, b in zip(c_values, c_values[1:]))

    @pytest.mark.parametrize("s, c", [(0.0, math.nan), (math.nan, math.nan), (math.inf, 0.0)])
    def test_non_finite_mixing_is_rejected(self, s, c):
        with pytest.raises(ValueError, match="finite"):
            MixingParams(x=math.inf, s=s, c=c, omega1p=1.0, omega2p=1.0)

    def test_overflowing_detuning_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            derive_mixing(CouplingParams(omega1=1e300, omega2=1.0, lam=1e-10))
        # the mirror, x = -inf, where c2 is 0 and s2 is nan
        with pytest.raises(ValueError, match="finite"):
            derive_mixing(CouplingParams(omega1=1.0, omega2=1e300, lam=1e-10))

    def test_strong_detuning_stays_clean(self):
        mix = mixing_for_detuning(1e8)
        assert 0 < mix.s < 1e-7
        assert mix.c**2 + mix.s**2 == pytest.approx(1.0, abs=1e-15)
        # x = -5e299: c2 underflows to 0, and s / c is taken as h - x = 1e300
        mix = derive_mixing(CouplingParams(omega1=1.0, omega2=1e300, lam=1.0))
        assert (mix.x, mix.s, mix.c) == (-5e299, 1.0, 0.0)
        assert (mix.omega1p, mix.omega2p) == (1e300, 0.0)


class TestTwoModeState:
    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_table_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            TwoModeState(np.zeros(shape))

    @pytest.mark.parametrize("table", [np.zeros((0, 0)), []])
    def test_empty_table_rejected(self, table):
        with pytest.raises(ValueError, match="nonempty"):
            TwoModeState(table)

    @pytest.mark.parametrize("n1, n2", [(2, 1), (1, 2), (2, 2)])
    def test_entry_beyond_truncation_rejected(self, n1, n2):
        table = np.zeros((3, 3), dtype=complex)
        table[n1, n2] = 1e-300
        with pytest.raises(ValueError, match="n1 \\+ n2 > n_max = 2"):
            TwoModeState(table)

    def test_table_is_read_only(self):
        state = make_product_state([1.0])
        with pytest.raises(ValueError):
            state.table[0, 0] = 5.0

    def test_table_is_copied_on_construction(self):
        table = np.array([[1.0, 0.0], [0.0, 0.0]])
        state = TwoModeState(table)
        table[0, 0] = 5.0
        assert state.table[0, 0] == 1.0
        assert state.n_max == 1
        assert state.table.dtype == np.complex128

    def test_amplitude_indexing(self):
        state = TwoModeState([[0.0, 0.8j], [0.6, 0.0]])
        assert state.table[1, 0] == pytest.approx(0.6)
        assert state.table[0, 1] == pytest.approx(0.8j)
        assert state.table[0, 0] == 0


class TestMakeProductState:
    def test_vacuum(self):
        state = make_product_state([1.0])
        assert state.n_max == 0
        assert state.table[0, 0] == 1.0

    def test_two_component(self):
        state = make_product_state([0.6, 0.8])
        assert state.table[0, 0] == pytest.approx(0.6)
        assert state.table[1, 0] == pytest.approx(0.8)
        assert state.table[0, 1] == 0
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_plus_peak(self):
        # C0 |0> + CN |N> with everything between empty
        phi = [0.6, 0.0, 0.0, 0.8]
        state = make_product_state(phi)
        assert state.n_max == 3
        assert state.table[3, 0] == pytest.approx(0.8)
        assert state.table[1, 0] == 0

    def test_zero_vector(self):
        for phi in ([0.0, 0.0], [0.0, -0.0]):
            for build in (make_product_state, product_amplitudes):
                with pytest.raises(ZeroVectorError, match="zero norm"):
                    build(phi)

    def test_truncation_too_small(self):
        for build in (make_product_state, product_amplitudes):
            with pytest.raises(TruncationTooSmallError, match="n = 1 but .* n_max = 0"):
                build([0.0, 1.0], n_max=0)

    def test_rejects_a_two_dimensional_phi(self):
        for build in (make_product_state, product_amplitudes):
            with pytest.raises(ValueError, match="one-dimensional"):
                build([[0.6], [0.8]])

    def test_trailing_zeros_do_not_count_as_support(self):
        state = make_product_state([1.0, 1.0, 0.0, 0.0], n_max=1)
        assert state.n_max == 1

    @pytest.mark.parametrize(
        "phi, n_max",
        [
            ([1.0], None),
            ([0.6, 0.0, 0.0, 0.8], 6),
            ([1.0, 1.0, -0.0, -0.0], 1),  # trailing -0.0 entries are no support
            ([0.6, [0.0, -0.0], 0.8, -0.0], None),
            ([-0.0, 1j, complex(0.0, -0.0)], 4),
            ([3e-310, 1e-310j, 0.0], 2),  # subnormal: the plain norm would underflow
            ([1e200, -3e160j, 0.5], None),  # above 1e154: the plain norm would overflow
        ],
        ids=["vacuum", "padded", "trailing-minus-zero", "minus-zero-inside",
             "minus-zero-lead", "subnormal", "huge"],
    )
    def test_amplitudes_are_the_table_column_bit_for_bit(self, phi, n_max):
        phi = [complex(*v) if isinstance(v, list) else v for v in phi]
        column = product_amplitudes(phi, n_max)
        table = make_product_state(phi, n_max).table
        assert column.shape == (table.shape[0],)
        assert column.tobytes() == table[:, 0].tobytes()  # signs of zeros included
        assert not table[:, 1:].any()
        assert np.linalg.norm(column) == pytest.approx(1.0, abs=1e-15)
        support = np.flatnonzero(np.asarray(phi, dtype=complex))[-1]
        assert not np.signbit(column[support + 1:].view(np.float64)).any()  # padded with +0

    def test_huge_amplitudes_normalize_like_unit_ones(self):
        # the plain norm of [1e200, 1e200] overflows
        want = make_product_state([1.0, 1.0]).table
        assert np.array_equal(make_product_state([1e200, 1e200]).table, want)

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
    def test_power_of_two_scale_changes_no_bit(self, exponent):
        # the plain norm overflows (600, 1000) or underflows (-600, -1000)
        phi = np.array([0.6, 0.3j, -0.1 + 0.2j, 0.7])
        want = make_product_state(phi).table
        assert np.array_equal(make_product_state(phi * 2.0**exponent).table, want)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ).filter(lambda v: np.linalg.norm(v) > 1e-6)
    )
    def test_always_normalized(self, phi):
        assert norm(make_product_state(phi)) == pytest.approx(1.0, abs=1e-12)


class TestNorm:
    def test_vacuum(self):
        assert norm(make_product_state([1.0])) == 1.0

    def test_all_zero(self):
        state = TwoModeState(np.zeros((3, 3)))
        assert norm(state) == 0.0

    def test_homogeneity(self):
        base = TwoModeState([[0.0, 0.8], [0.6, 0.0]])
        doubled = TwoModeState(2.0 * base.table)
        assert norm(doubled) == pytest.approx(2.0, rel=1e-12)


class TestAnnihilationExpectation:
    def test_vacuum_is_zero(self):
        state = make_product_state([1.0], n_max=2)
        assert annihilation_expectation(state, 1) == 0
        assert annihilation_expectation(state, 2) == 0

    def test_half_quantum_superposition(self):
        state = make_product_state([1.0, 1.0])
        assert annihilation_expectation(state, 1) == pytest.approx(0.5)
        assert annihilation_expectation(state, 2) == 0

    def test_against_dense_matrix(self):
        # dense ladder matrix over the full truncated basis as oracle
        rng = np.random.default_rng(5)
        n_max = 4
        pairs = [(n1, n2) for total in range(n_max + 1) for n2 in range(total + 1)
                 for n1 in [total - n2]]
        index = {pair: i for i, pair in enumerate(pairs)}
        vec = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
        vec /= np.linalg.norm(vec)
        table = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        for pair, i in index.items():
            table[pair] = vec[i]
        state = TwoModeState(table)
        for mode in (1, 2):
            dense = np.zeros((len(pairs), len(pairs)), dtype=complex)
            for (n1, n2), col in index.items():
                if mode == 1 and n1 >= 1:
                    dense[index[(n1 - 1, n2)], col] = math.sqrt(n1)
                if mode == 2 and n2 >= 1:
                    dense[index[(n1, n2 - 1)], col] = math.sqrt(n2)
            expected = np.vdot(vec, dense @ vec)
            assert annihilation_expectation(state, mode) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            annihilation_expectation(make_product_state([1.0]), 3)
