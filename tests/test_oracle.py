import math

import numpy as np
import pytest

from oscswap.core import CouplingParams, derive_mixing, unitarity_defect
from oscswap.oracle import (
    build_block,
    compare_to_analytic,
    expm_evolution,
    spectrum_deviation,
)


class TestBuildBlock:
    def test_empty_block(self, resonant):
        np.testing.assert_array_equal(build_block(resonant, 0), [[0.0]])

    def test_one_quantum_block(self, detuned):
        w1, w2, lam = detuned.omega1, detuned.omega2, detuned.lam
        np.testing.assert_allclose(
            build_block(detuned, 1), [[w1, lam], [lam, w2]], atol=1e-15
        )

    def test_two_quanta_block(self, detuned):
        w1, w2, lam = detuned.omega1, detuned.omega2, detuned.lam
        r2 = math.sqrt(2.0)
        expected = [
            [2 * w1, r2 * lam, 0.0],
            [r2 * lam, w1 + w2, r2 * lam],
            [0.0, r2 * lam, 2 * w2],
        ]
        np.testing.assert_allclose(build_block(detuned, 2), expected, atol=1e-15)

    def test_symmetric_and_tridiagonal(self, detuned):
        h = build_block(detuned, 6)
        assert np.max(np.abs(h - h.T)) == 0.0
        assert np.max(np.abs(np.triu(h, 2))) == 0.0

    def test_read_only(self, detuned):
        with pytest.raises(ValueError):
            build_block(detuned, 2)[0, 0] = 1.0


class TestExpmEvolution:
    def test_identity_at_time_zero(self, detuned):
        block = build_block(detuned, 4)
        np.testing.assert_allclose(expm_evolution(block, 0.0), np.eye(5), atol=1e-14)

    def test_one_quantum_resonance(self, resonant):
        # 2x2 diagonalization by hand: off-diagonal -i e^{-i w t} sin(lam t)
        w, lam = resonant.omega1, resonant.lam
        block = build_block(resonant, 1)
        for t in (0.3, 1.1, 4.0):
            u = expm_evolution(block, t)
            expected = -1j * np.exp(-1j * w * t) * math.sin(lam * t)
            assert u[1, 0] == pytest.approx(expected, abs=1e-12)
            assert u[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_one_quantum_eigenvalues_are_normal_modes(self, detuned):
        eig = np.sort(np.linalg.eigvalsh(build_block(detuned, 1)))
        mix = derive_mixing(detuned)
        np.testing.assert_allclose(eig, sorted([mix.omega1p, mix.omega2p]), atol=1e-12)

    def test_unitary(self, detuned):
        block = build_block(detuned, 7)
        for t in (0.2, 5.5):
            assert unitarity_defect(expm_evolution(block, t)) < 1e-12


class TestSpectrumIdentity:
    def test_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            params = CouplingParams(
                omega1=rng.uniform(0.1, 5.0),
                omega2=rng.uniform(0.1, 5.0),
                lam=rng.uniform(0.05, 1.5),
            )
            for n in range(13):
                assert spectrum_deviation(params, n) < 1e-10


class TestCompareToAnalytic:
    def test_empty_block_is_exact(self, resonant):
        assert compare_to_analytic(resonant, 0, [0.0, 1.0, 7.7]) == 0.0

    def test_resonance_block_five(self, resonant):
        t_grid = np.linspace(0.0, 15.0, 20)
        assert compare_to_analytic(resonant, 5, t_grid) < 1e-10

    def test_random_draws_up_to_twelve(self):
        rng = np.random.default_rng(37)
        for _ in range(4):
            params = CouplingParams(
                omega1=rng.uniform(0.1, 5.0),
                omega2=rng.uniform(0.1, 5.0),
                lam=rng.uniform(0.05, 1.5),
            )
            t_grid = rng.uniform(0.0, 20.0, size=20)
            for n in range(13):
                assert compare_to_analytic(params, n, t_grid) < 1e-9

    def test_rejects_empty_grid(self, resonant):
        with pytest.raises(ValueError):
            compare_to_analytic(resonant, 3, [])
