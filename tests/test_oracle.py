import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscswap import oracle
from oscswap.core import CouplingParams, derive_mixing, unitarity_defect
from oscswap.evolution import EvolutionOperator
from oscswap.oracle import (
    build_block,
    compare_to_analytic,
    expm_evolution,
    spectrum_deviation,
)
from conftest import beam_splitter_generator


NO_SCIPY_VERIFY = """
import sys
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the stub did not shadow scipy")
import oscswap.cli
sys.exit(oscswap.cli.main(["verify", "oracle"]))
"""


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

    def test_one_quantum_eigenvalues_are_normal_modes(self, detuned):
        eig = np.sort(np.linalg.eigvalsh(build_block(detuned, 1)))
        mix = derive_mixing(detuned)
        np.testing.assert_allclose(eig, sorted([mix.omega1p, mix.omega2p]), atol=1e-12)

    def test_unitary(self, detuned):
        block = build_block(detuned, 7)
        for t in (0.2, 5.5):
            assert unitarity_defect(expm_evolution(block, t)) < 1e-12

    def test_mean_frequency_is_an_exact_phase(self):
        # at resonance with weak coupling the block is nearly its mean
        # frequency times the identity; as a scalar phase that costs no
        # squarings, where exponentiating it (1-norm 1200 at t = 20) took 12
        block = build_block(CouplingParams(omega1=5.0, omega2=5.0, lam=0.05), 12)
        ts = np.linspace(0.0, 20.0, 41)
        assert unitarity_defect(expm_evolution(block, ts)) < 1e-13

    def test_each_slice_of_a_stack_equals_the_one_time_call(self, detuned):
        block = build_block(detuned, 9)
        ts = np.array([0.0, 0.01, 0.5, 3.3, 20.0, 71.0])
        stack = expm_evolution(block, ts)
        assert stack.shape == (len(ts), 10, 10) and not stack.flags.writeable
        for t, one in zip(ts, stack):
            assert np.max(np.abs(one - expm_evolution(block, t))) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_each_slice_of_a_hamiltonian_stack_equals_its_single_call(self, n, monkeypatch):
        # three draws, each over its own grid: t = 0 (no squaring), a time
        # short enough for none either, and times that need different counts
        params = [CouplingParams(omega1=5.0, omega2=5.0, lam=1.5),
                  CouplingParams(omega1=5.0, omega2=0.1, lam=0.05),
                  CouplingParams(omega1=0.3, omega2=2.2, lam=0.7)]
        ts = np.array([[0.0, 0.01, 3.3, 20.0], [0.0, 7.7, 0.2, 13.1], [19.9, 0.0, 1.0, 0.05]])
        blocks = np.stack([build_block(p, n) for p in params])
        stack = expm_evolution(blocks, ts)
        assert stack.shape == (3, 4, n + 1, n + 1) and not stack.flags.writeable
        for block, t, slices in zip(blocks, ts, stack):
            assert np.array_equal(slices, expm_evolution(block, t))
            for one_t, one in zip(t, slices):
                assert np.array_equal(one, expm_evolution(block, one_t))
        assert np.array_equal(stack[0, 0], np.eye(n + 1))  # t = 0
        # one time per block gives one matrix per block
        assert np.array_equal(expm_evolution(blocks, ts[:, 2]), stack[:, 2])
        # split into slabs of one Hamiltonian each, the stack is the same
        monkeypatch.setattr(oracle, "_SLAB_AMPLITUDES", 1)
        assert np.array_equal(expm_evolution(blocks, ts), stack)

    def test_each_slice_of_a_complex_stack_equals_its_single_call(self):
        # complex Hamiltonians take the same route in their own dtype
        blocks = np.stack([1j * beam_splitter_generator(6), 0.5j * beam_splitter_generator(6)])
        ts = np.array([[0.0, 0.37, 71.0], [2.2, 0.0, 13.1]])
        stack = expm_evolution(blocks, ts)
        assert stack.shape == (2, 3, 7, 7) and not stack.flags.writeable
        for block, t, slices in zip(blocks, ts, stack):
            for one_t, one in zip(t, slices):
                assert np.array_equal(one, expm_evolution(block, one_t))
        assert np.array_equal(stack[0, 0], np.eye(7))

    def test_stack_memory_is_its_output_plus_one_slab(self):
        # the exponential works on a slab of whole Hamiltonians at a time, so its
        # temporaries do not grow with the stack (unsplit, they were 10 outputs)
        blocks = np.stack([build_block(CouplingParams(omega1=5.0, omega2=0.1, lam=1.5), 12)] * 60)
        ts = np.linspace(0.0, 20.0, 60 * 20).reshape(60, 20)
        tracemalloc.start()
        try:
            stack = expm_evolution(blocks, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack.nbytes + 2**20

    def test_stack_memory_counts_each_hamiltonians_powers(self):
        # with one time each, the 29 powers of a Hamiltonian outweigh its output,
        # so a slab sized by the outputs alone would hold megabytes of powers
        blocks = np.stack([build_block(CouplingParams(omega1=5.0, omega2=0.1, lam=1.5), 12)] * 200)
        ts = np.linspace(0.0, 20.0, 200).reshape(200, 1)
        tracemalloc.start()
        try:
            stack = expm_evolution(blocks, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack.nbytes + 2**20

    def test_squaring_counts_differ_within_a_stack(self):
        # H - mu is scaled by beta, the least power of two above its 1-norm, and
        # each slice squared s times, the least s with |t| beta 2^-s < 2: t = 0
        # needs none, and the longest time needs more than the middle one
        block = build_block(CouplingParams(omega1=5.0, omega2=0.1, lam=1.5), 12)
        centred = block - np.trace(block) / 13 * np.eye(13)
        beta = 2.0 ** math.floor(math.log2(np.max(np.sum(np.abs(centred), axis=0))) + 1)
        counts = [max(0, math.floor(math.log2(t * beta))) if t else 0 for t in (0.0, 0.3, 20.0)]
        assert counts[0] == 0 and 0 < counts[1] < counts[2]
        stack = expm_evolution(block[np.newaxis], [[0.0, 0.3, 20.0]])
        for t, one in zip((0.0, 0.3, 20.0), stack[0]):
            assert np.array_equal(one, expm_evolution(block, t))

    def test_rejects_times_that_do_not_fit_the_stack(self, detuned):
        blocks = np.stack([build_block(detuned, 2)] * 3)
        for t in (np.zeros(2), np.zeros((2, 4)), np.zeros((3, 4, 1)), 0.5):
            with pytest.raises(ValueError, match="do not fit"):
                expm_evolution(blocks, t)
        with pytest.raises(ValueError, match="do not fit"):
            expm_evolution(blocks[0], np.zeros((3, 4)))

    def test_scalar_time_gives_a_read_only_complex_matrix(self, detuned):
        for t in (0.7, np.float64(0.7), np.array(0.7)):
            u = expm_evolution(build_block(detuned, 3), t)
            assert type(u) is np.ndarray and u.shape == (4, 4) and u.dtype == np.complex128
            assert not u.flags.writeable

    def test_no_times_give_an_empty_stack(self, detuned):
        block = build_block(detuned, 3)
        assert expm_evolution(block, []).shape == (0, 4, 4)
        assert expm_evolution(np.stack([block] * 2), np.zeros((2, 0))).shape == (2, 0, 4, 4)

    def test_rejects_infinite_time(self, detuned):
        with pytest.raises(ValueError, match="finite"):
            expm_evolution(build_block(detuned, 2), [0.1, math.inf])

    def test_verify_oracle_runs_without_scipy(self, tmp_path):
        # a stub package that shadows scipy: importing it fails, as on a host without scipy
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text('raise ImportError("no scipy here")\n')
        src = Path(__file__).resolve().parent.parent / "src"
        pythonpath = os.pathsep.join(
            filter(None, [str(tmp_path), str(src), os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_VERIFY],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "result: PASS" in result.stdout


class TestStackedUtBlock:
    def test_each_slice_equals_the_one_time_call(self, detuned):
        evo = EvolutionOperator(detuned)
        ts = np.array([0.0, 0.37, 2.9, 20.0])
        for n in (0, 1, 6):
            stack = evo.ut_block(n, ts)
            assert stack.shape == (len(ts), n + 1, n + 1)
            assert not stack.flags.writeable
            for t, one in zip(ts, stack):
                assert np.max(np.abs(one - evo.ut_block(n, t))) <= 1e-15


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
                assert spectrum_deviation(params, build_block(params, n)) < 1e-10

    def test_several_draws_give_the_worst_of_their_single_calls(self):
        rng = np.random.default_rng(43)
        params = [
            CouplingParams(omega1=rng.uniform(0.1, 5.0), omega2=rng.uniform(0.1, 5.0),
                           lam=rng.uniform(0.05, 1.5))
            for _ in range(4)
        ]
        for n in (0, 3, 12):
            blocks = np.stack([build_block(p, n) for p in params])
            singles = [spectrum_deviation(p, block) for p, block in zip(params, blocks)]
            assert spectrum_deviation(params, blocks) == max(singles)

    def test_a_wrong_spectrum_is_seen(self, detuned):
        block = build_block(detuned, 4)
        assert spectrum_deviation(detuned, block + 1e-6 * np.eye(5)) > 0.5e-6


class TestCompareToAnalytic:
    def test_empty_block_is_exact(self, resonant):
        assert compare_to_analytic(resonant, 0, [0.0, 1.0, 7.7]) == (0.0, 0.0)

    def test_resonance_block_five(self, resonant):
        t_grid = np.linspace(0.0, 15.0, 20)
        deviation, defect = compare_to_analytic(resonant, 5, t_grid)
        assert deviation < 1e-10 and defect < 1e-12

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
                deviation, defect = compare_to_analytic(params, n, t_grid)
                assert deviation < 1e-9 and defect < 1e-12

    def test_several_draws_give_the_worst_of_their_single_calls(self):
        rng = np.random.default_rng(41)
        params = [
            CouplingParams(omega1=rng.uniform(0.1, 5.0), omega2=rng.uniform(0.1, 5.0),
                           lam=rng.uniform(0.05, 1.5))
            for _ in range(4)
        ]
        grids = rng.uniform(0.0, 20.0, size=(4, 6))
        for n in (0, 3, 12):
            singles = [compare_to_analytic(p, n, t) for p, t in zip(params, grids)]
            assert compare_to_analytic(params, n, grids) == (
                max(dev for dev, _ in singles), max(defect for _, defect in singles)
            )

    def test_rejects_empty_grid(self, resonant):
        with pytest.raises(ValueError):
            compare_to_analytic(resonant, 3, [])
