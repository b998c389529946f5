import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscswap import rotation, suites
from oscswap.core import derive_mixing, unitarity_defect
from oscswap.oracle import expm_evolution
from oscswap.rotation import (
    u_minus_s_block,
    us_block,
    us_blocks,
    us_element,
    verify_recursions,
)
from oscswap.suites import verify_suite
from conftest import beam_splitter_generator, mixing_for_detuning

INV_SQRT2 = 0.7071067811865476

X_GRID = (0.0, 0.5, -0.5, 1.0, -1.0, 5.0, -5.0)


def looped_element(c, s, n1, n2, m1, m2):
    """The element sum as a scalar loop: binomials and factorials as exact
    Python integers, each product and ratio rounded to a double once. The
    reference of the array evaluation in oscswap.rotation."""
    pref = math.sqrt(
        math.factorial(n1) * math.factorial(n2) / (math.factorial(m1) * math.factorial(m2))
    )
    total = 0.0
    for k in range(max(0, m2 - n1), min(n2, m2) + 1):
        term = (
            math.comb(m1, n2 - k)
            * math.comb(m2, k)
            * c ** (m1 - n2 + 2 * k)
            * s ** (m2 + n2 - 2 * k)
        )
        total += -term if (n2 - k) % 2 else term
    return pref * total


def looped_block(mix, n):
    """Every entry of block n from :func:`looped_element`, row n2, column m2."""
    return np.array(
        [[looped_element(mix.c, mix.s, n - r, r, n - col, col) for col in range(n + 1)]
         for r in range(n + 1)]
    )


class TestSingleElements:
    def test_empty_block_is_identity(self, detuned):
        mix = derive_mixing(detuned)
        assert us_element(mix, 0, 0, 0, 0) == 1.0

    def test_one_quantum_block(self, detuned):
        mix = derive_mixing(detuned)
        c, s = mix.c, mix.s
        assert us_element(mix, 1, 0, 1, 0) == pytest.approx(c, rel=1e-14)
        assert us_element(mix, 1, 0, 0, 1) == pytest.approx(s, rel=1e-14)
        assert us_element(mix, 0, 1, 1, 0) == pytest.approx(-s, rel=1e-14)
        assert us_element(mix, 0, 1, 0, 1) == pytest.approx(c, rel=1e-14)

    def test_selection_rule(self, detuned):
        mix = derive_mixing(detuned)
        assert us_element(mix, 1, 0, 2, 0) == 0
        assert us_element(mix, 3, 2, 2, 2) == 0

    def test_negative_index_rejected(self, detuned):
        with pytest.raises(ValueError):
            us_element(derive_mixing(detuned), -1, 1, 0, 0)


class TestInverseElements:
    def test_identity_element(self, detuned):
        assert u_minus_s_block(derive_mixing(detuned), 0)[0, 0] == 1.0

    def test_sign_rule_on_one_quantum_block(self, detuned):
        mix = derive_mixing(detuned)
        block = u_minus_s_block(mix, 1)  # row n2, column m2
        assert block[1, 0] == pytest.approx(mix.s, rel=1e-14)
        assert block[0, 1] == pytest.approx(-mix.s, rel=1e-14)

    @pytest.mark.parametrize("x", (0.0, 1.0, -5.0))
    @pytest.mark.parametrize("n", [1, 4, 9, 20])
    def test_inverse_is_transpose_and_actual_inverse(self, x, n):
        mix = mixing_for_detuning(x)
        forward = us_block(mix, n)
        inverse = u_minus_s_block(mix, n)
        np.testing.assert_allclose(inverse, forward.T, atol=1e-12)
        np.testing.assert_allclose(inverse @ forward, np.eye(n + 1), atol=1e-10)


class TestBlocks:
    def test_trivial_block(self, resonant):
        block = us_block(derive_mixing(resonant), 0)
        np.testing.assert_array_equal(block, [[1.0]])

    def test_one_quantum_block_at_resonance(self, resonant):
        block = us_block(derive_mixing(resonant), 1)
        expected = [[INV_SQRT2, INV_SQRT2], [-INV_SQRT2, INV_SQRT2]]
        np.testing.assert_allclose(block.real, expected, atol=1e-15)

    @settings(max_examples=25)
    @given(
        x=st.floats(-8.0, 8.0),
        n=st.integers(min_value=0, max_value=12),
    )
    def test_matches_generator_exponential(self, x, n):
        # independent oracle: exponentiate the hop generator directly
        mix = mixing_for_detuning(x)
        theta = math.atan2(mix.s, mix.c)
        # exp(-i H theta) with H = i G is exp(theta G)
        brute = expm_evolution(1j * beam_splitter_generator(n), theta)
        np.testing.assert_allclose(us_block(mix, n), brute, atol=1e-10)

    def test_strong_detuning_limit_is_identity(self):
        mix = mixing_for_detuning(1e6)
        for n in (1, 3, 5):
            entries = us_block(mix, n).real
            off_diagonal = entries - np.diag(np.diag(entries))
            assert np.max(np.abs(off_diagonal)) < 1e-5
            np.testing.assert_allclose(np.diag(entries), 1.0, atol=1e-5)

    def test_rejects_negative_block(self, resonant):
        with pytest.raises(ValueError):
            us_block(derive_mixing(resonant), -1)

    def test_resonant_blocks_orthogonal_up_to_44(self):
        mix = mixing_for_detuning(0.0)
        for n in range(38, 45):
            assert unitarity_defect(us_block(mix, n)) < 1e-10

    @pytest.mark.parametrize("x", X_GRID + (0.013, 37.0, -5e299))
    def test_block_equals_element_loop(self, x):
        # up to n = 56 every binomial is exact in a double, so the array sum
        # rounds exactly as the scalar loop over exact integers does; at
        # x = -5e299, c = 0 and the clamped c exponents keep 0**0 = 1
        mix = mixing_for_detuning(x)
        for n in (0, 1, 5, 17, 30, 44, 56):
            block = us_block(mix, n)
            assert np.isfinite(block).all()
            assert np.array_equal(block, looped_block(mix, n).astype(complex))

    @pytest.mark.parametrize("x", (5.0, -5.0))
    @pytest.mark.parametrize("n", (60, 100))
    def test_block_beyond_exact_binomials_stays_close_to_loop(self, x, n):
        # above n = 56 a binomial product can pass 2**53 and round once more
        mix = mixing_for_detuning(x)
        assert np.max(np.abs(us_block(mix, n) - looped_block(mix, n))) < 1e-14

    @pytest.mark.parametrize("x", (0.0, -1.0, 5.0))
    @pytest.mark.parametrize("n", (0, 1, 9, 30))
    def test_element_arrays_equal_block_rows(self, x, n):
        mix = mixing_for_detuning(x)
        block = us_block(mix, n)
        l = np.arange(n + 1)
        for row in range(n + 1):
            got = us_element(mix, n - row, row, n - l, l)
            assert got.dtype == np.complex128 and got.shape == (n + 1,)
            assert np.array_equal(got, block[row])
            for col in range(n + 1):
                scalar = us_element(mix, n - row, row, n - col, col)
                assert type(scalar) is complex and scalar == block[row, col]
        # a 2-d grid of rows and columns, with a mismatched total set to zero
        grid = us_element(mix, n - l[:, None], l[:, None], n - l, l)
        assert np.array_equal(grid, block)
        mixed = us_element(mix, [n, n + 1], [0, 0], [n, n], [0, 0])
        assert np.array_equal(mixed, [block[0, 0], 0.0])

    def test_block_memory_stays_bounded(self):
        # the terms of each k are summed over one sub-block, so the temporaries
        # stay block-sized and never hold the n**3 terms (200**3 doubles are 64 MB)
        mix = mixing_for_detuning(5.0)
        us_block.cache_clear()
        tracemalloc.start()
        try:
            us_block(mix, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_rotation_suite_builds_each_block_once(self, monkeypatch):
        # 7 detunings x blocks 0..30, no block twice: one stacked build per n
        # holds all 7 detunings, and no single block is built besides
        calls = []

        def counting(mixes, n_total):
            calls.append([(mix, n_total) for mix in mixes])
            return us_blocks(mixes, n_total)

        monkeypatch.setattr(rotation, "us_blocks", counting)  # us_block builds through it
        monkeypatch.setattr(suites, "us_blocks", counting)
        us_block.cache_clear()
        verify_suite("rotation")
        assert len(calls) == 31 and all(len(stack) == 7 for stack in calls)
        built = [pair for stack in calls for pair in stack]
        expected = {(mixing_for_detuning(x), n) for x in X_GRID for n in range(31)}
        assert len(built) == 7 * 31 and set(built) == expected
        assert us_block.cache_info().misses == 0

    def test_stacked_blocks_equal_single_blocks(self):
        # slice by slice the stacked sum is us_block's, up to n = 56 the loop's too
        mixes = [mixing_for_detuning(x) for x in X_GRID]
        for n in range(57):
            stack = us_blocks(mixes, n)
            assert stack.shape == (7, n + 1, n + 1) and stack.dtype == np.complex128
            assert not stack.flags.writeable
            for mix, block in zip(mixes, stack):
                assert np.array_equal(block, us_block(mix, n))
                if n in (0, 5, 30, 56):
                    assert np.array_equal(block, looped_block(mix, n).astype(complex))

    def test_cache_never_serves_a_stale_block(self):
        # the cache holds one block; interleave two mixes at the same n
        mixes = [mixing_for_detuning(x) for x in (0.5, -0.5)]
        fresh = {}
        for build in (us_block, u_minus_s_block):
            for mix in mixes:
                us_block.cache_clear()
                fresh[build, mix] = build(mix, 6)
        for mix in mixes + mixes[::-1] + mixes:
            for build in (us_block, u_minus_s_block):
                assert np.array_equal(build(mix, 6), fresh[build, mix])

    def test_block_beyond_double_range_names_the_block(self):
        with pytest.raises(ValueError, match="n_total = 1030"):
            us_element(mixing_for_detuning(0.0), 1030, 0, 515, 515)

    def test_last_block_in_double_range_evaluates(self):
        # one term, C(1029, 0) C(0, 0) c**1029, from the full table of block 1029
        mix = mixing_for_detuning(0.3)
        assert us_element(mix, 1029, 0, 1029, 0) == mix.c**1029

    def test_block_beyond_double_range_fails_before_any_table(self):
        # a 1031 x 1031 table of binomials would be 8.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_total = 1030"):
                us_block(mixing_for_detuning(0.0), 1030)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# (x, n, tolerance) points at which the closed form must satisfy both ladder relations
LADDER_CASES = [(x, n, 1e-10) for x in (0.0, -1.0, 5.0) for n in (3, 11, 25, 30)] + [
    (1.0, 20, 1e-10),
    (0.0, 10, 1e-11),
    (5.0, 10, 1e-10),
]


def ladder_residual(mix, n):
    return verify_recursions(mix, us_block(mix, n - 1), us_block(mix, n))


def looped_ladder_residual(mix, prev, cur):
    """Element-by-element form of verify_recursions, kept as its reference."""
    c, s = mix.c, mix.s
    small, big = prev.real, cur.real
    n = len(cur) - 1
    worst = 0.0
    for lr in range(n + 1):
        n1, n2 = n - lr, lr
        for lc in range(n + 1):
            m1, m2 = n - lc, lc
            if n1 >= 1:
                rhs = 0.0
                if m1 >= 1:
                    rhs += c * math.sqrt(m1 / n1) * small[lr, lc]
                if m2 >= 1:
                    rhs += s * math.sqrt(m2 / n1) * small[lr, lc - 1]
                worst = max(worst, abs(big[lr, lc] - rhs))
            if n2 >= 1:
                rhs = 0.0
                if m1 >= 1:
                    rhs += -s * math.sqrt(m1 / n2) * small[lr - 1, lc]
                if m2 >= 1:
                    rhs += c * math.sqrt(m2 / n2) * small[lr - 1, lc - 1]
                worst = max(worst, abs(big[lr, lc] - rhs))
    return worst


class TestRecursionResiduals:
    def test_small_block_any_mix(self, detuned):
        assert ladder_residual(derive_mixing(detuned), 1) < 1e-12

    @pytest.mark.parametrize(
        "x, n, tol", LADDER_CASES, ids=[f"x{x:g}-n{n}" for x, n, _ in LADDER_CASES]
    )
    def test_closed_form_satisfies_ladder(self, x, n, tol):
        assert ladder_residual(mixing_for_detuning(x), n) < tol

    @pytest.mark.parametrize("x", (0.0, 1.0, -5.0))
    def test_matches_element_loop(self, x):
        # same arithmetic per element, so equal to the last bit, on closed-form
        # blocks and on arbitrary ones
        mix = mixing_for_detuning(x)
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 21, 30):
            arbitrary = (rng.normal(size=(n, n)), rng.normal(size=(n + 1, n + 1)))
            for prev, cur in ((us_block(mix, n - 1), us_block(mix, n)), arbitrary):
                assert verify_recursions(mix, prev, cur) == looped_ladder_residual(mix, prev, cur)

    def test_stack_gives_the_largest_residual_of_its_pairs(self):
        # the suite checks all detunings at once; on closed-form blocks and on
        # arbitrary ones, a stack reads exactly the worst of its per-pair calls
        mixes = [mixing_for_detuning(x) for x in X_GRID]
        rng = np.random.default_rng(29)
        for n in (1, 2, 9, 30):
            pairs = [(us_blocks(mixes, n - 1), us_blocks(mixes, n)),
                     (rng.normal(size=(7, n, n)), rng.normal(size=(7, n + 1, n + 1)))]
            for prev, cur in pairs:
                singles = [verify_recursions(*one) for one in zip(mixes, prev, cur)]
                assert verify_recursions(mixes, prev, cur) == max(singles)

    def test_one_shifted_element_is_detected(self):
        mix = mixing_for_detuning(0.5)
        prev, cur = us_block(mix, 7), us_block(mix, 8).copy()
        cur[3, 5] += 1e-8
        assert verify_recursions(mix, prev, cur) >= 1e-9

    def test_one_flipped_sign_is_detected(self):
        mix = mixing_for_detuning(0.0)
        prev, cur = us_block(mix, 7), us_block(mix, 8).copy()
        cur[2, 6] = -cur[2, 6]
        assert abs(cur[2, 6]) > 0.1
        assert verify_recursions(mix, prev, cur) > 0.1

    def test_requires_positive_block(self, resonant):
        mix = derive_mixing(resonant)
        with pytest.raises(ValueError):
            verify_recursions(mix, us_block(mix, 0), us_block(mix, 0))
        with pytest.raises(ValueError):
            verify_recursions(mix, us_block(mix, 1), us_block(mix, 3))
