import os

# One BLAS thread, as in CI and the benchmark: the eigen path's many small
# eigh and matmul calls slow down under thread contention. Set before numpy
# is first imported, which is when OpenBLAS reads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools
import math

import numpy as np
import pytest
from hypothesis import settings

from oscswap.core import CouplingParams, TwoModeState, derive_mixing
from oscswap.evolution import EvolutionOperator
from oscswap.suites import verify_suite

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def resonant():
    """Resonant parameter set with unit mean frequency."""
    return CouplingParams(omega1=1.0, omega2=1.0, lam=0.5)


@pytest.fixture
def detuned():
    """Detuning x = 1 (omega difference equals twice the coupling)."""
    return CouplingParams(omega1=1.2, omega2=0.8, lam=0.2)


@functools.cache
def suite_report(name):
    """The report of one verification suite, run once per session (reports are frozen)."""
    return verify_suite(name)


def assert_suite_checks(suite, names):
    """Assert the named checks of one verification suite, each strictly below its tolerance."""
    checks = {check.name: check for check in suite_report(suite).checks}
    for name in names:
        check = checks[name]
        assert check.residual < check.tolerance, (
            f"{suite}: {name}: residual {check.residual:.3e} (tol {check.tolerance:.1e})"
        )


def params_for_detuning(x, lam=1.0, omega2=1.0):
    return CouplingParams(omega1=omega2 + 2.0 * lam * x, omega2=omega2, lam=lam)


def mixing_for_detuning(x, lam=1.0, omega2=1.0):
    return derive_mixing(params_for_detuning(x, lam=lam, omega2=omega2))


def random_state(rng, n_max):
    """Normalized state with amplitudes on every (n1, n2) with n1 + n2 <= n_max,
    drawn block by block: the real parts of C[n - l, l], l = 0..n, then their
    imaginary parts."""
    table = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        table[block_slots(n)] = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return TwoModeState(table / np.linalg.norm(table))


def block_slots(n):
    """Index of the block of n total quanta in a state table: slot l is C[n - l, l]."""
    l = np.arange(n + 1)
    return n - l, l


def random_phi(rng, n_top):
    """Normalized mode-1 amplitude vector with support exactly n_top."""
    phi = rng.normal(size=n_top + 1) + 1j * rng.normal(size=n_top + 1)
    phi[n_top] += 1.0
    return phi / np.linalg.norm(phi)


def record_one_quantum(monkeypatch):
    """The times of every EvolutionOperator.one_quantum call from now on, as
    one 1-D array per call, in the order of the calls."""
    calls, original = [], EvolutionOperator.one_quantum

    def recording(self, t):
        calls.append(np.array(t, dtype=float, ndmin=1))
        return original(self, t)

    monkeypatch.setattr(EvolutionOperator, "one_quantum", recording)
    return calls


def beam_splitter_generator(n_total):
    """Anti-symmetric hop generator restricted to one block (oracle only)."""
    k = np.zeros((n_total + 1, n_total + 1))
    for l in range(n_total + 1):
        n1, n2 = n_total - l, l
        if n2 >= 1:
            k[l - 1, l] += math.sqrt((n1 + 1) * n2)
        if n1 >= 1:
            k[l + 1, l] -= math.sqrt(n1 * (n2 + 1))
    return k
