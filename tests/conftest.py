import functools

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from oscswap.core import CouplingParams, TwoModeState, derive_mixing
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


def mp_rotation_element(x, n1, n2, m1, m2):
    """The rotation's finite sum at the current mpmath precision, with s and
    c derived from x."""
    x = mpmath.mpf(x)
    h = mpmath.sqrt(1 + x * x)
    c, s = mpmath.sqrt((h + x) / (2 * h)), mpmath.sqrt((h - x) / (2 * h))
    total = mpmath.mpf(0)
    for k in range(max(0, m2 - n1), min(n2, m2) + 1):
        term = (
            mpmath.binomial(m1, n2 - k)
            * mpmath.binomial(m2, k)
            * c ** (m1 - n2 + 2 * k)
            * s ** (m2 + n2 - 2 * k)
        )
        total += -term if (n2 - k) % 2 else term
    pref = mpmath.sqrt(
        mpmath.factorial(n1) * mpmath.factorial(n2) / (mpmath.factorial(m1) * mpmath.factorial(m2))
    )
    return pref * total


def mp_element(x, n1, n2, m1, m2):
    """The finite sum in 50-digit arithmetic, rounded to a double."""
    with mpmath.workdps(50):
        return float(mp_rotation_element(x, n1, n2, m1, m2))
