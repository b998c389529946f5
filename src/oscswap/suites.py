"""Named invariant batteries runnable from the command line.

Each suite exercises one module's contracts at its default tolerances and
returns a report with one residual per check. All randomness is seeded,
so repeated runs produce identical reports.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, oracle
from .core import (
    CouplingParams,
    TwoModeState,
    annihilation_expectation,
    derive_mixing,
    make_product_state,
    product_amplitudes,
    unitarity_defect,
)
from .evolution import EvolutionOperator, _eigen_blocks, ut_blocks
from .rotation import us_blocks, verify_recursions

# Not used here. perfbench/spans.py wraps the names suites.us_block,
# suites.us_element and suites.u_minus_s_block, so they stay importable until
# the benchmark's trace list changes.
from .rotation import u_minus_s_block, us_block, us_element  # noqa: F401

_X_GRID = (0.0, 0.5, -0.5, 1.0, -1.0, 5.0, -5.0)


class UnknownSuiteError(ValueError):
    """The requested verification suite does not exist."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format(self) -> str:
        lines = [f"suite: {self.suite}"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  [{status}] {check.name}: max residual {check.residual:.3e}"
                f" (tol {check.tolerance:.1e})"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_suite(name: str, tol: float | None = None) -> SuiteReport:
    """Run one named invariant battery.

    ``tol``, when given, replaces every check's default tolerance.
    """
    try:
        runner = _SUITES[name]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise UnknownSuiteError(f"unknown suite {name!r}; choose one of: {known}") from None
    checks, notes = runner()
    if tol is not None:
        checks = [CheckResult(c.name, c.residual, tol) for c in checks]
    return SuiteReport(suite=name, checks=tuple(checks), notes=tuple(notes))


def _params_for_detuning(x: float, lam: float = 1.0, omega2: float = 1.0) -> CouplingParams:
    return CouplingParams(omega1=omega2 + 2.0 * lam * x, omega2=omega2, lam=lam)


def _rotation_suite() -> tuple[list[CheckResult], list[str]]:
    n_top = 30
    mixes = [derive_mixing(_params_for_detuning(x)) for x in _X_GRID]
    c, s = (np.array([getattr(mix, name) for mix in mixes])[:, np.newaxis] for name in "cs")
    worst_unitary = worst_inverse = worst_transpose = worst_recursion = worst_rows = 0.0
    prev = None
    for n in range(n_top + 1):
        # one stacked build per n, slice i for detuning _X_GRID[i]
        blocks = us_blocks(mixes, n)
        forward = blocks.real
        l = np.arange(n + 1)
        inverse = (-1.0) ** np.add.outer(l, l) * forward  # (-1)**(m2 - n2), row n2, column m2
        worst_unitary = max(worst_unitary, unitarity_defect(forward))
        worst_inverse = max(
            worst_inverse, float(np.max(np.abs(inverse @ forward - np.eye(n + 1))))
        )
        worst_transpose = max(
            worst_transpose, float(np.max(np.abs(inverse - forward.swapaxes(-1, -2))))
        )
        if prev is not None:
            worst_recursion = max(worst_recursion, verify_recursions(mixes, prev, blocks))
        prev = blocks
        scale = np.sqrt([float(math.comb(n, j)) for j in l])
        c_pow, s_pow = np.float_power(c, l), np.float_power(s, l)
        top_row = scale * c_pow[:, ::-1] * s_pow
        bottom_row = scale * (-1.0) ** (n - l) * c_pow * s_pow[:, ::-1]
        reference = np.stack([top_row, bottom_row], axis=1)
        got = forward[:, [0, n]]  # rows n2 = 0 (n1 = n) and n2 = n (n1 = 0)
        relative = np.abs(got - reference) / np.maximum(np.abs(reference), 1e-300)
        worst_rows = max(worst_rows, float(np.max(relative)))
    checks = [
        CheckResult("block unitarity, n <= 30, detuning grid", worst_unitary, 1e-10),
        CheckResult("inverse times forward equals identity", worst_inverse, 1e-10),
        CheckResult("inverse block equals forward transpose", worst_transpose, 1e-10),
        CheckResult("ladder recursion residuals", worst_recursion, 1e-10),
        CheckResult("special first-row/column elements (relative)", worst_rows, 1e-12),
    ]
    return checks, []


def _evolution_suite() -> tuple[list[CheckResult], list[str]]:
    t_grid = np.array([0.0, 0.1, 0.37, 1.0, 2.9, 7.3, 20.0])  # t_grid[0] = 0: the identity
    # (t1, t2) of the group property as indices into t_grid: (0.1, 0.37), (1.0, 2.9), (7.3, 0.1)
    first, second = np.array([1, 3, 5]), np.array([2, 4, 1])
    worst_identity = worst_unitary = worst_group = worst_product = worst_populations = 0.0
    product_rng = np.random.default_rng(20261018)
    # one operator per detuning, so that each block is built once for all checks
    operators = {
        x: EvolutionOperator(_params_for_detuning(x, lam=0.7, omega2=1.3))
        for x in (0.0, 1.0, -1.0, 5.0, -5.0)
    }
    # the closed forms first: one stacked build per n <= 20 gives all later checks their blocks
    evos = list(operators.values())
    grids = np.array([[0.0, 0.3, 1.0, 2.2, 5.0, 9.1]]) / [[evo.params.lam] for evo in evos]
    worst_closed = 0.0
    for n in range(21):
        generic = ut_blocks(evos, n, grids)[..., [n, 0], 0]  # <0, n|U|n, 0> and <n, 0|U|n, 0>
        closed = np.array([[evo.transfer_amplitude(n, ts), evo.survival_amplitude(n, ts)]
                           for evo, ts in zip(evos, grids)])
        worst_closed = max(worst_closed, float(np.max(np.abs(closed - generic.swapaxes(1, 2)))))
    trio = [operators[x] for x in (0.0, 1.0, -5.0)]
    for evo in trio:
        state = make_product_state(_random_phi(product_rng, 20))
        (_, eigen), = evo.evolve_grid(state, t_grid)
        (_, closed), = evo.product_grid(state.table[:, 0], t_grid)
        worst_product = max(worst_product, float(np.max(np.abs(closed - eigen))))
        (_, *populations), = evo.product_populations(state.table[:, 0], t_grid)
        for mode, p in enumerate(populations, start=1):
            diagonals = np.diagonal(analysis.reduced_densities(eigen, mode), axis1=1, axis2=2)
            worst_populations = max(worst_populations, float(np.max(np.abs(p - diagonals))))
    for n in range(13):
        blocks = ut_blocks(trio, n, [t_grid] * len(trio))
        worst_identity = max(worst_identity, float(np.max(np.abs(blocks[:, 0] - np.eye(n + 1)))))
        worst_unitary = max(worst_unitary, unitarity_defect(blocks))
        combined = ut_blocks(trio, n, [t_grid[first] + t_grid[second]] * len(trio))
        product = blocks[:, first] @ blocks[:, second]
        worst_group = max(worst_group, float(np.max(np.abs(combined - product))))
    rng = np.random.default_rng(20240817)
    pictures = []
    for _ in range(10):
        params = CouplingParams(
            omega1=rng.uniform(0.2, 4.0), omega2=rng.uniform(0.2, 4.0), lam=rng.uniform(0.05, 1.5)
        )
        pictures.append((EvolutionOperator(params), _random_state(rng, n_max=4)))
    for n in range(5):  # one stacked build per block size, which evolve_grid reads
        _eigen_blocks([evo for evo, _ in pictures], n)
    worst_picture = 0.0
    ts = (0.0, 0.37, 2.2)
    for evo, state in pictures:
        (_, tables), = evo.evolve_grid(state, ts)
        for t, table in zip(ts, tables):
            evolved = TwoModeState(table)
            for mode in (1, 2):
                heis = evo.heisenberg_mode_expectation(state, mode, t)
                schro = annihilation_expectation(evolved, mode)
                worst_picture = max(worst_picture, abs(heis - schro))
    worst_period = 0.0
    for x in (0.0, 1.0):
        evo = operators[x]
        mix = evo.mix
        period = math.pi * 2.0 * mix.c * mix.s / evo.params.lam
        for t in (0.1, 0.9, 2.3):
            for n in (1, 2, 5):
                worst_period = max(
                    worst_period,
                    abs(
                        abs(evo.ut_element(0, n, n, 0, t + period))
                        - abs(evo.ut_element(0, n, n, 0, t))
                    ),
                )
    checks = [
        CheckResult("identity at t = 0", worst_identity, 1e-12),
        CheckResult("block unitarity over time grid", worst_unitary, 1e-10),
        CheckResult("group property U(t1) U(t2) = U(t1+t2)", worst_group, 1e-10),
        CheckResult("closed-form transfer/survival vs generic sum, n <= 20", worst_closed, 1e-10),
        CheckResult("closed-form product tables vs eigen tables, n_max <= 20", worst_product,
                    1e-12),
        CheckResult("binomial thinning vs eigen density diagonals", worst_populations, 1e-12),
        CheckResult("Heisenberg vs Schrodinger mode expectations", worst_picture, 1e-10),
        CheckResult("transfer modulus periodicity", worst_period, 1e-10),
    ]
    return checks, []


def _oracle_suite() -> tuple[list[CheckResult], list[str]]:
    rng = np.random.default_rng(911)
    draws, t_grids = [], []
    for _ in range(10):
        draws.append(CouplingParams(
            omega1=rng.uniform(0.1, 5.0), omega2=rng.uniform(0.1, 5.0), lam=rng.uniform(0.05, 1.5)
        ))
        t_grids.append(rng.uniform(0.0, 20.0, size=20))
    t_grids = np.array(t_grids)
    operators = [EvolutionOperator(params) for params in draws]
    # the run path: closed-form tables of |phi> (x) |0>, phi drawn on a seed of its own
    phi_rng = np.random.default_rng(20261019)
    phis, products = [], []
    for evo, t_grid in zip(operators, t_grids):
        phis.append(_random_phi(phi_rng, 12))
        (_, tables), = evo.product_grid(phis[-1], t_grid)
        products.append(tables)
    phis, products = np.array(phis), np.array(products)
    worst_dev = worst_product = worst_spec = worst_sym = worst_unit = 0.0
    for n in range(13):
        # one stacked exponential and eigen build per n, slice i for draw i over its own grid
        hamiltonians = np.stack([oracle.build_block(params, n) for params in draws])
        worst_sym = max(
            worst_sym, float(np.max(np.abs(hamiltonians - hamiltonians.swapaxes(-1, -2))))
        )
        worst_spec = max(worst_spec, oracle.spectrum_deviation(draws, hamiltonians))
        taylor = oracle.expm_evolution(hamiltonians, t_grids)
        worst_dev = max(
            worst_dev, float(np.max(np.abs(ut_blocks(operators, n, t_grids) - taylor)))
        )
        worst_unit = max(worst_unit, unitarity_defect(taylor))
        # C[n - l, l] of the product state is phi_n <n - l, l| U |n, 0>: column 0 of U
        l = np.arange(n + 1)
        worst_product = max(worst_product, float(np.max(np.abs(
            products[:, :, n - l, l] - phis[:, n, np.newaxis, np.newaxis] * taylor[..., l, 0]
        ))))
    checks = [
        CheckResult("analytic vs Taylor exponential evolution, n <= 12", worst_dev, 1e-9),
        CheckResult("closed-form product amplitudes vs Taylor exponential, n <= 12",
                    worst_product, 1e-11),
        CheckResult("spectrum equals normal-mode combinations", worst_spec, 1e-10),
        CheckResult("Hamiltonian block symmetry", worst_sym, 1e-14),
        CheckResult("exponential unitarity", worst_unit, 1e-12),
    ]
    return checks, []


def _exchange_suite() -> tuple[list[CheckResult], list[str]]:
    # Each operator's blocks are read once per time; every state is graded from the reads.
    rng = np.random.default_rng(424242)
    notes: list[str] = []

    omega, lam = 2.37, 0.53
    evo = EvolutionOperator(CouplingParams(omega1=omega, omega2=omega, lam=lam))
    tau0 = analysis.exchange_times(evo.mix, lam, 0)[0]
    draws = [_random_phi(rng, rng.integers(1, 7)) for _ in range(20)]  # 1 to 6 quanta
    phis = np.array([product_amplitudes(phi, 6) for phi in draws])  # zero-padded to 7 levels
    worst_stats = max(
        analysis.verify_statistics_exchange(phi, evo, tau0).statistics_match for phi in phis
    )
    # the initial tables hold phi in column 0; the final ones come from one read per block
    rho1_initial = analysis.reduced_densities(phis[:, :, np.newaxis] * np.eye(7)[0], 1)
    rho2_final = analysis.reduced_densities(_product_tables(evo, phis, tau0), 2)
    kick = np.exp(-1j * (omega * tau0 + 0.5 * math.pi) * np.arange(7))
    predicted = np.outer(kick, kick.conj()) * rho1_initial
    worst_rho = float(np.max(np.abs(rho2_final - predicted)))

    # the closed form's grades against the same grading of eigen-path tables
    worst_grades = 0.0
    grades_rng = np.random.default_rng(20261018)
    evo_g = EvolutionOperator(_params_for_detuning(0.7, lam=0.6, omega2=1.9))
    ts = np.array(analysis.exchange_times(evo_g.mix, 0.6, 2) + [0.4, 3.3, 11.9])
    for _ in range(3):
        state0 = make_product_state(_random_phi(grades_rng, grades_rng.integers(1, 7)))
        phi = state0.table[:, 0]
        (_, tables), = evo_g.evolve_grid(state0, ts)
        eigen = analysis.grade_exchanges(phi, tables[:, 0, :], evo_g.transfer_amplitude(1, ts))
        closed = analysis.statistics_exchanges(phi, evo_g, ts)
        worst_grades = max(worst_grades, float(np.max(np.abs(closed - eigen))))

    worst_exact = 0.0
    worst_margin = -math.inf  # perturbed-ratio fidelity minus the allowed ceiling
    for level in (1, 2, 3):
        ratio = analysis.complete_exchange_ratio(level, 1)
        # ten states sqrt(w) e^{ia} |0> + sqrt(1 - w) e^{ib} |N> (N = level), drawn as (w, a, b)
        # rows; the overlap w <0, 0|U|0, 0> + (1 - w) <0, N|U|N, 0> is blind to a and b
        weights = rng.uniform((0.2, 0.0, 0.0), (0.8, math.tau, math.tau), size=(10, 3))[:, 0]
        # the matched ratio, then detuned by -5% and +5%, each block built once for all three
        evos = [_resonant_evolution(ratio * factor, 1.0) for factor in (1.0, 0.95, 1.05)]
        taus = [analysis.exchange_times(evo.mix, 1.0, 0)[0] for evo in evos]
        swaps = zip(ut_blocks(evos, 0, taus)[:, 0, 0], ut_blocks(evos, level, taus)[:, level, 0])
        fids = [np.abs(np.column_stack([weights, 1.0 - weights]) @ swap) ** 2 for swap in swaps]
        worst_exact = max(worst_exact, float(np.max(np.abs(1.0 - fids[0]))))
        worst_margin = max(worst_margin, float(np.max(fids[1:])) - (1.0 - 1e-4))
    try:
        analysis.complete_exchange_ratio(5, 1)
        ratio_guard = 1.0  # a yes/no check: 0 passes, 1 fails, tolerance 0.5 between them
    except analysis.NonPositiveRatioError:
        ratio_guard = 0.0

    worst_detuning = 0.0
    for x in (0.0, 0.5, 1.0, 2.0, 5.0):
        lam0 = 0.8
        evo_x = EvolutionOperator(_params_for_detuning(x, lam=lam0, omega2=1.1))
        tau = analysis.exchange_times(evo_x.mix, lam0, 0)[0]
        best = analysis.find_exchange_time(evo_x, [0.0, 1.0], 0.5 * tau, 1.5 * tau)[1]
        worst_detuning = max(worst_detuning, abs(best - 1.0 / (1.0 + x * x)))

    worst_fock = worst_printed = 0.0
    lam0 = 1.0
    fock = {ratio: _resonant_evolution(ratio, lam0) for ratio in (3.0, 1.7, 0.513)}
    for level in range(1, 6):  # one stacked build per level, which evolve_grid reads
        _eigen_blocks(list(fock.values()), level)
    for ratio, evo_f in fock.items():
        taus = analysis.exchange_times(evo_f.mix, lam0, 4)
        printed = [taus[0] + 2.0 * math.pi * k / lam0 for k in range(3)]
        for level in range(1, 6):
            # the exchange times, then the printed instants, in one grid; the
            # exchange fidelity of |level, 0> is |<0, level|U|level, 0>|^2
            (_, tables), = evo_f.evolve_grid(make_product_state([0] * level + [1]), taus + printed)
            misses = np.abs(1.0 - np.abs(tables[:, 0, level]) ** 2)
            worst_fock = max(worst_fock, float(np.max(misses[: len(taus)])))
            worst_printed = max(worst_printed, float(np.max(misses[len(taus) :])))
        exact_at = [any(abs(t - tau) < 1e-12 for tau in taus) for t in printed]
        if all(exact_at) and len(printed) < len(taus):
            notes.append(
                f"ratio {ratio:g}: the instants tau0 + 2 pi k / lambda are the even-index"
                " half of the exchange times; Fock exchange is exact at every exchange time,"
                " a strict superset"
            )
    if worst_printed > 1e-9:
        notes.append("Fock exchange was NOT exact at some instant tau0 + 2 pi k / lambda")

    checks = [
        CheckResult("modulus transfer at the first exchange time", worst_stats, 1e-10),
        CheckResult("reduced-density phase-kick relation", worst_rho, 1e-10),
        CheckResult("exchange grades: closed form vs eigen tables", worst_grades, 1e-12),
        CheckResult("exact qubit exchange at the matched ratio", worst_exact, 1e-9),
        CheckResult("ratio +-5% drops fidelity below 1 - 1e-4", worst_margin, 0.0),
        CheckResult("nonpositive ratio is rejected", ratio_guard, 0.5),
        CheckResult("peak single-quantum transfer equals 1/(1+x^2)", worst_detuning, 1e-10),
        CheckResult("Fock exchange exact at every exchange time", worst_fock, 1e-9),
    ]
    return checks, notes


def _resonant_evolution(ratio: float, lam: float) -> EvolutionOperator:
    return EvolutionOperator(CouplingParams(omega1=ratio * lam, omega2=ratio * lam, lam=lam))


def _product_tables(evo: EvolutionOperator, phis: np.ndarray, t: float) -> np.ndarray:
    """Eigen-path tables at time t of |phi> (x) |0> for each row phi of ``phis``:
    C[n - l, l] = phi_n <n - l, l|U|n, 0>, read from column 0 of block n."""
    tables = np.zeros(phis.shape + phis.shape[-1:], dtype=complex)
    for n in range(phis.shape[1]):
        l = np.arange(n + 1)
        tables[:, n - l, l] = phis[:, n, np.newaxis] * evo.ut_block(n, t)[:, 0]
    return tables


def _random_phi(rng: "np.random.Generator", n_top: int) -> np.ndarray:
    phi = rng.normal(size=n_top + 1) + 1j * rng.normal(size=n_top + 1)
    phi[n_top] += 1.0  # pin the support so the draw never truncates early
    return phi / np.linalg.norm(phi)


def _random_state(rng: "np.random.Generator", n_max: int) -> TwoModeState:
    # The draw order fixes the suite's samples: block by block, n = 0..n_max,
    # the n + 1 real parts of C[n - l, l], then their n + 1 imaginary parts.
    n, l = np.tril_indices(n_max + 1)
    draws = rng.normal(size=2 * n.size)
    start = n * (n + 1)  # draws taken by the blocks below n: 2 (1 + 2 + ... + n)
    table = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    table[n - l, l] = draws[start + l] + 1j * draws[start + n + 1 + l]
    return TwoModeState(table / np.linalg.norm(table))


_SUITES = {
    "rotation": _rotation_suite,
    "evolution": _evolution_suite,
    "oracle": _oracle_suite,
    "exchange": _exchange_suite,
}
