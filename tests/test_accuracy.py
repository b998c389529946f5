"""Every run-path output against the one high-precision reference, ``mp_reference``:
one row per case, whose check returns its worst error over its bound. The module
prints the worst ratio per output when it ends (shown with ``pytest -s``). A case
that reads a CSV or stdout runs its scenario through ``cli.main``."""

import ast
import contextlib
import functools
import io
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

import mp_reference as ref
from oscswap.analysis import (exchange_fidelities, exchange_times, find_exchange_time,
                              reduced_densities, statistics_exchanges)
from oscswap.cli import main
from oscswap.core import CouplingParams, derive_mixing, product_amplitudes
from oscswap.evolution import EvolutionOperator
from oscswap.oracle import build_block, expm_evolution
from oscswap.rotation import us_block, us_element
from oscswap.scenario import build_initial_state, parse_scenario
from conftest import (beam_splitter_generator, mixing_for_detuning, params_for_detuning,
                      random_phi, record_one_quantum)
from test_cli import read_csv
from test_scenario import raw_scenario

EPS = np.finfo(float).eps
WORST = {}


def run_cli(**fields):
    """cli.main on raw_scenario(**fields): (stdout, {CSV name: (header, rows)}, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp, "scenario.yaml"), Path(tmp, "out")
        scenario.write_text(yaml.safe_dump(raw_scenario(**fields)))
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main(["run", str(scenario), "--out", str(out)]) == 0
        report = out / "report.txt"
        return (printed.getvalue(), {path.stem: read_csv(path) for path in out.glob("*.csv")},
                report.exists() and report.read_text())


def one_quantum_ratio(pair, ts, bound):
    params = CouplingParams(*pair)
    stays, hops = EvolutionOperator(params).one_quantum(np.array(ts))
    return max(max(abs(stay - want[0][0]), abs(hop - want[0][1])) / bound(pair, t)
               for t, stay, hop in zip(ts, stays.tolist(), hops.tolist())
               for want in [ref.one_quantum(params, t)])


def ut_element_ratio(x):
    params = params_for_detuning(x, lam=0.5, omega2=1.0)
    evo = EvolutionOperator(params)
    return max(abs(evo.ut_element(100 - r, r, 100 - c, c, t)
                   - ref.block_element(u, 100 - r, r, 100 - c, c))
               for t in (0.7, 2.9) for u in [ref.one_quantum(params, t)]
               for r, c in itertools.product((0, 33, 50, 100), repeat=2)) / 1e-13


def us_block_ratio(x, n, tol):
    entries, u = us_block(mixing_for_detuning(x), n).real, ref.rotation(x)
    return max(abs(entries[row, col] - ref.block_element(u, n - row, row, n - col, col))
               for row in (n // 3, n // 2) for col in range(n + 1)) / tol


def special_rows_ratio(x, n):
    # the first row and column, one-term sums, relative to 1e-12 (absolute below 1)
    mix, u = mixing_for_detuning(x), ref.rotation(x)
    return max(abs(us_element(mix, *end, n - l, l).real - want) / max(1e-12 * abs(want), 1e-12)
               for l in range(n + 1) for end in [(n, 0), (0, n)]
               for want in [ref.block_element(u, *end, n - l, l)])


def expm_ratio(block, ts, bound):
    return max(np.max(np.abs(expm_evolution(block, t) - ref.expm(block, t))) for t in ts) / bound


def exchange_fidelities_ratio(x):
    # around the first exchange time, where the resonant fidelity reaches 1
    params = params_for_detuning(x, lam=1.0, omega2=3.0)  # omega / lambda = 3 at x = 0
    phi = product_amplitudes(random_phi(np.random.default_rng(1000), 1000))
    tau0 = math.pi / (2.0 * math.hypot(1.0, x))
    ts = [0.0, 0.3, 0.99 * tau0, tau0, 1.01 * tau0]
    fidelities = exchange_fidelities(phi, EvolutionOperator(params), ts)
    assert x != 0.0 or fidelities[3] == pytest.approx(1.0, abs=1e-12)
    p = ref.weights(phi)
    return max(abs(f - ref.fidelity_at(params, p, t)[0]) for t, f in zip(ts, fidelities)) / 1e-12


def fidelity_csv_ratio():
    # the tail beyond n = 534 is below the 1e-10 threshold; with omega / lambda = 3
    # the exchange is complete at t = pi / 2
    _, csvs, report = run_cli(
        params={"omega1": 3.0, "omega2": 3.0, "lambda": 1.0}, outputs=["fidelity", "report"],
        initial={"kind": "coherent", "alpha": 20, "truncation": 534},
        schedule={"kind": "time_grid", "t_start": 0.0, "t_end": math.pi, "steps": 11})
    _, rows = csvs["fidelity"]
    assert rows[5, 1] == pytest.approx(1.0, abs=1e-12)
    assert "n_max: 534\n" in report
    assert float(report.split("final_norm: ")[1].split()[0]) == pytest.approx(1.0, abs=1e-12)
    params, p = CouplingParams(3.0, 3.0, 1.0), ref.poisson_weights(400, 534)
    return max(abs(f - ref.fidelity_at(params, p, t)[0]) for t, f in rows) / 1e-12


def resonant_fidelity_csv_ratio():
    values = [math.sqrt(n + 1.0) for n in range(61)]
    _, csvs, _ = run_cli(
        initial={"kind": "amplitudes", "values": values}, n_max=60, outputs=["fidelity"],
        schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 7.0, "steps": 15})
    params, p = CouplingParams(1.0, 1.0, 0.5), ref.weights(values)
    return max(abs(f - ref.fidelity_at(params, p, t)[0]) for t, f in csvs["fidelity"][1]) / 1e-9


def transfer_profile_csv_ratio(w1, w2, lam):
    # |T|^{2n}, n = 1..1000. The relative error comes from rounding in T, amplified
    # n-fold by the power and by the sine's condition number max(1, |d t cot(d t)|),
    # d the half splitting. Divided by both, it measured at most 2.0 eps (detuned) and
    # 3.6 eps (resonant), against 4.4 and 4.8 eps for |2 s c sin(lambda t / (2 c s))|^{2n}
    _, csvs, _ = run_cli(
        params={"omega1": w1, "omega2": w2, "lambda": lam}, n_max=1000,
        initial={"kind": "amplitudes", "values": [1.0] * 1001}, outputs=["transfer_profile"],
        schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 40.0, "steps": 41})
    header, rows = csvs["transfer_profile"]
    assert header == ["t"] + [f"transfer_prob_{n}" for n in range(1, 1001)]
    params = CouplingParams(w1, w2, lam)
    reference = np.array([ref.transfer_profile(ref.one_quantum(params, t)[0][1], 1000)
                          for t in rows[:, 0].tolist()], dtype=float)
    x = math.hypot(0.5 * (w1 - w2), lam) * rows[:, :1]
    cond = np.maximum(1.0, np.abs(x / np.tan(np.where(x == 0.0, 1.0, x))))
    bound = 8.0 * EPS * np.arange(1, 1001) * cond * reference + 1e-300
    return np.max(np.abs(rows[:, 1:] - reference) / bound)


def populations_ratio(program_amplitudes, bound):
    # both modes' thinnings at n_max 1000 at sampled levels, from either side's S and T
    params = params_for_detuning(0.8, lam=1.0, omega2=3.0)
    evo, ts, fock = EvolutionOperator(params), np.array([0.4, 1.1]), np.eye(1001)[1000]
    amplitudes = (list(zip(*evo.one_quantum(ts))) if program_amplitudes
                  else [ref.one_quantum(params, t)[0] for t in ts.tolist()])
    levels = list(range(0, 1001, 100)) + [480, 490, 500, 510, 520, 999]
    worst = 0.0
    for phi in (product_amplitudes(random_phi(np.random.default_rng(1000), 1000)), fock):
        p, ((_, *programs),) = ref.weights(phi), evo.product_populations(phi, ts)
        for k, (stay, hop) in enumerate(amplitudes):
            for program, want in zip(programs, ref.populations(p, stay, hop, levels)):
                worst = max(worst, *(abs(program[k, m] - w) for m, w in zip(levels, want)))
    return worst / bound


def tail_ratio(cases, rel):
    # P(N > truncation) for N ~ Poisson(mean), relative
    worst = 0.0
    for mean, truncation in cases:
        raw = raw_scenario(initial={"kind": "coherent", "alpha": math.sqrt(mean),
                                    "truncation": truncation}, coherent_tail_threshold=1e300)
        phi, discarded = build_initial_state(parse_scenario(raw))
        assert phi.shape == (truncation + 1,) and np.all(np.isfinite(phi))
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
        exact = float(ref.poisson_tail(math.sqrt(mean) ** 2, truncation))
        assert (discarded > 1e-10) == (exact > 1e-10), (mean, truncation)
        worst = max(worst, abs(discarded - exact) / max(rel * exact, 1e-300))
    return worst


# means up to 1000 and truncations from 3 standard deviations below the mean to 12 above,
# and one where the plain sum n log I - I - lgamma(n + 1) is 1.0e-12 off the tail
TAIL_CASES = [(mean, truncation) for mean, truncation in [
    *((mean, int(round(mean + z * math.sqrt(mean))))
      for mean in [0.01, 0.5, 1.0, 10.0, 707.9, 745.2, 1000.0,
                   *np.random.default_rng(8).uniform(0.0, 1000.0, size=20)]
      for z in (-3.0, -0.5, 0.0, 0.5, 2.0, 5.0, 7.0, 9.5, 12.0)),
    (788.487801100912, 896)] if 0 <= truncation <= 1000]
assert len(TAIL_CASES) > 180


def printed_tail_ratio():
    # the tail is 5.96e-14, below the threshold. A Poisson recursion started at
    # exp(-784) = 0 reported a tail of 1
    printed, _, _ = run_cli(initial={"kind": "coherent", "alpha": 28, "truncation": 1000},
                            outputs=["fidelity"])
    tail = float(printed.split("coherent_tail_discarded=")[1].split()[0])
    exact = ref.poisson_tail(784, 1000)
    return abs(tail - exact) / (1e-12 * exact)


def scan_ratio(support, detuned, seed=None):
    # F at the time find_exchange_time returns against the maximum over its window
    # [0, tau_kmax + tau_0] (seed None) or, for the refinement alone, over the coarse
    # bracket it refines, the first zoom grid's span; the pair and state drawn from
    # the benchmark's scan_sweep ranges, support 1 + (k_max - 2) % 6. The zoom resolves
    # the leak 1 - F, so F is below the maximum by rounding of 1, not of F: over the
    # window at most 0.005 eps measured (0.50 eps with six rounds and no vertex, 4287
    # eps with one round and the vertex)
    rng = np.random.default_rng([support, int(detuned)] if seed is None
                                else [seed, support, int(detuned), 35])
    lam, omega2 = rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0)
    params = params_for_detuning(rng.uniform(0.0, 5.0) if detuned else 0.0, lam, omega2)
    amps = rng.uniform(0.2, 1.0, support + 1) * np.exp(2j * np.pi * rng.uniform(size=support + 1))
    taus = exchange_times(derive_mixing(params), lam, support + 1 + 6 * detuned)
    t_end, p = taus[-1] + taus[0], ref.weights(amps)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_one_quantum(monkeypatch)
        t_best, _ = find_exchange_time(EvolutionOperator(params), amps, 0.0, t_end)
    if seed is None:
        best = ref.window_maximum(params, p, t_end)
    else:
        assert calls[1][0] <= t_best <= calls[1][-1]
        best = ref.bracket_maximum(params, p, calls[1][0], calls[1][-1], (0.0, t_end))
    return (best - ref.fidelity_at(params, p, t_best)[0]) / (4 * EPS)


@functools.cache
def reference_tables(x):
    """(params, phi, times, [(T, table)]): phi of support 50, tables at t = 0.4 and tau_0."""
    params = params_for_detuning(x, lam=0.7, omega2=1.3)
    phi = product_amplitudes(random_phi(np.random.default_rng(50), 50))
    times = (0.4, exchange_times(derive_mixing(params), 0.7, 0)[0])
    return params, phi, times, [(hop, ref.product_table(ref.normalized(phi), stay, hop))
                                for (stay, hop), _ in (ref.one_quantum(params, t) for t in times)]


def reduced_densities_ratio(x, mode, bound):
    params, phi, times, tables = reference_tables(x)
    (_, program), = EvolutionOperator(params).product_grid(phi, times)
    worst = 0.0
    for rho, (_, table) in zip(reduced_densities(program, mode), tables):
        for a, row in enumerate(ref.reduced_density(table, mode)):
            want = np.array(row, dtype=complex)
            worst = max(worst, *np.abs(rho[a, a:] - want), *np.abs(rho[a:, a] - want.conj()))
    return worst / bound


def statistics_exchanges_ratio(x, bounds):
    params, phi, times, tables = reference_tables(x)
    grades, amps = statistics_exchanges(phi, EvolutionOperator(params), times), ref.normalized(phi)
    return max(abs(got - want) / bound for row, (hop, table) in zip(grades.tolist(), tables)
               for got, want, bound in zip(row, ref.exchange_grades(amps, table, hop), bounds))


# (output, case id, check, its arguments)
ROWS = [
    # resonant, detuned x = 1, |omega1 - omega2| = 999 either way, weak coupling detuned
    # and resonant, and decoupled detuned and resonant. The phase and the splitting
    # carry rounding of order eps max(omega, lam) per unit time, and s^2 + c^2 an eps
    # that does not grow with t: bound 4 eps max(1, max(|omega1|, |omega2|, lam) |t|)
    *(("one_quantum", "-".join(map(str, pair)), one_quantum_ratio,
       (pair, [0.0, 0.5, -2.2, 3.7, 40.0, 1234.5],
        lambda pair, t: 4 * EPS * max(1.0, max(map(abs, pair)) * abs(t)))) for pair in [
        (1.0, 1.0, 0.5), (1.2, 0.8, 0.2), (1000.0, 1.0, 0.3), (1.0, 1000.0, 0.3),
        (1.3, 0.9, 1e-8), (1.0, 1.0, 1e-8), (1.3, 0.9, 0.0), (0.7, 0.7, 0.0)]),
    ("one_quantum", "resonant-absolute", one_quantum_ratio,
     ((1.0, 1.0, 0.5), [0.0, 0.4, 1.9, 6.0], lambda pair, t: 1e-14)),
    *(("ut_element, block 100", f"x{x}", ut_element_ratio, (x,)) for x in (0.0, 1.0, -5.0)),
    *(("us_block rows", f"x{x}-n{n}", us_block_ratio, (x, n, tol))
      for x in (0.0, 1.0, 5.0) for n, tol in [(21, 1e-12), (30, 1e-12), (44, 1e-9)]),
    *(("us_element first row and column", f"x{x}-n{n}", special_rows_ratio, (x, n))
      for x in (0.0, 0.5, -0.5, 1.0, -1.0, 5.0, -5.0) for n in (1, 3, 8, 17, 25, 30)),
    # the last four: i G for the real antisymmetric hop generator G, Hermitian and
    # complex, whose exp(-i (i G) t) = exp(G t) is a real rotation
    *(("expm_evolution", f"{name}-t{ts}", expm_ratio, (block, ts, bound))
      for name, block, ts, bound in [
          *((f"n{n}", build_block(CouplingParams(*pair), n), ts, bound) for pair, n, ts, bound in [
              ((5.0, 5.0, 1.5), 12, [20.0], 1e-12), ((5.0, 0.1, 0.05), 12, [7.7], 1e-12),
              ((0.1, 5.0, 1.5), 6, [13.1], 1e-12), ((2.3, 4.1, 0.7), 3, [0.37], 1e-12),
              ((1.0, 1.0, 0.5), 1, [0.3, 1.1, 4.0], 1e-12),
              ((1.2, 0.8, 0.2), 1, [0.0, 0.3, 4.0, 19.9], 1e-13),
              ((5.0, 0.1, 1.5), 1, [0.0, 0.3, 4.0, 19.9], 1e-13)]),
          *((f"hop-n{n}", 1j * beam_splitter_generator(n), [t], 1e-12)
            for n in (5, 12) for t in (0.37, 71.0))]),
    *(("exchange_fidelities, n_max 1000", f"x{x}", exchange_fidelities_ratio, (x,))
      for x in (0.0, 1.3)),
    ("fidelity.csv", "coherent-alpha20-n_max534", fidelity_csv_ratio, ()),
    ("fidelity.csv", "resonant-n_max60", resonant_fidelity_csv_ratio, ()),
    *(("transfer_profile.csv, n_max 1000", "-".join(map(str, pair)), transfer_profile_csv_ratio,
       pair) for pair in [(1.3, 0.9, 0.4), (1.0, 1.0, 0.5)]),
    # measured 9.5e-16 for the random phi and 1.2e-14 for |1000>, whose
    # binomials carry the rounding of lgamma near 5900
    ("product_populations, n_max 1000", "program-S-T", populations_ratio, (True, 5e-14)),
    # The next three outputs bound 4 times the worst measured, rounded up. With
    # the reference's S and T the thinning also carries the program's rounding
    # of S and T, n-fold: 2.2e-14 measured
    ("product_populations, n_max 1000", "reference-S-T", populations_ratio, (False, 9e-14)),
    # measured 1.0e-14 (mode 1 at the resonant exchange time), 3.1e-15 otherwise
    *(("reduced_densities, n_max 50", f"mode{mode}-x{x}", reduced_densities_ratio,
       (x, mode, 4e-14)) for x in (0.0, -2.0) for mode in (1, 2)),
    # fidelity, statistics_match and phase_defect, measured 5.6e-16, 2.4e-15 and
    # 1.4e-14: the defect is n times the rounding of arg T, up to n = 50
    *(("statistics_exchanges, n_max 50", f"x{x}", statistics_exchanges_ratio,
       (x, (3e-15, 1e-14, 6e-14))) for x in (0.0, -2.0)),
    ("coherent tail, build_initial_state", "means-to-1000", tail_ratio, (TAIL_CASES, 1e-12)),
    # alpha 12 at truncation 180: a tail of 1.6e-3
    ("coherent tail, build_initial_state", "mean144-truncation180", tail_ratio,
     ([(144.0, 180)], 1e-9)),
    ("coherent tail, stdout", "alpha28-truncation1000", printed_tail_ratio, ()),
    # bound 4 eps
    *(("find_exchange_time, " + ("window" if seed is None else "bracket") + " maximum",
       f"support{support}-{kind}" + ("" if seed is None else f"-seed{seed}"), scan_ratio,
       (support, kind == "detuned", seed)) for seed in (None, *range(5))
      for support in range(1, 7) for kind in ("resonant", "detuned")),
]


@pytest.fixture(scope="module", autouse=True)
def print_worst_ratios():
    yield
    print("\nworst error / bound per output:", *(f"  {output:40} {ratio:.3g}"
                                               for output, ratio in WORST.items()), sep="\n")


@pytest.mark.parametrize("output, check, args", [pytest.param(
    output, check, args, id=f"{output}-{case}") for output, case, check, args in ROWS])
def test_output_is_within_its_bound(output, check, args):
    ratio = float(check(*args))
    WORST[output] = max(WORST.get(output, -math.inf), ratio)
    assert ratio < 1.0, f"{output}: error / bound = {ratio:.3g}"


def test_reference_shares_no_algebra_with_the_program():
    # it may import CouplingParams from oscswap, and nothing else
    imports = [(getattr(node, "module", None) or alias.name, alias.name)
               for node in ast.walk(ast.parse(Path(ref.__file__).read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert all(name == "CouplingParams" for module, name in imports if module.startswith("oscswap"))
