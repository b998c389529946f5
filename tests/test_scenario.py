import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import yaml

from oscswap.cli import main
from oscswap.scenario import (
    Scenario,
    ScenarioError,
    build_initial_state,
    csv_header,
    csv_width,
    load_scenario,
    parse_scenario,
)
from test_cli import BAD_AMPLITUDES, BUDGET_BASE, BUDGET_CASES, FOCK_GRID, QUBIT_SCAN

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))


def raw_scenario(initial=None, schedule=None, **top):
    raw = {
        "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.5},
        "initial": initial or {"kind": "fock", "n": 1},
        "schedule": schedule or {"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 2},
    }
    raw.update(top)
    return raw


@pytest.mark.parametrize("n_max", [0, 1, 7, 20, 200])
@pytest.mark.parametrize(
    "output", ["fidelity", "number_distribution", "reduced_density", "transfer_profile"]
)
def test_csv_width_counts_the_header(output, n_max):
    # the budget counts cells by width, without building the names
    for levels in (range(1, n_max + 1), [n for n in range(1, n_max + 1) if n % 3], []):
        assert csv_width(output, n_max, levels) == len(csv_header(output, n_max, levels))


class TestCostBudgetLimitsParse:
    def test_k_max_limit(self):
        raw = raw_scenario(schedule={"kind": "exchange_scan", "k_max": 1000})
        assert parse_scenario(raw).schedule.k_max == 1000

    def test_steps_limit(self):
        raw = raw_scenario(
            schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 100000}
        )
        assert parse_scenario(raw).schedule.steps == 100000

    @pytest.mark.parametrize(
        "initial, top",
        [
            ({"kind": "fock", "n": 1}, {"n_max": 200}),
            ({"kind": "fock", "n": 200}, {}),
            ({"kind": "qubit", "c0": 0.6, "cn": 0.8, "n": 200}, {}),
            ({"kind": "amplitudes", "values": [1.0] * 201}, {}),
            ({"kind": "coherent", "alpha": 0.5, "truncation": 200}, {}),
        ],
        ids=["explicit", "fock", "qubit", "amplitudes", "coherent"],
    )
    def test_n_max_limit(self, initial, top):
        assert parse_scenario(raw_scenario(initial=initial, **top)).n_max == 200

    @pytest.mark.parametrize(
        "initial, top",
        [
            ({"kind": "fock", "n": 1}, {"n_max": 1000, "outputs": ["fidelity", "report"]}),
            ({"kind": "coherent", "alpha": 20.0, "truncation": 1000}, {}),
            ({"kind": "fock", "n": 1}, {"n_max": 200, "outputs": ["number_distribution"]}),
            ({"kind": "fock", "n": 200}, {"outputs": ["fidelity", "number_distribution"]}),
        ],
        ids=["explicit-1000", "coherent-1000", "density-explicit-200", "density-fock-200"],
    )
    def test_n_max_limit_without_and_with_densities(self, initial, top):
        # the closed form has no cubic work; the density outputs keep n_max <= 200
        assert parse_scenario(raw_scenario(initial=initial, **top)).n_max in (200, 1000)

    def test_csv_cells_limit(self):
        # 650 steps x (1 + 4 * 62**2) reduced_density columns = 9995050 <= 10**7 cells
        raw = raw_scenario(
            schedule={"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 650},
            n_max=61,
            outputs=["reduced_density", "report"],
        )
        assert parse_scenario(raw).schedule.steps == 650


    @pytest.mark.parametrize(
        "schedule, n_max, outputs",
        [
            # the largest grid and scan without a density output: only the
            # steps, k_max and n_max limits bound them
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 100000}, 1000,
             ["fidelity"]),
            ({"kind": "exchange_scan", "k_max": 1000}, 1000, []),
            # with a density output: 804 x (3 x 201**3 + 500000) and
            # 37894 x (3 x 21**3 + 500000) stay under 2e10
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 804}, 200,
             ["number_distribution"]),
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 37894}, 20,
             ["fidelity", "number_distribution"]),
        ],
        ids=["time_grid", "exchange_scan", "density-n_max-200", "density-n_max-20"],
    )
    def test_grid_work_limit(self, schedule, n_max, outputs):
        raw = raw_scenario(schedule=schedule, n_max=n_max, outputs=outputs)
        assert parse_scenario(raw).n_max == n_max


class TestCoherentState:
    def test_large_truncation_is_finite_and_normalized(self):
        alpha, truncation = 12.0, 180
        raw = raw_scenario(
            initial={"kind": "coherent", "alpha": alpha, "truncation": truncation},
            coherent_tail_threshold=1.0,
        )
        phi, discarded = build_initial_state(parse_scenario(raw))
        assert phi.shape == (truncation + 1,)
        assert np.all(np.isfinite(phi))
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
        with mpmath.workdps(30):
            mean = mpmath.mpf(alpha) ** 2
            kept = mpmath.exp(-mean) * mpmath.fsum(
                mean**n / mpmath.factorial(n) for n in range(truncation + 1)
            )
            tail = float(1 - kept)
        assert 1e-4 < tail < 1e-2
        assert discarded == pytest.approx(tail, rel=1e-9)

    def test_tail_matches_mpmath_up_to_mean_1000(self):
        # means up to 1000 and truncations from 3 standard deviations below the
        # mean to 12 above it; the tail is P(N > truncation) for N ~ Poisson(mean)
        rng = np.random.default_rng(8)
        means = np.concatenate([[0.01, 0.5, 1.0, 10.0, 707.9, 745.2, 1000.0],
                                rng.uniform(0.0, 1000.0, size=20)])
        cases = [
            (mean, int(round(mean + z * math.sqrt(mean))))
            for mean in means
            for z in (-3.0, -0.5, 0.0, 0.5, 2.0, 5.0, 7.0, 9.5, 12.0)
        ]
        # here the plain sum n log I - I - lgamma(n + 1) is 1.0e-12 off the tail
        cases.append((788.487801100912, 896))
        compared = 0
        for mean, truncation in cases:
            if not 0 <= truncation <= 1000:
                continue
            raw = raw_scenario(
                initial={"kind": "coherent", "alpha": math.sqrt(mean),
                         "truncation": truncation},
                coherent_tail_threshold=1e300,
            )
            discarded = build_initial_state(parse_scenario(raw))[1]
            with mpmath.workdps(40):
                exact = float(mpmath.gammainc(truncation + 1, 0, math.sqrt(mean) ** 2,
                                              regularized=True))
            assert discarded == pytest.approx(exact, rel=1e-12, abs=1e-300), (mean, truncation)
            assert (discarded > 1e-10) == (exact > 1e-10)
            compared += 1
        assert compared > 180

    def test_amplitudes_follow_alpha_power_over_root_factorial(self):
        alpha = complex(0.8, 0.3)
        raw = raw_scenario(initial={"kind": "coherent", "alpha": [0.8, 0.3], "truncation": 20})
        phi, _ = build_initial_state(parse_scenario(raw))
        expected = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(21)])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(phi, expected, rtol=1e-14)


# Hostile inputs, each a (text in BUDGET_BASE, replacement) pair: the kinds
# of error TestValidation in test_cli.py checks, then YAML-level oddities.
HOSTILE_EDITS = [
    ("lambda: 0.5", "lambda: -0.5"),
    ("lambda: 0.5}", "lambda: 0.5, omega3: 2.0}"),
    (", lambda: 0.5", ""),
    ("outputs: [fidelity]", "n_max: 0\noutputs: [fidelity]"),
    ("{kind: time_grid, t_start: 0.0, t_end: 1.0, steps: 2}\noutputs: [fidelity]",
     "{kind: exchange_scan, k_max: 1}\noutputs: [reduced_density]"),
    ("t_start: 0.0, t_end: 1.0", "t_start: 2.0, t_end: 1.0"),
    ("omega1: 1.0", "omega1: .nan"),
    ("omega1: 1.0", "omega1: .inf"),
    ("omega1: 1.0", "omega1: 1e5"),  # YAML 1.1 reads a float without '.' as a string
    ("omega1: 1.0", "omega1: yes"),
    ("steps: 2", "steps: 0x10"),
    ("steps: 2", "steps: 1_000"),
    ("steps: 2", "steps: !!float 2"),
    ("{kind: fock, n: 1}", "{kind: amplitudes, values: [[0.6, 0.8], 1, [0, 0.5]]}"),
    ("{kind: fock, n: 1}", "{kind: coherent, alpha: [0.5, 0.25], truncation: 30}"),
    ("{kind: fock, n: 1}", "{kind: fock, n: 1, n: 2}"),  # duplicate key: the last wins
    ("params: {", "p: &p {omega1: 1.0, omega2: 1.0, lambda: 0.5}\nparams: {"),
    ("params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}",
     "params: !!python/object/apply:os.getcwd []"),
    ("outputs: [fidelity]", "outputs: [fidelity]\n---\nparams: {}"),
    ("outputs: [fidelity]", "outputs: fidelity"),
]


def hostile_texts():
    texts = [QUBIT_SCAN, FOCK_GRID, "", "- 1\n- 2\n", "just text\n"]
    texts += [BUDGET_BASE.replace(old, new) for old, new, _ in BUDGET_CASES]
    texts += [BUDGET_BASE.replace("{kind: fock, n: 1}", new) for new, _, _ in BAD_AMPLITUDES]
    for old, new in HOSTILE_EDITS:
        assert old in BUDGET_BASE
        texts.append(BUDGET_BASE.replace(old, new))
    return texts


def load_with(monkeypatch, path, libyaml):
    """``load_scenario(path)``, or the field its error names, with or without libyaml."""
    with monkeypatch.context() as patch:
        if not libyaml:
            patch.delattr(yaml, "CSafeLoader", raising=False)
        try:
            return load_scenario(path)
        except ScenarioError as exc:
            return exc.field


needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml"
)


class TestYamlLoaders:
    @needs_libyaml
    @pytest.mark.parametrize("path", SCENARIOS, ids=[path.stem for path in SCENARIOS])
    def test_both_loaders_give_equal_scenarios(self, monkeypatch, path):
        fast = load_with(monkeypatch, path, libyaml=True)
        assert isinstance(fast, Scenario)
        assert fast == load_with(monkeypatch, path, libyaml=False)

    @needs_libyaml
    def test_both_loaders_agree_on_hostile_inputs(self, monkeypatch, tmp_path):
        outcomes = {}
        for i, text in enumerate(hostile_texts()):
            path = tmp_path / f"hostile-{i}.yaml"
            path.write_text(text)
            outcomes[text] = load_with(monkeypatch, path, libyaml=True)
            assert outcomes[text] == load_with(monkeypatch, path, libyaml=False), text
        # both outcomes occur; a Python tag and a second document are refused as YAML
        assert sum(isinstance(o, Scenario) for o in outcomes.values()) >= 5
        assert "(top level)" in outcomes.values()
        refused = [t for t, o in outcomes.items() if o == "(file)"]
        assert any("!!python" in t for t in refused) and any("---" in t for t in refused)

    @needs_libyaml
    def test_libyaml_is_used_when_present(self, monkeypatch, tmp_path):
        used = []

        class Spy(yaml.CSafeLoader):
            def __init__(self, stream):
                used.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Spy)
        path = tmp_path / "scenario.yaml"
        path.write_text(QUBIT_SCAN)
        load_scenario(path)
        assert used == [QUBIT_SCAN]

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    @pytest.mark.parametrize(
        "text",
        ["params: {omega1: 1.0\n", "params:\n  omega1: 1.0\n omega2: 1.0\n",
         "params:\n\tomega1: 1.0\n", "initial: 'fock\n", "a: b: c\n"],
        ids=["unclosed-flow", "bad-indent", "tab", "open-quote", "nested-colon"],
    )
    def test_malformed_yaml_exits_two(self, monkeypatch, tmp_path, capsys, libyaml, text):
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert 'scenario field "(file)": not valid YAML' in err
        assert not (tmp_path / "out").exists()
