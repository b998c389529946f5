import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, seed, settings, strategies as st

from oscswap.cli import main
from oscswap.scenario import (
    Scenario,
    ScenarioError,
    _read_yaml,
    build_initial_state,
    csv_header,
    csv_width,
    load_scenario,
    parse_scenario,
)
from test_cli import BAD_AMPLITUDES, BUDGET_BASE, BUDGET_CASES, FOCK_GRID, QUBIT_SCAN

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))


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
    # the budget counts cells by width, without making the names
    for levels in (range(1, n_max + 1), [n for n in range(1, n_max + 1) if n % 3], []):
        names = ",".join(csv_header(output, n_max, levels)).split(",")
        assert csv_width(output, n_max, levels) == len(names)


@pytest.mark.parametrize("n_max", [0, 1, 7, 20, 200])
@pytest.mark.parametrize(
    "output", ["fidelity", "number_distribution", "reduced_density", "transfer_profile"]
)
def test_header_pieces_join_to_the_names(output, n_max):
    # the reference makes every name on its own; csv_header makes a density row
    # from one template
    dim = n_max + 1
    levels = [n for n in range(1, n_max + 1) if n % 3]
    names = {
        "fidelity": ["fidelity"],
        "number_distribution": [f"p{mode}_{n}" for mode in (1, 2) for n in range(dim)],
        "reduced_density": [f"rho{mode}_{i}_{j}_{part}" for mode in (1, 2) for i in range(dim)
                            for j in range(dim) for part in ("re", "im")],
        "transfer_profile": [f"transfer_prob_{n}" for n in levels],
    }[output]
    assert ",".join(csv_header(output, n_max, levels)) == ",".join(["t", *names])


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
            ({"kind": "fock", "n": 1}, {"n_max": 200, "outputs": ["reduced_density"]}),
            ({"kind": "fock", "n": 200}, {"outputs": ["fidelity", "reduced_density"]}),
            ({"kind": "fock", "n": 1}, {"n_max": 1000, "outputs": ["number_distribution"]}),
            ({"kind": "fock", "n": 1}, {"n_max": 1000, "outputs": ["reduced_density"]}),
        ],
        ids=["explicit-1000", "coherent-1000", "density-explicit-200", "density-fock-200",
             "number_distribution-1000", "reduced_density-1000"],
    )
    def test_n_max_limit_without_and_with_densities(self, initial, top):
        # one n_max limit for every output; the cell limit bounds the steps
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
            # with a density output, only the cell limit bounds the steps:
            # 24813 x (1 + 2 x 201), 5530 x (1 + 2 x 21 + 1 + 4 x 21**2),
            # 4992 x (1 + 2 x 1001), 99009 x (1 + 4 x 5**2) and 2 x (1 + 4 x 1001**2)
            # stay within 10**7
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 24813}, 200,
             ["number_distribution"]),
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 5530}, 20,
             ["number_distribution", "reduced_density"]),
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 4992}, 1000,
             ["number_distribution", "report"]),
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 99009}, 4,
             ["reduced_density", "report"]),
            ({"kind": "time_grid", "t_start": 0.0, "t_end": 1.0, "steps": 2}, 1000,
             ["reduced_density", "report"]),
        ],
        ids=["time_grid", "exchange_scan", "density-n_max-200", "density-n_max-20",
             "density-n_max-1000", "reduced-density-n_max-4", "reduced-density-n_max-1000"],
    )
    def test_cell_limit_edges(self, schedule, n_max, outputs):
        """The largest grids that the steps, k_max, n_max and cell limits admit parse."""
        raw = raw_scenario(schedule=schedule, n_max=n_max, outputs=outputs)
        assert parse_scenario(raw).n_max == n_max


class TestCoherentState:
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
    # scalars that SafeLoader's constructors read, or fail to
    ("omega1: 1.0", "omega1: '1.0'"),
    ("steps: 2", 'steps: "2"'),
    ("steps: 2", "steps: 1:30"),
    ("steps: 2", "steps: 010"),
    ("omega1: 1.0", "omega1: +.5"),  # YAML 1.1 reads it as a string
    ("omega1: 1.0", "omega1: ~"),
    ("omega1: 1.0", "omega1: !!float abc"),
    ("steps: 2", "steps: !!int 1.5"),
    ("omega1: 1.0", "omega1: !!timestamp xx"),
    # anchors and aliases
    ("omega2: 1.0", "omega2: *nowhere"),
    ("omega1: 1.0, omega2: 1.0", "omega1: &w 1.0, omega2: *w"),
    ("omega1: 1.0, omega2: 1.0", "omega1: &w 1.0, omega2: &w 1.0"),
    ("outputs: [fidelity]", "outputs: !!set {fidelity}"),
]
# Texts outside the scenario schema that the reader must build as yaml.load
# does, or refuse as it does: one case of refusal to a text
READER_TEXTS = [
    "# a comment alone\n",
    "---\n",
    "- 1\n- 2\n",
    "1.5\n",
    "a: &x [1, {k: 2}]\nb: *x\nc: [*x, *x]\n",
    "a: {'<<': {x: 1}, =: 2, &v =: 3, b: *v}\n",
    "q: ['1.0', \"2\", '~', '0x10']\nn: [0x10, 1_000, 1:30, 07, 010, -0, +5, 0b11, 1__0]\n",
    "f: [.inf, -.inf, .NaN, +.5, 1., .5, 1.5e+3, -0.0, 1_0.5, 1:30.5, 1.0e400]\n",
    "o: [~, yes, No, 'yes', 2001-12-14, 2001-12-14 21:59:43.10 -5, null, '', 1e5]\n",
    "e: [!!float 2, !!float --1, !!int 010, !!str 1, ! 4, ! [1], !!null x, !!binary aGVsbG8=]\n",
    "c: [!!seq [1], !!map {b: 1}]\n",
    "{1: a, 1.0: b, true: c}\n",
    "a: 1\n---\nb: 2\n",
    "a: &x 1\nb: &x 2\n",
    "a: *x\n",
    "? [1, 2]\n: x\n",
    "a: <<\n",
    "a: =\n",
    "a: {<<: 1}\n",
    "a: {<<: [[]]}\n",
    "a: !!bool maybe\n",
    "a: !!int ''\n",
    "a: !!seq x\n",
    "a: !foo x\n",
    "a: 2001-13-40\n",
    "a: 1%s\n" % ("1" * 5000),
    # the edges of the reader's plain-number path: exponents with no sign, signs
    # with no digit before the point, leading zeros, Arabic-Indic digits, _,
    # ints past 2**64, and floats past a double's range either way
    "b: [1e5, 1.0e5, 1.5E+3, 1.e+5, -.5, +1., 00, +0, -0, \u0661\u0662, \u0663.\u0665, 1_0.5,"
    " 99999999999999999999, 1.5e+999, -1.5e-999]\n",
    # tagged collections
    "a: !!set {b: 1}\n",
    "a: !!omap [{b: 1}]\n",
]
# Texts with a merge key (<<), which the reader refuses wherever it stands. yaml.load
# copies a merged mapping's pairs once per alias, so the last text's chain of merges
# would make it build 2**40 pairs.
MERGE_TEXTS = [
    "a: &a {x: 1, y: 2}\nb: &b {y: 3, z: 4}\nc: {<<: [*a, *b], w: 0}\nd: {w: 0, <<: *b, z: 9}\n",
    "a: {<<: [{x: 1}, {x: 2}], <<: {x: 3}}\nb: {<<: {}}\nc: &n {<<: {x: 1}}\nd: {<<: *n}\n",
    "a: {! <<: {x: 1}}\n",
    "a: {!!merge x: {y: 1}}\n",
    "{&k <<: {a: 1}, *k : {b: 2}}\n",
    "&a {b: {<<: *a}}\n",
    "&a {<<: *a}\n",
    *(BUDGET_BASE.replace(old, new) for old, new in [
        ("params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}",
         "params: {<<: {omega1: 1.0, omega2: 1.0}, lambda: 0.5}"),
        ("params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}",
         "params: {<<: [{omega1: 1.0}, {omega1: 2.0, omega2: 1.0}], lambda: 0.5}"),
        ("params: {omega1: 1.0, omega2: 1.0, lambda: 0.5}",
         "base: &b {omega1: 1.0, omega2: 1.0}\nparams: {<<: *b, lambda: 0.5}"),
        ("lambda: 0.5}", "lambda: 0.5, <<: {lambda: 9.0}}"),
        ("lambda: 0.5}", "lambda: 0.5, <<: 1}"),
        ("lambda: 0.5}", "lambda: 0.5, <<: [{omega3: 1.0}, 2]}"),
    ]),
    "a0: &a0 {x: 1}\n" + "".join(f"a{k}: &a{k} {{<<: [*a{k - 1}, *a{k - 1}]}}\n" for k in range(1, 41)),
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


def same_tree(a, b, seen=None):
    """``a`` equals ``b`` with equal types and reprs throughout (1, 1.0 and True differ,
    as do 0.0 and -0.0; nan equals nan), its mappings' keys in the same order, and its
    containers shared alike."""
    seen = {} if seen is None else seen
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, dict)):
        if id(a) in seen:
            return seen[id(a)] is b
        seen[id(a)] = b
        if isinstance(a, list):
            return len(a) == len(b) and all(same_tree(x, y, seen) for x, y in zip(a, b))
        return len(a) == len(b) and all(
            same_tree(k, j, seen) and same_tree(a[k], b[j], seen) for k, j in zip(a, b))
    return repr(a) == repr(b)


def read_with(text, libyaml):
    """``_read_yaml(text)`` with or without libyaml, or YAMLError where it refuses the text
    or ``yaml.load`` cannot read a scalar, as in :func:`load_or_refuse`."""
    with pytest.MonkeyPatch.context() as patch:
        if not libyaml:
            patch.delattr(yaml, "CSafeLoader", raising=False)
        try:
            return _read_yaml(text)
        except (yaml.YAMLError, ValueError, LookupError, AttributeError):
            return yaml.YAMLError


_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))


@st.composite
def shared_trees(draw):
    """Trees in which some lists occur more than once: safe_dump writes each
    repeat as an alias of the first."""
    shared = draw(st.lists(st.lists(_leaves, max_size=3), min_size=1, max_size=3))
    tree = draw(st.recursive(
        st.one_of(_leaves, st.sampled_from(shared)),
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.dictionaries(st.text(max_size=4), kids, max_size=4)),
        max_leaves=16,
    ))
    return {"tree": tree, "shared": shared, "again": shared[0]}


@settings(max_examples=150, database=None, deadline=None)
@seed(20261020)
@given(tree=shared_trees())
def test_reader_builds_shared_trees_as_yaml_load(tree):
    text = yaml.safe_dump(tree)
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert same_tree(read_with(text, libyaml=False), expected), text
    assert same_tree(read_with(text, libyaml=True), expected), text


@st.composite
def plain_numbers(draw):
    """A sign, digits (ASCII or Arabic-Indic) and _, a point, and an exponent with
    or without a sign, each part optional: texts on either side of the reader's
    plain-number path."""
    digits = st.text(st.sampled_from("0123456789_\u0661\u0663"), max_size=4)
    sign = st.sampled_from(["", "", "-", "+"])
    text = draw(sign) + draw(digits)
    if draw(st.booleans()):
        text += "." + draw(digits)
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(sign) + draw(digits)
    return text


def load_or_refuse(text, loader):
    """``yaml.load(text, loader)``, or YAMLError for a text it refuses or a scalar
    its constructor cannot read."""
    try:
        return yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError):
        return yaml.YAMLError


@settings(max_examples=200, database=None, deadline=None)
@seed(20261021)
@given(number=plain_numbers())
def test_reader_reads_plain_numbers_as_yaml_load(number):
    text = f"a: [{number}]\nb: {number}\n"
    assert same_tree(read_with(text, libyaml=False), load_or_refuse(text, yaml.SafeLoader)), text
    if hasattr(yaml, "CSafeLoader"):
        assert same_tree(read_with(text, libyaml=True), load_or_refuse(text, yaml.CSafeLoader)), text


def amplitudes_file(pairs):
    """A time_grid scenario with ``pairs`` [re, im] amplitudes, written as the
    benchmark's truncation_ladder writes one: block items, %.17e numbers."""
    values = "".join(f"    - [{math.cos(n):.17e}, {math.sin(n) / 2:.17e}]\n" for n in range(pairs))
    return ("params:\n  omega1: 1.5\n  omega2: 1.0\n  lambda: 0.5\n"
            "initial:\n  kind: amplitudes\n  values:\n" + values + f"n_max: {pairs - 1}\n"
            "schedule:\n  kind: time_grid\n  t_start: 0.0\n  t_end: 10.0\n  steps: 8\n"
            "outputs: [fidelity, report]\n")


# A file in the shape of each benchmark workload's, written as perfbench's generator
# writes them (block mappings, %.17e floats, flow lists of words); amplitudes_file
# has the shape of the amplitude time grids
WORKLOAD_FILES = [
    (  # grid_dense, coherent
        "params:\n  omega1: 1.57812500000000000e+00\n  omega2: 1.09375000000000000e+00\n"
        "  lambda: 6.25000000000000000e-01\ninitial:\n  kind: coherent\n"
        "  alpha: [8.41470984807896505e-01, -5.40302305868139765e-01]\n  truncation: 20\n"
        "n_max: 20\nschedule:\n  kind: time_grid\n  t_start: 0.00000000000000000e+00\n"
        "  t_end: 1.21428571428571423e+01\n  steps: 201\n"
        "outputs: [fidelity, number_distribution, reduced_density, report]\n"),
    (  # scan_sweep
        "params:\n  omega1: 3.25000000000000000e+00\n  omega2: 1.25000000000000000e+00\n"
        "  lambda: 5.00000000000000000e-01\ninitial:\n  kind: amplitudes\n  values:\n"
        "    - [5.00000000000000000e-01, -2.50000000000000000e-01]\n"
        "    - [-3.75000000000000000e-01, 7.50000000000000000e-01]\n"
        "schedule:\n  kind: exchange_scan\n  k_max: 7\noutputs: [report]\n"),
    (  # verify_suites
        "params:\n  omega1: 1.00000000000000000e+00\n  omega2: 1.00000000000000000e+00\n"
        "  lambda: 5.00000000000000000e-01\ninitial:\n  kind: fock\n  n: 1\n"
        "schedule:\n  kind: verify\n  suite: oracle\noutputs: [report]\n"),
]
# (text in BUDGET_BASE, its replacement, the field the error names or None for
# BUDGET_BASE's scenario): each goes past plain YAML once, to yaml.load
PAST_PLAIN_EDITS = [
    ("n: 1", "n: &n 1", None),
    ("omega1: 1.0, omega2: 1.0", "omega1: &w 1.0, omega2: *w", None),
    ("steps: 2", "steps: 0x2", None),
    ("steps: 2", "steps: !!int 2", None),
    ("outputs: [fidelity]", "outputs: yes", "outputs"),
    ("outputs: [fidelity]", "outputs: ~", "outputs"),
]


class TestYamlLoaders:
    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_plain_numbers_skip_the_resolver(self, monkeypatch, tmp_path, libyaml):
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        name = "CSafeLoader" if libyaml else "SafeLoader"
        resolved = []

        class Spy(getattr(yaml, name)):
            def resolve(self, kind, value, implicit):
                resolved.append(value)
                return super().resolve(kind, value, implicit)

        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.setattr(yaml, name, Spy)
        path = tmp_path / "amplitudes_61.yaml"
        path.write_text(amplitudes_file(61))
        scenario = load_scenario(path)
        assert len(scenario.initial.values) == 61 and scenario.n_max == 60
        assert resolved == [  # each key and word once, and none of the 122 amplitude parts
            "params", "omega1", "omega2", "lambda", "initial", "kind", "amplitudes", "values",
            "n_max", "schedule", "kind", "time_grid", "t_start", "t_end", "steps",
            "outputs", "fidelity", "report"]

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_only_files_past_plain_yaml_reach_yaml_load(self, monkeypatch, tmp_path, libyaml):
        # the examples and files shaped as the benchmark's never pay for yaml.load
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        calls, load = [], yaml.load
        monkeypatch.setattr(yaml, "load", lambda text, cls: calls.append(cls) or load(text, cls))
        path = tmp_path / "scenario.yaml"
        plain = [amplitudes_file(61), amplitudes_file(1001), *WORKLOAD_FILES]
        for text in [scenario.read_text() for scenario in SCENARIOS] + plain:
            path.write_text(text)
            assert isinstance(load_scenario(path), Scenario), text
        assert calls == []
        path.write_text(BUDGET_BASE)
        base = load_scenario(path)
        for old, new, field in PAST_PLAIN_EDITS:
            assert old in BUDGET_BASE
            path.write_text(BUDGET_BASE.replace(old, new))
            assert load_with(monkeypatch, path, libyaml) == (field or base), new
            assert calls == [loader], new
            calls.clear()

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_depth_is_checked_before_yaml_load(self, monkeypatch, tmp_path, libyaml):
        # an anchor on the first line sends the file to yaml.load, whose parsers
        # recurse once per level; the loop refuses the file before that call
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        calls = []
        monkeypatch.setattr(yaml, "load", lambda *args: calls.append(args))
        path = tmp_path / "scenario.yaml"
        path.write_text("first: &a 1\n" + QUBIT_SCAN + "deep: " + "[" * 3000 + "]" * 3000 + "\n")
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match=r'"\(file\)".* nested more than 100 containers deep'):
            load_scenario(path)
        assert time.perf_counter() - start < 1.0
        assert calls == []

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_merge_keys_are_refused_before_yaml_load(self, monkeypatch, tmp_path, capsys, libyaml):
        # the chain of 40 merges uses 80 openers at depth 2, far inside both limits
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        calls = []
        monkeypatch.setattr(yaml, "load", lambda *args: calls.append(args))
        path = tmp_path / "scenario.yaml"
        for text in MERGE_TEXTS:
            path.write_text(text)
            start = time.perf_counter()
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2, text
            assert time.perf_counter() - start < 1.0, text
            assert capsys.readouterr().err.startswith(
                'error: scenario field "(file)": not valid YAML: found a merge key (<<)'), text
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_reader_texts_exit_two_naming_a_field(self, monkeypatch, tmp_path, capsys, libyaml):
        # tagged collections read by yaml.load reach the schema, and every
        # refusal of the reader or of yaml.load is a scenario error
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "scenario.yaml"
        for text in READER_TEXTS:
            path.write_text(text)
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2, text
            assert capsys.readouterr().err.startswith("error: scenario field "), text
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_reader_builds_what_yaml_load_builds(self, libyaml):
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        loader = yaml.CSafeLoader if libyaml else yaml.SafeLoader
        checked = 0
        for text in hostile_texts() + READER_TEXTS:
            expected = load_or_refuse(text, loader)
            assert same_tree(read_with(text, libyaml), expected), text
            checked += expected is not yaml.YAMLError
        assert checked >= 30

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
         "params:\n\tomega1: 1.0\n", "initial: 'fock\n", "a: b: c\n",
         # scalars their tag cannot read, which ended yaml.load with a traceback
         "params: {omega1: !!float abc}\n", "params: {omega1: !!timestamp xx}\n",
         "schedule: {steps: !!int 1.5}\n"],
        ids=["unclosed-flow", "bad-indent", "tab", "open-quote", "nested-colon",
             "bad-float", "bad-timestamp", "bad-int"],
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

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        # one Latin-1 byte, an e-acute in a comment, that is not UTF-8
        path = tmp_path / "scenario.yaml"
        path.write_bytes(QUBIT_SCAN.encode() + "# caf\u00e9\n".encode("latin-1"))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert 'scenario field "(file)": not UTF-8 text' in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_deep_nesting_parses_alike_with_both_loaders(self, monkeypatch, tmp_path):
        # the reader refuses the first container past the depth limit, before
        # the parsers' cost grows: 3000 levels are a file error at once
        path = tmp_path / "scenario.yaml"
        path.write_text(QUBIT_SCAN + "deep: " + "[" * 3000 + "]" * 3000 + "\n")
        start = time.perf_counter()
        assert load_with(monkeypatch, path, libyaml=False) == "(file)"
        assert load_with(monkeypatch, path, libyaml=True) == "(file)"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
    def test_depth_limit_counts_open_containers(self, monkeypatch, tmp_path, libyaml):
        # the top-level mapping and 99 sequences reach the schema; one more is refused
        if libyaml and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        for levels, expected in ((99, "deep"), (100, "(file)")):
            path = tmp_path / f"{levels}.yaml"
            path.write_text(QUBIT_SCAN + "deep: " + "[" * levels + "]" * levels + "\n")
            assert load_with(monkeypatch, path, libyaml) == expected
        with pytest.raises(ScenarioError, match="nested more than 100 containers deep"):
            load_scenario(path)

    def test_deep_value_in_a_message_is_a_file_error(self, monkeypatch, tmp_path):
        # refused by the depth limit; past it, the schema's "must be an integer,
        # got [[[...]]]" would recurse in repr once per level
        path = tmp_path / "scenario.yaml"
        path.write_text(BUDGET_BASE.replace("n: 1", "n: " + "[" * 1500 + "]" * 1500))
        assert load_with(monkeypatch, path, libyaml=False) == "(file)"
        assert load_with(monkeypatch, path, libyaml=True) == "(file)"

    def test_deep_alias_chain_is_a_file_error(self, monkeypatch, tmp_path):
        # 3000 anchors, each a list holding the one before, nest 3000 deep at
        # depth 2: the message naming initial.n would recurse in repr
        chain = "".join(f"x{i}: &x{i} [*x{i - 1}]\n" for i in range(1, 3000))
        path = tmp_path / "scenario.yaml"
        path.write_text("x0: &x0 [1]\n" + chain + BUDGET_BASE.replace("n: 1", "n: *x2999"))
        assert load_with(monkeypatch, path, libyaml=False) == "(file)"
        assert load_with(monkeypatch, path, libyaml=True) == "(file)"
        with pytest.raises(ScenarioError, match="nested too deeply to parse"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "text",
        ["a: " + "[" * 50000 + "]" * 50000 + "\n",
         "a: " + "{b: " * 50000 + "1" + "}" * 50000 + "\n",
         "- " * 50000 + "1\n"],
        ids=["flow-sequence", "flow-mapping", "compact-block-sequence"],
    )
    def test_deep_nesting_is_a_file_error_before_parsing(self, tmp_path, text):
        # libyaml recurses once per level and overflows the C stack, killing
        # the process with no message: run the file in a child process
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "oscswap.cli", "run", str(path), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith('error: scenario field "(file)": has 50000 of')
        assert not (tmp_path / "out").exists()
