"""Tests of the benchmark's own parts.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json

import pytest

import check
import run
import spans
import speed
import workloads


def _scenario_files(directory):
    return {p.name: p.read_bytes() for p in directory.glob("*.yaml")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    workloads.write(workload, 7, tmp_path / "a")
    workloads.write(workload, 7, tmp_path / "b")
    workloads.write(workload, 8, tmp_path / "c")
    a, b, c = (_scenario_files(tmp_path / d) for d in "abc")
    assert a == b
    if workload == "verify_suites":  # the suites seed themselves
        assert a == c
    else:
        assert a != c


def test_cost_determining_values_are_the_same_for_every_seed():
    for seed in (1, 2):
        scan = workloads.generate("scan_sweep", seed)
        pairs = sorted((e["schedule"]["k_max"], len(e["initial"]["values"])) for e in scan)
        assert pairs == [(k, 2 + (k - 2) % 6) for k in workloads.SCAN_K_MAX]
        ladder = workloads.generate("truncation_ladder", seed)
        cells = sorted((e["n_max"], (e["params"]["omega1"] - e["params"]["omega2"])
                        / (2 * e["params"]["lambda"])) for e in ladder)
        assert cells == [(n, x) for n in workloads.LADDER_N_MAX for x in workloads.LADDER_X]


def _time_grid_entry(support=4):
    return {
        "name": "t",
        "params": {"omega1": 1.75, "omega2": 1.25, "lambda": 0.5},
        "initial": {"kind": "amplitudes",
                    "values": [[0.5, 0.25 * n] for n in range(support + 1)]},
        "schedule": {"kind": "time_grid", "t_start": 0.0, "t_end": 6.0, "steps": 9},
        "outputs": ["fidelity", "report"],
    }


def _write_time_grid(entry, out_dir, shift=0.0):
    pops = check.populations(entry)
    times = check.linspace(0.0, 6.0, 9)
    values = [check.fidelity(entry["params"], pops, t) for t in times]
    values[3] += shift
    out_dir.mkdir()
    rows = "".join(f"{t:.17g},{f:.17g}\n" for t, f in zip(times, values))
    (out_dir / "fidelity.csv").write_text("t,fidelity\n" + rows)
    best = max(range(len(values)), key=values.__getitem__)
    (out_dir / "report.txt").write_text(
        f"max_fidelity: {values[best]:.17g}\nt_at_max: {times[best]:.17g}\n")


def test_checker_accepts_closed_form_and_flags_a_1e_6_perturbation(tmp_path):
    entry = _time_grid_entry()
    _write_time_grid(entry, tmp_path / "exact")
    _write_time_grid(entry, tmp_path / "perturbed", shift=1e-6)
    assert check.check_run(entry, 0, "", tmp_path / "exact").status == "ok"
    outcome = check.check_run(entry, 0, "", tmp_path / "perturbed")
    assert outcome.status == "failed" and "fidelity at t=" in outcome.detail


def test_checker_flags_exit_3(tmp_path):
    entry = _time_grid_entry()
    ceiling = "numerical integrity failure: rotation block 41 lost orthogonality (defect 2e-10)"
    early = "numerical integrity failure: rotation block 12 lost orthogonality (defect 2e-10)"
    other = "numerical integrity failure: evolution changed the norm by 1e-9"
    assert check.check_run(entry, 3, ceiling, tmp_path).status == "refused"
    assert check.check_run(entry, 3, early, tmp_path).status == "failed"
    assert check.check_run(entry, 3, other, tmp_path).status == "failed"
    assert check.check_run(entry, None, "Traceback", tmp_path).status == "failed"


def test_checker_matches_the_program_on_a_grid_dense_run(tmp_path):
    cli = pytest.importorskip("oscswap.cli")
    entry = workloads.write("grid_dense", 3, tmp_path / "in")[1]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", entry["path"], "--out", str(tmp_path / "out")])
    assert check.check_run(entry, code, "", tmp_path / "out").status == "ok"
    _, rows = check._read_csv(tmp_path / "out" / "fidelity.csv")
    pops = check.populations(entry)
    worst = max(abs(f - check.fidelity(entry["params"], pops, t)) for t, f in rows)
    assert worst < 1e-13


def test_self_time_subtracts_covered_child_time():
    tree = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0, 0),
        ("b", 5.0, 9.0, 0, 0, 0),
        ("b.child", 5.0, 6.5, 3, 0, 0),
        ("b.child", 7.0, 9.0, 3, 0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 0.5, 1.5, 2.0])


def test_layer_metrics_are_per_run_and_split_self_time():
    tree = [
        ("cli.main", 0.0, 4.0, -1, 0, 0),
        ("evolution.evolve", 1.0, 3.0, 0, 0, 6),
        ("core.norm", 1.5, 2.0, 1, 0, 0),
        ("cli.main", 10.0, 12.0, -1, 1, 0),
        ("rotation.u_minus_s_block", 10.5, 11.5, 3, 1, 45),
    ]
    m = spans.layer_metrics(tree, runs=2, suites=workloads.SUITES)
    assert m["cli.main.self_s"] == pytest.approx((2.0 + 1.0) / 2)
    assert m["evolution.evolve.s"] == pytest.approx(1.5 / 2)
    assert m["evolution.evolve.amplitudes"] == 3
    assert m["core.norm.calls"] == 0.5
    assert m["rotation.self_s"] == pytest.approx(0.5)
    assert m["rotation.u_minus_s_block.s_per_call.n_41_60"] == pytest.approx(1.0)
    assert m["oracle.expm_evolution.calls"] == 0


def test_install_wraps_the_looked_up_names_and_restores_them():
    evolution = pytest.importorskip("oscswap.evolution")
    from oscswap.analysis import optimize
    before = (evolution.norm, evolution.EvolutionOperator.__dict__["evolve"],
              optimize.minimize_scalar)
    tracer = spans.Tracer()
    with spans.install(tracer):
        assert evolution.norm is not before[0]
        from oscswap.core import CouplingParams, make_product_state
        evo = evolution.EvolutionOperator(CouplingParams(1.0, 1.0, 0.5))
        evo.evolve(make_product_state([0.6, 0.8]), 1.0)
    after = (evolution.norm, evolution.EvolutionOperator.__dict__["evolve"],
             optimize.minimize_scalar)
    assert after == before
    names = [s[0] for s in tracer.spans]
    assert names.count("core.norm") == 2 and "rotation.u_minus_s_block" in names
    evolve = names.index("evolution.evolve")
    assert all(s[3] == evolve for s in tracer.spans if s[0] == "core.norm")


def test_p90_is_refused_with_fewer_than_10_samples_beyond_it():
    assert run.p90([float(i) for i in range(90)]) is None  # 9 lie beyond 80.1
    assert run.p90([float(i) for i in range(50)]) is None
    value = run.p90([float(i) for i in range(101)])
    assert value == pytest.approx(90.0)
    assert run.p90([1.0]) is None


def test_reference_seconds_drop_probe_time_and_scale_by_nearby_speed():
    ref = speed.REFERENCE_S
    slow = [(0.05 * i, 2 * ref) for i in range(40)]  # kernel twice as slow as the reference
    # a 1 s run from t = 0.5 holds 20 samples of 2 * ref probe time
    assert speed.reference_seconds(slow, 0.5, 1.0) == pytest.approx((1.0 - 40 * ref) / 2)
    mixed = [(0.05 * i, ref if i < 20 else 3 * ref) for i in range(40)]
    # a run at t = 0.3 sees only fast samples within 0.25 s, one at t = 1.5 only slow ones
    assert speed.reference_seconds(mixed, 0.3, 1e-3) == pytest.approx(1e-3 - ref)
    assert speed.reference_seconds(mixed, 1.5, 1e-3) == pytest.approx((1e-3 - 3 * ref) / 3)
    with pytest.raises(ValueError):
        speed.reference_seconds(mixed, 10.0, 1.0)


def test_runs_per_s_uses_each_scenarios_median():
    loop = {"durations": [1.0, 2.0, 1.0, 2.0, 9.0, 2.0], "statuses": ["ok"] * 6,
            "peak_rss_mb": 1.0}
    m = run.loop_metrics(loop, pool_size=2, key="durations")
    assert m["runs_per_s"] == pytest.approx(2 / 3.0)
    assert m["run_s.p50"] == 2.0


def test_importtime_attribution():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |       numpy.linalg",
        "import time:      2000 |       3000 |     numpy",
        "import time:       500 |        500 |         numpy.fft",
        "import time:      4000 |       4500 |       scipy.optimize",
        "import time:       100 |       4600 |     scipy",
        "import time:       300 |        300 |     yaml",
        "import time:       200 |       8100 |   oscswap.analysis",
        "import time:       400 |       8500 | oscswap",
    ]
    got = run.parse_importtime("\n".join(lines))
    assert got == pytest.approx({"numpy": 3000e-6, "scipy": 4600e-6, "yaml": 300e-6,
                                 "oscswap": 600e-6})


def test_benchmark_json_lists_the_metrics_the_benchmark_computes():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer = spans.layer_metrics([], runs=1, suites=workloads.SUITES)
    computed = set(layer) | {"cli.bytes_written", "cli.values_written", "trace.overhead_s"}
    computed |= {f"setup.import_{p}_s" for p in run.IMPORT_ROOTS + ("oscswap",)}
    assert {m["name"] for m in bench["per_layer"]} <= computed
    assert {m["name"] for m in bench["end_to_end"]} <= {"setup_s", "run_s.p50", "runs_per_s",
                                                        "peak_rss_mb"}
