"""Benchmark entry point for oscswap.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's scenario files are generated
from the seed under ``.perfbench-work/``; one worker process then runs them
through ``oscswap.cli.main`` as a single closed-loop client, with BLAS and
OpenMP pinned to one thread in the worker's environment only.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` over fresh
interpreters, then an untraced loop of ``--seconds``. ``--trace 1`` measures
the per-layer metrics: import times from ``-X importtime``, then an untraced
and a traced loop of half the time each. End-to-end times are reference
seconds (see ``speed.py``); wall seconds are printed beside them. The metric
names and units are the ones listed in ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5  # plus one discarded probe that may compile bytecode
IMPORT_PROBES = 3
IMPORT_ROOTS = ("numpy", "scipy", "yaml")
MIN_PASSES = 3  # end-to-end loops: each scenario's median run time needs three samples
TIME_LIMIT_S = 170  # every child is stopped by then; the benchmark must end within 180 s


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (missing program, a child failed)."""


class Children:
    """Runs Python children one at a time in the pinned environment, each
    bounded by what is left of the benchmark's time limit."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONPATH"] = str(ROOT / "src")  # the checkout's program and nothing else
        self.deadline = perf_counter() + TIME_LIMIT_S

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - perf_counter())
        try:
            done = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchmarkError(f"{args[:2]} was stopped at the time limit") from exc
        if done.returncode != 0:
            raise BenchmarkError(f"{args[:2]} exited {done.returncode}:"
                                 f" {done.stderr.strip()[-500:]}")
        return done


def p90(samples: list[float], min_beyond: int = 10) -> float | None:
    """90th percentile, or None when fewer than ``min_beyond`` samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    return value if sum(s > value for s in samples) >= min_beyond else None


SETUP_PROBE = """
import json, sys, time
sys.path.append(sys.argv[2])
import speed
with speed.Probe() as probe:
    start = time.perf_counter()
    import oscswap.cli
    oscswap.cli.load_scenario(sys.argv[1])
    wall = time.perf_counter() - start
print(json.dumps([start, wall, probe.samples]))
"""


def setup_seconds(children: Children, scenario: str) -> tuple[list[float], list[float]]:
    """Wall and reference seconds that fresh interpreters take to import the
    CLI and load a scenario; the first probe, which may compile bytecode, is
    dropped."""
    walls, refs = [], []
    for _ in range(SETUP_PROBES + 1):
        start, wall, samples = json.loads(
            children.run(["-c", SETUP_PROBE, scenario, str(HERE)]).stdout)
        walls.append(wall)
        refs.append(speed.reference_seconds(samples, start, wall))
    return walls[1:], refs[1:]


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per package from ``-X importtime`` output.

    A dependency in ``IMPORT_ROOTS`` gets the cumulative time of its imports
    that no dependency import encloses, so what numpy first imports on
    scipy's behalf counts once, for scipy. ``oscswap`` gets its own
    cumulative time minus the dependencies'.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip().split(".")[0], int(cumulative) * 1e-6))
    totals = dict.fromkeys(IMPORT_ROOTS + ("oscswap",), 0.0)
    ancestors: list[tuple[int, str]] = []
    for level, package, seconds in reversed(entries):  # now parents precede children
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        enclosing = {p for _, p in ancestors}
        if package in IMPORT_ROOTS and not enclosing & set(IMPORT_ROOTS):
            totals[package] += seconds
        elif package == "oscswap" and "oscswap" not in enclosing:
            totals[package] += seconds
        ancestors.append((level, package))
    totals["oscswap"] -= sum(totals[p] for p in IMPORT_ROOTS)
    return totals


def import_seconds(children: Children) -> dict[str, float]:
    probes = [parse_importtime(children.run(["-X", "importtime", "-c",
                                             "import oscswap.cli"]).stderr)
              for _ in range(IMPORT_PROBES)]
    return {f"setup.import_{p}_s": statistics.median(probe[p] for probe in probes)
            for p in probes[0]}


def run_worker(children: Children, name: str, manifest: Path, seconds: float,
               trace: bool, min_passes: int) -> dict:
    scratch = WORK / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    spec = {
        "root": str(ROOT), "manifest": str(manifest), "seconds": seconds,
        "min_passes": min_passes, "trace": trace, "scratch": str(scratch),
        "result": str(scratch / "result.json"), "spans": str(WORK / f"spans-{name}.json"),
    }
    (scratch / "spec.json").write_text(json.dumps(spec))
    try:
        children.run([str(HERE / "worker.py"), str(scratch / "spec.json")])
        loop = json.loads((scratch / "result.json").read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    try:
        loop["ref_durations"] = [speed.reference_seconds(loop["speed_samples"], start, wall)
                                 for start, wall in zip(loop["starts"], loop["durations"])]
    except ValueError as exc:
        raise BenchmarkError(str(exc)) from exc
    return loop


def loop_metrics(loop: dict, pool_size: int, key: str = "ref_durations") -> dict[str, float]:
    """End-to-end metrics of one loop of whole passes over the pool, from the
    run times under ``key`` (reference seconds unless told otherwise).

    ``runs_per_s`` is the ok runs of a pass over the time of a pass, taken as
    the sum over the pool of each scenario's median run time, so that one
    slow run does not move it.
    """
    durations = loop[key]
    statuses = loop["statuses"]
    passes = len(durations) // pool_size
    pass_s = sum(statistics.median(durations[j::pool_size]) for j in range(pool_size))
    return {
        "run_s.p50": statistics.median(durations),
        "runs_per_s": statuses.count("ok") / passes / pass_s,
        "peak_rss_mb": loop["peak_rss_mb"],
        "fail_share": (len(statuses) - statuses.count("ok")) / len(statuses),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _print_loop(label: str, loop: dict, pool_size: int) -> None:
    statuses, count = loop["statuses"], len(loop["durations"])
    m = loop_metrics(loop, pool_size)
    wall = loop_metrics(loop, pool_size, key="durations")
    tail, wall_tail = p90(loop["ref_durations"]), p90(loop["durations"])
    print(f"  {label} loop: {count} runs, {sum(loop['durations']):.2f} wall s;"
          " times in reference seconds, wall seconds in brackets")
    print(f"    run_s.p50    {m['run_s.p50']:.6f} s ({wall['run_s.p50']:.6f})  {count} samples")
    if tail is None:
        print(f"    run_s.p90    not reported: {count} samples, fewer than 10 beyond it")
    else:
        print(f"    run_s.p90    {tail:.6f} s ({wall_tail:.6f})  {count} samples")
    print(f"    runs_per_s   {m['runs_per_s']:.4f} 1/s ({wall['runs_per_s']:.4f})")
    print(f"    peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    print(f"    fail_share   {m['fail_share']:.4f} ratio: {count - statuses.count('ok')} of"
          f" {count}, of which {statuses.count('refused')} exit-3 refusals at the"
          " orthogonality ceiling")
    for problem in loop["problems"][:5]:
        print(f"    not ok: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="oscswap benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oscswap" / "cli.py").is_file():
        print(f"error: no oscswap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = Children()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = f"{args.workload}-seed{args.seed}"
    inputs = WORK / "inputs" / name
    shutil.rmtree(inputs, ignore_errors=True)
    pool = workloads.write(args.workload, args.seed, inputs)
    manifest = inputs / "manifest.json"

    print(f"workload {args.workload}, seed {args.seed}: {len(pool)} scenarios per pass,"
          f" one closed-loop client, {os.cpu_count()} CPUs, threads pinned to 1")
    try:
        if args.trace == 0:
            walls, refs = setup_seconds(children, pool[0]["path"])
            loops = {"untraced": run_worker(children, name, manifest, args.seconds, False,
                                            MIN_PASSES)}
            metrics = {"setup_s": statistics.median(refs),
                       **loop_metrics(loops["untraced"], len(pool))}
            print(f"  setup_s: {metrics['setup_s']:.6f} s ({statistics.median(walls):.6f}),"
                  f" median of {SETUP_PROBES} fresh interpreters: import oscswap.cli,"
                  " load_scenario")
            listed = bench["end_to_end"]
        else:
            metrics = import_seconds(children)
            loops = {label: run_worker(children, name, manifest, args.seconds / 2, traced, 1)
                     for label, traced in (("untraced", False), ("traced", True))}
            metrics.update(loops["traced"]["layers"])
            p50 = {label: statistics.median(loop["ref_durations"])
                   for label, loop in loops.items()}
            metrics["trace.overhead_s"] = p50["traced"] - p50["untraced"]
            listed = bench["per_layer"]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for label, loop in loops.items():
        _print_loop(label, loop, len(pool))
    if args.trace:
        print("  per-layer metrics of the traced loop, per scenario run:")
        for m in listed:
            print(f"    {m['name']:<48} {metrics[m['name']]:.6g} {m['unit']}")
    statuses = [s for loop in loops.values() for s in loop["statuses"]]
    failed = statuses.count("failed")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "loops": loops,
        "environment": {
            **loops["untraced"]["versions"], "nproc": os.cpu_count(),
            "threads": {var: children.env[var] for var in THREAD_VARS},
            "src_lines": src_lines(),
        },
    }
    (WORK / f"record-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
