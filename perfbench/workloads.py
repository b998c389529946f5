"""Seeded scenario generator for the benchmark workloads.

Each workload is a pool of scenario files that the benchmark runs in order,
pass after pass. The pool is built from ``random.Random(seed)`` only, and
every float is written as ``%.17e`` so the files are byte-identical for a
given seed and the program parses back exactly the values the checker uses.

Where a property changes the cost of a run (``k_max`` and the support on
``scan_sweep``, ``n_max`` and the detuning on ``truncation_ladder``), each
pass holds every value of it once and the seed only shuffles the order and
draws the other parameters. The work in a pass is then the same for every
seed.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = ("grid_dense", "scan_sweep", "truncation_ladder", "verify_suites")

SUITES = ("oracle", "evolution", "exchange", "rotation")  # cheapest first: pool[0] warms up
LADDER_N_MAX = (24, 36, 48, 60)
LADDER_X = (0.0, 0.5, 1.0, 2.0, 5.0)
SCAN_K_MAX = tuple(range(2, 13))


def _num(value: float) -> str:
    # YAML 1.1 reads "1e-05" as a string; "%.17e" always has a dot and a signed
    # exponent, and 17 digits after the dot round-trip every double exactly.
    return f"{float(value):.17e}"


def _dyadic(value: float) -> float:
    return round(value * 2.0**16) / 2.0**16


def _params(rng: random.Random, x: float) -> dict:
    # With lam and omega2 on a 2**-16 grid, omega2 + 2 lam x is exact for the
    # ladder's detunings, so the program derives exactly x, every seed builds
    # the same rotation blocks and hits the orthogonality ceiling at the same
    # block.
    lam = _dyadic(rng.uniform(0.3, 1.5))
    omega2 = _dyadic(rng.uniform(0.5, 2.0))
    return {"omega1": omega2 + 2.0 * lam * x, "omega2": omega2, "lambda": lam}


def _amplitudes(rng: random.Random, support: int) -> list[list[float]]:
    values = []
    for _ in range(support + 1):
        radius = rng.uniform(0.2, 1.0)  # bounded away from 0: the support is exact
        angle = rng.uniform(0.0, 2.0 * math.pi)
        values.append([radius * math.cos(angle), radius * math.sin(angle)])
    return values


def _yaml(entry: dict) -> str:
    p = entry["params"]
    lines = [
        "params:",
        f"  omega1: {_num(p['omega1'])}",
        f"  omega2: {_num(p['omega2'])}",
        f"  lambda: {_num(p['lambda'])}",
        "initial:",
    ]
    init = entry["initial"]
    lines.append(f"  kind: {init['kind']}")
    if init["kind"] == "amplitudes":
        lines.append("  values:")
        lines += [f"    - [{_num(re)}, {_num(im)}]" for re, im in init["values"]]
    elif init["kind"] == "coherent":
        re, im = init["alpha"]
        lines += [f"  alpha: [{_num(re)}, {_num(im)}]", f"  truncation: {init['truncation']}"]
    else:
        lines.append(f"  n: {init['n']}")
    if "n_max" in entry:
        lines.append(f"n_max: {entry['n_max']}")
    sched = entry["schedule"]
    lines += ["schedule:", f"  kind: {sched['kind']}"]
    if sched["kind"] == "time_grid":
        lines += [
            f"  t_start: {_num(sched['t_start'])}",
            f"  t_end: {_num(sched['t_end'])}",
            f"  steps: {sched['steps']}",
        ]
    elif sched["kind"] == "exchange_scan":
        lines.append(f"  k_max: {sched['k_max']}")
    else:
        lines.append(f"  suite: {sched['suite']}")
    lines.append(f"outputs: [{', '.join(entry['outputs'])}]")
    return "\n".join(lines) + "\n"


def _grid_dense(rng: random.Random) -> list[dict]:
    pool = []
    for kind in ("coherent", "amplitudes"):
        params = _params(rng, rng.uniform(-2.0, 2.0))
        if kind == "coherent":
            # |alpha| <= 1.5 keeps the tail beyond n = 20 below 1e-13,
            # under the default 1e-10 threshold
            radius = rng.uniform(0.8, 1.5)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            alpha = [radius * math.cos(angle), radius * math.sin(angle)]
            initial = {"kind": "coherent", "alpha": alpha, "truncation": 20}
        else:
            initial = {"kind": "amplitudes", "values": _amplitudes(rng, 20)}
        pool.append({
            "name": f"grid_{kind}",
            "params": params,
            "initial": initial,
            "n_max": 20,
            "schedule": {
                "kind": "time_grid",
                "t_start": 0.0,
                "t_end": rng.uniform(2.0, 12.0) / params["lambda"],
                "steps": 201,
            },
            "outputs": ["fidelity", "number_distribution", "reduced_density", "report"],
        })
    return pool


def _scan_sweep(rng: random.Random) -> list[dict]:
    k_values = list(SCAN_K_MAX)
    rng.shuffle(k_values)
    pool = []
    for k_max in k_values:
        support = 1 + (k_max - 2) % 6  # fixed pairs: a run costs about (k_max + 1) * support
        pool.append({
            "name": f"scan_k{k_max}",
            "params": _params(rng, rng.uniform(0.0, 5.0)),
            "initial": {"kind": "amplitudes", "values": _amplitudes(rng, support)},
            "schedule": {"kind": "exchange_scan", "k_max": k_max},
            "outputs": ["report"],
        })
    return pool


def _truncation_ladder(rng: random.Random) -> list[dict]:
    cells = [(n_max, x) for n_max in LADDER_N_MAX for x in LADDER_X]
    rng.shuffle(cells)
    pool = []
    for n_max, x in cells:
        params = _params(rng, x)
        pool.append({
            "name": f"ladder_n{n_max}_x{x:g}",
            "params": params,
            "initial": {"kind": "amplitudes", "values": _amplitudes(rng, n_max)},
            "n_max": n_max,
            "schedule": {
                "kind": "time_grid",
                "t_start": 0.0,
                "t_end": rng.uniform(1.0, 10.0) / params["lambda"],
                "steps": 8,
            },
            "outputs": ["fidelity", "report"],
        })
    return pool


def _verify_suites(rng: random.Random) -> list[dict]:
    # the suites seed themselves, so the seed has no effect on this workload
    return [
        {
            "name": f"verify_{suite}",
            "params": {"omega1": 1.0, "omega2": 1.0, "lambda": 0.5},
            "initial": {"kind": "fock", "n": 1},
            "schedule": {"kind": "verify", "suite": suite},
            "outputs": ["report"],
        }
        for suite in SUITES
    ]


_POOLS = {
    "grid_dense": _grid_dense,
    "scan_sweep": _scan_sweep,
    "truncation_ladder": _truncation_ladder,
    "verify_suites": _verify_suites,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's scenario pool for ``seed``, in run order."""
    if workload not in _POOLS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    return _POOLS[workload](random.Random(seed))


def write(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the pool as scenario files plus ``manifest.json`` into ``directory``.

    The program is given only the ``.yaml`` files; the manifest is for the
    checker. Each returned entry carries its file path under ``"path"``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    pool = generate(workload, seed)
    for index, entry in enumerate(pool):
        path = directory / f"{index:02d}-{entry['name']}.yaml"
        path.write_text(_yaml(entry))
        entry["path"] = str(path)
    (directory / "manifest.json").write_text(json.dumps(pool, indent=1) + "\n")
    return pool
