"""One closed-loop client: runs a workload's scenarios through the CLI entry
point in this process, one after another, and checks every output.

Usage: python3 perfbench/worker.py SPEC.json

The spec names the checkout root, the manifest written by ``workloads``, the
measuring time, the least number of passes, whether to trace, and where to
write the result (and the spans, when tracing). The loop stops at the first
end of a pass over the pool after both are reached, so every run measures
whole passes. Each run gets a fresh output directory, removed after its
check. The speed probe samples throughout the loop.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import check
import spans
import speed
import workloads


def _count_output(out_dir: Path) -> tuple[int, int]:
    """Bytes written and values written (CSV data cells, report key-value lines)."""
    size = values = 0
    for path in out_dir.iterdir():
        text = path.read_text()
        size += len(text.encode())
        lines = text.splitlines()
        if path.suffix == ".csv":
            values += sum(line.count(",") + 1 for line in lines[1:])
        else:
            values += sum(": " in line for line in lines)
    return size, values


def _run(cli, entry: dict, out_dir: Path) -> tuple[float, int | None, str]:
    err = io.StringIO()
    start = perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", entry["path"], "--out", str(out_dir)])
    except Exception:  # the check records it as a failed run
        code = None
        err.write(traceback.format_exc())
    return perf_counter() - start, code, err.getvalue()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    import numpy
    import scipy

    import oscswap
    import oscswap.cli as cli

    if not Path(oscswap.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported oscswap from {oscswap.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    pool = json.loads(Path(spec["manifest"]).read_text())
    scratch = Path(spec["scratch"])
    tracer = spans.Tracer() if spec["trace"] else None

    # untimed warm-up: lazy imports and first-call set-up inside numpy/scipy
    _run(cli, pool[0], scratch / "warmup")
    shutil.rmtree(scratch / "warmup", ignore_errors=True)

    starts, durations, statuses, problems = [], [], [], []
    written = [0, 0]
    tracing = spans.install(tracer) if tracer else contextlib.nullcontext()
    with speed.Probe() as probe, tracing:
        deadline = perf_counter() + spec["seconds"]
        index = 0
        least = spec["min_passes"] * len(pool)
        while index % len(pool) or index < least or perf_counter() < deadline:
            entry = pool[index % len(pool)]
            out_dir = scratch / f"run-{index}"
            starts.append(perf_counter())
            if tracer:
                tracer.run_id = index
                with tracer.span(spans.ROOT):
                    seconds, code, stderr = _run(cli, entry, out_dir)
            else:
                seconds, code, stderr = _run(cli, entry, out_dir)
            outcome = check.check_run(entry, code, stderr, out_dir)
            if tracer and out_dir.exists():
                size, values = _count_output(out_dir)
                written[0] += size
                written[1] += values
            shutil.rmtree(out_dir, ignore_errors=True)
            durations.append(seconds)
            statuses.append(outcome.status)
            if outcome.status != "ok":
                problems.append(f"{entry['name']}: {outcome.status} {outcome.detail}")
            index += 1

    result = {
        "starts": starts,
        "durations": durations,
        "speed_samples": probe.samples,
        "statuses": statuses,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        runs = len(durations)
        result["layers"] = spans.layer_metrics(tracer.spans, runs, workloads.SUITES)
        result["layers"]["cli.bytes_written"] = written[0] / runs
        result["layers"]["cli.values_written"] = written[1] / runs
        Path(spec["spans"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run_id", "size"],
             "spans": tracer.spans}, separators=(",", ":")))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
