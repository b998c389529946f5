"""Smoke tests: the example scenarios and scripts shipped with the repository run."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscswap.cli import main
from oscswap.core import make_product_state

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))


def test_every_scenario_is_covered():
    assert {path.stem for path in SCENARIOS} >= {
        "coherent_probe", "fock_transfer", "qubit_exchange", "verify_oracle"
    }


@pytest.mark.parametrize("path", SCENARIOS, ids=[path.stem for path in SCENARIOS])
def test_scenario_runs(path, tmp_path, capsys):
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    if path.stem == "verify_oracle":
        assert "result: PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "script",
    [["detuning_sweep.py", "--points", "3"], ["qubit_exchange_demo.py"]],
    ids=["detuning_sweep", "qubit_exchange_demo"],
)
def test_script_runs(script, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:], "--csv", "trace.csv"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    if script[0] == "qubit_exchange_demo.py":
        # 401 times over [0, 2 tau_0]; the middle one is tau_0, where the exchange is exact
        assert rows.shape == (401, 2)
        assert rows[200, 1] == pytest.approx(1.0, abs=1e-12)
    else:
        assert rows.shape == (3, 5)


IMPORT_GUARD = """
import sys
import oscswap.analysis
import oscswap.cli
assert "scipy" not in sys.modules, "import oscswap.cli pulled in scipy"
assert "numpy.random" not in sys.modules, "import oscswap.cli pulled in numpy.random"
assert oscswap.cli.main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
assert "scipy" not in sys.modules, "an exchange_scan run pulled in scipy"
assert "numpy.random" not in sys.modules, "an exchange_scan run pulled in numpy.random"
try:
    oscswap.analysis.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("analysis resolved an unknown name")
assert "scipy" not in sys.modules
assert callable(oscswap.analysis.optimize.minimize_scalar)  # resolved only on demand
assert oscswap.cli.main(["verify", "oracle"]) == 0
"""


def test_cli_run_path_imports_no_scipy(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(ROOT / "scenarios" / "qubit_exchange.yaml"),
         str(tmp_path / "out")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "result: PASS" in result.stdout


def test_readme_quick_start_runs(capsys):
    # the README's "Library quick start" block, so its imports cannot drift from the package
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from oscswap import (" in code
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "1.0"


def test_benchmark_trace_names_resolve():
    # perfbench/spans.py wraps these names from outside src/, so a rename there
    # breaks `perfbench/run.py --trace 1` without failing any other test here
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, path, *_ in spans.WRAPS:
        owner = importlib.import_module(module)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert not missing, f"names in perfbench/spans.py WRAPS not found: {missing}"
    # blocks 0 and 2 are occupied, block 1 is empty
    assert spans._evolved_amplitudes(None, make_product_state([0.6, 0.0, 0.8])) == 1 + 3
