"""The package root exports exactly the names of the README's library example,
and importing it pulls in nothing a simulation run does not use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import coopverif

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# A fresh interpreter: import the package, run a tiny scenario, check what
# got loaded, then run analyze, which is the one command that needs numpy.
FOOTPRINT_SCRIPT = """
import sys
import coopverif, coopverif.sim
from coopverif import cli
out = sys.argv[1]
assert cli.main(["run", "--out", out + "/run", "--runs", "1", "--seed", "1",
                 "--set", "n_nodes=3", "--set", "duration=1"]) == 0
loaded = [m for m in ("numpy", "multiprocessing", "concurrent.futures.process") if m in sys.modules]
assert not loaded, f"loaded by import and run: {loaded}"
assert cli.main(["analyze", "--alpha", "5", "--pr-check", "0.1", "--neighbors", "15",
                 "--votes", "5", "--trials", "1000", "--out", out]) == 0
"""


def library_example_imports():
    section = README.read_text().split("## Library", 1)[1]
    names = re.search(r"from coopverif import \(([^)]*)\)", section).group(1)
    return {name.strip() for name in names.split(",") if name.strip()}


def test_root_exports_the_library_example_names():
    assert set(coopverif.__all__) == library_example_imports()
    for name in coopverif.__all__:
        assert getattr(coopverif, name).__name__ == name


def test_run_loads_neither_numpy_nor_the_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("COOPVERIF_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "analysis.csv").is_file()
