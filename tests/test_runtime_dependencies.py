"""The runtime needs numpy alone: no CLI job loads scipy, which only the tests and the
benchmark import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one job of every subcommand, run in one fresh interpreter
_CHILD = """
import contextlib, io, sys
from hermicone.cli import main
jobs = [
    ["eval", "--catalog", "kodaira_thurston", "--functional", "F"],
    ["torsion", "--catalog", "iwasawa"],
    ["verify", "--catalog", "torus2", "--metrics", "1"],
    ["varcheck", "--catalog", "kodaira_thurston", "--tuples", "1"],
    ["descend", "--catalog", "iwasawa", "--functional", "G", "--steps", "2"],
    ["catalog"],
]
for argv in jobs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_subcommand_loads_scipy():
    run = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                              "OPENBLAS_NUM_THREADS": "1"},
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_the_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
