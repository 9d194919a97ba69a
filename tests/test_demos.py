"""The demos run end to end: each script exits 0, writes nothing to stderr and
prints the report committed for it.

demos/stdout.sha256 holds the sha256 of each demo's stdout, one
"<digest>  <script>" line per demo, run with one BLAS thread.  A change that
alters a demo's output on purpose rewrites it with

    for f in demos/*.py; do printf '%s  %s\\n' \\
        "$(PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python "$f" | sha256sum | cut -d' ' -f1)" \\
        "$(basename "$f")"; done > demos/stdout.sha256

and says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = dict(reversed(line.split("  ", 1))
                for line in (ROOT / "demos" / "stdout.sha256").read_text().splitlines())


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert sorted(EXPECTED) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == EXPECTED[script.name]
