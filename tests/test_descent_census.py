"""The random-start descent census against its committed output."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "descent_census.py"
# descent ends depend on the BLAS thread count, which is read once, when numpy
# loads: hence a child process
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _runs(lines):
    return {line.split("\t")[0]: line for line in lines[:-1]}


def test_descents_match_the_committed_census():
    # a change that moves descents on purpose rewrites descent_census.expected (see
    # the script's docstring) and lists the moved lines in CHANGES.md
    want = SCRIPT.with_name("descent_census.expected").read_text().splitlines()
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         env={**os.environ, **ONE_THREAD}, check=True)
    got = run.stdout.splitlines()
    got_runs, want_runs = _runs(got), _runs(want)
    moved = sorted(label for label in got_runs.keys() | want_runs.keys()
                   if got_runs.get(label) != want_runs.get(label))
    # each moved run's committed and new line, so the moved lines can be read off a failure
    assert not moved, "descents moved:\n" + "\n".join(
        f"{label}\n  want {want_runs.get(label)}\n  got  {got_runs.get(label)}"
        for label in moved)
    assert got[-1] == want[-1]
    assert len(want_runs) == 40
