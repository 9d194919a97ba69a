"""The functions of src/hermicone that the report corpus never enters, against the
committed list.

Only the corpus is traced, in a child process: under a tracer the suite itself
misbehaves (test_cli_fuzz's Hypothesis installs its own trace function, and one of
its tests then fails as an artifact of the tracer).
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "coverage.py"
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _never_entered(lines):
    return {line for line in lines if line.startswith("never entered\t")}


def test_the_corpus_enters_every_function_but_the_committed_list():
    # a function the corpus newly enters, or a deleted one, leaves the list: rewrite
    # coverage.expected (see the script's docstring); a new function the corpus never
    # enters belongs on the job path or in the corpus, not on the list
    want = _never_entered(SCRIPT.with_name("coverage.expected").read_text().splitlines())
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         env={**os.environ, **ONE_THREAD}, check=True)
    got = _never_entered(run.stdout.splitlines())
    assert not got - want, f"functions the corpus never enters: {sorted(got - want)}"
    assert not want - got, f"entered or deleted, drop from the list: {sorted(want - got)}"
