"""Byte identity of the CLI reports: the corpus against its committed output."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_corpus.py"
# the report bits depend on the BLAS thread count (the n >= 4 verify residuals
# do), and it can only be set before numpy loads: hence a child process
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _jobs(lines):
    return {line.split("\t")[-1]: line for line in lines[:-2]}


def test_reports_match_the_committed_corpus():
    # a change that alters reports on purpose rewrites report_corpus.expected
    # (see the script's docstring) and says so in CHANGES.md
    want = SCRIPT.with_name("report_corpus.expected").read_text().splitlines()
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         env={**os.environ, **ONE_THREAD}, check=True)
    got = run.stdout.splitlines()
    got_jobs, want_jobs = _jobs(got), _jobs(want)
    changed = sorted(label for label in got_jobs.keys() | want_jobs.keys()
                     if got_jobs.get(label) != want_jobs.get(label))
    assert not changed, f"reports changed: {changed}"
    assert got[-2:] == want[-2:]
