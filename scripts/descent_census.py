"""The random-start descent census: how 40 seeded descents end, hashed for identity.

Runs ``hermicone.optimizer.descend`` in-process from a seeded random start in
the slice, 100 steps each, for seeds 0-9 of four runs: F, Ftilde and H on
Kodaira-Thurston and G on Iwasawa.  Per run it prints the termination, the
number of iterations, the final value (repr), lambda_min / trace of the final
metric matrix (repr) and the ``degenerating`` flag, or the class and message of
the exception that refused the run; then one digest over all of those lines:

    python3 scripts/descent_census.py

``descent_census.expected`` next to this script holds the committed output;
``tests/test_descent_census.py`` runs the census and names every run whose line
differs from it.  A change that moves descents on purpose states its effect as
the diff of that file, and rewrites it with

    python3 scripts/descent_census.py > scripts/descent_census.expected

``hermicone`` is imported from this checkout's ``src/`` and BLAS runs on one
thread, unless the caller set the variables.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hermicone.errors import HermiconeError  # noqa: E402
from hermicone.model import catalog  # noqa: E402
from hermicone.optimizer import descend  # noqa: E402

RUNS = (("kodaira_thurston", "F"), ("kodaira_thurston", "F_tilde"),
        ("iwasawa", "G"), ("kodaira_thurston", "H"))
SEEDS = range(10)
STEPS = 100


def census_line(name, functional, seed):
    """One run's line: label, then its end or its refusal, tab-separated."""
    label = f"{name} {functional} seed {seed}"
    try:
        trace = descend(catalog(name), functional, start="random", seed=seed, steps=STEPS)
    except HermiconeError as exc:
        return f"{label}\trefused {type(exc).__name__}: {exc}"
    h = trace.final_matrix
    ratio = float(np.linalg.eigvalsh(h)[0] / np.trace(h).real)
    return (f"{label}\t{trace.termination}\t{len(trace.records)}\t{trace.final_value!r}"
            f"\t{ratio!r}\tdegenerating={trace.degenerating}")


def main():
    lines = []
    for name, functional in RUNS:
        for seed in SEEDS:
            lines.append(census_line(name, functional, seed))
            print(lines[-1], flush=True)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    print(f"census\t{digest}\t{len(lines)} runs")


if __name__ == "__main__":
    main()
