"""Fixed corpus of hermicone CLI reports, hashed for byte-identity checks.

Runs a fixed list of in-process ``hermicone.cli.main`` jobs and prints, per
job, its exit code, the sha256 of its stdout report and its label, then
one digest over all of those lines and one over the lines of every job
but the descents.  A change that claims to leave every report unchanged
must print the same corpus digest as its parent; a change to descent
alone must print the same non-descend digest:

    python3 scripts/report_corpus.py

``report_corpus.expected`` next to this script holds the committed output,
both digests included; ``tests/test_report_corpus.py`` runs the corpus and
names every job whose line differs from it.  A change that alters reports
on purpose rewrites it with

    python3 scripts/report_corpus.py > scripts/report_corpus.expected

The jobs cover ``eval`` (every functional) and ``torsion`` at a seeded random
metric, ``verify --metrics 2`` and ``varcheck --tuples 3`` on the four catalog
models; two 5-step descents; and ``eval``, ``torsion`` and ``verify`` on three
synthetic models (Iwasawa x T^1, Kodaira-Thurston x T^2, complex Heisenberg
n = 5) read from model files; and ``eval``, ``varcheck`` and ``descend`` under
``--tol 1e-6``.  Input files go to a temporary directory, whose
path appears in no report.  ``hermicone`` is imported from this checkout's
``src/`` and BLAS runs on one thread, unless the caller set the variables.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hermicone.cli import main  # noqa: E402
from hermicone.metric import random_metric  # noqa: E402
from hermicone.model import catalog, catalog_names  # noqa: E402

FUNCTIONALS = ("F", "Ftilde", "G", "H")

SYNTHETIC = {
    "iwasawa_x_t1": (4, [(3, "holo", 1, 2, -1.25)]),
    "kt_x_t2": (4, [(2, "mixed", 1, 1, 0.75)]),
    "heisenberg5": (5, [(5, "holo", 1, 2, 0.7), (5, "holo", 3, 4, -1.3)]),
}


def _write_inputs(tmp):
    """Model files for the synthetic models, seeded metric files for the catalog."""
    paths = {}
    for i, name in enumerate(catalog_names()):
        metric = random_metric(catalog(name).n, np.random.default_rng(1000 + i))
        path = tmp / f"metric_{name}.json"
        path.write_text(json.dumps(metric.to_json_obj()))
        paths[f"metric:{name}"] = str(path)
    for name, (n, terms) in SYNTHETIC.items():
        doc = {"name": name, "n": n,
               "terms": [{"i": i, "kind": kind, "j": j, "k": k, "re": c, "im": 0.0}
                         for (i, kind, j, k, c) in terms]}
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[f"model:{name}"] = str(path)
    return paths


def jobs(paths):
    """The fixed job list: (label, argv) pairs."""
    out = []
    for name in catalog_names():
        src = ["--catalog", name]
        metric = ["--metric", paths[f"metric:{name}"]]
        for fn in FUNCTIONALS:
            out.append((f"eval {name} {fn}", ["eval", *src, "--functional", fn, *metric]))
        out.append((f"torsion {name}", ["torsion", *src, *metric]))
        out.append((f"verify {name}", ["verify", *src, "--metrics", "2", "--seed", "1"]))
        out.append((f"varcheck {name}", ["varcheck", *src, "--tuples", "3", "--seed", "2"]))
    out.append(("descend kodaira_thurston Ftilde",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "Ftilde",
                 "--metric", "random", "--seed", "3", "--steps", "5", "--max-step", "0.05"]))
    out.append(("descend iwasawa G",
                ["descend", "--catalog", "iwasawa", "--functional", "G",
                 "--metric", "random", "--seed", "4", "--steps", "5"]))
    for name in SYNTHETIC:
        src = ["--model", paths[f"model:{name}"]]
        for fn in FUNCTIONALS:
            out.append((f"eval {name} {fn}", ["eval", *src, "--functional", fn]))
        out.append((f"torsion {name}", ["torsion", *src]))
        out.append((f"verify {name}", ["verify", *src, "--metrics", "1", "--seed", "5"]))
    tol = ["--tol", "1e-6"]
    out.append(("eval iwasawa G tol", ["eval", "--catalog", "iwasawa", "--functional", "G",
                                       "--metric", paths["metric:iwasawa"], *tol]))
    out.append(("varcheck kodaira_thurston tol",
                ["varcheck", "--catalog", "kodaira_thurston", "--tuples", "3", "--seed", "2",
                 *tol]))
    out.append(("descend kodaira_thurston Ftilde tol",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "Ftilde",
                 "--metric", "random", "--seed", "3", "--steps", "5", "--max-step", "0.05",
                 *tol]))
    return out


def run_job(argv):
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - an uncaught error is a result too
            code = f"raised {type(exc).__name__}"
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def main_corpus():
    lines, others = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for label, job_argv in jobs(_write_inputs(Path(tmp))):
            code, digest = run_job(job_argv)
            lines.append(f"{code}\t{digest}\t{label}")
            if job_argv[0] != "descend":
                others.append(lines[-1])
            print(lines[-1], flush=True)
    print(f"corpus\t{_digest(lines)}\t{len(lines)} jobs")
    print(f"non-descend\t{_digest(others)}\t{len(others)} jobs")


if __name__ == "__main__":
    main_corpus()
