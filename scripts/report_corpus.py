"""Fixed corpus of hermicone CLI reports, hashed for byte-identity checks.

Runs a fixed list of in-process ``hermicone.cli.main`` jobs and prints, per
job, its exit code, the sha256 of its stdout report, the sha256 of its
stderr (a refusal's message; empty on success) and its label, then one
digest over all of those lines and one over the lines of every job but the
descents.  A change that claims to leave every report unchanged
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
n = 5) read from model files, and ``varcheck --tuples 2`` on the first of
them, so the operator-variation audit covers an n >= 4 model; ``verify`` over
many metrics, on Iwasawa at the default ``--metrics`` and on Iwasawa x T^1 at
``--metrics 14``; ``varcheck
--tuples 2`` on the n = 4 model d theta^3 = theta^11bar, d theta^4 = 1e-5
theta^22bar, whose d has a singular value 1e-5 times its largest, above the
rank cut; ``eval`` of G
alone on Iwasawa x T^4 (n = 7) and on Iwasawa x T^5 (n = 8); two models with
large structure coefficients whose d*d cancels, read from model files:
``eval`` of H on the n = 4 two-step model at scale 1000 and of G on Iwasawa
with coefficient -1e20; ``eval`` and ``descend`` under ``--tol 1e-6``; and
seven more 5-step descents that cover both slices: H from a random start, H
weighted by a seeded ``--nu`` metric file, G normalized from the identity, F
from a metric file, G on the n = 2 torus (whose volume datum is a (1,1) form),
and the two refused at the feasibility probe (G on Kodaira-Thurston, F on
Iwasawa).  The n = 4 model ``twin_12bar`` (d theta^3 = d theta^4 = i theta^1 ^
thetabar^2), read from a model file, whose pluriclosed cone is empty though
its projected reference metric passes the feasibility probe, gives two
refusals: ``torsion`` at a seeded metric file, which is neither pluriclosed nor
balanced, and a random-start F descent that finds no positive start.  Three
descents run the slice gradient longer or higher: 40 steps of Ftilde on
Kodaira-Thurston and of G on Iwasawa, and 3 steps of G on Iwasawa x T^1
(n = 4).  The CSV projections of ``varcheck`` and ``descend`` run on
Kodaira-Thurston, and ``catalog`` lists the built-in models.  Input files go
to a temporary directory, whose path appears in no report.  ``hermicone`` is
imported from this checkout's ``src/`` and BLAS runs on one thread, unless
the caller set the variables.
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
# evaluated for G alone: at n >= 7 the other jobs would dominate the corpus run
LARGE = {
    "iwasawa_x_t4": (7, [(3, "holo", 1, 2, -1.25)]),
    "iwasawa_x_t5": (8, [(3, "holo", 1, 2, -1.25)]),
}


def _two_step(s, seed):
    """The n = 4 model d theta^3 = c theta^1^theta^2, d theta^4 = c2 theta^1^thetabar^1
    + c theta^1^theta^2, whose d*d is exactly 0: c, c2 are s (N(0,1) + i N(0,1))."""
    rng = np.random.default_rng(seed)
    c, c2 = s * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return 4, [(3, "holo", 1, 2, c), (4, "mixed", 1, 1, c2), (4, "holo", 1, 2, c)]


# large coefficients whose d*d products cancel exactly: (model, functional)
SCALED = {
    "two_step_s1000": (_two_step(1000.0, 0), "H"),
    "iwasawa_1e20": ((3, [(3, "holo", 1, 2, -1e20)]), "G"),
}
# d theta^3 = theta^1^thetabar^1, d theta^4 = eps theta^2^thetabar^2 at eps = 1e-5: the
# Laplacian has an eigenvalue eps^2 that is no kernel
STRADDLE = {"straddle_1e-5": (4, [(3, "mixed", 1, 1, 1.0), (4, "mixed", 2, 2, 1e-5)])}
# d theta^3 = d theta^4 = i theta^1^thetabar^2: an empty pluriclosed cone whose projected
# reference metric has lambda_min ~ 6e-17, so the feasibility probe passes it
TWIN = {"twin_12bar": (4, [(3, "mixed", 1, 2, 1j), (4, "mixed", 1, 2, 1j)])}


def _write_inputs(tmp):
    """Model files for the synthetic models, seeded metric files for the catalog."""
    paths = {}
    for i, name in enumerate(catalog_names()):
        metric = random_metric(catalog(name).n, np.random.default_rng(1000 + i))
        path = tmp / f"metric_{name}.json"
        path.write_text(json.dumps(metric.to_json_obj()))
        paths[f"metric:{name}"] = str(path)
    for name, (n, _) in TWIN.items():
        path = tmp / f"metric_{name}.json"
        path.write_text(json.dumps(random_metric(n, np.random.default_rng(0)).to_json_obj()))
        paths[f"metric:{name}"] = str(path)
    nu = random_metric(2, np.random.default_rng(7))
    path = tmp / "nu_kodaira_thurston.json"
    path.write_text(json.dumps(nu.to_json_obj()))
    paths["nu:kodaira_thurston"] = str(path)
    scaled = {name: model for name, (model, _) in SCALED.items()}
    for name, (n, terms) in {**SYNTHETIC, **LARGE, **scaled, **STRADDLE, **TWIN}.items():
        doc = {"name": name, "n": n,
               "terms": [{"i": i, "kind": kind, "j": j, "k": k,
                          "re": complex(c).real, "im": complex(c).imag}
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
    # verify over many metrics: Iwasawa at the default --metrics, Iwasawa x T^1 at 15
    out.append(("verify iwasawa default metrics",
                ["verify", "--catalog", "iwasawa", "--seed", "1"]))
    out.append(("verify iwasawa_x_t1 15 metrics",
                ["verify", "--model", paths["model:iwasawa_x_t1"], "--metrics", "14",
                 "--seed", "5"]))
    out.append(("varcheck iwasawa_x_t1",
                ["varcheck", "--model", paths["model:iwasawa_x_t1"], "--tuples", "2",
                 "--seed", "2"]))
    for name in STRADDLE:
        out.append((f"varcheck {name}",
                    ["varcheck", "--model", paths[f"model:{name}"], "--tuples", "2"]))
    for name in LARGE:
        out.append((f"eval {name} G", ["eval", "--model", paths[f"model:{name}"],
                                       "--functional", "G"]))
    for name, (_, fn) in SCALED.items():
        out.append((f"eval {name} {fn}", ["eval", "--model", paths[f"model:{name}"],
                                          "--functional", fn]))
    tol = ["--tol", "1e-6"]
    out.append(("eval iwasawa G tol", ["eval", "--catalog", "iwasawa", "--functional", "G",
                                       "--metric", paths["metric:iwasawa"], *tol]))
    out.append(("descend kodaira_thurston Ftilde tol",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "Ftilde",
                 "--metric", "random", "--seed", "3", "--steps", "5", "--max-step", "0.05",
                 *tol]))
    out.append(("descend kodaira_thurston H",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "H",
                 "--metric", "random", "--seed", "6", "--steps", "5"]))
    out.append(("descend kodaira_thurston H nu",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "H",
                 "--nu", paths["nu:kodaira_thurston"], "--steps", "5"]))
    out.append(("descend iwasawa G normalized",
                ["descend", "--catalog", "iwasawa", "--functional", "G",
                 "--normalize", "on", "--steps", "5"]))
    out.append(("descend kodaira_thurston F metric file",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "F",
                 "--metric", paths["metric:kodaira_thurston"], "--steps", "5"]))
    out.append(("descend torus2 G",
                ["descend", "--catalog", "torus2", "--functional", "G",
                 "--metric", "random", "--seed", "7", "--steps", "5"]))
    # refused at the feasibility probe: the slice holds no positive point
    out.append(("descend kodaira_thurston G empty cone",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "G",
                 "--steps", "5"]))
    out.append(("descend iwasawa F empty cone",
                ["descend", "--catalog", "iwasawa", "--functional", "F", "--steps", "5"]))
    # long descents, and one at n = 4 (n - 1 = 3), through the slice gradient
    out.append(("descend kodaira_thurston Ftilde 40 steps",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "Ftilde",
                 "--metric", "random", "--seed", "8", "--steps", "40", "--max-step", "0.05"]))
    out.append(("descend iwasawa G 40 steps",
                ["descend", "--catalog", "iwasawa", "--functional", "G",
                 "--metric", "random", "--seed", "9", "--steps", "40"]))
    out.append(("descend iwasawa_x_t1 G",
                ["descend", "--model", paths["model:iwasawa_x_t1"], "--functional", "G",
                 "--metric", "random", "--seed", "10", "--steps", "3"]))
    # refused: a metric neither pluriclosed nor balanced (exit 4), and no positive
    # random start in a slice the feasibility probe passes (exit 6)
    for name in TWIN:
        src = ["--model", paths[f"model:{name}"]]
        out.append((f"torsion {name}", ["torsion", *src, "--metric", paths[f"metric:{name}"]]))
        out.append((f"descend {name} F random",
                    ["descend", *src, "--functional", "F", "--metric", "random"]))
    out.append(("varcheck kodaira_thurston csv",
                ["varcheck", "--catalog", "kodaira_thurston", "--tuples", "3", "--seed", "2",
                 "--format", "csv"]))
    out.append(("descend kodaira_thurston F csv",
                ["descend", "--catalog", "kodaira_thurston", "--functional", "F",
                 "--metric", "random", "--seed", "3", "--steps", "5", "--format", "csv"]))
    out.append(("catalog", ["catalog"]))
    return out


def run_job(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - an uncaught error is a result too
            code = f"raised {type(exc).__name__}"
    return (code, *(hashlib.sha256(stream.getvalue().encode("utf-8")).hexdigest()
                    for stream in (out, err)))


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def main_corpus():
    lines, others = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for label, job_argv in jobs(_write_inputs(Path(tmp))):
            code, out_digest, err_digest = run_job(job_argv)
            lines.append(f"{code}\t{out_digest}\t{err_digest}\t{label}")
            if job_argv[0] != "descend":
                others.append(lines[-1])
            print(lines[-1], flush=True)
    print(f"corpus\t{_digest(lines)}\t{len(lines)} jobs")
    print(f"non-descend\t{_digest(others)}\t{len(others)} jobs")


if __name__ == "__main__":
    main_corpus()
