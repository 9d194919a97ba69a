"""Record the input pools and their reference values into ``reference.json``.

    python3 perfbench/record.py

The pools are drawn from a fixed pool seed: random positive metrics for
each catalog model, and structure coefficients for each synthetic-model
slot (every model gated by ``validate_model``).  Each pooled input is run
once through ``hermicone.cli.main``; the ``eval`` value and the torsion
norms it reports become the references that ``checks.py`` holds later runs
to.  Re-record only on a commit whose numbers are trusted, and say so.
"""

import run  # noqa: F401  (pins the BLAS environment before numpy is imported)

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from models import (draw_coeffs, metric_document, metric_to_pairs,  # noqa: E402
                    model_document, random_hermitian, structure_terms,
                    synthetic_model)
from workloads import CATALOG_FUNCTIONALS, CATALOG_MODELS, HIGHDIM_SLOTS  # noqa: E402

POOL_SEED = 20261017
CATALOG_POOL = 32
HIGHDIM_POOL = 32


def _report(cli, argv):
    code, _, text, err = run.run_job(cli, argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
    return json.loads(text)["report"]


def _torsion_norms(report):
    return {kind: part["norm_sq"] for kind, part in report["torsion"].items()}


def record_catalog(cli, work):
    from hermicone.model import catalog

    out = {}
    for m, model in enumerate(CATALOG_MODELS):
        rng = np.random.default_rng([POOL_SEED, 0, m])
        entry = {"metrics": [], "eval": {f: [] for f in CATALOG_FUNCTIONALS[model]},
                 "torsion": []}
        for idx in range(CATALOG_POOL):
            pairs = metric_to_pairs(random_hermitian(rng, catalog(model).n))
            path = work / f"{model}-{idx}.json"
            path.write_text(metric_document(pairs))
            entry["metrics"].append(pairs)
            for f in CATALOG_FUNCTIONALS[model]:
                entry["eval"][f].append(_report(cli, [
                    "eval", "--catalog", model, "--functional", f,
                    "--metric", str(path)])["value"])
            entry["torsion"].append(_torsion_norms(_report(cli, [
                "torsion", "--catalog", model, "--metric", str(path)])))
        out[model] = entry
    return out


def record_highdim(cli, caches, work):
    out = {}
    for s, (slot, family, n, functional) in enumerate(HIGHDIM_SLOTS):
        rng = np.random.default_rng([POOL_SEED, 1, s])
        entry = {"family": family, "n": n, "functional": functional,
                 "coeffs": [], "eval": [], "torsion": []}
        for idx in range(HIGHDIM_POOL):
            coeffs = draw_coeffs(rng, family, n)
            synthetic_model(family, n, coeffs, name=f"{slot}-{idx}")  # the gate
            path = work / f"{slot}-{idx}.json"
            path.write_text(model_document(f"{slot}-{idx}", n,
                                           structure_terms(family, n, coeffs)))
            entry["coeffs"].append(coeffs)
            entry["eval"].append(_report(cli, [
                "eval", "--model", str(path), "--functional", functional])["value"])
            entry["torsion"].append(_torsion_norms(_report(cli, [
                "torsion", "--model", str(path)])))
            run.fresh_session(caches)
            print(f"{slot} {idx + 1}/{HIGHDIM_POOL}", file=sys.stderr, flush=True)
        out[slot] = entry
    return out


def main():
    cli, caches = run.import_program()
    work = run.OUT_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = {
            "pool_seed": POOL_SEED,
            "git_sha": run.git_sha(),
            "catalog": record_catalog(cli, work),
            "highdim": record_highdim(cli, caches, work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
