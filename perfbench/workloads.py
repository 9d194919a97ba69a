"""The three workloads: seeded job lists of ``hermicone`` CLI calls.

A workload is a list of passes; each pass is a fixed mix of jobs, and each
job is one argv for ``hermicone.cli.main``.  The seed picks which recorded
inputs a pass uses and the ``--seed`` of the workload's main verify,
varcheck and descend jobs.  Recorded inputs (catalog metrics, synthetic-model coefficients) come
from ``reference.json``, which also holds the values every ``eval`` and
``torsion`` report must reproduce; ``record.py`` writes it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from models import metric_document, model_document, structure_terms

CATALOG_MODELS = ("torus2", "torus3", "kodaira_thurston", "iwasawa")

# functionals whose predicate (SKT for F/Ftilde, balanced for G) every
# positive metric of the model meets; H has no predicate
CATALOG_FUNCTIONALS = {
    "torus2": ("F", "Ftilde", "G", "H"),
    "torus3": ("F", "Ftilde", "G", "H"),
    "kodaira_thurston": ("F", "Ftilde", "H"),
    "iwasawa": ("G", "H"),
}

# highdim slots: (slot, family, n, functional whose predicate the identity meets)
HIGHDIM_SLOTS = (
    ("iw4", "iwasawa_x_torus", 4, "G"),
    ("kt4", "kt_x_torus", 4, "F"),
    ("kt5", "kt_x_torus", 5, "F"),
    ("heis5", "heisenberg", 5, "G"),
    ("iw6", "iwasawa_x_torus", 6, "G"),
)

DESCENT_STEPS = 40
SEED_LIMIT = 2 ** 31 - 1


@dataclass
class Job:
    """One CLI call and what its report must show."""

    kind: str
    label: str
    argv: list
    expect: dict = field(default_factory=dict)


def verify_job(target, label, metrics, seed, gate_may_fail=False):
    expect = {"gate_may_fail": True} if gate_may_fail else {}
    return Job("verify", f"{label}/seed{seed}",
               ["verify", *target, "--metrics", str(metrics), "--seed", str(seed)], expect)


def varcheck_job(target, label, tuples, seed):
    return Job("varcheck", f"{label}/seed{seed}",
               ["varcheck", *target, "--tuples", str(tuples), "--seed", str(seed)])


def descend_job(target, label, functional, steps, seed=None, extra=()):
    argv = ["descend", *target, "--functional", functional, "--steps", str(steps), *extra]
    if seed is None:
        return Job("descend", f"{label}/{functional}/identity", argv)
    return Job("descend", f"{label}/{functional}/random/seed{seed}",
               argv + ["--metric", "random", "--seed", str(seed)])


class Workload:
    """Seeded inputs plus the job list of each pass.

    The seed varies each workload's main inputs.  Jobs that are there only
    so that every job kind has samples take their ``--seed`` from the pass
    index instead, so their cost does not change with the run seed.
    """

    name = ""
    # seconds one pass takes on the reference host (see README); a run of
    # ``--seconds S`` does round(S / PASS_S) passes
    PASS_S: float

    def __init__(self, seed, reference, input_dir):
        self.seed = int(seed)
        self.reference = reference
        self.input_dir = input_dir
        order_rng = np.random.default_rng([self.seed, 0])
        self._orders = {key: order_rng.permutation(size)
                        for key, size in sorted(self.pools().items())}

    def pools(self):
        """{pool key: pool size} of the recorded inputs this workload draws."""
        return {}

    def write_inputs(self):
        """Write every input file; runs once, before the first timed job."""
        os.makedirs(self.input_dir, exist_ok=True)

    def jobs(self, index):
        """The job list of pass ``index``; deterministic in (seed, index)."""
        raise NotImplementedError

    def _pick(self, key, index, slot=0, per_pass=1):
        order = self._orders[key]
        return int(order[(index * per_pass + slot) % order.size])

    def _pass_rng(self, index):
        return np.random.default_rng([self.seed, 1, index])

    def _path(self, name):
        return os.path.join(self.input_dir, name)


class _CatalogInputs(Workload):
    """Shared catalog metric pool: one file per recorded metric."""

    def pools(self):
        return {f"metric/{m}": len(self.reference["catalog"][m]["metrics"])
                for m in CATALOG_MODELS}

    def write_inputs(self):
        super().write_inputs()
        for model in CATALOG_MODELS:
            for idx, pairs in enumerate(self.reference["catalog"][model]["metrics"]):
                with open(self._metric_path(model, idx), "w", encoding="utf-8") as fh:
                    fh.write(metric_document(pairs))

    def _metric_path(self, model, idx):
        return self._path(f"metric-{model}-{idx}.json")

    def _eval_job(self, model, idx, functional):
        ref = self.reference["catalog"][model]
        return Job("eval", f"{model}/m{idx}/{functional}",
                   ["eval", "--catalog", model, "--functional", functional,
                    "--metric", self._metric_path(model, idx)],
                   {"value": ref["eval"][functional][idx]})

    def _torsion_job(self, model, idx):
        ref = self.reference["catalog"][model]
        return Job("torsion", f"{model}/m{idx}",
                   ["torsion", "--catalog", model,
                    "--metric", self._metric_path(model, idx)],
                   {"norm_sq": ref["torsion"][idx]})


class CatalogJobs(_CatalogInputs):
    name = "catalog-jobs"
    PASS_S = 0.95
    METRICS_PER_MODEL = 2
    TUPLES = 3

    def jobs(self, index):
        rng = self._pass_rng(index)
        out = []
        for model in CATALOG_MODELS:
            for slot in range(self.METRICS_PER_MODEL):
                idx = self._pick(f"metric/{model}", index, slot, self.METRICS_PER_MODEL)
                out.extend(self._eval_job(model, idx, f)
                           for f in CATALOG_FUNCTIONALS[model])
                out.append(self._torsion_job(model, idx))
            s_verify, s_var = (int(s) for s in rng.integers(SEED_LIMIT, size=2))
            out.append(verify_job(["--catalog", model], model, 3, s_verify))
            out.append(varcheck_job(["--catalog", model], model, self.TUPLES, s_var))
        out.append(descend_job(["--catalog", "iwasawa"], "iwasawa", "G", 1, seed=index))
        return out


class CatalogDescent(_CatalogInputs):
    name = "catalog-descent"
    PASS_S = 4.8
    TUPLES = 3
    VERIFY_JOBS = 4  # per model and pass
    VARCHECK_JOBS = 2

    def jobs(self, index):
        rng = self._pass_rng(index)
        seeds = [int(s) for s in rng.integers(SEED_LIMIT, size=3)]
        kt, iw = ["--catalog", "kodaira_thurston"], ["--catalog", "iwasawa"]
        out = [
            descend_job(kt, "kodaira_thurston", "Ftilde", DESCENT_STEPS, seeds[0],
                        extra=("--max-step", "0.05")),
            descend_job(iw, "iwasawa", "G", DESCENT_STEPS),
            descend_job(iw, "iwasawa", "G", DESCENT_STEPS, seeds[1]),
            descend_job(kt, "kodaira_thurston", "H", DESCENT_STEPS, seeds[2]),
        ]
        # a user's follow-up checks, several per pass so that each kind's
        # mean is taken over the whole run
        for model, functional in (("kodaira_thurston", "Ftilde"), ("iwasawa", "G")):
            for j in range(2):
                idx = self._pick(f"metric/{model}", index, j, 2)
                out.append(self._eval_job(model, idx, functional))
                out.append(self._torsion_job(model, idx))
            for j in range(self.VERIFY_JOBS):
                out.append(verify_job(["--catalog", model], model, 1,
                                      self.VERIFY_JOBS * index + j))
            for j in range(self.VARCHECK_JOBS):
                out.append(varcheck_job(["--catalog", model], model, self.TUPLES,
                                        self.TUPLES * (self.VARCHECK_JOBS * index + j)))
        return out


class HighdimModels(Workload):
    name = "highdim-models"
    PASS_S = 6.8
    VERIFY_SLOTS = ("iw4", "kt5", "heis5")
    TUPLES = 2

    def pools(self):
        return {f"model/{slot}": len(self.reference["highdim"][slot]["coeffs"])
                for slot, *_ in HIGHDIM_SLOTS}

    def write_inputs(self):
        super().write_inputs()
        for slot, family, n, _ in HIGHDIM_SLOTS:
            for idx, coeffs in enumerate(self.reference["highdim"][slot]["coeffs"]):
                text = model_document(f"{slot}-{idx}", n,
                                      structure_terms(family, n, coeffs))
                with open(self._model_path(slot, idx), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def _model_path(self, slot, idx):
        return self._path(f"model-{slot}-{idx}.json")

    def jobs(self, index):
        rng = self._pass_rng(index)
        out = []
        paths = {}
        for slot, family, n, functional in HIGHDIM_SLOTS:
            idx = self._pick(f"model/{slot}", index)
            ref = self.reference["highdim"][slot]
            path = paths[slot] = self._model_path(slot, idx)
            out.append(Job("eval", f"{slot}-{idx}/{functional}",
                           ["eval", "--model", path, "--functional", functional],
                           {"value": ref["eval"][idx]}))
            out.append(Job("torsion", f"{slot}-{idx}",
                           ["torsion", "--model", path],
                           {"norm_sq": ref["torsion"][idx]}))
            if slot in self.VERIFY_SLOTS:
                # the known identity-gate defect: exit 5 is counted, not wrong
                out.append(verify_job(["--model", path], f"{slot}-{idx}", 1,
                                      int(rng.integers(SEED_LIMIT)), gate_may_fail=True))
        # two cheap, alike jobs of each minor kind on the n = 4 Iwasawa model
        for j in range(2):
            out.append(varcheck_job(["--model", paths["iw4"]], "iw4", self.TUPLES,
                                    self.TUPLES * (2 * index + j)))
            out.append(descend_job(["--model", paths["iw4"]], "iw4", "G", 1,
                                   seed=2 * index + j))
        return out


WORKLOADS = {cls.name: cls for cls in (CatalogJobs, CatalogDescent, HighdimModels)}
