"""The synthetic-model generator and the recorded pools."""

import json

import numpy as np
import pytest

import models
import run
from workloads import HIGHDIM_SLOTS, WORKLOADS


@pytest.mark.parametrize("family,n", [("iwasawa_x_torus", 4), ("kt_x_torus", 4),
                                      ("kt_x_torus", 5), ("heisenberg", 5),
                                      ("iwasawa_x_torus", 5)])
def test_generator_emits_valid_models(family, n):
    from hermicone.model import parse_model, validate_model

    rng = np.random.default_rng([7, n])
    for i in range(2):
        coeffs = models.draw_coeffs(rng, family, n)
        assert all(models.COEFF_MIN <= abs(c) <= models.COEFF_MAX for c in coeffs)
        model = models.synthetic_model(family, n, coeffs, name=f"t{i}")
        assert validate_model(model).all_passed
        doc = models.model_document(model.name, n, models.structure_terms(family, n, coeffs))
        assert parse_model(doc) == model


def test_gate_rejects_an_invalid_model(monkeypatch):
    # an antiholomorphic term is not integrable
    monkeypatch.setattr(models, "structure_terms",
                        lambda family, n, coeffs: [(3, "anti", 1, 2, 1.0)])
    with pytest.raises(ValueError, match="failed validation"):
        models.synthetic_model("iwasawa_x_torus", 4, [1.0])


def test_family_arguments_are_checked():
    with pytest.raises(ValueError):
        models.structure_terms("heisenberg", 4, [1.0])
    with pytest.raises(ValueError):
        models.structure_terms("iwasawa_x_torus", 4, [1.0, 2.0])
    with pytest.raises(ValueError):
        models.structure_terms("nope", 4, [1.0])


def test_recorded_pools_are_valid_models():
    from hermicone.model import validate_model

    reference = json.loads(run.REFERENCE.read_text())
    for slot, family, n, _ in HIGHDIM_SLOTS:
        entry = reference["highdim"][slot]
        assert (entry["family"], entry["n"]) == (family, n)
        if n > 5:  # an n = 6 algebra takes seconds to build
            continue
        for coeffs in entry["coeffs"][:3]:
            assert validate_model(models.synthetic_model(family, n, coeffs, gate=False)).all_passed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_lists_are_seeded_and_cover_every_kind(name, tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    first = WORKLOADS[name](3, reference, str(tmp_path))
    again = WORKLOADS[name](3, reference, str(tmp_path))
    other = WORKLOADS[name](4, reference, str(tmp_path))
    argv = [[job.argv for job in w.jobs(i)] for w in (first, again, other) for i in (0, 1)]
    assert argv[0:2] == argv[2:4]
    assert argv[0:2] != argv[4:6]
    kinds = {job.kind for job in first.jobs(0)}
    assert kinds == {"eval", "torsion", "verify", "varcheck", "descend"}
    first.write_inputs()
    for job in first.jobs(0):
        for arg in job.argv:
            if arg.endswith(".json"):
                assert (tmp_path / arg.split("/")[-1]).exists()
