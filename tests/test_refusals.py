"""Refusals that the rest of the suite does not reach, each pinned to its documented
exit code or error class, and the degenerate inputs beside them."""

import json

import numpy as np
import pytest

from hermicone import cli
from hermicone.errors import (DegreeOutOfRange, DimensionMismatch, InfeasibleStart,
                              NotPositive)
from hermicone.exterior import ExteriorAlgebra, Form, _slice, random_form, wedge
from hermicone.functionals import cone_slice, direction_slice, energy
from hermicone.hodge import root_n_minus_1
from hermicone.metric import HermitianMetric, OperatorBundle, random_metric
from hermicone.model import algebra_for, catalog, serialize_model
from hermicone.optimizer import descend
from hermicone.variation import first_variation, make_direction, metric_direction_of_volume

from .conftest import seeded_bundle, twin_12bar


def _exit(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


# ----- the command line ----------------------------------------------------------------


def test_torsion_at_a_metric_neither_pluriclosed_nor_balanced_exits_4(tmp_path, capsys):
    model = tmp_path / "twin.json"
    model.write_text(serialize_model(twin_12bar()))
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps(random_metric(4, np.random.default_rng(0)).to_json_obj()))
    code, out = _exit(capsys, "torsion", "--model", str(model), "--metric", str(metric))
    assert code == cli.EXIT_PREDICATE and out.out == ""


def test_descend_with_no_positive_random_start_exits_6(tmp_path, capsys):
    # the feasibility probe passes the empty cone at lambda_min ~ 6e-17; the random
    # start then finds no positive point
    model = tmp_path / "twin.json"
    model.write_text(serialize_model(twin_12bar()))
    code, out = _exit(capsys, "descend", "--model", str(model), "--functional", "F",
                      "--metric", "random")
    assert code == cli.EXIT_INFEASIBLE and out.out == ""


@pytest.mark.parametrize("term", [{"i": 1, "kind": "both", "j": 1, "k": 2, "re": 1.0,
                                   "im": 0.0}, [1, "holo", 1, 2, 1.0, 0.0]],
                         ids=("unknown kind", "not an object"))
def test_a_model_term_the_schema_refuses_exits_2(tmp_path, capsys, term):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"name": "x", "n": 2, "terms": [term]}))
    code, out = _exit(capsys, "eval", "--model", str(model), "--functional", "F")
    assert code == cli.EXIT_SCHEMA and out.out == ""


@pytest.mark.parametrize("functional", ["F", "Ftilde", "G", "H"])
def test_terms_that_cancel_leave_the_flat_torus(tmp_path, capsys, functional):
    model = tmp_path / "torus2.json"
    model.write_text(json.dumps({"name": "torus2", "n": 2, "terms": [
        {"i": 1, "kind": "holo", "j": 1, "k": 2, "re": 0.5, "im": -1.0},
        {"i": 1, "kind": "holo", "j": 2, "k": 1, "re": 0.5, "im": -1.0}]}))
    got = _exit(capsys, "eval", "--model", str(model), "--functional", functional)
    want = _exit(capsys, "eval", "--catalog", "torus2", "--functional", functional)
    assert got == want and got[0] == cli.EXIT_OK


def test_main_re_raises_an_exception_it_does_not_map(monkeypatch):
    def broken():
        raise RuntimeError("not a hermicone refusal")
    monkeypatch.setattr(cli, "catalog_names", broken)
    with pytest.raises(RuntimeError, match="not a hermicone refusal"):
        cli.main(["catalog"])


# ----- the API ---------------------------------------------------------------------------


@pytest.mark.parametrize("lookup,name", [(cone_slice, "kahler"), (direction_slice, "form"),
                                         (energy, "Ftilde")])
def test_unknown_names_are_value_errors(lookup, name):
    with pytest.raises(ValueError, match=repr(name)):
        lookup(name)


def test_make_direction_refuses_a_form_over_another_coframe():
    alg = algebra_for(catalog("iwasawa"))
    with pytest.raises(DimensionMismatch):
        make_direction(alg, HermitianMetric.identity(2).form())


def test_F_tilde_variation_refuses_a_nonpositive_normalization():
    # nu = -I: the normalization integral of omega against nu_(n-1) is negative
    bundle = seeded_bundle("kodaira_thurston", 3)
    with pytest.raises(NotPositive, match="normalization integral"):
        first_variation(bundle, "F_tilde", bundle.omega, nu=HermitianMetric(-np.eye(2)))


def test_the_volume_root_and_its_variation_need_n_at_least_2():
    alg = ExteriorAlgebra(1, ())
    with pytest.raises(DimensionMismatch, match="n >= 2"):
        root_n_minus_1(alg, Form.scalar(1, 1.0))
    bundle = OperatorBundle(alg, HermitianMetric.identity(1))
    with pytest.raises(DimensionMismatch, match="n >= 2"):
        metric_direction_of_volume(bundle, Form.scalar(1, 1.0))


def test_descend_refuses_a_start_whose_energy_is_not_evaluable():
    # positive, but so near degenerate that the rho potential's residual gate refuses it
    u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))
    h = u @ np.diag([1.0, 1e-8]) @ u.conj().T
    start = HermitianMetric(0.5 * (h + h.conj().T))
    with pytest.raises(InfeasibleStart, match="not evaluable"):
        descend(catalog("kodaira_thurston"), "F", start=start, steps=1)


@pytest.mark.parametrize("key", [(3, 0), 5, -1, "1"])
def test_slice_refuses_a_key_outside_the_layout(key):
    with pytest.raises(DegreeOutOfRange):
        _slice(2, key)


def test_form_arithmetic_refuses_mismatched_operands():
    rng = np.random.default_rng(0)
    u, v = random_form(2, [(1, 1)], rng), random_form(3, [(1, 1)], rng)
    with pytest.raises(DimensionMismatch):
        Form.at(2, (1, 1), np.ones(3))
    with pytest.raises(DimensionMismatch):
        u + v
    with pytest.raises(TypeError):
        u + 1.0
    with pytest.raises(TypeError):
        u * u
    with pytest.raises(DimensionMismatch):
        (u + random_form(2, [(1, 0)], rng)).wedge_matrix(0, 0)
    with pytest.raises(DimensionMismatch):
        wedge(u, v)
    stacks = [Form(2, np.stack([u.vec] * size)) for size in (2, 3)]
    with pytest.raises(DimensionMismatch):
        wedge(*stacks)
    with pytest.raises(DegreeOutOfRange):
        ExteriorAlgebra(0, ())


def test_the_zero_form_wedges_as_a_matrix_with_no_rows():
    assert Form.zero(2).wedge_matrix(1, 0).shape == (0, 2)
