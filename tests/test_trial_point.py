"""What a descent's trial point computes: its value alone.  The energy's ingredients, the
torsion's pure-type norms (hodge.pure_norm_sq) and harmonic source form and the residuals
its guard does not read are built on their first read, with the bits an eager computation
gives."""

import gc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from hermicone import functionals, hodge
from hermicone.exterior import Form, neighbor, wedge
from hermicone.functionals import ENERGIES, FunctionalValue, evaluate
from hermicone.hodge import (CONES, TORSIONS, harmonic_projector, predicates, pure_norm_sq,
                             torsion)
from hermicone.metric import (DEFAULT_TOL, HermitianMetric, OperatorBundle, bundle_for_algebra,
                              random_metric)
from hermicone.model import algebra_for, catalog
from hermicone.optimizer import _Objective, _random_feasible, constraint_basis, descend

from .conftest import CATALOG_NAMES, kept_keys, seeded_bundle
from .test_functionals import _value_bits


def _objective(name, functional):
    alg = algebra_for(catalog(name))
    spec = ENERGIES[functional]
    nu = HermitianMetric.identity(alg.n)
    weight = bundle_for_algebra(alg, nu) if spec.weighted else None
    return _Objective(alg, constraint_basis(alg, spec.slice), functional, nu, weight,
                      DEFAULT_TOL, spec.normalize)


@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F_tilde"),
                                             ("iwasawa", "G"),
                                             ("kodaira_thurston", "H")])
@pytest.mark.parametrize("seed", [0, 3])
def test_a_trial_point_computes_its_value_alone(name, functional, seed, monkeypatch):
    reads, norms = [], []
    ingredients, l2_norm = FunctionalValue.ingredients, OperatorBundle.l2_norm
    monkeypatch.setattr(FunctionalValue, "ingredients", property(
        lambda self: reads.append(self.kind) or ingredients.__get__(self)))
    monkeypatch.setattr(OperatorBundle, "l2_norm",
                        lambda self, u: norms.append(u) or l2_norm(self, u))
    obj = _objective(name, functional)
    # the random start is found by _Objective.__call__ at the seeded trial points
    x = _random_feasible(obj, obj.basis, np.random.default_rng(seed))
    value = obj(x)
    bundle = obj.at(x)
    assert value is not None and reads == [] and norms == []
    kind = ENERGIES[functional].torsion
    # the guard read its own cone's residual; d omega's and the other cone's wait
    assert kept_keys(bundle, hodge._residual) == ([(kind,)] if kind else [])
    assert kept_keys(bundle, pure_norm_sq) == []
    if kind:
        report, = [out for (fn, key), out in bundle._memo.items()
                   if fn is hodge._torsion.__wrapped__]
        assert "harmonic_source" not in vars(report)
        assert torsion(bundle, kind) is report


def _eager(bundle, functional):
    """The energy's value and ingredients as evaluate computed them all at once."""
    alg, n = bundle.alg, bundle.n
    if functional == "H":
        weight = bundle_for_algebra(alg, HermitianMetric.identity(n), bundle.tol)
        u = bundle.trace_contract(alg.del_form(bundle.omega))
        ubar = bundle.trace_contract(alg.dbar_form(bundle.omega))
        norm_form = weight.l2_inner(u, u).real
        wedge_val = 1j * alg.integrate(wedge(wedge(u, ubar), weight.omega_power(n - 1)))
        return FunctionalValue("H", float(norm_form), lambda: {
            "wedge_form": float(wedge_val.real),
            "cross_check_residual": float(abs(norm_form - wedge_val)),
            "trace_norm": weight.l2_norm(u)})
    kind = ENERGIES[functional].torsion
    rep = torsion(bundle, kind)
    which, key = TORSIONS[kind].space(n)
    harmonic = harmonic_projector(bundle, which, key) @ rep.source.part(key)
    ing = {"projected_source_norm": bundle.l2_norm(rep.projected_source),
           "harmonic_source_norm": bundle.l2_norm(Form.at(n, key, harmonic)),
           "residual_equation": rep.residual_equation,
           "residual_kernel": rep.residual_kernel}
    ing.update({f"norm_sq_{p}{q}": v for (p, q), v in _eager_pure(bundle, rep).items()})
    if functional == "F_tilde":
        integral = functionals.normalization_integral(bundle, HermitianMetric.identity(n))
        ing.update({"F": float(rep.norm_sq), "normalization_integral": float(integral)})
        return FunctionalValue(functional, float(rep.norm_sq / integral ** n), lambda: ing)
    return FunctionalValue(functional, float(rep.norm_sq), lambda: ing)


def _eager_pure(bundle, rep):
    which, key = TORSIONS[rep.kind].space(bundle.n)
    types = bundle.alg.slices(neighbor(which, key, -1))
    parts = {pq: Form.at(bundle.n, pq, rep.torsion.part(pq)) for pq in types}
    return {pq: float(bundle.l2_inner(part, part).real) for pq, part in parts.items()} \
        if len(types) > 1 else {}


def _bits(values):
    return [(k, np.float64(v).tobytes()) for k, v in values.items()]


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_first_reads_give_the_eager_bits(name, seed):
    # each lazy read on a bundle whose value was read first, against a fresh bundle's
    # eager computation at the same metric
    alg = algebra_for(catalog(name))
    metric = HermitianMetric.identity(alg.n) if seed is None \
        else random_metric(alg.n, np.random.default_rng(seed))
    pred = predicates(bundle_for_algebra(alg, metric))
    fresh = bundle_for_algebra(alg, metric)
    eager = {"d_omega_residual": float(alg.d_form(fresh.omega).max_abs())}
    eager.update({cone.residual: float(cone.constraint(alg, cone.datum(fresh.omega)).max_abs())
                  for cone in CONES.values()})
    assert _bits({k: v for k, v in asdict(pred).items() if k.endswith("residual")}) == \
        _bits(eager)
    done = 0
    for functional, spec in ENERGIES.items():
        if spec.torsion and not getattr(pred, TORSIONS[spec.torsion].flag):
            continue
        lazy = evaluate(bundle_for_algebra(alg, metric), functional)
        assert _value_bits(lazy) == _value_bits(_eager(bundle_for_algebra(alg, metric),
                                                       functional)), functional
        done += 1
    for kind, cone in TORSIONS.items():
        if not getattr(pred, cone.flag):
            continue
        lazy = bundle_for_algebra(alg, metric)
        rep, want = torsion(lazy, kind), torsion(fresh, kind)
        assert _bits(pure_norm_sq(lazy, kind)) == _bits(_eager_pure(fresh, want))
        which, key = cone.space(alg.n)
        harmonic = harmonic_projector(fresh, which, key) @ want.source.part(key)
        assert rep.harmonic_source.vec.tobytes() == Form.at(alg.n, key, harmonic).vec.tobytes()
    assert done >= 2


def test_a_torsion_report_keeps_no_reference_to_its_bundle():
    # the report and the pure-type norms are kept on the bundle and refer to nothing of
    # it, so a bundle is freed by reference counting, read or not, with no cyclic collection
    b = seeded_bundle("kodaira_thurston", seed=4)
    ingredients = evaluate(b, "F").ingredients
    assert torsion(b, "rho").harmonic_source and pure_norm_sq(b, "rho")
    assert "norm_sq_11" in ingredients
    ref = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert ref() is None
    finally:
        gc.enable()


def test_a_stalled_line_search_builds_one_bundle_per_distinct_point(monkeypatch):
    # the Iwasawa G run from seed 12 stalls where its step rounds back onto the iterate:
    # the line search stops there, so no trial point repeats the iterate and each
    # positive point is built once
    built, points, calls = [], [], []
    init, at, call = OperatorBundle.__init__, _Objective.at, _Objective.__call__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def watched(self, x):
        bundle = at(self, x)
        if bundle is not None:
            points.append(x.tobytes())
        return bundle

    monkeypatch.setattr(OperatorBundle, "__init__", counted)
    monkeypatch.setattr(_Objective, "at", watched)
    monkeypatch.setattr(_Objective, "__call__", lambda self, x: calls.append(1) or call(self, x))
    trace = descend(catalog("iwasawa"), "G", start="random", seed=12, steps=40)
    assert trace.termination == "NumericalStall" and len(calls) == 99
    runs = [p for i, p in enumerate(points) if i == 0 or points[i - 1] != p]
    assert len(runs) == len(set(points))
    assert len(built) == len(set(points))
