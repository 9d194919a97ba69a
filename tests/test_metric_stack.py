"""A bundle over a stack of metrics: each metric's blocks and residuals are the bits of
its own bundle's, and each audit family is the maximum over the stack."""

import numpy as np
import pytest

from hermicone.errors import DimensionMismatch, NotPositive
from hermicone.functionals import evaluate
from hermicone.hodge import predicates, three_space_residuals, torsion
from hermicone.metric import HermitianMetric, bundle_for_algebra, identity_suite, random_metric
from hermicone.model import algebra_for, catalog, catalog_names, make_model
from hermicone.optimizer import constraint_basis
from hermicone.variation import first_variation

MODELS = {**{name: catalog(name) for name in catalog_names()},
          "iwasawa_x_t1": make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)])}


def _bundles(name, count):
    """A bundle over count metrics led by the identity, and one bundle per metric."""
    alg = algebra_for(MODELS[name])
    rng = np.random.default_rng(4)
    metrics = [HermitianMetric.identity(alg.n)] + [random_metric(alg.n, rng)
                                                   for _ in range(count - 1)]
    stacked = bundle_for_algebra(alg, HermitianMetric(np.stack([m.h for m in metrics])))
    return stacked, [bundle_for_algebra(alg, m) for m in metrics]


def _same(stacked, alone):
    """Slice i of stacked has the shape and the bytes of alone[i]."""
    assert len(stacked) == len(alone)
    for row, one in zip(stacked, alone):
        assert row.shape == one.shape and row.tobytes() == one.tobytes()


@pytest.mark.parametrize("name", list(MODELS))
def test_every_kept_block_of_a_stack_is_its_metrics_block(name):
    stacked, alone = _bundles(name, 3 if name == "iwasawa_x_t1" else 4)
    n = stacked.n
    keys = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    assert stacked.lead == (len(alone),)
    _same(stacked.det_h, [np.float64(b.det_h) for b in alone])
    _same(stacked.omega.vec, [b.omega.vec for b in alone])
    for p in range(n + 1):
        for of_h in (False, True):
            _same(stacked.compound(p, of_h), [b.compound(p, of_h) for b in alone])
    for key in keys:
        for block in ("gram", "gram_inv", "star_block", "trace_block"):
            _same(getattr(stacked, block)(*key), [getattr(b, block)(*key) for b in alone])
        for which in ("del", "dbar"):
            _same(stacked.codiff(which, key), [b.codiff(which, key) for b in alone])
        blocks, each = stacked._codiff_blocks(*key), [b._codiff_blocks(*key) for b in alone]
        assert all(list(one) == list(blocks) for one in each)
        for src, block in blocks.items():
            _same(block, [one[src] for one in each])
    for k in range(2 * n + 1):
        _same(stacked.codiff("d", k), [b.codiff("d", k) for b in alone])
    for k in range(n + 1):
        for key in keys:
            _same(stacked.omega_power(k).wedge_matrix(*key),
                  [b.omega_power(k).wedge_matrix(*key) for b in alone])


@pytest.mark.parametrize("name", list(MODELS))
def test_audits_of_a_stack_are_the_maxima_of_its_metrics_audits(name):
    stacked, alone = _bundles(name, 3 if name == "iwasawa_x_t1" else 4)
    # metric i draws its probes from seed + i
    suites = [identity_suite(b, seed=7 + i) for i, b in enumerate(alone)]
    want = {key: max(suite[key] for suite in suites) for key in suites[0]}
    got = identity_suite(stacked, seed=7)
    assert list(got) == list(want)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
    for k in range(2 * stacked.n + 1):
        walks = [three_space_residuals(b, k) for b in alone]
        want = {key: max(walk[key] for walk in walks) for key in walks[0]}
        got = three_space_residuals(stacked, k)
        assert {key: v.hex() for key, v in got.items()} == \
            {key: v.hex() for key, v in want.items()}, k


def test_a_stack_is_checked_metric_by_metric():
    good = random_metric(2, np.random.default_rng(1)).h
    stack = HermitianMetric(np.stack([good, -good]))
    with pytest.raises(NotPositive):
        stack.check()
    assert HermitianMetric(np.stack([good, 2 * good])).check().n == 2


def test_an_unchecked_stack_has_the_smallest_eigenvalues_check_keeps():
    # each metric's Hermitian part: the last two axes of the stack are transposed
    rng = np.random.default_rng(3)
    h = np.stack([random_metric(3, rng).h for _ in range(2)])
    got = HermitianMetric(h).min_eigenvalue()
    kept = HermitianMetric(h).check().min_eigenvalue()
    assert got.shape == (2,) and got.tobytes() == kept.tobytes()
    one = HermitianMetric(h[1])
    assert one.min_eigenvalue() == one.check().min_eigenvalue() == kept[1]


@pytest.mark.parametrize("entry", [
    "predicates", "torsion rho", "torsion gamma",
    *(f"{call} {functional}" for call in ("evaluate", "first_variation")
      for functional in ("F", "F_tilde", "G", "H"))])
def test_the_job_path_refuses_a_stacked_bundle(entry):
    # a verdict, a torsion, an energy and its variation each read one metric: a bundle
    # over two (verify's kind) is refused, where it gave one verdict from the stack's
    # worst residuals or a numpy broadcast error
    alg = algebra_for(MODELS["kodaira_thurston"])
    rng = np.random.default_rng(2)
    b = bundle_for_algebra(alg, HermitianMetric(np.stack([random_metric(alg.n, rng).h
                                                         for _ in range(2)])))
    call, arg = (entry.split() + [None])[:2]
    with pytest.raises(DimensionMismatch, match="not a stack of 2"):
        if call == "predicates":
            predicates(b)
        elif call == "torsion":
            torsion(b, arg)
        elif call == "evaluate":
            evaluate(b, arg)
        else:
            kind = "balanced" if arg == "G" else "skt"
            first_variation(b, arg, constraint_basis(alg, kind).forms)
