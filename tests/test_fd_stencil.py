"""The finite-difference audit: one bundle per stencil point, shared by every row.

variation_battery differences all the FD rows of a tuple on one pass over the
Richardson stencil.  Its rows must equal, field for field, those of the per-row
loop in tests/oracles.py, which builds four fresh bundles for every row.
"""

import gc
import weakref

import numpy as np
import pytest

from hermicone import variation
from hermicone.errors import StepTooLarge
from hermicone.hodge import harmonic_projector
from hermicone.metric import HermitianMetric, bundle_for_algebra
from hermicone.model import algebra_for, catalog, catalog_names, make_model
from hermicone.variation import Direction, _fd_along, variation_battery

from .oracles import loop_variation_battery

FIELDS = ("name", "detail", "analytic", "fd", "abs_err", "threshold")


def _model(name):
    if name == "iwasawa_x_t1":
        return make_model(name, 4, [(3, "holo", 1, 2, -1.25)])
    return catalog(name)


@pytest.mark.parametrize("name,seed", [(name, seed) for name in catalog_names()
                                       for seed in (0, 7, 31)]
                         + [("iwasawa_x_t1", 2), ("iwasawa_x_t1", 5)])
def test_battery_rows_equal_the_per_row_loop(name, seed):
    model = _model(name)
    got = variation_battery(model, seed=seed, tuples=2)
    want = loop_variation_battery(model, seed=seed, tuples=2)
    assert [tuple(getattr(r, f) for f in FIELDS) for r in got] \
        == [tuple(getattr(r, f) for f in FIELDS) for r in want]


def test_each_tuple_builds_one_bundle_and_one_per_stencil_point(monkeypatch):
    build = variation.bundle_for_algebra
    built, alive_at_build = [], []

    def counting(*args, **kwargs):
        # every bundle still alive when this one is built, by its build index
        alive_at_build.append([i for i, ref in enumerate(built) if ref() is not None])
        out = build(*args, **kwargs)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(variation, "bundle_for_algebra", counting)
    tuples = 3
    gc.disable()  # a stencil bundle must go when its last reference does
    try:
        variation_battery(catalog("iwasawa"), seed=0, tuples=tuples)
    finally:
        gc.enable()
    assert len(built) == tuples * (1 + 4)
    for i, alive in enumerate(alive_at_build):
        if i % 5:  # a stencil bundle: the tuple's own bundle is the only one alive
            assert alive == [i - i % 5], (i, alive)


@pytest.mark.parametrize("count", [1, 2, 9])
def test_a_step_out_of_the_cone_raises_whatever_the_extracts(count):
    alg = algebra_for(catalog("iwasawa"))
    b = bundle_for_algebra(alg, HermitianMetric.identity(3))
    along = Direction("metric", HermitianMetric(np.diag([1.0, 0.0, 0.0])).form())
    extracts = [lambda bb: bb.star_block(1, 1), lambda bb: harmonic_projector(bb, "d", 2),
                *[lambda bb: bb.laplacian("d", 3)] * 7][:count]
    message = r"^positivity lost inside the difference stencil \(step 1\.500e\+00\)$"
    with pytest.raises(StepTooLarge, match=message):
        _fd_along(b, along, 1.5, extracts)
    assert len(_fd_along(b, along, 1e-3, extracts)) == count
