"""The finite-difference audit: one stacked bundle per tuple's stencil, shared by every row.

variation_battery differences all the FD rows of a tuple on one bundle over the four
Richardson stencil metrics (one bundle per point from n = 5 on).  Its rows must equal,
field for field, those of the per-row loop in tests/oracles.py, which builds four fresh
bundles for every row.
"""

import gc
import weakref
from operator import methodcaller

import numpy as np
import pytest

from hermicone import variation
from hermicone.errors import StepTooLarge
from hermicone.hodge import harmonic_projector
from hermicone.metric import HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, catalog_names, make_model
from hermicone.variation import Direction, _fd_along, default_step, variation_battery

from .oracles import _loop_fd_row, loop_variation_battery

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
    # at n <= 4 a tuple builds its own bundle, then one over its four stencil metrics
    build = variation.bundle_for_algebra
    built, stacks, alive_at_build = [], [], []

    def counting(*args, **kwargs):
        # every bundle still alive when this one is built, by its build index
        alive_at_build.append([i for i, ref in enumerate(built) if ref() is not None])
        out = build(*args, **kwargs)
        built.append(weakref.ref(out))
        stacks.append(out.lead)
        return out

    monkeypatch.setattr(variation, "bundle_for_algebra", counting)
    tuples = 3
    gc.disable()  # a stencil bundle must go when its last reference does
    try:
        variation_battery(catalog("iwasawa"), seed=0, tuples=tuples)
    finally:
        gc.enable()
    assert stacks == [(), (4,)] * tuples
    for i, alive in enumerate(alive_at_build):
        # no stencil bundle outlives its tuple; a stencil bundle meets only its tuple's own
        assert not [j for j in alive if j % 2], (i, alive)
        if i % 2:
            assert alive == [i - 1], (i, alive)
    assert all(ref() is None for ref in built[1::2])


def test_stencil_stack_rule():
    # the stencil stacks what verify's chunk rule admits (163, 13, 1 metrics at
    # n = 3, 4, 5; tests/test_cli.py), at most its four points
    assert [variation.stencil_stack(n) for n in (3, 4, 5)] == [4, 4, 1]


def _edge_extracts(p, q):
    k = p + q
    complexes = (("del", (p, q)), ("dbar", (p, q)), ("d", k))
    return [methodcaller("star_block", p, q), methodcaller("trace_block", p, q),
            methodcaller("gram", p, q),
            *[methodcaller("codiff", w, key) for w, key in complexes],
            *[methodcaller("laplacian", w, key) for w, key in complexes],
            lambda bb: harmonic_projector(bb, "d", k)]


@pytest.mark.parametrize("stack", [1, 2, 4])
@pytest.mark.parametrize("name", ["kodaira_thurston", "iwasawa_x_t1"])
def test_stacked_stencil_gives_the_bits_of_per_point_bundles(monkeypatch, name, stack):
    # every bidegree with p or q at 0 or n, where a space or its neighbours are empty
    monkeypatch.setattr(variation, "stencil_stack", lambda n: stack)
    alg = algebra_for(_model(name))
    n = alg.n
    rng = np.random.default_rng(3)
    b = bundle_for_algebra(alg, random_metric(n, rng))
    gm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gamma = HermitianMetric(0.5 * (gm + gm.conj().T)).form()
    step = default_step(b.metric)
    edges = sorted({(p, q) for p in range(n + 1) for q in range(n + 1) if {p, q} & {0, n}})
    for p, q in edges:
        extracts = _edge_extracts(p, q)
        got = _fd_along(b, Direction("metric", gamma), step, extracts)
        for extract, value in zip(extracts, got):
            want = _loop_fd_row(b, gamma, step, extract)
            assert value.shape == want.shape and value.tobytes() == want.tobytes(), (p, q)


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
