"""One code path for three complexes: the generic operators against their
written-out per-complex formulas, bit for bit."""

import numpy as np
import pytest

from hermicone import hodge
from hermicone.exterior import ExteriorAlgebra, dim_pq, neighbor
from hermicone.hodge import (coimage_projector, green_operator, harmonic_projector,
                             image_projector, potential)
from hermicone.metric import HermitianMetric, _adjoint, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, make_model


def _component(alg, pq, tgt):
    """The block of d from pq to tgt, zero where d has none."""
    mat = alg.d_blocks(*pq).get(tgt)
    if mat is None:
        return np.zeros((dim_pq(alg.n, *tgt), dim_pq(alg.n, *pq)), dtype=complex)
    return mat


# (differential, Gram matrix, s-step neighbor) written out per complex
WRITTEN = {
    "d": (lambda alg, k: alg.d_total(k),
          lambda b, k: b.gram_total(k),
          lambda k, s: k + s),
    "del": (lambda alg, pq: _component(alg, pq, (pq[0] + 1, pq[1])),
            lambda b, pq: b.gram(*pq),
            lambda pq, s: (pq[0] + s, pq[1])),
    "dbar": (lambda alg, pq: _component(alg, pq, (pq[0], pq[1] + 1)),
             lambda b, pq: b.gram(*pq),
             lambda pq, s: (pq[0], pq[1] + s)),
}


def _model(name):
    if name == "iwasawa_x_t1":
        return make_model(name, 4, [(3, "holo", 1, 2, -1.25)])
    return catalog(name)


@pytest.fixture(scope="module", params=[
    ("kodaira_thurston", None), ("kodaira_thurston", 1),
    ("iwasawa", None), ("iwasawa", 2),
    ("iwasawa_x_t1", 3),
])
def bundle(request):
    name, seed = request.param
    alg = algebra_for(_model(name))
    metric = HermitianMetric.identity(alg.n) if seed is None \
        else random_metric(alg.n, np.random.default_rng(seed))
    return bundle_for_algebra(alg, metric)


def _keys(which, n):
    if which == "d":
        return list(range(2 * n + 1))
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def _in_range(which, key, n):
    if which == "d":
        return 0 <= key <= 2 * n
    return all(0 <= x <= n for x in key)


def _written_codiff(b, which, key):
    diff, gram, step = WRITTEN[which]
    prev = step(key, -1)
    if not _in_range(which, prev, b.n):
        return np.zeros((0, gram(b, key).shape[0]), dtype=complex)
    return _adjoint(diff(b.alg, prev), gram(b, prev), gram(b, key))


def _cases(b):
    return [(which, key) for which in WRITTEN for key in _keys(which, b.n)]


def test_neighbor_steps_each_complex():
    assert neighbor("d", 3, -1) == 2
    assert neighbor("del", (1, 2), 1) == (2, 2)
    assert neighbor("dbar", (1, 2), -1) == (1, 1)
    with pytest.raises(ValueError):
        neighbor("dd", 1, 1)


def test_dim_is_zero_outside_the_complex(bundle):
    n = bundle.n
    assert bundle.dim("d", -1) == bundle.dim("d", 2 * n + 1) == 0
    assert bundle.dim("del", (n + 1, 0)) == bundle.dim("dbar", (0, -1)) == 0
    assert bundle.dim("d", n) == bundle.alg.dim_total(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dim_total_sums_the_bidegrees(n):
    alg = ExteriorAlgebra(n, [])
    for k in range(2 * n + 1):
        assert alg.dim_total(k) == sum(dim_pq(n, p, q) for p, q in alg.bidegrees(k))


def test_diff_is_the_written_differential(bundle):
    for which, key in _cases(bundle):
        got, want = bundle.alg.diff(which, key), WRITTEN[which][0](bundle.alg, key)
        assert got.shape == want.shape and np.array_equal(got, want), (which, key)


def test_codiff_matches_written_adjoint(bundle):
    for which, key in _cases(bundle):
        got, want = bundle.codiff(which, key), _written_codiff(bundle, which, key)
        assert got.shape == want.shape and np.array_equal(got, want), (which, key)


def test_laplacian_matches_written_formula(bundle):
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        prev, nxt = step(key, -1), step(key, 1)
        want = np.zeros((gram(bundle, key).shape[0],) * 2, dtype=complex)
        if _in_range(which, prev, bundle.n):
            want = want + diff(bundle.alg, prev) @ _written_codiff(bundle, which, key)
        if _in_range(which, nxt, bundle.n):
            want = want + _written_codiff(bundle, which, nxt) @ diff(bundle.alg, key)
        assert np.array_equal(bundle.laplacian(which, key), want), (which, key)


def test_projectors_match_written_formulas(bundle):
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        prev, nxt = step(key, -1), step(key, 1)
        zero = np.zeros((gram(bundle, key).shape[0],) * 2, dtype=complex)
        want_im = diff(bundle.alg, prev) @ green_operator(bundle, which, prev) \
            @ _written_codiff(bundle, which, key) if _in_range(which, prev, bundle.n) else zero
        want_coim = _written_codiff(bundle, which, nxt) @ green_operator(bundle, which, nxt) \
            @ diff(bundle.alg, key) if _in_range(which, nxt, bundle.n) else zero
        assert np.array_equal(image_projector(bundle, which, key), want_im), (which, key)
        assert np.array_equal(coimage_projector(bundle, which, key), want_coim), (which, key)


def test_potential_matches_written_formula(bundle):
    rng = np.random.default_rng(11)
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        prev = step(key, -1)
        if not _in_range(which, prev, bundle.n):
            continue
        g = gram(bundle, key)
        src = rng.standard_normal(g.shape[0]) + 1j * rng.standard_normal(g.shape[0])
        sol = potential(bundle, which, key, src)
        proj = image_projector(bundle, which, key) @ src
        pot = green_operator(bundle, which, prev) @ (_written_codiff(bundle, which, key) @ proj)
        eq = diff(bundle.alg, prev) @ pot - proj
        ker = (harmonic_projector(bundle, which, prev) + image_projector(bundle, which, prev)) \
            @ pot
        l2 = [float(np.sqrt(max((v.conj() @ (gm @ v)).real * bundle.det_h, 0.0)))
              for v, gm in ((eq, g), (ker, gram(bundle, prev)))]
        assert np.array_equal(sol.projected_source, proj)
        assert np.array_equal(sol.harmonic_component,
                              harmonic_projector(bundle, which, key) @ src)
        assert np.array_equal(sol.potential, pot)
        assert [sol.residual_equation, sol.residual_kernel] == l2


def test_per_complex_names_are_the_generic_operators(bundle):
    # kept as aliases because the benchmark's tracer wraps them by name
    b, n = bundle, bundle.n
    assert b.d_star_total(2) is b.codiff("d", 2)
    assert b.del_star_block(1, 1) is b.codiff("del", (1, 1))
    assert b.dbar_star_block(n, 1) is b.codiff("dbar", (n, 1))
    assert np.array_equal(hodge.image_projector_d(b, 2), image_projector(b, "d", 2))
    assert np.array_equal(hodge.image_projector_d_star(b, 2), coimage_projector(b, "d", 2))
    assert np.array_equal(hodge.image_projector_dbar(b, 1, 1),
                          image_projector(b, "dbar", (1, 1)))
    assert np.array_equal(hodge.image_projector_dbar_star(b, 1, 0),
                          coimage_projector(b, "dbar", (1, 0)))
    src = np.arange(b.alg.dim_total(2), dtype=complex)
    assert np.array_equal(hodge.d_potential(b, src, 2).potential,
                          potential(b, "d", 2, src).potential)
    src = np.arange(b.dim("dbar", (1, 1)), dtype=complex)
    assert np.array_equal(hodge.dbar_potential(b, src, (1, 1)).potential,
                          potential(b, "dbar", (1, 1), src).potential)
