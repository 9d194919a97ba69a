"""Metric layer: Hermitian matrices, the operator bundle, identity residuals."""

import itertools
import json

import numpy as np
import pytest

from hermicone.errors import DimensionMismatch, NotPositiveDefinite, SchemaError
from hermicone.exterior import Form, _basis, random_form, wedge, wedge_power
from hermicone.metric import (
    HermitianMetric,
    bundle_for_algebra,
    identity_suite,
    random_metric,
)
from hermicone.model import algebra_for, catalog, make_model

from .conftest import CATALOG_NAMES, seeded_bundle

IDENTITY_TOL = 1e-10


def test_metric_constructor_and_accessors():
    m = HermitianMetric.identity(3)
    assert m.n == 3
    assert m.min_eigenvalue() == pytest.approx(1.0)
    assert np.allclose(m.scaled(2.0).h, 2.0 * np.eye(3))
    with pytest.raises(DimensionMismatch):
        HermitianMetric(np.ones((2, 3)))


def test_metric_matrix_is_readonly():
    m = HermitianMetric.identity(2)
    with pytest.raises(ValueError):
        m.h[0, 0] = 5.0


def test_metric_json_roundtrip():
    rng = np.random.default_rng(0)
    m = random_metric(3, rng)
    text = json.dumps(m.to_json_obj())
    back = HermitianMetric.from_json(text)
    assert np.max(np.abs(back.h - m.h)) <= 1e-15


@pytest.mark.parametrize("doc", [
    "[]",
    "[[1, 2], [3, 4]]",
    '[[{"re": 1.0}]]',
    '[[{"re": 1, "im": 0}], [{"re": 1, "im": 0}, {"re": 1, "im": 0}]]',
    '{"h": 1}',
])
def test_metric_from_json_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        HermitianMetric.from_json(doc)


def test_metric_check_gates():
    bad_herm = np.eye(2) + 1e-6 * np.array([[0, 1], [0, 0]])
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric(bad_herm).check()
    not_pd = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric(not_pd).check()
    HermitianMetric.identity(4).check()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", '"1"'])
def test_metric_from_json_rejects_non_numbers(bad):
    doc = f'[[{{"re": {bad}, "im": 0}}, {{"re": 0, "im": 0}}], ' \
          '[{"re": 0, "im": 0}, {"re": 1, "im": 0}]]'
    with pytest.raises(SchemaError):
        HermitianMetric.from_json(doc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metric_check_rejects_overflow():
    # 0.5 * (H + H^H) overflows, so the eigenvalues are not finite
    with pytest.raises(SchemaError):
        HermitianMetric(np.diag([1e308, 1.0])).check()
    with pytest.raises(SchemaError):
        HermitianMetric(np.diag([np.nan, 1.0])).check()


def test_failing_metric_check_raises_on_every_call():
    for h, error in ((np.diag([1.0, -1.0]), NotPositiveDefinite),
                     (np.diag([1e308, 1.0]), SchemaError)):
        metric = HermitianMetric(h)
        for _ in range(3):
            with pytest.raises(error):
                metric.check()


def test_passing_metric_check_runs_eigvalsh_once(monkeypatch):
    calls = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        calls.append(a)
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    metric = random_metric(3, np.random.default_rng(5))
    for _ in range(3):
        assert metric.check() is metric
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_equals_per_minor_definition(n):
    rng = np.random.default_rng(100 + n)
    alg = algebra_for(make_model(f"flat{n}", n))
    for _ in range(2):
        metric = random_metric(n, rng)
        bundle = bundle_for_algebra(alg, metric)
        h_inv = np.linalg.inv(metric.h)
        for p in range(n + 1):
            for q in range(n + 1):
                combos_p = list(itertools.combinations(range(n), p))
                combos_q = list(itertools.combinations(range(n), q))
                # <theta_I^thetabar_J, theta_K^thetabar_L> = det Hinv[I,K] * det Hinv[L,J]
                a = np.array([[np.linalg.det(h_inv[np.ix_(I, K)]) for K in combos_p]
                              for I in combos_p])
                b = np.array([[np.linalg.det(h_inv[np.ix_(L, J)]) for L in combos_q]
                              for J in combos_q])
                g = np.kron(a, b)
                assert np.array_equal(bundle.gram(p, q), 0.5 * (g + g.conj().T)), (p, q)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_star_equals_wedge_pairing_definition(name):
    # <u, conj(w)> det(H) = integral of u ^ star(w), solved against wedge pairings
    bundle = seeded_bundle(name, seed=3)
    alg, n = bundle.alg, bundle.n
    for a in range(n + 1):
        for b in range(n + 1):
            test_basis = _basis(n, b, a)
            pair = np.array([[alg.integrate(wedge(Form.monomial(n, I, J), Form.monomial(n, K, L)))
                              for (K, L) in _basis(n, n - b, n - a)] for (I, J) in test_basis])
            g = bundle.gram(b, a)
            rhs = np.array([(-1) ** (a * b) * g[test_basis.index((J, I)), :]
                            for (I, J) in _basis(n, a, b)]).T
            want = np.linalg.solve(pair, bundle.det_h * rhs)
            assert np.array_equal(bundle.star_block(a, b), want), (a, b)


def test_random_metric_positive_definite():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_metric(3, rng)
        assert m.min_eigenvalue() > 0
        assert np.max(np.abs(m.h - m.h.conj().T)) <= 1e-14


def test_metric_form_roundtrip():
    rng = np.random.default_rng(3)
    m = random_metric(2, rng)
    form = m.form()
    assert form.bidegrees() == [(1, 1)]
    assert form.is_real(1e-13)
    back = HermitianMetric.from_form(form)
    assert np.max(np.abs(back.h - m.h)) <= 1e-14


def test_bundle_rejects_dimension_mismatch():
    alg = algebra_for(catalog("iwasawa"))
    with pytest.raises(DimensionMismatch):
        bundle_for_algebra(alg, HermitianMetric.identity(2))


def test_omega_is_real_and_positive():
    b = seeded_bundle("iwasawa", seed=5)
    assert b.omega.is_real(1e-13)
    # norm of omega squared equals n under the induced inner product
    val = b.inner(b.omega, b.omega)
    assert val.imag == pytest.approx(0.0, abs=1e-13)
    assert val.real > 0


def test_volume_form_normalization():
    # total mass is det(H) for the flat model
    b = seeded_bundle("torus2", seed=7)
    det = np.linalg.det(b.metric.h).real
    assert complex(b.integrate(b.omega_power(b.n))).real == pytest.approx(det, rel=1e-12)


def test_omega_power_has_the_bits_of_wedge_power():
    b = seeded_bundle("iwasawa", seed=7)
    for k in (3, 0, 2, 1):  # out of order: later powers reuse the cached products
        got, want = b.omega_power(k), wedge_power(b.omega, k)
        assert [(pq, got.part(pq).tobytes()) for pq in got.bidegrees()] \
            == [(pq, want.part(pq).tobytes()) for pq in want.bidegrees()]


def test_l2_inner_hermitian_and_positive():
    b = seeded_bundle("kodaira_thurston", seed=9)
    rng = np.random.default_rng(9)
    u = random_form(b.n, [(1, 1)], rng)
    v = random_form(b.n, [(1, 1)], rng)
    assert b.l2_inner(u, v) == pytest.approx(np.conj(b.l2_inner(v, u)))
    assert b.l2_norm(u) > 0
    # blocks of different bidegree are orthogonal
    assert b.inner(u, random_form(b.n, [(1, 0)], rng)) == 0
    with pytest.raises(DimensionMismatch):
        b.inner(u, random_form(b.n + 1, [(1, 1)], rng))


def test_star_maps_between_complementary_blocks():
    b = seeded_bundle("iwasawa", seed=1)
    rng = np.random.default_rng(1)
    u = random_form(b.n, [(2, 1)], rng)
    su = b.star(u)
    assert su.bidegrees() == [(2, 1)]  # (n - q, n - p) = (2, 1) for n = 3
    u2 = random_form(b.n, [(1, 0)], rng)
    assert b.star(u2).bidegrees() == [(3, 2)]


def test_star_encodes_l2_pairing():
    # <u, v> vol = u ^ star(conj v)
    b = seeded_bundle("iwasawa", seed=2)
    rng = np.random.default_rng(2)
    from hermicone.exterior import wedge

    u = random_form(b.n, [(2, 1)], rng)
    v = random_form(b.n, [(2, 1)], rng)
    lhs = b.l2_inner(u, v)
    rhs = complex(b.integrate(wedge(u, b.star(v).conj())))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_d_star_is_l2_adjoint_of_d():
    b = seeded_bundle("iwasawa", seed=4)
    rng = np.random.default_rng(4)
    u = random_form(b.n, [(1, 0), (0, 1)], rng)
    v = random_form(b.n, [(2, 0), (1, 1), (0, 2)], rng)
    lhs = b.l2_inner(b.alg.d_form(u), v)
    rhs = b.l2_inner(u, b.d_star(v))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_del_dbar_adjoints_split_d_star():
    b = seeded_bundle("kodaira_thurston", seed=6)
    rng = np.random.default_rng(6)
    v = random_form(b.n, [(1, 1)], rng)
    total = b.d_star(v)
    split = b.del_star(v) + b.dbar_star(v)
    assert (total - split).max_abs() <= 1e-13


@pytest.mark.parametrize("which", ["d", "del", "dbar"])
def test_laplacian_selfadjoint_and_psd(which):
    b = seeded_bundle("iwasawa", seed=8)
    key = 2 if which == "d" else (1, 1)
    lap = b.laplacian(which, key)
    g = b.gram_for(which, key)
    sym = g @ lap
    assert np.max(np.abs(sym - sym.conj().T)) <= 1e-10
    w = np.linalg.eigvalsh((sym + sym.conj().T) / 2)
    assert w.min() >= -1e-10


@pytest.mark.parametrize("which", ["d", "del", "dbar"])
def test_spectral_diagonalizes_laplacian(which):
    b = seeded_bundle("kodaira_thurston", seed=10)
    key = 2 if which == "d" else (1, 1)
    spec = b.spectral(which, key)
    lap = b.laplacian(which, key)
    v, lam = spec.vectors, spec.eigenvalues
    assert np.all(lam >= -1e-10)
    assert np.all(np.diff(lam) >= -1e-12)
    resid = lap @ v - v * lam
    assert np.max(np.abs(resid)) <= 1e-9
    gram_orth = v.conj().T @ spec.gram @ v
    assert np.max(np.abs(gram_orth - np.eye(v.shape[1]))) <= 1e-9


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_identity_suite_all_families(name, seed):
    b = seeded_bundle(name, seed=seed)
    res = identity_suite(b)
    assert len(res) == 12
    worst = max(res.values())
    assert worst <= IDENTITY_TOL, res
