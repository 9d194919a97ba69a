"""Metric layer: Hermitian matrices, the operator bundle, identity residuals."""

import itertools
import json

import numpy as np
import pytest

from hermicone.errors import DimensionMismatch, NotPositive, SchemaError
from hermicone.exterior import (ExteriorAlgebra, Form, _basis, neighbor, random_form, wedge,
                                wedge_power)
from hermicone.metric import (
    HermitianMetric,
    OperatorBundle,
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


# past the parser's nesting depth, or an integer past Python's digit limit
_NOT_JSON = ("{", "[" * 100000 + "]" * 100000, '[[{"re": ' + "1" * 5000 + ', "im": 0}]]')


@pytest.mark.parametrize("text", _NOT_JSON, ids=("truncated", "nested", "digits"))
def test_metric_from_json_refuses_text_json_cannot_read(text):
    with pytest.raises(SchemaError, match="^metric document is not valid JSON: "):
        HermitianMetric.from_json(text)


def test_metric_check_gates():
    bad_herm = np.eye(2) + 1e-6 * np.array([[0, 1], [0, 0]])
    # the gate scales with the largest entry, and a skew of 1e-6 fails it at any scale
    for scale in (1.0, 1e3):
        with pytest.raises(NotPositive):
            HermitianMetric(scale * bad_herm).check()
    not_pd = np.diag([1.0, -0.5])
    with pytest.raises(NotPositive):
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
    for h, error in ((np.diag([1.0, -1.0]), NotPositive),
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


@pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 3, 4, 5) for seed in (0, 1, 2)])
def test_gram_is_exactly_hermitian(n, seed):
    # spectral keeps each Gram matrix as it is for the projectors: symmetrizing it
    # again must be the identity on its bits
    alg = algebra_for(make_model(f"flat{n}", n))
    bundle = bundle_for_algebra(alg, random_metric(n, np.random.default_rng(seed)))
    grams = [bundle.gram(p, q) for p in range(n + 1) for q in range(n + 1)]
    grams += [bundle.gram_total(k) for k in range(2 * n + 1)]
    grams += [bundle.gram_inv(p, q) for p in range(n + 1) for q in range(n + 1)]
    for g in grams:
        assert np.array_equal(g, g.conj().T)
        assert not np.diag(g).imag.any()
        assert (0.5 * (g + g.conj().T)).tobytes() == g.tobytes()


# perfbench/models.py's synthetic families and its draw_coeffs and random_hermitian,
# copied: Iwasawa x T^1 and KT x T^2 at n = 4, Heisenberg and KT x T^3 at n = 5
SYNTHETIC_FAMILIES = {
    "iwasawa_x_t1": (4, 1, lambda c: [(3, "holo", 1, 2, -c[0])]),
    "kt_x_t2": (4, 1, lambda c: [(2, "mixed", 1, 1, c[0])]),
    "heisenberg5": (5, 2, lambda c: [(5, "holo", 1, 2, c[0]), (5, "holo", 3, 4, c[1])]),
    "kt_x_t3": (5, 1, lambda c: [(2, "mixed", 1, 1, c[0])]),
}
SYNTHETIC = [(name, seed) for name in SYNTHETIC_FAMILIES for seed in range(4)]


def synthetic_bundle(name, seed):
    """The benchmark's recipe: coefficients of magnitude in [0.5, 2] with a random
    sign, then H = B^H B + 0.5 I with B complex Gaussian, from one generator."""
    n, count, terms = SYNTHETIC_FAMILIES[name]
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0.5, 2.0, size=count)
    signs = rng.choice((-1.0, 1.0), size=count)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = b.conj().T @ b + 0.5 * np.eye(n)
    model = make_model(name, n, terms([float(m * s) for m, s in zip(mags, signs)]))
    return bundle_for_algebra(algebra_for(model), HermitianMetric(h))


GRAM_CASES = [("catalog", name, seed) for name in CATALOG_NAMES for seed in (None, 0, 1)] \
    + [("synthetic", name, seed) for name, seed in SYNTHETIC]


def _case_bundle(kind, name, seed):
    return seeded_bundle(name, seed) if kind == "catalog" else synthetic_bundle(name, seed)


@pytest.mark.parametrize("kind,name,seed", GRAM_CASES)
def test_gram_inv_inverts_gram_at_every_bidegree(kind, name, seed):
    # the closed form kron(C_p(H), C_q(H)^T) against the Gram: within a small
    # multiple of eps * cond(G) (measured <= 17 eps * cond(G) on these cases)
    b = _case_bundle(kind, name, seed)
    for p in range(b.n + 1):
        for q in range(b.n + 1):
            g, g_inv = b.gram(p, q), b.gram_inv(p, q)
            bound = 64 * np.finfo(float).eps * np.linalg.cond(g)
            for prod in (g_inv @ g, g @ g_inv):
                assert np.max(np.abs(prod - np.eye(len(g)))) <= bound, (p, q)


@pytest.mark.parametrize("kind,name,seed", GRAM_CASES)
def test_block_assembled_codiff_matches_the_dense_adjoint(kind, name, seed):
    # codiff("d", k) from the del^* and dbar^* blocks against G^-1 d^H G solved with
    # the total-degree Gram (measured <= 3.7e-13 relative on these cases)
    b = _case_bundle(kind, name, seed)
    for k in range(1, 2 * b.n + 1):
        dense = np.linalg.solve(b.gram_total(k - 1),
                                b.alg.d_total(k - 1).conj().T @ b.gram_total(k))
        scale = np.max(np.abs(dense), initial=0.0)
        assert np.max(np.abs(b.codiff("d", k) - dense), initial=0.0) <= 1e-12 * scale, k


def test_codiff_holds_the_adjoint_of_every_block_of_d():
    # an antiholomorphic term below VALIDATION_TOL stays in d, so d^* carries its
    # adjoint too: each block against a solve with its own Grams, which is accurate
    # relative to the block whatever its size (measured <= 2.7e-15 here)
    model = make_model("iwasawa_anti", 3, [(3, "holo", 1, 2, -1.0), (3, "anti", 1, 2, 1e-13)])
    b = bundle_for_algebra(algebra_for(model), random_metric(3, np.random.default_rng(4)))
    anti = 0
    for k in range(1, 7):
        dstar, rows, cols = b.codiff("d", k), b.alg.slices(k - 1), b.alg.slices(k)
        for pq, col in cols.items():
            for src, row in rows.items():
                blk = b.alg.d_blocks(*src).get(pq)
                got = dstar[row, col]
                if blk is None:
                    assert not got.any(), (k, src, pq)
                    continue
                want = np.linalg.solve(b.gram(*src), blk.conj().T @ b.gram(*pq))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (src, pq)
                anti += src not in ((pq[0] - 1, pq[1]), (pq[0], pq[1] - 1))
    assert anti > 0


@pytest.mark.parametrize("name,seed", SYNTHETIC)
def test_identity_suite_on_synthetic_bundles(name, seed):
    res = identity_suite(synthetic_bundle(name, seed))
    assert max(res.values()) <= IDENTITY_TOL, res


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


def test_a_checked_metric_keeps_its_smallest_eigenvalue(monkeypatch):
    # check() keeps the smallest eigenvalue it computes: min_eigenvalue then decomposes
    # nothing and returns the bits of an unchecked copy, which computes it
    rng = np.random.default_rng(5)
    hs = [random_metric(n, rng).h for n in (1, 2, 3, 4)]
    hs.append(hs[-1] + np.diag(np.full(3, 1e-14), 1))  # a skew under the Hermiticity gate
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    for h in hs:
        want = HermitianMetric(h).min_eigenvalue()
        assert len(calls) == 1
        checked = HermitianMetric(h).check()
        calls.clear()
        assert checked.min_eigenvalue().hex() == want.hex()
        assert calls == []
    stack = HermitianMetric(np.stack(hs[3:])).check()
    calls.clear()
    assert [lam.hex() for lam in stack.min_eigenvalue()] == \
        [HermitianMetric(h).min_eigenvalue().hex() for h in hs[3:]]
    assert len(calls) == 2


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
    assert complex(b.alg.integrate(b.omega_power(b.n))).real == pytest.approx(det, rel=1e-12)


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
    rhs = complex(b.alg.integrate(wedge(u, b.star(v).conj())))
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

    def codiff_of(which):  # del^* or dbar^* of v, block by block
        return b.alg.apply(lambda p, q: {neighbor(which, (p, q), -1): b.codiff(which, (p, q))}, v)

    split = codiff_of("del") + codiff_of("dbar")
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


@pytest.mark.parametrize("name", CATALOG_NAMES + ("iwasawa_x_t1",))
def test_spectral_is_g_orthonormal_on_every_space(name):
    model = make_model(name, 4, [(3, "holo", 1, 2, -1.25)]) if name == "iwasawa_x_t1" \
        else catalog(name)
    n = model.n
    b = bundle_for_algebra(algebra_for(model), random_metric(n, np.random.default_rng(21)))
    keys = [("d", k) for k in range(2 * n + 1)] + [
        (which, (p, q)) for which in ("del", "dbar")
        for p in range(n + 1) for q in range(n + 1)]
    for which, key in keys:
        spec, lap = b.spectral(which, key), b.laplacian(which, key)
        v, lam = spec.vectors, spec.eigenvalues
        assert np.max(np.abs(v.conj().T @ spec.gram @ v - np.eye(len(lam)))) <= 1e-12
        # relative to the Laplacian's and the eigenvectors' largest entries
        scale = np.max(np.abs(lap)) * np.max(np.abs(v))
        assert np.max(np.abs(lap @ v - v * lam)) <= 1e-12 * scale, (which, key)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_identity_suite_all_families(name, seed):
    b = seeded_bundle(name, seed=seed)
    res = identity_suite(b)
    assert len(res) == 12
    worst = max(res.values())
    assert worst <= IDENTITY_TOL, res


def _dense_codiff_rows(b):
    """identity_suite's dstar_formula and adjoint_pairing on the dense total-degree
    matrices: the assembled codiff("d", k) against -star d star and the L2 pairing."""
    alg, n, dstar, pairing = b.alg, b.n, 0.0, 0.0
    for k in range(1, 2 * n + 1):
        codiff = b.codiff("d", k)
        rhs = -b.star_total(2 * n - k + 1) @ alg.d_total(2 * n - k) @ b.star_total(k)
        dstar = max(dstar, np.max(np.abs(codiff - rhs)))
        pair = b.gram_total(k) @ alg.d_total(k - 1) - codiff.conj().T @ b.gram_total(k - 1)
        pairing = max(pairing, np.max(np.abs(pair)) * b.det_h)
    return dstar, pairing


def _anti_bundle(seed):
    """Iwasawa with an antiholomorphic term below VALIDATION_TOL, at a seeded metric."""
    model = make_model("iwasawa_anti", 3, [(3, "holo", 1, 2, -1.0), (3, "anti", 1, 2, 1e-13)])
    return bundle_for_algebra(algebra_for(model), random_metric(3, np.random.default_rng(seed)))


DENSE_CASES = [("catalog", name, seed) for name in CATALOG_NAMES for seed in (0, 1)] \
    + [("synthetic", "iwasawa_x_t1", seed) for seed in (0, 1)] + [("anti", None, 4)]


@pytest.mark.parametrize("kind,name,seed", DENSE_CASES)
def test_dense_total_degree_codiff_rows(kind, name, seed):
    # the block-assembled codiff("d") audited on the dense total-degree products that
    # identity_suite leaves out; its block rows read the same residuals (measured
    # <= 8.7e-21 apart on these cases)
    b = _anti_bundle(seed) if kind == "anti" else _case_bundle(kind, name, seed)
    dstar, pairing = _dense_codiff_rows(b)
    assert dstar <= IDENTITY_TOL and pairing <= IDENTITY_TOL, (dstar, pairing)
    res = identity_suite(b)
    assert abs(res["dstar_formula"] - dstar) <= 1e-14, (res["dstar_formula"], dstar)
    assert abs(res["adjoint_pairing"] - pairing) <= 1e-14, (res["adjoint_pairing"], pairing)


def test_dstar_formula_covers_the_antiholomorphic_blocks():
    # an antiholomorphic term below VALIDATION_TOL keeps its block of d, so codiff("d")
    # carries its adjoint: a wrong adjoint there shows in dstar_formula and
    # adjoint_pairing alone, as no del or dbar block changes
    b = _anti_bundle(4)
    assert max(identity_suite(b).values()) <= IDENTITY_TOL
    blocks = b._codiff_blocks

    def off_by_one(p, q):
        return {src: cod if src in ((p - 1, q), (p, q - 1)) else cod + 1.0
                for src, cod in blocks(p, q).items()}

    b._codiff_blocks = off_by_one
    res = identity_suite(b)
    assert res["dstar_formula"] >= 0.5 and res["adjoint_pairing"] >= 0.5, res
    assert res["delstar_formula"] <= IDENTITY_TOL and res["dbarstar_formula"] <= IDENTITY_TOL


@pytest.mark.parametrize("kind,name,seed", [("catalog", "iwasawa", 1),
                                            ("synthetic", "iwasawa_x_t1", 0)])
def test_identity_suite_forms_no_total_degree_matrix(monkeypatch, kind, name, seed):
    b = _case_bundle(kind, name, seed)

    def refuse(*args):
        raise AssertionError("a total-degree matrix was formed")

    codiff = OperatorBundle.codiff
    monkeypatch.setattr(OperatorBundle, "star_total", refuse)
    monkeypatch.setattr(OperatorBundle, "gram_total", refuse)
    monkeypatch.setattr(ExteriorAlgebra, "d_total", refuse)
    monkeypatch.setattr(OperatorBundle, "codiff", lambda self, which, key: refuse() if
                        which == "d" else codiff(self, which, key))
    res = identity_suite(b)
    assert len(res) == 12 and max(res.values()) <= IDENTITY_TOL, res
