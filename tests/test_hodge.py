"""Hodge decompositions, predicates, torsion potentials and the (n-1)-root."""

import re

import numpy as np
import pytest

from hermicone.errors import (
    NotBalanced,
    NotPositive,
    NotSKT,
)
from hermicone import hodge
from hermicone.exterior import ExteriorAlgebra, Form, neighbor, random_form, wedge, wedge_power
from hermicone.hodge import (
    coimage_projector,
    green_operator,
    harmonic_projector,
    image_projector,
    matrix_of_top_minus_one,
    potential,
    predicates,
    root_n_minus_1,
    three_space_residuals,
    torsion,
    torsion_gamma,
    torsion_rho,
)
from hermicone.metric import (DEFAULT_TOL, HermitianMetric, OperatorBundle, bundle_for_algebra,
                              random_metric)
from hermicone.model import algebra_for, catalog, make_model
from hermicone.optimizer import descend

from .conftest import CATALOG_NAMES, kept_keys, seeded_bundle
from .oracles import oracle_gamma, oracle_rho
from .test_metric import SYNTHETIC, synthetic_bundle


@pytest.mark.parametrize("which,key", [("d", 2), ("del", (1, 1)), ("dbar", (2, 1))])
def test_harmonic_projector_properties(which, key):
    b = seeded_bundle("iwasawa", seed=3)
    p = harmonic_projector(b, which, key)
    g = b.gram_for(which, key)
    lap = b.laplacian(which, key)
    assert np.max(np.abs(p @ p - p)) <= 1e-11
    assert np.max(np.abs(g @ p - p.conj().T @ g)) <= 1e-11
    assert np.max(np.abs(lap @ p)) <= 1e-9
    assert np.max(np.abs(p @ lap)) <= 1e-9


def test_green_inverts_off_kernel():
    b = seeded_bundle("kodaira_thurston", seed=5)
    k = 2
    green = green_operator(b, "d", k)
    p = harmonic_projector(b, "d", k)
    lap = b.laplacian("d", k)
    eye = np.eye(lap.shape[0])
    assert np.max(np.abs(lap @ green - (eye - p))) <= 1e-9
    assert np.max(np.abs(green @ p)) <= 1e-10


THREE_SPACE_ROWS = {"image_on_basis", "image_orthogonal", "kernel_on_basis",
                    "kernel_orthogonal", "harmonic_on_image", "image_of_d", "kernel_of_codiff"}


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_three_space_decomposition(name, k):
    b = seeded_bundle(name, seed=1)
    res = three_space_residuals(b, k)
    assert set(res) == THREE_SPACE_ROWS
    assert max(res.values()) <= 1e-10, res


def _walk_rows(b, k):
    """The dense N x N walk verify once ran: harmonic + image + coimage = I, their
    pairwise products 0, each idempotent and G-self-adjoint."""
    projs = {"h": harmonic_projector(b, "d", k), "imd": image_projector(b, "d", k),
             "imdstar": coimage_projector(b, "d", k)}
    g = b.gram_total(k)
    rows = {"sum_identity": sum(projs.values()) - np.eye(len(g))}
    for a, c in (("h", "imd"), ("h", "imdstar"), ("imd", "imdstar")):
        rows[f"{a}_{c}"] = projs[a] @ projs[c]
    for name, p in projs.items():
        rows[f"idem_{name}"] = p @ p - p
        rows[f"selfadj_{name}"] = g @ p - p.conj().T @ g
    return {name: float(np.max(np.abs(x))) for name, x in rows.items()}


def _iwasawa_x_t1():
    return make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)])


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "iwasawa_x_t1"])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_the_three_spaces_sum_to_the_identity_and_are_orthogonal(name, seed):
    model = _iwasawa_x_t1() if name == "iwasawa_x_t1" else catalog(name)
    metric = HermitianMetric.identity(model.n) if seed is None else \
        random_metric(model.n, np.random.default_rng(seed))
    b = bundle_for_algebra(algebra_for(model), metric)
    for k in range(2 * b.n + 1):
        res = _walk_rows(b, k)
        assert max(res.values()) <= 1e-10, (k, res)


def _dense_three_space_rows(b, k):
    """The seven rows of three_space_residuals on the dense projectors of the kept
    decomposition(b, "d", k), the total-degree Gram and the assembled codiff("d")."""
    dec, alg = hodge.decomposition(b, "d", k), b.alg
    image, kernel = alg.bases("d", k - 1)[0], alg.bases("d", k)[1]
    qc, kc, w, down, w_next = hodge._probes(alg, k)
    g = b.gram_total(k)
    gq_h = (g @ image).conj().T
    up = b.codiff("d", k + 1) @ w_next if k < 2 * b.n else w[:, :0]
    rows = {
        "image_on_basis": dec.image @ image - image,
        "image_orthogonal": gq_h - gq_h @ dec.image,
        "kernel_on_basis": dec.kernel @ kc - kc,
        "kernel_orthogonal": kernel.conj().T @ (g @ (w - dec.kernel @ w)),
        "harmonic_on_image": dec.harmonic @ qc,
        "image_of_d": dec.image @ down - down,
        "kernel_of_codiff": dec.kernel @ up,
    }
    return {name: float(np.max(np.abs(x), initial=0.0)) for name, x in rows.items()}


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "iwasawa_x_t1"])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_factored_three_space_rows_match_the_dense_ones(name, seed):
    # the walk applies each projector's factors to its columns; the dense projectors
    # the job path reads give the same rows
    model = _iwasawa_x_t1() if name == "iwasawa_x_t1" else catalog(name)
    metric = HermitianMetric.identity(model.n) if seed is None else \
        random_metric(model.n, np.random.default_rng(seed))
    b = bundle_for_algebra(algebra_for(model), metric)
    for k in range(2 * b.n + 1):
        got, want = three_space_residuals(b, k), _dense_three_space_rows(b, k)
        assert set(got) == set(want) == THREE_SPACE_ROWS
        assert max(abs(got[row] - want[row]) for row in got) <= 1e-12, (k, got, want)


@pytest.mark.parametrize("name,seed", SYNTHETIC)
def test_three_space_rows_hold_on_the_synthetic_bundles(name, seed):
    # the benchmark's n = 4, 5 models at their random metrics: every row of every
    # degree, and the algebra's metric-free rows (measured <= 2.4e-12 on the
    # benchmark's pools)
    b = synthetic_bundle(name, seed)
    for k in range(2 * b.n + 1):
        res = three_space_residuals(b, k)
        assert max(res.values()) <= 1e-11, (k, res)
    assert max(hodge.basis_residuals(b.alg).values()) <= 1e-11


# the basis projectors against the eigen forms they replaced: the harmonic projector
# v v^H G over the kernel eigenvectors of the spectral diagnostic, the Green operator
# v Lambda^-1 v^H G over the others, and the codifferential-Green projectors
# diff(prev) green(prev) codiff(key) and codiff(nxt) green(nxt) diff(key)
CROSS_CHECK_TOL = 1e-11


def _eigen_forms(b, which, key):
    spec = b.spectral(which, key)
    eigs, v, g = spec.eigenvalues, spec.vectors, spec.gram
    m = np.arange(eigs.size) < b.alg.harmonic_dim(which, key)
    return v[:, m] @ (v[:, m].conj().T @ g), (v[:, ~m] / eigs[~m]) @ (v[:, ~m].conj().T @ g)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "iwasawa_x_t1"])
@pytest.mark.parametrize("seed", [1, 2])
def test_basis_projectors_match_the_eigen_forms(name, seed):
    model = _iwasawa_x_t1() if name == "iwasawa_x_t1" else catalog(name)
    b = bundle_for_algebra(algebra_for(model), random_metric(model.n,
                                                             np.random.default_rng(seed)))
    n, worst = b.n, 0.0
    spaces = [("d", k) for k in range(2 * n + 1)] + \
        [("dbar", (p, q)) for p in range(n + 1) for q in range(n + 1)]
    green = {space: _eigen_forms(b, *space)[1] for space in spaces}
    for which, key in spaces:
        prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
        size = b.alg.dim(which, key)
        image = b.alg.diff(which, prev) @ green[which, prev] @ b.codiff(which, key) \
            if b.alg.dim(which, prev) else np.zeros((size, size))
        coimage = b.codiff(which, nxt) @ green[which, nxt] @ b.alg.diff(which, key) \
            if b.alg.dim(which, nxt) else np.zeros((size, size))
        pairs = [(harmonic_projector(b, which, key), _eigen_forms(b, which, key)[0]),
                 (green_operator(b, which, key), green[which, key]),
                 (image_projector(b, which, key), image),
                 (coimage_projector(b, which, key), coimage)]
        for got, want in pairs:
            err = np.max(np.abs(got - want), initial=0.0) / max(1.0, np.max(np.abs(want),
                                                                              initial=0.0))
            worst = max(worst, err)
    assert worst <= CROSS_CHECK_TOL


def test_first_betti_numbers_of_invariant_complex():
    assert seeded_bundle("torus2").alg.harmonic_dim("d", 1) == 4
    assert seeded_bundle("kodaira_thurston").alg.harmonic_dim("d", 1) == 3
    assert seeded_bundle("iwasawa").alg.harmonic_dim("d", 1) == 4


def test_predicates_on_catalog():
    flat = predicates(seeded_bundle("torus3"))
    assert flat.is_kahler and flat.is_skt and flat.is_balanced
    kt = predicates(seeded_bundle("kodaira_thurston", seed=2))
    assert kt.is_skt and not kt.is_kahler and not kt.is_balanced
    iw = predicates(seeded_bundle("iwasawa", seed=2))
    assert iw.is_balanced and not iw.is_kahler and not iw.is_skt


def test_predicate_residuals_consistent():
    pred = predicates(seeded_bundle("kodaira_thurston", seed=4))
    assert pred.ddbar_omega_residual <= pred.tol
    assert pred.d_omega_residual > pred.tol
    assert pred.d_omega_power_residual > pred.tol


# the paper's pairing: SKT metrics with rho, balanced metrics with Gamma
CONE_TORSIONS = {"skt": ("rho", "is_skt", NotSKT),
                 "balanced": ("gamma", "is_balanced", NotBalanced)}


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("kind", sorted(hodge.CONES))
def test_each_cone_gives_its_predicate_and_its_torsion_refusal(kind, name):
    # the residual a cone's flag reads is its constraint on its datum of omega, and its
    # torsion is refused with its error exactly where the flag is off: Iwasawa is off
    # the SKT cone, Kodaira-Thurston off the balanced one (test_predicates_on_catalog)
    cone, b = hodge.CONES[kind], seeded_bundle(name, seed=2)
    assert (cone.torsion, cone.flag, cone.error) == CONE_TORSIONS[kind]
    assert hodge.TORSIONS[cone.torsion] is cone
    pred = predicates(b)
    residual = getattr(pred, cone.residual)
    assert residual == cone.constraint(b.alg, cone.datum(b.omega)).max_abs()
    assert getattr(pred, cone.flag) == (residual <= pred.tol)
    if getattr(pred, cone.flag):
        assert torsion(b, cone.torsion).kind == cone.torsion
    else:
        with pytest.raises(cone.error, match=re.escape(cone.what)):
            torsion(b, cone.torsion)


def test_predicates_compute_their_residuals_once_per_bundle(monkeypatch):
    calls = []
    real_d_form = ExteriorAlgebra.d_form

    def counting_d_form(self, form):
        calls.append(form)
        return real_d_form(self, form)

    monkeypatch.setattr(ExteriorAlgebra, "d_form", counting_d_form)
    bundle = seeded_bundle("iwasawa", seed=3)
    first = predicates(bundle)
    assert len(calls) == 2  # d omega and d omega_(n-1)
    residuals = sorted((first.d_omega_residual, first.ddbar_omega_residual,
                        first.d_omega_power_residual))
    tols = [0.5 * residuals[0] + 1e-300, 2.0 * residuals[-1] + 1e-300]
    tols += [r * f for r in residuals for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    got = [predicates(bundle, tol) for tol in tols]
    assert len(calls) == 2
    monkeypatch.undo()
    for tol, pred in zip(tols, got):
        assert pred == predicates(seeded_bundle("iwasawa", seed=3), tol), tol
    assert len({(p.is_kahler, p.is_skt, p.is_balanced) for p in got}) > 1


def test_d_potential_solves_projected_equation():
    b = seeded_bundle("iwasawa", seed=6)
    rng = np.random.default_rng(6)
    src = random_form(b.n, list(b.alg.slices(3)), rng).part(3)
    sol = potential(b, "d", 3, src)
    scale = np.linalg.norm(src)
    sol.check(DEFAULT_TOL, scale, "potential")
    # equation holds against an independent recompute
    resid = b.alg.d_total(2) @ sol.potential - sol.projected_source
    assert np.max(np.abs(resid)) <= 1e-10
    # decomposition: source = harmonic + im(d) + im(d*)
    pds = coimage_projector(b, "d", 3) @ src
    recon = sol.projected_source + sol.harmonic_component + pds
    assert np.max(np.abs(recon - src)) <= 1e-10


def test_minimum_norm_property_of_potential():
    # adding any kernel element increases the norm, so the potential is
    # G-orthogonal to ker(d); verified via the projector onto that kernel
    b = seeded_bundle("kodaira_thurston", seed=7)
    rng = np.random.default_rng(7)
    src = random_form(b.n, list(b.alg.slices(2)), rng).part(2)
    sol = potential(b, "d", 2, src)
    ker = harmonic_projector(b, "d", 1) + image_projector(b, "d", 1)
    assert np.max(np.abs(ker @ sol.potential)) <= 1e-10


def test_gamma_potential_keeps_headroom_under_its_gate_at_large_kappa():
    # the Green operator and the potential solve for their codifferentials; with the
    # closed-form G^-1 there the kernel residual read up to 0.82 of the gate on these
    # metrics, kappa(H) = 1e5 (measured <= 0.14 with the solve)
    alg = algebra_for(catalog("iwasawa"))
    which, key = hodge.TORSIONS["gamma"].space(3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        h = (q * [1.0, 1e5, rng.uniform(1.0, 1e5)]) @ q.conj().T
        b = bundle_for_algebra(alg, HermitianMetric(0.5 * (h + h.conj().T)))
        src = b.omega_power(2).part(key)
        sol = potential(b, which, key, src)
        gate = b.tol * (1.0 + hodge._l2(b, which, key, src))
        assert max(sol.residual_equation, sol.residual_kernel) <= 0.25 * gate


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_torsion_rho_matches_dense_oracle(seed):
    b = seeded_bundle("kodaira_thurston", seed=seed)
    rep = torsion_rho(b)
    want = oracle_rho(b)
    got = rep.torsion.part(2)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert rep.residual_equation <= 1e-9
    assert rep.residual_kernel <= 1e-9
    assert rep.norm_sq >= 0
    assert set(rep.pure_norm_sq) == {(2, 0), (1, 1), (0, 2)}


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_torsion_gamma_matches_dense_oracle(seed):
    b = seeded_bundle("iwasawa", seed=seed)
    rep = torsion_gamma(b)
    want = oracle_gamma(b)
    got = rep.torsion.part((b.n - 1, b.n - 2))
    assert np.max(np.abs(got - want)) <= 1e-9
    assert rep.residual_equation <= 1e-9
    assert rep.norm_sq > 0


def test_torsion_vanishes_on_flat_models():
    for name in ("torus2", "torus3"):
        b = seeded_bundle(name, seed=0)
        assert torsion_rho(b).torsion.max_abs() == 0.0
        assert torsion_gamma(b).torsion.max_abs() == 0.0


def test_torsion_is_kept_per_bundle_and_kind():
    b = seeded_bundle("kodaira_thurston", seed=2)
    rep = torsion_rho(b)
    assert torsion_rho(b) is rep and torsion(b, "rho") is rep
    assert kept_keys(b, hodge._torsion) == [("rho",)]
    assert torsion_rho(seeded_bundle("kodaira_thurston", seed=2)) is not rep
    with pytest.raises(NotBalanced):  # a refusal is not kept: it is raised again
        torsion_gamma(b)
    with pytest.raises(NotBalanced):
        torsion_gamma(b)


def test_descent_solves_one_torsion_per_bundle(monkeypatch):
    # the gradient at an accepted iterate reuses the report its line search built
    solved, built = [], []
    solve, init = hodge.potential, OperatorBundle.__init__
    monkeypatch.setattr(hodge, "potential", lambda b, *a: solved.append(b) or solve(b, *a))
    monkeypatch.setattr(OperatorBundle, "__init__",
                        lambda b, *a: built.append(b) or init(b, *a))
    descend(catalog("kodaira_thurston"), "F_tilde", start="random", seed=8, steps=10,
            max_step=0.05)
    assert len(solved) == len(set(map(id, solved))) > 10
    assert len(built) >= len(solved)


def test_torsion_kind_gates():
    with pytest.raises(NotSKT):
        torsion_rho(seeded_bundle("iwasawa", seed=1))
    with pytest.raises(NotBalanced):
        torsion_gamma(seeded_bundle("kodaira_thurston", seed=1))


@pytest.mark.parametrize("kind", ["Rho", "skt", "both"])
def test_torsion_refuses_an_unknown_kind(kind):
    b = seeded_bundle("torus2")
    with pytest.raises(ValueError, match=f"unknown torsion kind '{kind}'"):
        torsion(b, kind)


def test_frozen_torsion_norms_identity_metric():
    # values computed once from the closed-form potentials and pinned
    kt = torsion_rho(seeded_bundle("kodaira_thurston"))
    assert kt.norm_sq == pytest.approx(0.25, abs=1e-12)
    iw = torsion_gamma(seeded_bundle("iwasawa"))
    assert iw.norm_sq == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["torus2", "kodaira_thurston", "torus3", "iwasawa"])
def test_root_roundtrip_random_metrics(name):
    alg = algebra_for(catalog(name))
    rng = np.random.default_rng(13)
    for _ in range(8):
        m = random_metric(alg.n, rng)
        b = bundle_for_algebra(alg, m)
        back = root_n_minus_1(alg, b.omega_power(alg.n - 1))
        assert np.max(np.abs(back.h - m.h)) <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_top_minus_one_matrix_equals_wedge_pairing(n):
    alg = algebra_for(make_model(f"flat{n}", n))
    rng = np.random.default_rng(29 + n)
    for pqs in ([(n - 1, n - 1)], [(n - 1, n - 1), (1, 0)], [(n, n - 1)]):
        form = random_form(n, pqs, rng)
        want = np.array([[alg.integrate(wedge(form, Form.monomial(n, (k,), (j,), 1j)))
                          for k in range(n)] for j in range(n)])
        assert np.array_equal(matrix_of_top_minus_one(alg, form), want)


def test_root_scaling_law():
    alg = algebra_for(catalog("iwasawa"))
    rng = np.random.default_rng(17)
    m = random_metric(alg.n, rng)
    b = bundle_for_algebra(alg, m)
    omega_top = b.omega_power(alg.n - 1)
    base = root_n_minus_1(alg, omega_top)
    for lam in (0.5, 2.0, 3.0):
        scaled = root_n_minus_1(alg, omega_top * lam)
        want = lam ** (1.0 / (alg.n - 1)) * base.h
        assert np.max(np.abs(scaled.h - want)) <= 1e-10


def test_root_rejects_bad_input():
    alg = algebra_for(catalog("torus3"))
    rng = np.random.default_rng(19)
    not_real = random_form(alg.n, [(alg.n - 1, alg.n - 1)], rng)
    with pytest.raises(NotPositive):
        root_n_minus_1(alg, not_real)
    m = HermitianMetric.identity(alg.n)
    b = bundle_for_algebra(alg, m)
    with pytest.raises(NotPositive):
        root_n_minus_1(alg, b.omega_power(alg.n - 1) * -1.0)


def test_balanced_point_decides_positivity_once(monkeypatch):
    # the root's metric comes checked, so the bundle over it decomposes nothing again
    alg = algebra_for(catalog("iwasawa"))
    top = wedge_power(random_metric(alg.n, np.random.default_rng(31)).form(), alg.n - 1)
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    bundle_for_algebra(alg, root_n_minus_1(alg, top))
    assert len(calls) == 1


def test_root_inverse_of_power_map():
    # root composed with the power map is the identity on metrics, both ways
    alg = algebra_for(catalog("torus2"))
    rng = np.random.default_rng(23)
    m = random_metric(alg.n, rng)
    omega = m.form()
    top = wedge_power(omega, alg.n - 1)
    h = root_n_minus_1(alg, top)
    regen = wedge_power(h.form(), alg.n - 1)
    assert (regen - top).max_abs() <= 1e-12
