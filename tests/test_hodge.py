"""Spectral decompositions, predicates, torsion potentials and the (n-1)-root."""

import numpy as np
import pytest

from hermicone.errors import (
    NotBalanced,
    NotPositive,
    NotSKT,
    ToleranceAmbiguity,
)
from hermicone.exterior import ExteriorAlgebra, Form, random_form, wedge, wedge_power
from hermicone.hodge import (
    DEFAULT_TOL,
    coimage_projector,
    green_operator,
    harmonic_projector,
    image_projector,
    kernel_dimension,
    kernel_mask,
    matrix_of_top_minus_one,
    potential,
    predicates,
    root_n_minus_1,
    three_space_residuals,
    torsion_gamma,
    torsion_rho,
)
from hermicone.metric import HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, make_model

from .conftest import CATALOG_NAMES, seeded_bundle
from .oracles import oracle_gamma, oracle_rho


def test_kernel_mask_plain_split():
    eigs = np.array([0.0, 3e-13, 2.0, 5.0])
    mask = kernel_mask(eigs, tol=1e-9)
    assert mask.tolist() == [True, True, False, False]
    assert kernel_mask(np.zeros(0)).size == 0


def test_kernel_mask_ambiguity_window():
    # threshold is 1e-9 * max(1, 2.0); 4e-9 sits inside [thr/10, 10 thr]
    with pytest.raises(ToleranceAmbiguity):
        kernel_mask(np.array([4e-9, 2.0]), tol=1e-9)
    # an order of magnitude outside the window on either side is fine
    mask = kernel_mask(np.array([1e-13, 2.0]), tol=1e-9)
    assert mask.tolist() == [True, False]


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


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_three_space_decomposition(name, k):
    b = seeded_bundle(name, seed=1)
    res = three_space_residuals(b, k)
    assert max(res.values()) <= 1e-10, res


def test_first_betti_numbers_of_invariant_complex():
    assert kernel_dimension(seeded_bundle("torus2"), "d", 1) == 4
    assert kernel_dimension(seeded_bundle("kodaira_thurston"), "d", 1) == 3
    assert kernel_dimension(seeded_bundle("iwasawa"), "d", 1) == 4


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
    src = random_form(b.n, b.alg.bidegrees(3), rng).part(3)
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
    src = random_form(b.n, b.alg.bidegrees(2), rng).part(2)
    sol = potential(b, "d", 2, src)
    ker = harmonic_projector(b, "d", 1) + image_projector(b, "d", 1)
    assert np.max(np.abs(ker @ sol.potential)) <= 1e-10


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


def test_torsion_kind_gates():
    with pytest.raises(NotSKT):
        torsion_rho(seeded_bundle("iwasawa", seed=1))
    with pytest.raises(NotBalanced):
        torsion_gamma(seeded_bundle("kodaira_thurston", seed=1))


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
