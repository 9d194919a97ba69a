"""Torsion energies: frozen reference values, scaling laws, gates."""

import numpy as np
import pytest

from hermicone.errors import NotBalanced, NotPositive, NotSKT, ToleranceFailure
from hermicone.functionals import (
    eval_F,
    eval_F_tilde,
    eval_G,
    eval_H,
    evaluate,
    normalization_integral,
)
from hermicone.metric import HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog

from .conftest import seeded_bundle

SCALES = (0.5, 2.0, 3.0)


def _scaled_bundle(bundle, lam):
    return bundle_for_algebra(bundle.alg, bundle.metric.scaled(lam))


@pytest.mark.parametrize("scale", [1e-10, 1e10])
def test_energies_scale_exactly_far_from_the_identity(scale):
    # the kernel's dimension does not see the metric's scale: F(s I) = 0.25 s^2 on
    # Kodaira-Thurston and G(s I) = s^4 on Iwasawa, not a cut-off 0
    for name, energy, want in (("kodaira_thurston", eval_F, 0.25 * scale ** 2),
                               ("iwasawa", eval_G, scale ** 4)):
        alg = algebra_for(catalog(name))
        got = energy(bundle_for_algebra(alg, HermitianMetric(scale * np.eye(alg.n)))).value
        assert got == pytest.approx(want, rel=1e-12)


def test_frozen_values_identity_metrics():
    f = eval_F(seeded_bundle("kodaira_thurston"))
    assert f.value == pytest.approx(0.25, abs=1e-12)
    g = eval_G(seeded_bundle("iwasawa"))
    assert g.value == pytest.approx(1.0, abs=1e-12)
    kt = seeded_bundle("kodaira_thurston")
    ft = eval_F_tilde(kt, HermitianMetric.identity(2))
    assert ft.ingredients["normalization_integral"] == pytest.approx(2.0, abs=1e-12)
    assert ft.value == pytest.approx(0.0625, abs=1e-12)


def test_flat_models_have_zero_energy():
    for name in ("torus2", "torus3"):
        b = seeded_bundle(name, seed=0)
        assert eval_F(b).value == 0.0
        assert eval_G(b).value == 0.0
        assert eval_H(b, b).value == 0.0


def test_functional_gates():
    with pytest.raises(NotSKT):
        eval_F(seeded_bundle("iwasawa", seed=1))
    with pytest.raises(NotBalanced):
        eval_G(seeded_bundle("kodaira_thurston", seed=1))


@pytest.mark.parametrize("lam", SCALES)
def test_F_homogeneous_degree_n(lam):
    b = seeded_bundle("kodaira_thurston", seed=3)
    base = eval_F(b).value
    scaled = eval_F(_scaled_bundle(b, lam)).value
    assert scaled == pytest.approx(lam ** b.n * base, rel=1e-9)


@pytest.mark.parametrize("lam", SCALES)
def test_G_homogeneous_in_top_form(lam):
    # scaling omega_{n-1} by lam means scaling the metric by lam^(1/(n-1))
    b = seeded_bundle("iwasawa", seed=3)
    n = b.n
    base = eval_G(b).value
    scaled = eval_G(_scaled_bundle(b, lam ** (1.0 / (n - 1)))).value
    assert scaled == pytest.approx(lam ** ((n + 1.0) / (n - 1.0)) * base, rel=1e-9)


@pytest.mark.parametrize("lam", SCALES)
def test_H_invariant_along_omega_rays(lam):
    b = seeded_bundle("kodaira_thurston", seed=5)
    gamma = seeded_bundle("kodaira_thurston", seed=6)
    base = eval_H(b, gamma).value
    scaled = eval_H(_scaled_bundle(b, lam), gamma).value
    assert abs(scaled - base) <= 1e-10 * max(1.0, base)


@pytest.mark.parametrize("lam", SCALES)
def test_F_tilde_invariant_along_rays(lam):
    b = seeded_bundle("kodaira_thurston", seed=7)
    nu = HermitianMetric.identity(b.n)
    base = eval_F_tilde(b, nu).value
    scaled = eval_F_tilde(_scaled_bundle(b, lam), nu).value
    assert abs(scaled - base) <= 1e-10 * max(1.0, base)


def test_H_positive_off_balanced_and_cross_checked():
    b = seeded_bundle("kodaira_thurston", seed=9)
    gamma = seeded_bundle("kodaira_thurston", seed=10)
    h = eval_H(b, gamma)
    assert h.value > 0
    assert h.ingredients["cross_check_residual"] <= 1e-10 * max(1.0, h.value)
    assert h.ingredients["wedge_form"] == pytest.approx(h.value, rel=1e-9)


def test_H_zero_on_balanced_metrics():
    b = seeded_bundle("iwasawa", seed=11)
    gamma = seeded_bundle("iwasawa", seed=12)
    assert eval_H(b, gamma).value <= 1e-20


def test_F_pure_split_sums_to_value():
    f = eval_F(seeded_bundle("kodaira_thurston", seed=13))
    split = sum(f.ingredients[f"norm_sq_{p}{q}"] for p, q in ((2, 0), (1, 1), (0, 2)))
    assert split == pytest.approx(f.value, rel=1e-12)


def test_normalization_integral_linear_and_positive():
    b = seeded_bundle("iwasawa", seed=15)
    nu = random_metric(b.n, np.random.default_rng(15))
    c = normalization_integral(b, nu)
    assert c > 0
    c2 = normalization_integral(_scaled_bundle(b, 2.0), nu)
    assert c2 == pytest.approx(2.0 * c, rel=1e-12)


def test_F_tilde_rejects_nonpositive_normalization():
    b = seeded_bundle("kodaira_thurston")
    bad_nu = HermitianMetric(-np.eye(b.n))
    with pytest.raises(NotPositive):
        eval_F_tilde(b, bad_nu)


def test_F_tilde_ingredients_expose_parts():
    b = seeded_bundle("kodaira_thurston", seed=17)
    nu = random_metric(b.n, np.random.default_rng(17))
    ft = eval_F_tilde(b, nu)
    c = ft.ingredients["normalization_integral"]
    assert ft.value == pytest.approx(ft.ingredients["F"] / c ** b.n, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_near_degenerate_metrics_are_refused_not_evaluated(seed):
    # H = U diag(1, eps) U^H on Kodaira-Thurston: every such metric is refused by the
    # rho potential's residual gate, never reported as a number
    alg = algebra_for(catalog("kodaira_thurston"))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for e in range(5, 11):
        h = u @ np.diag([1.0, 10.0 ** -e]) @ u.conj().T
        with pytest.raises(ToleranceFailure):
            eval_F(bundle_for_algebra(alg, HermitianMetric(0.5 * (h + h.conj().T))))


def _value_bits(result):
    return [result.kind, np.float64(result.value).tobytes()] + \
        [(k, np.float64(v).tobytes()) for k, v in result.ingredients.items()]


@pytest.mark.parametrize("name,seed,functional", [("kodaira_thurston", 3, "F"),
                                                  ("kodaira_thurston", 3, "F_tilde"),
                                                  ("iwasawa", None, "G"),
                                                  ("kodaira_thurston", 3, "H"),
                                                  ("iwasawa", 4, "H")])
def test_evaluate_defaults_to_the_identity_reference(name, seed, functional):
    # nu = None is the identity metric, and H's weight the bundle of nu at the
    # bundle's tolerance, as the CLI's --nu identity and descend take them
    b = seeded_bundle(name, seed)
    b = bundle_for_algebra(b.alg, b.metric, 1e-7)
    nu = HermitianMetric.identity(b.n)
    weight = bundle_for_algebra(b.alg, nu, b.tol) if functional == "H" else None
    assert _value_bits(evaluate(b, functional)) == \
        _value_bits(evaluate(b, functional, nu, weight))
