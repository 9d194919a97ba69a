"""First variations: operator rows, functional derivatives, projector calculus."""

import numpy as np
import pytest

from hermicone import hodge
from hermicone.errors import (
    DirectionNotAdmissible,
    KernelJump,
    StepTooLarge,
)
from hermicone.exterior import ExteriorAlgebra, Form, random_form
from hermicone.functionals import eval_F, eval_F_tilde, eval_G, eval_H
from hermicone.hodge import root_n_minus_1
from hermicone.metric import HermitianMetric, bundle_for_algebra
from hermicone.model import algebra_for, catalog
from hermicone.optimizer import constraint_basis
from hermicone.variation import (
    default_step,
    fd_derivative,
    make_direction,
    metric_direction_of_volume,
    var_F,
    var_F_tilde,
    var_G,
    var_H,
    var_harmonic_projector,
    variation_battery,
)

from .conftest import seeded_bundle
from .oracles import projector_perturbation

BATTERY_TOL = 1e-5
ORACLE_TOL = 1e-6


def test_fd_derivative_exact_on_smooth_function():
    got = fd_derivative(lambda t: np.exp(2.0 * t), 1e-3)
    assert got == pytest.approx(2.0, rel=1e-10)
    plain = fd_derivative(lambda t: np.exp(2.0 * t), 1e-3, richardson=False)
    assert plain == pytest.approx(2.0, rel=1e-5)


def test_fd_derivative_reports_positivity_loss():
    def at(t):
        return HermitianMetric(np.eye(2) * (0.1 + t)).check() and 0.0

    with pytest.raises(StepTooLarge):
        fd_derivative(at, 0.5)
    with pytest.raises(ValueError):
        fd_derivative(lambda t: t, 0.0)


def test_default_step_tracks_smallest_eigenvalue():
    m = HermitianMetric(np.diag([4.0, 0.01]))
    assert default_step(m) == pytest.approx(1e-3 * 0.01)


def test_make_direction_vets_inputs():
    alg = algebra_for(catalog("iwasawa"))
    d = make_direction(alg, np.eye(3))
    assert d.kind == "metric" and d.form.is_real(1e-13)
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    rng = np.random.default_rng(0)
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg, random_form(3, [(2, 1)], rng), kind="volume")


def test_make_direction_constraint_requirements():
    alg = algebra_for(catalog("iwasawa"))
    # i theta^3 ^ thetabar^3 has del dbar equal to -theta^12 ^ thetabar^12
    bad = np.zeros((3, 3))
    bad[2, 2] = 1.0
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg, bad, require="skt")
    # on the n = 2 model the volume block is (1,1) and theta^2 ^ thetabar^2
    # is not closed, so the coclosed requirement rejects it
    alg_kt = algebra_for(catalog("kodaira_thurston"))
    open_form = HermitianMetric(np.diag([0.0, 1.0])).form()
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg_kt, open_form, kind="volume", require="balanced")
    # theta^1 ^ thetabar^1 is closed on this model, hence fine for both
    make_direction(alg, np.diag([1.0, 0.0, 0.0]), require="balanced")
    make_direction(alg, np.diag([1.0, 0.0, 0.0]), require="skt")


@pytest.mark.parametrize("name", ["torus2", "kodaira_thurston", "iwasawa"])
def test_variation_battery_within_tolerance(name):
    rows = variation_battery(catalog(name), seed=0, tuples=6)
    assert rows, "battery produced no rows"
    worst = max(rows, key=lambda r: r.rel_err)
    assert worst.rel_err <= BATTERY_TOL, worst.to_row()
    names = {r.name for r in rows}
    assert {"star", "trace", "d_star", "laplacian_d", "conjugation_symmetry",
            "omega_scaling_star", "omega_scaling_laplacian"} <= names


def test_battery_projector_rows_meet_oracle_tolerance():
    rows = variation_battery(catalog("kodaira_thurston"), seed=1, tuples=6)
    oracle_rows = [r for r in rows if r.name in ("projector_oracle", "projector_deflated")]
    assert oracle_rows
    assert max(r.rel_err for r in oracle_rows) <= ORACLE_TOL


def test_battery_rows_are_reproducible():
    a = variation_battery(catalog("iwasawa"), seed=3, tuples=4)
    b = variation_battery(catalog("iwasawa"), seed=3, tuples=4)
    assert [r.to_row() for r in a] == [r.to_row() for r in b]


def test_battery_tuple_i_draws_from_seed_plus_i():
    # the rows of a three-tuple battery are those of one-tuple batteries at
    # seeds s, s+1, s+2, up to the tuple label
    seed = 5
    joint = variation_battery(catalog("torus2"), seed=seed, tuples=3)
    single = [(i, row) for i in range(3)
              for row in variation_battery(catalog("torus2"), seed=seed + i, tuples=1)]
    assert len(joint) == len(single)
    for a, (i, b) in zip(joint, single):
        assert a.detail == b.detail.replace("tuple 0", f"tuple {i}", 1)
        assert (a.name, a.analytic, a.fd, a.abs_err) == (b.name, b.analytic, b.fd, b.abs_err)


def test_variations_along_one_direction_build_each_wedge_matrix_once(monkeypatch):
    from hermicone.variation import laplacian_variation_matrix, variation_at

    built = []
    real_wedge_matrix = ExteriorAlgebra.wedge_matrix

    def counting_wedge_matrix(self, form, p, q):
        built.append((form.part((1, 1)).tobytes(), p, q))
        return real_wedge_matrix(self, form, p, q)

    b = seeded_bundle("iwasawa", seed=5)
    gamma = random_form(3, [(1, 1)], np.random.default_rng(5), real=True)
    monkeypatch.setattr(ExteriorAlgebra, "wedge_matrix", counting_wedge_matrix)
    for which, keys in (("d", range(7)), ("dbar", [(1, 1), (2, 1)]), ("del", [(1, 2)])):
        for key in keys:
            built.clear()
            laplacian_variation_matrix(b, gamma, which, key)
            assert built and len(built) == len(set(built)), (which, key)

    kt = seeded_bundle("kodaira_thurston", seed=5)
    at = variation_at(kt, "F")
    built.clear()
    at(make_direction(kt.alg, np.diag([1.0, 2.0])))
    assert built and len(built) == len(set(built))


def test_projector_variation_matches_spectral_oracle():
    b = seeded_bundle("iwasawa", seed=2)
    rng = np.random.default_rng(2)
    gamma = make_direction(b.alg, np.eye(3) + 0.1 * np.diag([1.0, -0.5, 0.25])).form
    var = var_harmonic_projector(b, gamma, "d", 2)
    from hermicone.variation import laplacian_variation_matrix

    dlap = laplacian_variation_matrix(b, gamma, "d", 2)
    want = projector_perturbation(b.spectral("d", 2), dlap)
    assert np.max(np.abs(var.derivative - want)) <= ORACLE_TOL


def test_projector_variation_applied_forms():
    b = seeded_bundle("iwasawa", seed=4)
    gamma = make_direction(b.alg, np.eye(3)).form
    v = b.alg.del_form(b.omega)  # lies in im(d), no kernel component
    var = var_harmonic_projector(b, gamma, "d", 3, v=v)
    assert var.input_kernel_norm <= 1e-10
    assert (var.value_form - var.oracle_form).max_abs() <= 1e-10
    assert var.kernel_dim >= 0


def test_projector_variation_kernel_jump_guard(monkeypatch):
    monkeypatch.setattr(hodge, "GAP_FACTOR", 1e12)
    b = seeded_bundle("iwasawa", seed=6)
    gamma = make_direction(b.alg, np.eye(3)).form
    with pytest.raises(KernelJump):
        var_harmonic_projector(b, gamma, "d", 2)


def test_var_F_euler_identity_on_omega():
    # the energy is homogeneous of degree n, so dF(omega; omega) = n F
    b = seeded_bundle("kodaira_thurston", seed=0)
    f = eval_F(b).value
    var = var_F(b, b.metric.h, with_fd=True)
    assert var.value == pytest.approx(b.n * f, rel=1e-10)
    assert var.fd == pytest.approx(var.value, rel=1e-7)
    assert var.imag_residual <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_var_F_matches_fd_on_random_directions(seed):
    b = seeded_bundle("kodaira_thurston", seed=seed)
    rng = np.random.default_rng(100 + seed)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = var_F(b, mat + mat.conj().T, with_fd=True)
    # on this model the moving-projector source vanishes, so the value is sharp
    assert var.terms["projector_source_norm"] <= 1e-10
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-8)


def test_var_G_euler_identity_on_volume():
    b = seeded_bundle("iwasawa", seed=0)
    g = eval_G(b).value
    n = b.n
    var = var_G(b, b.omega_power(n - 1), with_fd=True)
    want = (n + 1.0) / (n - 1.0) * g
    assert var.value == pytest.approx(want, rel=1e-10)
    assert var.fd == pytest.approx(var.value, rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1])
def test_var_G_pairings_match_fd_on_closed_directions(seed):
    # random closed (2,2) directions; the remainder bound is reported as a
    # nonnegative surcharge, the signed pairing stays at rounding level, so
    # fd agrees with the pairing part and discrepancy equals -projector_term
    b = seeded_bundle("iwasawa", seed=None)
    basis = constraint_basis(catalog("iwasawa"), "balanced")
    rng = np.random.default_rng(200 + seed)
    direction = basis.combine(rng.normal(size=basis.dimension))
    var = var_G(b, direction, with_fd=True)
    pairing = var.terms["eta_gamma_21"] + var.terms["gamma_eta_comm_21"]
    assert var.fd == pytest.approx(pairing, rel=1e-8, abs=1e-9)
    assert abs(var.terms["projector_pairing_signed"]) <= 1e-9
    assert var.discrepancy == pytest.approx(-var.terms["projector_term"], abs=1e-8)


def _balanced_bundle(seed):
    """Identity metric (seed None) or a seeded balanced metric from the slice."""
    alg = algebra_for(catalog("iwasawa"))
    if seed is None:
        return seeded_bundle("iwasawa")
    basis = constraint_basis(alg, "balanced")
    top = seeded_bundle("iwasawa").omega_power(alg.n - 1)
    rng = np.random.default_rng(300 + seed)
    x = basis.coordinates(top) + 0.2 * rng.normal(size=basis.dimension)
    return bundle_for_algebra(alg, root_n_minus_1(alg, basis.combine(x)))


@pytest.mark.parametrize("seed,direction_seed", [(None, 42), (0, 0), (1, 1), (2, 2)])
def test_var_G_derivative_is_exact_on_moving_projector(seed, direction_seed):
    # where the projector moves, value carries the nonnegative remainder
    # bound and misses fd; derivative carries the signed pairing and is exact
    # ((None, 42) is the slice direction of acceptance criterion 7)
    b = _balanced_bundle(seed)
    basis = constraint_basis(catalog("iwasawa"), "balanced")
    rng = np.random.default_rng(direction_seed)
    direction = basis.combine(rng.normal(size=basis.dimension))
    var = var_G(b, direction, with_fd=True)
    assert var.terms["projector_term"] > 0.1
    assert abs(var.fd - var.value) > 0.1
    rel = abs(var.derivative - var.fd) / max(1.0, abs(var.derivative), abs(var.fd))
    assert rel <= 1e-8


def test_derivative_equals_value_without_moving_projector():
    b = seeded_bundle("kodaira_thurston", seed=1)
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    var = var_F(b, mat + mat.conj().T, with_fd=True)
    assert var.terms["projector_source_norm"] <= 1e-10
    assert var.derivative == pytest.approx(var.value, rel=1e-10, abs=1e-12)
    assert var.derivative == pytest.approx(var.fd, rel=1e-8, abs=1e-10)
    gamma = seeded_bundle("kodaira_thurston", seed=2)
    var_h = var_H(b, gamma, mat + mat.conj().T)
    assert var_h.derivative == var_h.value


def test_var_H_zero_along_omega():
    b = seeded_bundle("kodaira_thurston", seed=3)
    gamma = seeded_bundle("kodaira_thurston", seed=4)
    var = var_H(b, gamma, b.metric.h, with_fd=True)
    assert abs(var.value) <= 1e-10
    assert abs(var.fd) <= 1e-6


def test_var_H_matches_fd_on_random_directions():
    b = seeded_bundle("kodaira_thurston", seed=5)
    gamma = seeded_bundle("kodaira_thurston", seed=6)
    rng = np.random.default_rng(7)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = var_H(b, gamma, mat + mat.conj().T, with_fd=True)
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-8)


def test_var_F_tilde_zero_along_omega():
    b = seeded_bundle("kodaira_thurston", seed=8)
    nu = HermitianMetric.identity(b.n)
    var = var_F_tilde(b, nu, b.metric.h, with_fd=True)
    assert abs(var.value) <= 1e-10 * max(1.0, eval_F_tilde(b, nu).value)
    assert abs(var.fd) <= 1e-6


def test_var_F_tilde_matches_fd():
    b = seeded_bundle("kodaira_thurston", seed=9)
    nu = HermitianMetric.identity(b.n)
    rng = np.random.default_rng(9)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = var_F_tilde(b, nu, mat + mat.conj().T, with_fd=True)
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-9)


def test_var_F_rejects_wrong_direction_kind():
    b = seeded_bundle("kodaira_thurston")
    vol = make_direction(b.alg, Form.monomial(2, (0,), (0,), 1j), kind="volume")
    with pytest.raises(DirectionNotAdmissible):
        var_F(b, vol)


def test_metric_direction_of_volume_is_root_derivative():
    # the induced (1,1) direction equals the fd derivative of the root path
    b = seeded_bundle("iwasawa", seed=10)
    basis = constraint_basis(catalog("iwasawa"), "balanced")
    rng = np.random.default_rng(11)
    direction = basis.combine(rng.normal(size=basis.dimension))
    rho = metric_direction_of_volume(b, direction)
    from hermicone.hodge import root_n_minus_1

    base = b.omega_power(b.n - 1)

    def at(t):
        return root_n_minus_1(b.alg, base + t * direction).form()

    fd = fd_derivative(at, 1e-4)
    assert (rho - fd).max_abs() <= 1e-8
