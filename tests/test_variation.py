"""First variations: operator rows, functional derivatives, projector calculus."""

import numpy as np
import pytest

from hermicone import hodge, optimizer, variation
from hermicone.errors import (
    DirectionNotAdmissible,
    StepTooLarge,
)
from hermicone.exterior import Form, memo, neighbor, random_form
from hermicone.functionals import ENERGIES, energy, eval_F, eval_F_tilde, eval_G, eval_H, evaluate
from hermicone.hodge import TORSIONS, root_n_minus_1
from hermicone.cli import EXIT_TOLERANCE, _exit_code
from hermicone.metric import HermitianMetric, build_bundle, bundle_for_algebra
from hermicone.model import algebra_for, catalog
from hermicone.optimizer import constraint_basis, descend
from hermicone.variation import (
    BATTERY_THRESHOLD,
    ORACLE_THRESHOLD,
    default_step,
    fd_derivative,
    make_direction,
    metric_direction_of_volume,
    first_variation,
    var_harmonic_projector,
    variation_battery,
)

from .conftest import kept_keys, seeded_bundle
from .oracles import projector_perturbation


def test_fd_derivative_exact_on_smooth_function():
    got = fd_derivative(lambda t: np.exp(2.0 * t), 1e-3)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_fd_derivative_reports_positivity_loss():
    def at(t):
        return HermitianMetric(np.eye(2) * (0.1 + t)).check() and 0.0

    with pytest.raises(StepTooLarge):
        fd_derivative(at, 0.5)
    with pytest.raises(ValueError):
        fd_derivative(lambda t: t, 0.0)
    for step in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            fd_derivative(lambda t: t * t + t, step)


def test_default_step_tracks_smallest_eigenvalue():
    m = HermitianMetric(np.diag([4.0, 0.01]))
    assert default_step(m) == pytest.approx(1e-3 * 0.01)


def test_make_direction_vets_inputs():
    alg = algebra_for(catalog("iwasawa"))
    d = make_direction(alg, np.eye(3))
    assert d.kind == "metric" and (d.form - d.form.conj()).max_abs() <= 1e-13
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    rng = np.random.default_rng(0)
    with pytest.raises(DirectionNotAdmissible):
        make_direction(alg, random_form(3, [(2, 1)], rng), kind="volume")


def test_zero_direction_is_refused():
    # zero requested work is never a pass: the variation of F used to fail on it inside numpy
    alg = algebra_for(catalog("kodaira_thurston"))
    with pytest.raises(DirectionNotAdmissible, match="zero") as info:
        first_variation(build_bundle(catalog("kodaira_thurston"), HermitianMetric.identity(2)),
                        "F", make_direction(alg, Form.zero(2), kind="metric"))
    assert _exit_code(info.value) == EXIT_TOLERANCE
    b = seeded_bundle("iwasawa")
    for zero, kind in ((np.zeros((3, 3)), "metric"), (Form.zero(3), "volume")):
        with pytest.raises(DirectionNotAdmissible, match="zero"):
            make_direction(b.alg, zero, kind=kind)
    with pytest.raises(DirectionNotAdmissible, match="zero"):
        first_variation(b, "G", Form.zero(3))


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
    assert worst.rel_err <= BATTERY_THRESHOLD, worst.to_row()
    names = {r.name for r in rows}
    assert {"star", "trace", "d_star", "laplacian_d", "conjugation_symmetry",
            "omega_scaling_star", "omega_scaling_laplacian"} <= names


def test_battery_projector_rows_meet_oracle_tolerance():
    rows = variation_battery(catalog("kodaira_thurston"), seed=1, tuples=6)
    oracle_rows = [r for r in rows if r.threshold == ORACLE_THRESHOLD]
    assert oracle_rows
    assert max(r.rel_err for r in oracle_rows) <= ORACLE_THRESHOLD
    # stricter than its own 1e-5: at most 3.7e-11 over the catalog's 20-tuple batteries
    assert max(r.rel_err for r in rows if r.name == "projector_deflated") <= ORACLE_THRESHOLD


def test_battery_rows_carry_the_threshold_policy():
    rows = variation_battery(catalog("iwasawa"), seed=0, tuples=3)
    assert {r.name for r in rows if r.threshold == 1e-6} \
        == {"projector_oracle", "omega_scaling_projector"}
    assert all(r.threshold == 1e-5 for r in rows
               if r.name not in ("projector_oracle", "omega_scaling_projector"))
    assert (BATTERY_THRESHOLD, ORACLE_THRESHOLD) == (1e-5, 1e-6)


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
    from hermicone.variation import laplacian_variation_matrix

    built = []
    build = Form.wedge_matrix.__wrapped__

    def counting_build(form, p, q):
        built.append((form.part((1, 1)).tobytes(), p, q))
        return build(form, p, q)

    b = seeded_bundle("iwasawa", seed=5)
    gamma = random_form(3, [(1, 1)], np.random.default_rng(5), real=True)
    monkeypatch.setattr(Form, "wedge_matrix", memo(counting_build))
    for which, keys in (("d", range(7)), ("dbar", [(1, 1), (2, 1)]), ("del", [(1, 2)])):
        for key in keys:
            built.clear()
            # a fresh copy of gamma: the form keeps its matrices from one call to the next
            laplacian_variation_matrix(b, Form(3, gamma.vec.copy()), which, key)
            assert built and len(built) == len(set(built)), (which, key)

    kt = seeded_bundle("kodaira_thurston", seed=5)
    built.clear()
    first_variation(kt, "F", make_direction(kt.alg, np.diag([1.0, 2.0])))
    assert built and len(built) == len(set(built))


def test_projector_variation_matches_spectral_oracle():
    b = seeded_bundle("iwasawa", seed=2)
    rng = np.random.default_rng(2)
    gamma = make_direction(b.alg, np.eye(3) + 0.1 * np.diag([1.0, -0.5, 0.25])).form
    var = var_harmonic_projector(b, gamma, "d", 2)
    from hermicone.variation import laplacian_variation_matrix

    dlap = laplacian_variation_matrix(b, gamma, "d", 2)
    want = projector_perturbation(b.spectral("d", 2), dlap)
    assert np.max(np.abs(var.derivative - want)) <= ORACLE_THRESHOLD


def test_projector_variation_applied_forms():
    b = seeded_bundle("iwasawa", seed=4)
    gamma = make_direction(b.alg, np.eye(3)).form
    vec = b.alg.del_form(b.omega).part(3)  # lies in im(d), no kernel component
    var = var_harmonic_projector(b, gamma, "d", 3)
    kernel = hodge.harmonic_projector(b, "d", 3) @ vec
    assert np.sqrt(max((kernel.conj() @ (b.gram_total(3) @ kernel)).real, 0.0)) <= 1e-10
    assert np.max(np.abs(var.image_part @ vec - var.derivative @ vec)) <= 1e-10
    # image_part = P dP (I - P) vanishes on the harmonic part of any vector
    rng = np.random.default_rng(4)
    w = rng.standard_normal(len(vec)) + 1j * rng.standard_normal(len(vec))
    harmonic = hodge.harmonic_projector(b, "d", 3) @ w
    assert np.max(np.abs(harmonic)) >= 1e-3 and np.max(np.abs(var.image_part)) >= 1e-3
    assert np.max(np.abs(var.image_part @ harmonic)) <= 1e-12


@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F"),
                                             ("kodaira_thurston", "F_tilde"),
                                             ("iwasawa", "G")])
def test_energy_gradients_vary_no_laplacian_and_keep_one_green_operator(
        name, functional, monkeypatch):
    # the moving projector's source is P C (I - P) s: a descent varies no Laplacian,
    # and the only Green operator it forms is the potential's, one step below the source
    def refuse(*args):
        raise AssertionError("an energy gradient varied a Laplacian")

    built, build = [], optimizer.bundle_for_algebra
    monkeypatch.setattr(variation, "laplacian_variation_matrix", refuse)
    monkeypatch.setattr(optimizer, "bundle_for_algebra",
                        lambda *args: built.append(build(*args)) or built[-1])
    trace = descend(catalog(name), functional, start="random", seed=0, steps=3)
    assert trace.records and trace.termination != "NumericalStall"
    which, key = TORSIONS[energy(functional).torsion].space(built[0].n)
    kept = {k for b in built for k in kept_keys(b, hodge.green_operator)}
    assert kept == {(which, neighbor(which, key, -1))}


def test_var_F_euler_identity_on_omega():
    # the energy is homogeneous of degree n, so dF(omega; omega) = n F
    b = seeded_bundle("kodaira_thurston", seed=0)
    f = eval_F(b).value
    var = first_variation(b, "F", b.metric.h, with_fd=True)
    assert var.value == pytest.approx(b.n * f, rel=1e-10)
    assert var.fd == pytest.approx(var.value, rel=1e-7)
    assert var.imag_residual <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_var_F_matches_fd_on_random_directions(seed):
    b = seeded_bundle("kodaira_thurston", seed=seed)
    rng = np.random.default_rng(100 + seed)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = first_variation(b, "F", mat + mat.conj().T, with_fd=True)
    # on this model the moving-projector source vanishes, so the value is sharp
    assert var.terms["projector_source_norm"] <= 1e-10
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-8)


def test_var_G_euler_identity_on_volume():
    b = seeded_bundle("iwasawa", seed=0)
    g = eval_G(b).value
    n = b.n
    var = first_variation(b, "G", b.omega_power(n - 1), with_fd=True)
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
    var = first_variation(b, "G", direction, with_fd=True)
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
    var = first_variation(b, "G", direction, with_fd=True)
    assert var.terms["projector_term"] > 0.1
    assert abs(var.fd - var.value) > 0.1
    rel = abs(var.derivative - var.fd) / max(1.0, abs(var.derivative), abs(var.fd))
    assert rel <= 1e-8


def test_derivative_equals_value_without_moving_projector():
    b = seeded_bundle("kodaira_thurston", seed=1)
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    var = first_variation(b, "F", mat + mat.conj().T, with_fd=True)
    assert var.terms["projector_source_norm"] <= 1e-10
    assert var.derivative == pytest.approx(var.value, rel=1e-10, abs=1e-12)
    assert var.derivative == pytest.approx(var.fd, rel=1e-8, abs=1e-10)
    gamma = seeded_bundle("kodaira_thurston", seed=2)
    var_h = first_variation(b, "H", mat + mat.conj().T, weight_bundle=gamma)
    assert var_h.derivative == var_h.value


def test_var_H_zero_along_omega():
    b = seeded_bundle("kodaira_thurston", seed=3)
    gamma = seeded_bundle("kodaira_thurston", seed=4)
    var = first_variation(b, "H", b.metric.h, weight_bundle=gamma, with_fd=True)
    assert abs(var.value) <= 1e-10
    assert abs(var.fd) <= 1e-6


def test_var_H_matches_fd_on_random_directions():
    b = seeded_bundle("kodaira_thurston", seed=5)
    gamma = seeded_bundle("kodaira_thurston", seed=6)
    rng = np.random.default_rng(7)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = first_variation(b, "H", mat + mat.conj().T, weight_bundle=gamma, with_fd=True)
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-8)


def test_var_F_tilde_zero_along_omega():
    b = seeded_bundle("kodaira_thurston", seed=8)
    nu = HermitianMetric.identity(b.n)
    var = first_variation(b, "F_tilde", b.metric.h, nu, with_fd=True)
    assert abs(var.value) <= 1e-10 * max(1.0, eval_F_tilde(b, nu).value)
    assert abs(var.fd) <= 1e-6


def test_var_F_tilde_matches_fd():
    b = seeded_bundle("kodaira_thurston", seed=9)
    nu = HermitianMetric.identity(b.n)
    rng = np.random.default_rng(9)
    mat = np.asarray(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    var = first_variation(b, "F_tilde", mat + mat.conj().T, nu, with_fd=True)
    assert var.fd == pytest.approx(var.value, rel=1e-5, abs=1e-9)


def _variation_bits(var):
    return [var.kind] + [np.float64(x).tobytes() for x in
                         (var.value, var.derivative, var.imag_residual, var.fd)] + \
        [(k, np.float64(v).tobytes()) for k, v in var.terms.items()]


@pytest.mark.parametrize("name,seed,functional", [("kodaira_thurston", 3, "F"),
                                                  ("kodaira_thurston", 3, "F_tilde"),
                                                  ("iwasawa", None, "G"),
                                                  ("kodaira_thurston", 3, "H")])
def test_first_variation_defaults_to_the_identity_reference(name, seed, functional):
    b = seeded_bundle(name, seed)
    direction = b.omega_power(b.n - 1) if functional == "G" else np.diag([1.0, 2.0])
    nu = HermitianMetric.identity(b.n)
    weight = bundle_for_algebra(b.alg, nu, b.tol) if functional == "H" else None
    got = first_variation(b, functional, direction, with_fd=True)
    want = first_variation(b, functional, direction, nu, weight, with_fd=True)
    assert _variation_bits(got) == _variation_bits(want)


@pytest.mark.parametrize("functional", sorted(ENERGIES))
def test_value_and_variation_carry_the_energies_name(functional):
    b = seeded_bundle(*(("iwasawa", None) if functional == "G" else ("kodaira_thurston", 3)))
    direction = b.omega_power(b.n - 1) if functional == "G" else np.diag([1.0, 2.0])
    assert evaluate(b, functional).kind == first_variation(b, functional, direction).kind \
        == functional


@pytest.mark.parametrize("functional", ["F", "F_tilde", "G", "H"])
def test_first_variation_refuses_a_direction_of_the_other_kind(functional):
    b = seeded_bundle("iwasawa")
    wrong, right = ("metric", "volume") if functional == "G" else ("volume", "metric")
    direction = make_direction(b.alg, b.omega_power(2), kind="volume") if wrong == "volume" \
        else make_direction(b.alg, np.eye(3))
    with pytest.raises(DirectionNotAdmissible,
                       match=f"varies along {right} directions, not {wrong} ones"):
        first_variation(b, functional, direction)


def test_first_variation_refuses_the_fd_audit_of_a_stack(monkeypatch):
    # the audit differences one form; a stack is refused before any variation work
    def refuse(*args):
        raise AssertionError("a refused call varied the energy")

    b = seeded_bundle("kodaira_thurston", seed=1)
    forms = constraint_basis(b.alg, "skt").forms
    monkeypatch.setattr(variation, "_var_torsion_at", refuse)
    for direction in (forms, make_direction(b.alg, forms)):
        with pytest.raises(ValueError, match="not a stack of 4"):
            first_variation(b, "F", direction, with_fd=True)


def test_var_F_rejects_wrong_direction_kind():
    b = seeded_bundle("kodaira_thurston")
    vol = make_direction(b.alg, Form.monomial(2, (0,), (0,), 1j), kind="volume")
    with pytest.raises(DirectionNotAdmissible):
        first_variation(b, "F", vol)


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
