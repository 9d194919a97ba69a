"""Constraint slices and projected descent of the torsion energies."""

import numpy as np
import pytest

from hermicone import variation
from hermicone.errors import EmptyCone, InfeasibleStart, LineSearchFailure, ToleranceFailure
from hermicone.exterior import Form, _combos, wedge, wedge_power
from hermicone.hodge import predicates
from hermicone.metric import DEFAULT_TOL, HermitianMetric, bundle_for_algebra
from hermicone.model import algebra_for, catalog
from hermicone.optimizer import (
    ConstraintBasis,
    constraint_basis,
    descend,
    real_block_basis,
)
# the guard logic and the gradient are worth pinning below the public API
from hermicone.optimizer import _line_search, _Objective, _random_feasible  # noqa
from hermicone.variation import fd_derivative


def _rows(stack):
    """The forms of a stacked Form, one Form each."""
    return [Form(stack.n, vec.copy()) for vec in stack.vec]


def test_real_block_basis_spans_real_forms():
    basis = real_block_basis(3, 1)
    assert basis.vec.shape[0] == 9
    for f in _rows(basis):
        assert f.is_real(1e-14)


def _real_block_basis_loop(n, p):
    """The per-monomial Form loop real_block_basis replaces, kept as its reference."""
    s = -1.0 if (p * p) % 2 else 1.0
    combos = _combos(n, p)
    out = []
    for a, I in enumerate(combos):
        out.append(Form.monomial(n, I, I, 1j if s < 0 else 1.0))
        for J in combos[a + 1:]:
            e_ij = Form.monomial(n, I, J, 1.0)
            e_ji = Form.monomial(n, J, I, 1.0)
            out.append(e_ij + s * e_ji)
            out.append(1j * (e_ij - s * e_ji))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_block_basis_matches_the_per_monomial_loop_bit_for_bit(n):
    for p in range(n + 1):
        want = np.stack([f.vec for f in _real_block_basis_loop(n, p)])
        assert real_block_basis(n, p).vec.tobytes() == want.tobytes(), p


@pytest.mark.parametrize("name,kind,dim", [
    ("torus3", "skt", 9),
    ("kodaira_thurston", "skt", 4),
    ("iwasawa", "balanced", 9),
    ("torus3", "balanced", 9),
])
def test_constraint_slice_dimensions(name, kind, dim):
    basis = constraint_basis(catalog(name), kind)
    assert basis.dimension == dim
    # every basis form satisfies the constraint and is real
    alg = algebra_for(catalog(name))
    for f in _rows(basis.forms):
        assert f.is_real(1e-12)
        if kind == "skt":
            assert alg.del_form(alg.dbar_form(f)).max_abs() <= 1e-10
        else:
            assert alg.d_form(f).max_abs() <= 1e-10


def test_constraint_basis_orthonormal():
    basis = constraint_basis(catalog("kodaira_thurston"), "skt")
    forms = _rows(basis.forms)
    gram = np.array([[basis.reference.l2_inner(a, b).real for b in forms] for a in forms])
    assert np.max(np.abs(gram - np.eye(basis.dimension))) <= 1e-10


def test_combine_and_coordinates_are_inverse():
    basis = constraint_basis(catalog("iwasawa"), "balanced")
    rng = np.random.default_rng(1)
    x = rng.normal(size=basis.dimension)
    back = basis.coordinates(basis.combine(x))
    assert np.max(np.abs(back - x)) <= 1e-10


@pytest.mark.parametrize("name,kind", [("kodaira_thurston", "skt"),
                                       ("iwasawa", "balanced")])
def test_slice_maps_match_form_loops(name, kind):
    # combine, coordinates and the normalization covector are mat-vecs now;
    # the per-form loops they replace stay here as the reference
    alg = algebra_for(catalog(name))
    basis = constraint_basis(alg, kind)
    rng = np.random.default_rng(3)
    x = rng.normal(size=basis.dimension)
    forms = _rows(basis.forms)
    loop = forms[0] * 0.0
    for c, f in zip(x, forms):
        loop = loop + float(c) * f
    assert (basis.combine(x) - loop).max_abs() <= 1e-13
    form = loop + 0.5 * forms[-1]
    want = [basis.reference.l2_inner(form, f).real for f in forms]
    assert np.max(np.abs(basis.coordinates(form) - want)) <= 1e-13
    functional = "F" if kind == "skt" else "G"
    nu = HermitianMetric(np.diag(np.arange(1.0, alg.n + 1.0)))
    obj = _Objective(alg, basis, functional, nu, None, DEFAULT_TOL, False)
    nu_form = nu.form()
    if kind == "skt":
        integral = alg.integrate(wedge(loop, wedge_power(nu_form, alg.n - 1)))
    else:
        integral = alg.integrate(wedge(nu_form, loop))
    assert obj.normalization(x) == pytest.approx(integral.real, rel=1e-13, abs=1e-13)


def test_empty_cone_probe():
    # no invariant pluriclosed metric exists on Iwasawa, nor a balanced one on
    # Kodaira-Thurston: each slice exists, and descend refuses it before its first step
    for name, kind, functional in (("iwasawa", "skt", "F"), ("kodaira_thurston", "balanced", "G")):
        assert isinstance(constraint_basis(catalog(name), kind), ConstraintBasis)
        with pytest.raises(EmptyCone):
            descend(catalog(name), functional, steps=0)


def test_descend_rejects_nonpositive_start():
    with pytest.raises(InfeasibleStart):
        descend(catalog("kodaira_thurston"), "F",
                start=HermitianMetric(np.diag([1.0, -1.0])), steps=1)


def test_descend_flat_model_stops_at_zero():
    trace = descend(catalog("torus3"), "F", start="random", seed=0, steps=5)
    assert trace.termination == "GradientSmall"
    assert len(trace.records) == 1
    assert trace.final_value == 0.0
    assert trace.reached_kahler and trace.kahler_consistent


def test_descend_decreases_pluriclosed_energy():
    trace = descend(catalog("kodaira_thurston"), "F", steps=4, normalize=False)
    assert trace.monotone
    assert trace.final_value < trace.initial_value
    assert trace.initial_value == pytest.approx(0.25, abs=1e-12)
    assert trace.max_constraint_residual <= 1e-9
    assert all(r.min_eigenvalue > 0 for r in trace.records)


def test_descend_normalized_run_stays_on_slice():
    trace = descend(catalog("kodaira_thurston"), "F_tilde", start="random", seed=0,
                    steps=10, gradient_tol=0.0, max_step=0.05)
    assert trace.monotone
    assert trace.normalized
    assert all(abs(r.normalization_integral - 1.0) <= 1e-9 for r in trace.records)
    assert all(r.min_eigenvalue > 0 for r in trace.records)
    # iterates never leave the pluriclosed slice
    assert trace.max_constraint_residual <= 1e-9
    b = bundle_for_algebra(algebra_for(catalog("kodaira_thurston")),
                           HermitianMetric(trace.final_matrix))
    assert predicates(b, 1e-6).is_skt


def test_descend_volume_functional_monotone():
    trace = descend(catalog("iwasawa"), "G", steps=30)
    assert trace.monotone
    # exact gradient steps drive the energy from 1 to rounding scale, where the
    # exact gradient is at rounding scale too: three of them, as at iterate 1 the
    # gradient norm rounds to 1 + 2^-52, so the first trial step 1 / |grad| falls
    # just under 1 and the line search lands at 1/16, one step short of 0
    assert trace.termination == "GradientSmall"
    assert len(trace.records) == 4
    assert trace.final_value < 1e-30
    assert trace.final_value < trace.initial_value
    assert trace.final_value > 0.0
    assert trace.initial_value == pytest.approx(1.0, abs=1e-12)
    assert trace.kind == "volume"


def test_descend_line_search_stall_is_reported():
    # the random start drifts towards a tolerance cliff (the torsion residual
    # gate): the gradient is still evaluable, but no trial step both evaluates
    # and decreases, so the line search stalls.  Where depends on rounding; seeds
    # 0-7 all stall, seed 3 earliest (13 records) and with the largest gradient
    # norm at the stall (1.8e-3)
    trace = descend(catalog("iwasawa"), "G", start="random", seed=3, steps=40)
    assert trace.termination == "NumericalStall"
    assert len(trace.records) < 41
    last = trace.records[-1]
    assert last.step_size == 0.0 and last.gradient_norm > 1e-8
    assert trace.monotone and trace.final_value > 0.0


def test_descend_unevaluable_gradient_stalls(monkeypatch):
    # a tolerance refusal inside the variation (the torsion's residual gate, as the
    # variation reads it) leaves the gradient unevaluable while the value evaluates
    def refused(bundle, kind):
        raise ToleranceFailure(f"torsion {kind} residuals exceed the gate")

    monkeypatch.setattr(variation, "torsion", refused)
    trace = descend(catalog("iwasawa"), "G", steps=5)
    assert trace.termination == "NumericalStall"
    assert trace.records == []
    assert trace.final_value == trace.initial_value


def _objective(name, functional, normalize):
    alg = algebra_for(catalog(name))
    basis = constraint_basis(alg, "balanced" if functional == "G" else "skt")
    nu = HermitianMetric.identity(alg.n)
    weight = bundle_for_algebra(alg, nu) if functional == "H" else None
    return _Objective(alg, basis, functional, nu, weight, DEFAULT_TOL, normalize)


def _fd_gradient(obj, x):
    # Richardson central differences of the composed objective per coordinate
    step = 1e-3 * obj.min_eigenvalue(x)
    eye = np.eye(x.size)
    return np.array([fd_derivative(lambda t, e=eye[a]: obj(x + t * e), step)
                     for a in range(x.size)])


@pytest.mark.parametrize("name,functional,normalize", [
    ("kodaira_thurston", "F", False),
    ("kodaira_thurston", "F_tilde", True),
    ("iwasawa", "G", False),
    ("iwasawa", "G", True),
    ("kodaira_thurston", "H", False),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_slice_gradient_matches_fd(name, functional, normalize, seed):
    obj = _objective(name, functional, normalize)
    # raw random points: with normalize on, c(x) != 1 exercises the chain rule
    x = _random_feasible(obj, obj.basis, np.random.default_rng(seed))
    grad = obj.gradient(x)
    fd = _fd_gradient(obj, x)
    rel = np.abs(grad - fd) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    assert np.max(rel) <= 1e-8
    assert np.linalg.norm(grad) > 1e-6  # a nontrivial comparison


def test_exact_slice_gradient_vanishes_on_flat_model():
    obj = _objective("torus3", "F", False)
    for seed in range(3):
        x = _random_feasible(obj, obj.basis, np.random.default_rng(seed))
        assert np.all(obj.gradient(x) == 0.0)


def test_descend_normalized_volume_run_flags_degeneration():
    trace = descend(catalog("iwasawa"), "G", steps=40, normalize=True)
    assert trace.monotone
    assert trace.normalized
    if trace.degenerating:
        ratio = np.linalg.eigvalsh(trace.final_matrix)[0] \
            / np.trace(trace.final_matrix).real
        assert ratio < 1e-6
    else:  # pinned once computed: this run does collapse
        pytest.fail("expected the normalized volume run to flag degeneration")


def test_descend_unnormalized_volume_run_flags_degeneration():
    # G reaches rounding level by collapsing two metric directions (eigenvalues
    # ~1e-8, 1e-8, 9.5e7): the ratio test flags it without normalization
    trace = descend(catalog("iwasawa"), "G", steps=100)
    assert not trace.normalized
    assert trace.final_value < 1e-30
    assert trace.degenerating
    eigs = np.linalg.eigvalsh(trace.final_matrix)
    assert eigs[0] / np.trace(trace.final_matrix).real < 1e-6


def test_descend_trace_serialization_shapes():
    trace = descend(catalog("kodaira_thurston"), "F", steps=2, normalize=False)
    doc = trace.to_jsonable()
    assert doc["functional"] == "F" and doc["kind"] == "metric"
    assert len(doc["iterations"]) == len(trace.records)
    assert doc["monotone"] is True
    it0 = doc["iterations"][0]
    assert set(it0) == {"index", "coefficients", "value", "gradient_norm",
                        "step_size", "min_eigenvalue", "normalization_integral",
                        "constraint_residual", "backtracks"}
    rows = trace.csv_rows()
    assert len(rows) == len(trace.records)
    assert all(f"c{i}" in rows[0] for i in range(trace.constraint_dimension))


def test_descend_H_functional_smoke():
    trace = descend(catalog("kodaira_thurston"), "H", steps=3, normalize=False)
    assert trace.monotone
    assert trace.final_value <= trace.initial_value
    assert trace.kahler_consistent  # the gate only ever watches the F family


def test_line_search_guard_flags():
    class NeverPositive:
        def min_eigenvalue(self, x):
            return -1.0

        def __call__(self, x):
            return 0.0

    with pytest.raises(LineSearchFailure) as info:
        _line_search(NeverPositive(), np.zeros(2), np.ones(2), 1.0, 1.0, 1.0)
    assert info.value.positivity_blocked

    class NoDecrease:
        def min_eigenvalue(self, x):
            return 1.0

        def __call__(self, x):
            return 1.0

    with pytest.raises(LineSearchFailure) as info:
        _line_search(NoDecrease(), np.zeros(2), np.ones(2), 1.0, 1.0, 1.0)
    assert not info.value.positivity_blocked


def test_line_search_accepts_decreasing_step():
    class Quadratic:
        def min_eigenvalue(self, x):
            return 1.0

        def __call__(self, x):
            return float(x @ x)

    x = np.array([1.0, 0.0])
    grad = np.array([2.0, 0.0])
    cand, val, alpha, bt = _line_search(Quadratic(), x, grad, 2.0, 1.0, 0.25)
    assert val < 1.0
    assert cand[0] == pytest.approx(1.0 - alpha * 2.0)
    assert bt >= 0
