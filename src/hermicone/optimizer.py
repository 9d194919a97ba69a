"""Constrained descent of the torsion energies over invariant metric cones.

The feasible sets are linear slices of a positivity cone: pluriclosed
metrics (del dbar omega = 0) parametrized by real (1,1) forms, and
coclosed volume data (d Omega = 0) parametrized by real (n-1,n-1) forms.
Both slices are computed once as SVD null spaces over an explicit real
basis, then orthonormalized against a reference inner product, and the
energies are minimized by projected gradient descent with a backtracking
line search that never leaves the positivity cone.  The slice gradient
is the exact closed-form first variation from the variation module;
finite differences only audit it (variation.fd_derivative in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyCone, InfeasibleStart, LineSearchFailure, NotPositive,
                     NotPositiveDefinite, SchemaError, ToleranceFailure)
from .exterior import ExteriorAlgebra, Form
from .functionals import SLICES, cone_slice, energy, evaluate
from .hodge import predicates
from .metric import DEFAULT_TOL, HermitianMetric, bundle_for_algebra
from .model import algebra_for
from .variation import make_direction, variation_at

NULLSPACE_RTOL = 1e-10
DEGENERACY_RTOL = 1e-6


def _algebra_of(obj):
    return obj if isinstance(obj, ExteriorAlgebra) else algebra_for(obj)


def real_block_basis(n, p):
    """Real basis of the conjugation-fixed subspace of Lambda^{p,p}, one stacked Form.

    The pairs (I, J), I <= J, run in basis order: diagonal monomials enter
    once (times i when conjugation flips their sign), off-diagonal ones as the
    two real combinations of e and conj(e).
    """
    s = -1.0 if (p * p) % 2 else 1.0  # conj(e_IJ) = s * e_JI
    size = math.comb(n, p)
    i, j = np.triu_indices(size)
    e_ij, e_ji = (np.eye(size * size)[a * size + b] for a, b in ((i, j), (j, i)))
    diag = (i == j)[:, None]
    # each pair's rows: its first combination, and off the diagonal its second
    rows = np.stack([np.where(diag, (1j if s < 0 else 1.0) * e_ij, e_ij + s * e_ji),
                     1j * (e_ij - s * e_ji)], axis=1)
    return Form.at(n, (p, p), rows[np.hstack([np.ones_like(diag), ~diag])])


@dataclass
class ConstraintBasis:
    """Orthonormal real basis of an admissible linear slice.

    The columns of matrix are the (p,p) blocks of the basis forms, which
    span the null space of the constraint map inside the ambient real
    basis.  Orthonormality is w.r.t. Re of the reference L2 product.
    """

    kind: str
    pq: tuple
    matrix: np.ndarray
    reference: object

    @property
    def dimension(self):
        return self.matrix.shape[1]

    @property
    def forms(self):
        """The basis forms, one stacked Form."""
        return self._form(self.matrix.T)

    def _form(self, block):
        return Form.at(self.reference.n, self.pq, block)

    def combine(self, x):
        return self._form(self.matrix @ np.asarray(x, dtype=float))

    def coordinates(self, form):
        """Reference-orthogonal coordinates of a form (exact when it lies in the slice)."""
        ref = self.reference
        pairing = self.matrix.conj().T @ (ref.gram(*self.pq) @ form.part(self.pq))
        return (pairing * ref.det_h).real


def constraint_basis(model, kind):
    """Null space of the cone constraint over the real ambient basis.

    kind names a SLICES cone: "skt" works on real (1,1) forms with del dbar
    = 0; "balanced" on real (n-1,n-1) forms with d = 0.  The basis is
    orthonormal in the L2 product of the identity metric, its reference.
    An empty cone still has a slice: descend probes it for a positive point.
    """
    alg = _algebra_of(model)
    n = alg.n
    cone = cone_slice(kind)
    p = cone.degree(n)
    ambient = real_block_basis(n, p)
    images = cone.constraint(alg, ambient)
    # rows: the constraint's nonzero bidegrees, sorted, real parts above imaginary ones
    keys = sorted(images.bidegrees())
    vals = np.concatenate([images.part(pq) for pq in keys], axis=-1).T \
        if keys else np.zeros((0, len(ambient.vec)), dtype=complex)
    mat = np.concatenate([vals.real, vals.imag])
    if np.any(mat):
        _, sing, vt = np.linalg.svd(mat)
        keep = np.ones(len(ambient.vec), dtype=bool)
        keep[:sing.size] = sing <= NULLSPACE_RTOL * sing.max(initial=0.0)
        null = vt.T[:, keep]
    else:
        null = np.eye(len(ambient.vec))

    reference = bundle_for_algebra(alg, HermitianMetric.identity(n))
    ambient_blocks = ambient.part((p, p)).T
    raw = ambient_blocks @ null
    # orthonormalize w.r.t. the real part of the reference L2 product
    gram = (raw.conj().T @ (reference.gram(p, p) @ raw) * reference.det_h).real
    if null.shape[1]:
        w, v = np.linalg.eigh(0.5 * (gram + gram.T))
        if w.min(initial=1.0) <= 0:
            raise ToleranceFailure("constraint basis Gram matrix is not positive")
        coeffs = null @ (v / np.sqrt(w))
    else:
        coeffs = null
    return ConstraintBasis(kind, (p, p), ambient_blocks @ coeffs, reference)


# ----- descent ---------------------------------------------------------------------


KAHLER_FLOOR_RTOL = 1e-12
LINESEARCH_FLOOR = 1e-16
RANDOM_START_TRIES = 50  # seeded draws a random start makes before InfeasibleStart


@dataclass
class IterationRecord:
    """One visited iterate: its slice coordinates and diagnostics."""

    index: int
    coefficients: np.ndarray
    value: float
    gradient_norm: float
    step_size: float
    min_eigenvalue: float
    normalization_integral: float
    constraint_residual: float
    backtracks: int

    def to_jsonable(self):
        return {**vars(self), "coefficients": [float(c) for c in self.coefficients]}


@dataclass
class DescentTrace:
    functional: str
    kind: str
    seed: int
    termination: str
    records: list
    initial_value: float
    final_value: float
    final_matrix: np.ndarray
    reached_kahler: bool
    kahler_consistent: bool
    degenerating: bool
    constraint_dimension: int
    normalized: bool
    tol: float
    final_coordinates: np.ndarray = field(default=None, repr=False)

    @property
    def monotone(self):
        vals = [r.value for r in self.records]
        return all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @property
    def max_constraint_residual(self):
        return max((r.constraint_residual for r in self.records), default=0.0)

    def to_jsonable(self):
        return {
            "functional": self.functional,
            "kind": self.kind,
            "seed": self.seed,
            "termination": self.termination,
            "initial_value": self.initial_value,
            "final_value": self.final_value,
            "final_matrix_real": np.real(self.final_matrix).tolist(),
            "final_matrix_imag": np.imag(self.final_matrix).tolist(),
            "reached_kahler": self.reached_kahler,
            "kahler_consistent": self.kahler_consistent,
            "degenerating": self.degenerating,
            "constraint_dimension": self.constraint_dimension,
            "normalized": self.normalized,
            "monotone": self.monotone,
            "max_constraint_residual": self.max_constraint_residual,
            "iterations": [r.to_jsonable() for r in self.records],
        }

    def csv_rows(self):
        """One flat dict per iteration, coefficients split into c0, c1, ..."""
        rows = []
        for r in self.records:
            row = r.to_jsonable()
            row.update({f"c{a}": c for a, c in enumerate(row.pop("coefficients"))})
            rows.append(row)
        return rows


# SchemaError: a trial point whose scale leaves the float range
_UNEVALUABLE = (NotPositive, NotPositiveDefinite, SchemaError, ToleranceFailure,
                ValueError)


class _Objective:
    """Coordinates -> energy value, None when the point is not admissible.

    With normalize on, evaluation happens at the rescaled representative
    with unit normalization integral, so the composed objective is
    constant along rays and monotone line searches survive the rescaling
    of accepted iterates.  The normalization integral is linear in the
    coordinates: covector holds its value on each basis form.
    """

    def __init__(self, alg, basis, functional, nu, weight_bundle, tol, normalize):
        self.alg = alg
        self.basis = basis
        self.functional = functional
        self.nu = nu
        self.weight_bundle = weight_bundle
        self.tol = tol
        self.normalize = normalize
        self.cone = SLICES[basis.kind]
        self.kind = self.cone.direction
        # one stack for the whole descent: its direction-only work is done once
        self.directions = make_direction(alg, basis.forms, kind=self.kind, tol=tol)
        self.covector = self.directions.nu_integrals(alg, nu)
        self._last = None

    def metric_at(self, x):
        return self.cone.metric(self.alg, self.basis.combine(x)).check()

    def min_eigenvalue(self, x):
        try:
            return self._bundle(self.retract(x) if self.normalize else x) \
                .metric.min_eigenvalue()
        except (NotPositive, NotPositiveDefinite, SchemaError, ValueError):
            return -np.inf

    def normalization(self, x):
        return float(self.covector @ x)

    def retract(self, x):
        """Rescale onto the unit normalization slice; the integral is linear."""
        c = self.normalization(x)
        if not c > 0:
            raise ValueError("normalization integral is not positive")
        return x / c

    def constraint_residual(self, x):
        return self.cone.constraint(self.alg, self.basis.combine(x)).max_abs()

    def _bundle(self, x):
        """Bundle at an evaluation point.  The last one is kept: a trial
        point's positivity check and value share it, and so do the
        gradient and the record at an accepted iterate."""
        key = x.tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, bundle_for_algebra(self.alg, self.metric_at(x), self.tol))
        return self._last[1]

    def __call__(self, x):
        try:
            bundle = self._bundle(self.retract(x) if self.normalize else x)
            return evaluate(bundle, self.functional, self.nu, self.weight_bundle).value
        except _UNEVALUABLE:
            return None

    def gradient(self, x):
        """Exact slice gradient at x, None when it is not evaluable there.

        One bundle at the (retracted) iterate; each entry is the closed-form
        derivative along a basis form, all of them from one stacked variation
        pass.  With normalize on, the chain rule through x -> x / c(x) gives
        (g - covector (g . x_r)) / c(x).
        """
        try:
            x_r = self.retract(x) if self.normalize else x
            bundle = self._bundle(x_r)
            grad = variation_at(bundle, self.functional, self.nu,
                                self.weight_bundle)(self.directions).derivative
        except _UNEVALUABLE:
            return None
        if self.normalize:
            grad = (grad - self.covector * (grad @ x_r)) / self.normalization(x)
        return grad


def _line_search(obj, x, grad, gnorm, value, alpha0):
    """Halve the step until positivity and strict decrease both hold.

    Returns (candidate, value, alpha, backtracks) or raises
    LineSearchFailure once no step above the floor satisfies both guards;
    the exception carries whether positivity was the blocking guard.
    """
    alpha = alpha0
    bt = 0
    positivity_blocked = True
    while alpha >= LINESEARCH_FLOOR:
        cand = x - alpha * grad
        if obj.min_eigenvalue(cand) > 0:
            positivity_blocked = False
            cand_val = obj(cand)
            if cand_val is not None and cand_val < value:
                return cand, cand_val, alpha, bt
        alpha *= 0.5
        bt += 1
    exc = LineSearchFailure(
        f"no step in [{LINESEARCH_FLOOR:.0e}, {alpha0:.3e}] satisfies "
        "positivity and monotone decrease")
    exc.positivity_blocked = positivity_blocked
    raise exc


def descend(model, functional="F_tilde", start=None, nu=None,
            steps=100, seed=0, tol=DEFAULT_TOL, gradient_tol=1e-8,
            normalize=None, max_step=None):
    """Projected gradient descent of one torsion energy inside its cone.

    start is a HermitianMetric (metric functionals) or an (n-1,n-1) Form
    ("G"); None starts from the identity data, "random" from a seeded
    positive point in the slice.  normalize rescales every iterate to a
    unit normalization integral against nu (the default for F_tilde; an
    option for the others, including the volume normalization for G).
    nu (the identity by default) is also the weight of H, as in evaluate.
    The slice gradient is exact: the closed-form first variation
    (FunctionalVariation.derivative) along each basis form, at one bundle
    per iterate, in one stacked variation pass over the basis (chunked only
    beyond DENSE_BUDGET) whose direction-only work is done once per descent.
    max_step caps the trial step length, trading speed for trace
    resolution near degenerate boundaries.  Termination is one of
    GradientSmall, PositivityBoundary, MaxIters, NumericalStall; the
    stall means either that the gradient is not evaluable at the iterate
    (a positivity, float-scale or tolerance failure, or a normalization
    integral that is not positive) or that the line search finds no
    decrease above its floor.
    """
    alg = _algebra_of(model)
    n = alg.n
    spec = energy(functional)
    basis = constraint_basis(alg, spec.slice)
    # the reference metric's datum projected onto the slice must stay positive
    cone = cone_slice(spec.slice)
    datum = basis.combine(basis.coordinates(cone.datum(basis.reference.metric)))
    try:
        cone.metric(alg, datum).check()
    except (NotPositive, NotPositiveDefinite) as exc:
        raise EmptyCone(cone.empty) from exc
    if normalize is None:
        normalize = spec.normalize
    nu = nu if nu is not None else HermitianMetric.identity(n)
    weight_bundle = bundle_for_algebra(alg, nu, tol) if spec.weighted else None
    obj = _Objective(alg, basis, functional, nu, weight_bundle, tol, normalize)

    rng = np.random.default_rng(seed)
    if isinstance(start, str) and start == "random":
        x = _random_feasible(obj, basis, rng)
    else:
        start_form = _start_form(obj.cone, start, n)
        x = basis.coordinates(start_form)
        residual = (basis.combine(x) - start_form).max_abs()
        if residual > tol * (1.0 + start_form.max_abs()):
            raise InfeasibleStart(
                f"starting point is outside the constraint slice (residual {residual:.3e})")
        if obj.min_eigenvalue(x) <= 0:
            raise InfeasibleStart("starting point is not positive")
    if normalize:
        try:
            x = obj.retract(x)
        except ValueError as exc:
            raise InfeasibleStart(str(exc)) from exc

    value = obj(x)
    if value is None:
        raise InfeasibleStart("energy is not evaluable at the starting point")
    initial_value = float(value)
    records = []
    termination = "MaxIters"
    step_size = 1.0
    for it in range(steps + 1):
        grad = obj.gradient(x)
        if grad is None:
            termination = "NumericalStall"
            break
        gnorm = float(np.linalg.norm(grad))
        records.append(IterationRecord(
            index=it,
            coefficients=np.array(x, dtype=float),
            value=float(value),
            gradient_norm=gnorm,
            step_size=0.0,
            min_eigenvalue=obj.min_eigenvalue(x),
            normalization_integral=obj.normalization(x),
            constraint_residual=obj.constraint_residual(x),
            backtracks=0,
        ))
        if gnorm <= gradient_tol:
            termination = "GradientSmall"
            break
        if it == steps:
            termination = "MaxIters"
            break
        alpha0 = min(step_size * 4.0, 1.0 / max(gnorm, 1e-12))
        if max_step is not None:
            alpha0 = min(alpha0, max_step)
        try:
            cand, cand_val, alpha, bt = _line_search(obj, x, grad, gnorm, value, alpha0)
        except LineSearchFailure as exc:
            termination = "PositivityBoundary" if exc.positivity_blocked \
                else "NumericalStall"
            break
        x = obj.retract(cand) if normalize else cand
        value = cand_val
        step_size = alpha
        records[-1].step_size = alpha
        records[-1].backtracks = bt

    final_bundle = obj._bundle(obj.retract(x) if normalize else x)
    preds = predicates(final_bundle, 1e-6)
    h = final_bundle.metric.h
    degen = bool(np.linalg.eigvalsh(h)[0] < DEGENERACY_RTOL * np.trace(h).real / n)
    # a vanishing pluriclosed energy certifies a Kahler point; G and H have
    # no such converse, so the consistency gate only watches the F family
    floor = KAHLER_FLOOR_RTOL * (initial_value + 1.0)
    near_zero = spec.certifies_kahler and any(r.value < floor for r in records)
    consistent = (not near_zero) or \
        (termination == "GradientSmall" and preds.is_kahler)
    return DescentTrace(
        functional=functional,
        kind=obj.kind,
        seed=seed,
        termination=termination,
        records=records,
        initial_value=initial_value,
        final_value=float(value),
        final_matrix=h,
        reached_kahler=preds.is_kahler,
        kahler_consistent=consistent,
        degenerating=degen,
        constraint_dimension=basis.dimension,
        normalized=normalize,
        tol=tol,
        final_coordinates=x,
    )


def _start_form(cone, start, n):
    """The slice datum of a start point: a Form as it is, else the datum of a
    metric (a HermitianMetric, a Hermitian matrix, or the identity for None)."""
    if isinstance(start, Form):
        return start
    if start is None:
        start = HermitianMetric.identity(n)
    elif not isinstance(start, HermitianMetric):
        start = HermitianMetric(np.asarray(start))
    return cone.datum(start)


def _random_feasible(obj, basis, rng):
    anchor = basis.coordinates(obj.cone.datum(basis.reference.metric))
    for _ in range(RANDOM_START_TRIES):
        x = anchor + 0.3 * rng.standard_normal(basis.dimension)
        if obj.min_eigenvalue(x) > 0 and obj(x) is not None:
            return x
    raise InfeasibleStart("no positive random start found in the slice")
