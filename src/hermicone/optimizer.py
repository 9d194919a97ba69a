"""Constrained descent of the torsion energies over invariant metric cones.

The feasible sets are linear slices of a positivity cone: pluriclosed
metrics (del dbar omega = 0) parametrized by real (1,1) forms, and
coclosed volume data (d Omega = 0) parametrized by real (n-1,n-1) forms.
Both slices are computed once as SVD null spaces over an explicit real
basis, then orthonormalized in the L2 product of the identity metric, and the
energies are minimized by projected gradient descent with a backtracking
line search that never leaves the positivity cone.  The slice gradient
is the exact closed-form first variation from the variation module;
finite differences only audit it (variation.fd_derivative in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCone, InfeasibleStart, NotPositive, SchemaError, ToleranceFailure
from .exterior import Form
from .functionals import cone_slice, energy, evaluate
from .hodge import predicates
from .metric import DEFAULT_TOL, HermitianMetric, bundle_for_algebra
from .model import valid_algebra
from .variation import first_variation, make_direction

NULLSPACE_RTOL = 1e-10
DEGENERACY_RTOL = 1e-6


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
    basis.  Orthonormality is w.r.t. Re of the L2 product of the identity
    metric, whose Gram blocks are exactly I and det H exactly 1.0: the
    Euclidean product of the coefficient vectors.
    """

    kind: str
    pq: tuple
    matrix: np.ndarray
    n: int

    @property
    def dimension(self):
        return self.matrix.shape[1]

    @property
    def forms(self):
        """The basis forms, one stacked Form."""
        return self._form(self.matrix.T)

    def _form(self, block):
        return Form.at(self.n, self.pq, block)

    def combine(self, x):
        return self._form(self.matrix @ np.asarray(x, dtype=float))

    def coordinates(self, form):
        """Orthogonal coordinates of a form (exact when it lies in the slice)."""
        return (self.matrix.conj().T @ form.part(self.pq)).real


def constraint_basis(model, kind):
    """Null space of the cone constraint over the real ambient basis.

    kind names a hodge.CONES cone: "skt" works on real (1,1) forms with del dbar
    = 0; "balanced" on real (n-1,n-1) forms with d = 0.  The basis is
    orthonormal in the L2 product of the identity metric.
    An empty cone still has a slice: descend probes it for a positive point.  A
    model is validated first (model.valid_algebra); an ExteriorAlgebra is not.
    """
    alg = valid_algebra(model)
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

    ambient_blocks = ambient.part((p, p)).T
    raw = ambient_blocks @ null
    # orthonormalize in Re of the identity's L2 product; Re(A^H A) = diag(1 or 2), so w >= 1
    gram = (raw.conj().T @ raw).real
    w, v = np.linalg.eigh(0.5 * (gram + gram.T))
    return ConstraintBasis(kind, (p, p), ambient_blocks @ (null @ (v / np.sqrt(w))), n)


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

    @property
    def monotone(self):
        vals = [r.value for r in self.records]
        return all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @property
    def max_constraint_residual(self):
        return max((r.constraint_residual for r in self.records), default=0.0)

    def to_jsonable(self):
        out = {k: v for k, v in vars(self).items() if k not in ("records", "final_matrix")}
        return {**out, "iterations": [r.to_jsonable() for r in self.records],
                "final_matrix_real": np.real(self.final_matrix).tolist(),
                "final_matrix_imag": np.imag(self.final_matrix).tolist(),
                "monotone": self.monotone, "max_constraint_residual": self.max_constraint_residual}

    def csv_rows(self):
        """One flat dict per iteration, coefficients split into c0, c1, ..."""
        rows = []
        for r in self.records:
            row = r.to_jsonable()
            row.update({f"c{a}": c for a, c in enumerate(row.pop("coefficients"))})
            rows.append(row)
        return rows


# SchemaError: a scale past the float range; any error not listed stops the run
_UNEVALUABLE = (NotPositive, SchemaError, ToleranceFailure, np.linalg.LinAlgError)


class _Objective:
    """Slice coordinates -> energy value at that point, None when it is not admissible.

    With normalize on, the descent moves on the unit normalization slice: point(x) =
    x / c(x) turns coordinates into an evaluation point, for the line search's trial
    points and the descent's start alone.  Every other method reads x as it is given,
    so an accepted iterate is the point whose value the line search accepted.  The
    normalization integral c is linear: covector holds its value on each basis form.

    A trial point costs its bundle and its value: the line search judges it on
    the value alone, so the energy's ingredients, the pure-type norms and the other
    cone's residual are never formed there (evaluate).  Only the last bundle is
    kept: the line search stops before a trial point equal to the iterate.
    """

    def __init__(self, alg, basis, functional, nu, weight_bundle, tol, normalize):
        self.alg = alg
        self.basis = basis
        self.functional = functional
        self.nu = nu
        self.weight_bundle = weight_bundle
        self.tol = tol
        self.normalize = normalize
        self.cone = cone_slice(basis.kind)
        self.kind = self.cone.direction
        # one stack for the whole descent: its direction-only work is done once
        self.directions = make_direction(alg, basis.forms, kind=self.kind, tol=tol)
        self.covector = self.directions.nu_integrals(alg, nu)
        self._last = None

    def normalization(self, x):
        return float(self.covector @ x)

    def point(self, x):
        """x's evaluation point: x / c(x) with normalize on, None where c(x) <= 0; x
        itself with normalize off."""
        if not self.normalize:
            return x
        c = self.normalization(x)
        return x / c if c > 0 else None

    def constraint_residual(self, x):
        return self.cone.constraint(self.alg, self.basis.combine(x)).max_abs()

    def at(self, x):
        """The bundle at x, None where it is refused.  The last one is kept: a trial
        point's guard and value share it, and so do the gradient and the record at the
        iterate the line search accepted there."""
        try:
            key = x.tobytes()
            if self._last is None or self._last[0] != key:
                metric = self.cone.metric(self.alg, self.basis.combine(x))
                self._last = (key, bundle_for_algebra(self.alg, metric, self.tol))
        except _UNEVALUABLE:
            return None
        return self._last[1]

    def __call__(self, x):
        bundle = self.at(x)
        if bundle is None:
            return None
        try:
            return evaluate(bundle, self.functional, self.nu, self.weight_bundle).value
        except _UNEVALUABLE:
            return None

    def gradient(self, x):
        """Exact slice gradient at x, None when it is not evaluable there.

        One bundle at x; each entry is the closed-form derivative along a basis form,
        all of them from one stacked variation pass.  With normalize on, x is an
        evaluation point (c(x) = 1 up to rounding) and the chain rule through
        x -> x / c(x) gives (g - covector (g . x)) / c(x).
        """
        bundle = self.at(x)
        if bundle is None:
            return None
        try:
            grad = first_variation(bundle, self.functional, self.directions, self.nu,
                                   self.weight_bundle).derivative
        except _UNEVALUABLE:
            return None
        if self.normalize:
            grad = (grad - self.covector * (grad @ x)) / self.normalization(x)
        return grad


def _line_search(obj, x, grad, value, alpha0):
    """Halve the step until positivity and strict decrease both hold.

    Returns (candidate, value, alpha, backtracks), or, once no step above the
    floor satisfies both guards, the termination that ends the descent:
    "PositivityBoundary" when no trial point was positive, else "NumericalStall".
    The trial point is the evaluation point of x - alpha grad (obj.point), and a step
    that rounds onto x is no step: it ends the search as a stall, as every smaller one
    would.
    """
    alpha = alpha0
    bt = 0
    termination = "PositivityBoundary"
    while alpha >= LINESEARCH_FLOOR:
        step = x - alpha * grad
        if np.array_equal(step, x):
            return "NumericalStall"
        cand = obj.point(step)
        if cand is not None and obj.at(cand) is not None:
            termination = "NumericalStall"
            cand_val = obj(cand)
            if cand_val is not None and cand_val < value:
                return cand, cand_val, alpha, bt
        alpha *= 0.5
        bt += 1
    return termination


def descend(model, functional="F_tilde", start=None, nu=None,
            steps=100, seed=0, tol=DEFAULT_TOL, gradient_tol=1e-8,
            normalize=None, max_step=None):
    """Projected gradient descent of one torsion energy inside its cone.

    start is a HermitianMetric, whose slice datum starts the descent; None
    starts from the identity, "random" from a seeded positive point in the
    slice.  normalize rescales the start and every trial point to a unit
    normalization integral against nu (the default for F_tilde; an option for
    the others, including the volume normalization for G), so each iterate is
    the point whose value the line search accepted.
    nu (the identity by default) is also the weight of H, as in evaluate.
    The slice gradient is exact: the closed-form first variation
    (FunctionalVariation.derivative) along each basis form, at one bundle
    per iterate, in one stacked variation pass over the basis (chunked only
    beyond DENSE_BUDGET) whose direction-only work is done once per descent.
    max_step caps the trial step length, trading speed for trace
    resolution near degenerate boundaries.  Termination is one of
    GradientSmall, PositivityBoundary, MaxIters, NumericalStall; the
    stall means either that the gradient is not evaluable at the iterate
    (a positivity, float-scale or tolerance failure) or that the line search
    finds no decrease above its floor; PositivityBoundary, that no trial point
    of the line search was positive (or had a positive normalization integral).
    model is validated as in constraint_basis.
    """
    alg = valid_algebra(model)
    n = alg.n
    spec = energy(functional)
    basis = constraint_basis(alg, spec.slice)
    # the identity's datum projected onto the slice must stay positive
    cone = cone_slice(spec.slice)
    datum = basis.combine(basis.coordinates(cone.datum(HermitianMetric.identity(n).form())))
    try:
        cone.metric(alg, datum).check()
    except NotPositive as exc:
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
        start = HermitianMetric.identity(n) if start is None else start
        start_form = obj.cone.datum(start.form())
        x = basis.coordinates(start_form)
        residual = (basis.combine(x) - start_form).max_abs()
        if residual > tol * (1.0 + start_form.max_abs()):
            raise InfeasibleStart(
                f"starting point is outside the constraint slice (residual {residual:.3e})")
        x = obj.point(x)
        if x is None or obj.at(x) is None:
            raise InfeasibleStart("starting point is not positive")

    value = obj(x)
    if value is None:
        raise InfeasibleStart("energy is not evaluable at the starting point")
    initial_value = float(value)
    records = []
    termination = "MaxIters"
    step_size = 1.0
    bundle = obj.at(x)  # the iterate's, for its record and the final predicates
    for it in range(steps + 1):
        bundle = obj.at(x)
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
            min_eigenvalue=bundle.metric.min_eigenvalue(),
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
        step = _line_search(obj, x, grad, value, alpha0)
        if isinstance(step, str):
            termination = step
            break
        x, value, step_size, bt = step
        records[-1].step_size = step_size
        records[-1].backtracks = bt

    preds = predicates(bundle, 1e-6)
    h, lam = bundle.metric.h, bundle.metric.min_eigenvalue()
    degen = bool(lam < DEGENERACY_RTOL * np.trace(h).real / n)
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
    )


def _random_feasible(obj, basis, rng):
    """The evaluation point of the first seeded draw whose energy is evaluable there."""
    anchor = basis.coordinates(obj.cone.datum(HermitianMetric.identity(basis.n).form()))
    for _ in range(RANDOM_START_TRIES):
        x = obj.point(anchor + 0.3 * rng.standard_normal(basis.dimension))
        if x is not None and obj(x) is not None:
            return x
    raise InfeasibleStart("no positive random start found in the slice")
