"""Hodge decompositions, projectors, torsion forms and the (n-1) root.

Each space's Hodge decomposition is made once per bundle, by decomposition(bundle,
which, key), from the algebra's metric-free bases (ExteriorAlgebra.bases): the
G-orthogonal projectors B (B^H G B)^-1 B^H G onto the image of the differential
into the space and onto the kernel of the differential out of it, whose difference
is the harmonic projector.  No eigensolver is involved: on these finite invariant
complexes the images and kernels are the same at every metric, and the metric
enters only through the Gram matrix G.  The Green operator solves the Laplacian
plus its harmonic projector, which is invertible.

The Green operator and potential_map, the one composition green(prev) codiff(key)
of the minimal potential (potential and variation's eta and lift call it), take
their codifferentials from potential_codiff, a solve against the computed Gram,
not from the bundle's closed-form G^{-1}: the potential's kernel residual
measures its potential against the computed G, and the Green operator amplifies
the closed form's G G^{-1} - I ~ eps kappa(H) into it by the inverse of the
Laplacian's smallest nonzero eigenvalue, where a solve's backward error does not
show.

The projectors onto the images of a differential and of its codifferential
and the minimum-norm potential are written once over (which, key), as the
bundle's codiff and laplacian are: torsion rho is the "d" potential on
degree 3, torsion Gamma the "dbar" potential on (n-1, n-1).  A torsion's report, its
pure-type norms and each predicate residual are kept on the bundle by memo, as the
decompositions are, and none of them refers back to it.

CONES states each metric cone once with its torsion (TORSIONS, by torsion name):
the SKT cone with rho, the balanced cone with Gamma.  Every module reads a cone's
datum, constraint, metric map, torsion space, source, flag and refusal there.

verify audits the decompositions of "d" where the construction leaves room for
error, per chunk of metrics by three_space_residuals and once per algebra by
basis_residuals; the sum and the orthogonality of the three spaces hold by
construction and are left to the tests.  A chunk is one bundle over a stack of
metrics (exterior.metrics_per_stack): the walk runs once over the stack, every factor
and column carries the stack on its leading axis, the metric-free bases and seeded
vectors (_probes) serve the whole stack, and each row is the maximum over it, with
each metric's values the bits of a walk of its own.  verify holds one degree at a
time: the walk keeps each projector of the degree as its factors B, B^H G and
M = B^H G B (_factors), B^H G by the bidegree Gram blocks, applies them to N x r
and N x 3 columns and drops them once the degree is audited; d and d^* reach the
columns block by block (ExteriorAlgebra.total_times).  verify forms no N x N
projector and keeps no Decomposition or total-degree matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NotBalanced, NotPositive, NotSKT, ToleranceFailure
from .exterior import Form, _complement, memo, neighbor, wedge_power
from .metric import HermitianMetric


def _projector(basis, gram):
    """G-orthogonal projector B (B^H G B)^-1 B^H G onto the span of basis's columns."""
    bg = basis.conj().T @ gram
    return basis @ np.linalg.solve(bg @ basis, bg)


def _factors(basis, gram):
    """(B, B^H G, M = B^H G B): the projector B M^-1 B^H G onto the span of basis's
    columns as its factors, G block diagonal with the (slice, block) pairs gram, whose
    blocks may stack the Grams of several metrics on a leading axis."""
    bh = basis.conj().T
    bg = np.empty(gram[0][1].shape[:-2] + bh.shape, dtype=complex)
    for sl, block in gram:
        bg[..., sl] = bh[:, sl] @ block
    return basis, bg, bg @ basis


def _apply(factors, cols):
    """P cols = B M^-1 (B^H G cols), the projector of factors applied without forming it;
    stacked factors take a stack of columns, or one set of columns for every metric."""
    basis, bg, m = factors
    return basis @ np.linalg.solve(m, bg @ cols)


def _side_by_side(*cols):
    """The column blocks side by side, those shared by a stack repeated over its axis."""
    lead = max((c.shape[:-2] for c in cols), key=len)
    out = np.empty(lead + (len(cols[0]), sum(c.shape[-1] for c in cols)), dtype=complex)
    start = 0
    for c in cols:
        out[..., start:start + c.shape[-1]] = c
        start += c.shape[-1]
    return out


class Decomposition:
    """The Hodge decomposition of one space as dense G-orthogonal projectors, G its
    Gram matrix: image onto the image of diff(which, prev), kernel onto the kernel of
    diff(which, key), and harmonic = kernel - image onto the kernel of the Laplacian,
    of dimension alg.harmonic_dim(which, key), read-only once kept (decomposition).
    The job path reads these; verify's walk keeps the projectors as their factors
    instead (_factors).  It keeps no reference to the bundle, which would make every
    bundle cyclic garbage."""

    def __init__(self, bundle, which, key):
        alg, gram = bundle.alg, bundle.gram_total(key)
        self.image = _projector(alg.bases(which, neighbor(which, key, -1))[0], gram)
        self.kernel = _projector(alg.bases(which, key)[1], gram)
        self.harmonic = self.kernel - self.image


@memo
def decomposition(bundle, which, key):
    """The Decomposition of the space of which at key, kept on the bundle."""
    return Decomposition(bundle, which, key)


def harmonic_projector(bundle, which, key):
    """G-orthogonal projector onto ker of the chosen Laplacian."""
    return decomposition(bundle, which, key).harmonic


@memo
def potential_codiff(bundle, which, key):
    """codiff(which, key) as G_prev^{-1} (diff^H G_key) by a solve with the Gram G_prev,
    kept on the bundle: the codifferential of the Green operator and the potentials.
    Every caller takes it where the space at prev is not 0."""
    prev = neighbor(which, key, -1)
    return np.linalg.solve(bundle.gram_total(prev),
                           bundle.alg.diff(which, prev).conj().T @ bundle.gram_total(key))


@memo
def green_operator(bundle, which, key):
    """Pseudo-inverse of the Laplacian, zero on its kernel, kept on the bundle: lap + P_h
    is invertible, with inverse green + P_h, for the harmonic projector P_h."""
    harmonic = harmonic_projector(bundle, which, key)
    lap = bundle.laplacian(which, key, partial(potential_codiff, bundle))
    return np.linalg.solve(lap + harmonic, np.eye(len(lap))) - harmonic


def potential_map(bundle, which, key, cols):
    """The minimal potential at neighbor(which, key, -1) of a vector or a stack of
    columns cols in the image of diff(which, .) at key: green(prev) (codiff(key) cols)."""
    prev = neighbor(which, key, -1)
    return green_operator(bundle, which, prev) @ (potential_codiff(bundle, which, key) @ cols)


def image_projector(bundle, which, key):
    """G-orthogonal projector of the space at key onto the image of diff(which, .)."""
    return decomposition(bundle, which, key).image


def coimage_projector(bundle, which, key):
    """G-orthogonal projector of the space at key onto the image of codiff(which, .),
    the complement of the kernel of diff(which, key)."""
    kernel = decomposition(bundle, which, key).kernel
    return np.eye(len(kernel)) - kernel


# the per-complex names bind perfbench/tracing.py TARGETS; the package calls the above
def image_projector_d(bundle, k):
    return image_projector(bundle, "d", k)


def image_projector_d_star(bundle, k):
    return coimage_projector(bundle, "d", k)


def image_projector_dbar(bundle, p, q):
    return image_projector(bundle, "dbar", (p, q))


def image_projector_dbar_star(bundle, p, q):
    return coimage_projector(bundle, "dbar", (p, q))


# the seeded unit vectors three_space_residuals probes a space with
PROBES = 3


@memo
def _probes(alg, k):
    """The seeded vectors of three_space_residuals at degree k, kept on the algebra, as
    they depend on it alone: Q c and K c on the bases Q of im d(k - 1) and K of
    ker d(k), w in degree k, d(k - 1) u, and w' in degree k + 1, from PROBES unit
    vectors c, w, u and w' each, seeded by k."""
    rng = np.random.default_rng(k)

    def unit(size):
        vecs = rng.standard_normal((size, PROBES)) + 1j * rng.standard_normal((size, PROBES))
        return vecs / np.linalg.norm(vecs, axis=0)

    image, kernel = alg.bases("d", k - 1)[0], alg.bases("d", k)[1]
    qc, kc, w = image @ unit(image.shape[1]), kernel @ unit(kernel.shape[1]), unit(len(kernel))
    down = alg.total_times(alg.d_blocks, k - 1, k, unit(alg.dim(k - 1))) if k \
        else w[:, :0]
    return qc, kc, w, down, unit(alg.dim(k + 1))


def _worst(x):
    return float(np.max(np.abs(x), initial=0.0))


def three_space_residuals(bundle, k):
    """Residuals of the Hodge decomposition of degree k at the bundle's metric, each
    on the projectors' factors applied to N x r bases or to PROBES seeded unit vectors:
    no N x N projector is formed.

    With Q and K the algebra's bases of im d(k - 1) and ker d(k), and G the Gram:
    image_on_basis P_im Q - Q and image_orthogonal Q^H G (I - P_im) are P_im's
    defining equations; kernel_on_basis P_ker K c - K c and kernel_orthogonal
    K^H G (w - P_ker w) are P_ker's, on seeded c and w; harmonic_on_image P_h Q c; and
    image_of_d P_im d(k - 1) u - d(k - 1) u and kernel_of_codiff P_ker codiff(k + 1) w'
    tie the projectors to the operators identity_suite audits, d and the
    codifferential, on seeded u and w'.  The sum and the orthogonality of the three
    spaces hold by construction, harmonic = kernel - image, and the bases' own facts
    are the metric-free basis_residuals.

    The projectors are kept as their factors (_factors) for this degree alone, not as
    the bundle's Decomposition: each reaches all of its columns through one solve with
    M, and Q^H G (I - P_im) is B^H G - M M^-1 B^H G, as B = Q.  d(k - 1) u and
    codiff(k + 1) w' are taken block by block of d and of d^*
    (OperatorBundle._codiff_blocks).  On a bundle over a stack of metrics the bases and
    the seeded vectors serve the whole stack, and each residual is the maximum over it.
    """
    alg = bundle.alg
    gram = [(sl, bundle.gram(*pq)) for pq, sl in alg.slices(k).items()]
    image = alg.bases("d", k - 1)[0]
    im_f, ker_f = _factors(image, gram), _factors(alg.bases("d", k)[1], gram)
    qc, kc, w, down, w_next = _probes(alg, k)
    up = alg.total_times(bundle._codiff_blocks, k + 1, k, w_next) if k < 2 * bundle.n \
        else w[:, :0]
    r, s = image.shape[1], PROBES
    im = _apply(im_f, np.hstack([image, qc, down]))
    ker = _apply(ker_f, _side_by_side(kc, w, qc, up))
    (_, bg_im, m_im), bg_ker = im_f, ker_f[1]
    return {
        "image_on_basis": _worst(im[..., :r] - image),
        "image_orthogonal": _worst(bg_im - m_im @ np.linalg.solve(m_im, bg_im)),
        "kernel_on_basis": _worst(ker[..., :s] - kc),
        "kernel_orthogonal": _worst(bg_ker @ (w - ker[..., s:2 * s])),
        "harmonic_on_image": _worst(ker[..., 2 * s:3 * s] - im[..., r:r + s]),
        "image_of_d": _worst(im[..., r + s:] - down),
        "kernel_of_codiff": _worst(ker[..., 3 * s:]),
    }


@memo
def basis_residuals(alg):
    """Residuals of the metric-free facts the Hodge decompositions of "d" rest on, over
    every degree k, kept on the algebra: with Q_k and K_k the orthonormal bases of
    im d(k) and ker d(k), kernel_closed d(k) K_k, image_closed d(k + 1) Q_k (d o d
    on the image), orthonormal Q^H Q - I and K^H K - I, and rank_nullity
    |dim K_k + rank d(k) - N_k|, the count the harmonic dimensions are read from.  d
    reaches the bases block by block (ExteriorAlgebra.total_times)."""
    rows = []
    for k in range(2 * alg.n + 1):
        image, kernel = alg.bases("d", k)
        rows.append({
            "kernel_closed": _worst(alg.total_times(alg.d_blocks, k, k + 1, kernel)),
            "image_closed": _worst(alg.total_times(alg.d_blocks, k + 1, k + 2, image))
            if k < 2 * alg.n else 0.0,
            "orthonormal": max(_worst(b.conj().T @ b - np.eye(b.shape[1]))
                               for b in (image, kernel)),
            "rank_nullity": float(abs(kernel.shape[1] + image.shape[1] - alg.dim(k))),
        })
    return {name: max(row[name] for row in rows) for name in rows[0]}


# ----- the two cones -----------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """One metric cone and its torsion.  The cone is the slice ker constraint of real
    (p,p) data, the datum of omega (omega itself, or omega_{n-1}); its torsion, the minimal
    potential below space(n) of source's image part, is refused as error off the cone."""

    name: str  # the constraint, as error messages name it
    empty: str  # why the feasibility probe finds the cone empty
    direction: str  # "metric" for real (1,1) directions, "volume" for (n-1,n-1) ones
    degree: Callable  # n -> p
    datum: Callable  # metric form omega -> its datum form
    metric: Callable  # (alg, datum form) -> HermitianMetric, for the caller to check()
    constraint: Callable  # (alg, form) -> the form that vanishes on the slice
    torsion: str  # the torsion's name, a key of TORSIONS
    flag: str  # the MetricPredicates flag of the cone
    residual: str  # the MetricPredicates residual behind flag
    error: type  # the refusal of the torsion off the cone
    what: str  # the residual, as error's message names it
    space: Callable  # n -> (which, key) of the space holding the torsion's source
    source: Callable  # bundle -> the source form


# the root is looked up when called, so a traced root_n_minus_1 sees the descent's calls
CONES = {
    "skt": Cone("pluriclosed", "projected reference metric is not positive definite",
                "metric", lambda n: 1, lambda omega: omega,
                lambda alg, form: HermitianMetric.from_form(form),
                lambda alg, form: alg.del_form(alg.dbar_form(form)),
                "rho", "is_skt", "ddbar_omega_residual", NotSKT, "dd-bar of omega",
                lambda n: ("d", 3), lambda bundle: bundle.alg.del_form(bundle.omega)),
    "balanced": Cone("coclosed", "projected reference volume datum is not positive",
                     "volume", lambda n: n - 1, lambda omega: wedge_power(omega, omega.n - 1),
                     lambda alg, form: root_n_minus_1(alg, form),
                     lambda alg, form: alg.d_form(form),
                     "gamma", "is_balanced", "d_omega_power_residual", NotBalanced,
                     "d of omega_(n-1)", lambda n: ("dbar", (n - 1, n - 1)),
                     lambda bundle: bundle.omega_power(bundle.n - 1)),
}
TORSIONS = {cone.torsion: cone for cone in CONES.values()}


# ----- predicates -----------------------------------------------------------------


@dataclass
class MetricPredicates:
    is_kahler: bool
    is_skt: bool
    is_balanced: bool
    d_omega_residual: float
    ddbar_omega_residual: float
    d_omega_power_residual: float
    tol: float


@memo
def _residual(bundle, torsion):
    """max |constraint(datum(omega))| of the cone of torsion (a key of TORSIONS), or max
    |d omega| for torsion None, kept on the bundle: each is read where it is needed,
    torsion's guard its own cone's alone.  A bundle over a stack of metrics (verify's) has
    no one verdict: DimensionMismatch."""
    if bundle.lead:
        raise DimensionMismatch(f"predicates take one metric, not a stack of {bundle.lead[0]}")
    alg, omega = bundle.alg, bundle.omega
    if torsion is None:
        return float(alg.d_form(omega).max_abs())
    cone = TORSIONS[torsion]
    return float(cone.constraint(alg, cone.datum(omega)).max_abs())


def predicates(bundle, tol=None):
    """Kahler / SKT / balanced flags with their defining residuals, at tol (the bundle's
    tolerance by default).  Each residual is kept on the bundle (_residual), as it
    depends on the metric alone, so eval, torsion and descend's final flags read the
    floats torsion's guard read.  A bundle over a stack of metrics is refused."""
    tol = bundle.tol if tol is None else tol
    d_omega = _residual(bundle, None)
    fields = {"is_kahler": bool(d_omega <= tol), "d_omega_residual": d_omega}
    for kind, cone in TORSIONS.items():
        res = _residual(bundle, kind)
        fields.update({cone.flag: bool(res <= tol), cone.residual: res})
    return MetricPredicates(tol=tol, **fields)


# ----- torsion potentials ------------------------------------------------------------


@dataclass
class PotentialSolution:
    """Minimum-norm solution of a closed-source potential equation.

    potential solves (d or dbar)(potential) = projected_source, has no
    component in the kernel of the differential, and carries the residuals
    of both facts.
    """

    potential: np.ndarray
    projected_source: np.ndarray
    harmonic_component: np.ndarray
    residual_equation: float
    residual_kernel: float

    def check(self, tol, source_scale, label):
        if max(self.residual_equation, self.residual_kernel) > tol * (1.0 + source_scale):
            raise ToleranceFailure(
                f"{label} residuals ({self.residual_equation:.3e}, "
                f"{self.residual_kernel:.3e}) exceed {tol:.1e} * {1.0 + source_scale:.3e}")
        return self


def potential(bundle, which, key, source_vec):
    """Minimum-norm solution at neighbor(which, key, -1) of diff(pot) = P_im(source)."""
    prev = neighbor(which, key, -1)
    proj = image_projector(bundle, which, key) @ source_vec
    harm = harmonic_projector(bundle, which, key) @ source_vec
    pot = potential_map(bundle, which, key, proj)
    res_eq = _l2(bundle, key, bundle.alg.diff(which, prev) @ pot - proj)
    res_ker = _l2(bundle, prev, decomposition(bundle, which, prev).kernel @ pot)
    return PotentialSolution(pot, proj, harm, res_eq, res_ker)


# per-complex names kept for perfbench/tracing.py TARGETS, like the projectors above
def d_potential(bundle, source_vec, k):
    return potential(bundle, "d", k, source_vec)


def dbar_potential(bundle, source_vec, pq):
    return potential(bundle, "dbar", pq, source_vec)


def _l2(bundle, key, vec):
    """L2 norm of a coefficient vector at key: sqrt of its Gram pairing times det(H)."""
    g = bundle.gram_total(key)
    val = (vec.conj() @ (g @ vec)).real * bundle.det_h
    return float(np.sqrt(max(val, 0.0)))


@dataclass
class TorsionReport:
    """The torsion of kind at one metric, with its source and its potential's residuals.

    harmonic_source, the form of harmonic_component (the harmonic part of the source's
    coefficients), is built on first read, with the bits a build at once would give; the
    pure-type norms are kept on the bundle beside the report (pure_norm_sq).  A descent's
    trial point reads norm_sq alone.  The report is kept on its bundle and holds no
    reference to it."""

    kind: str
    torsion: Form
    source: Form
    projected_source: Form
    harmonic_component: np.ndarray
    residual_equation: float
    residual_kernel: float
    norm_sq: float

    @cached_property
    def harmonic_source(self):
        n = self.torsion.n
        return Form.at(n, TORSIONS[self.kind].space(n)[1], self.harmonic_component)


@memo
def _torsion(bundle, kind):
    """The minimal torsion potential of kind, with its source and residuals, kept on
    the bundle: a descent's gradient reuses the report its line search built.  Its guard
    reads the residual of kind's cone alone (_residual); the other cone's and d omega's
    are left to predicates, the pure-type norms to pure_norm_sq and the harmonic source
    form to its first read (TorsionReport)."""
    cone, tol = TORSIONS[kind], bundle.tol
    res = _residual(bundle, kind)
    if not res <= tol:
        raise cone.error(f"{cone.what} has residual {res:.3e} > {tol:.1e}")
    n = bundle.n
    which, key = cone.space(n)
    prev = neighbor(which, key, -1)
    source = cone.source(bundle)
    vec = source.part(key)
    sol = potential(bundle, which, key, vec)
    sol.check(tol, _l2(bundle, key, vec), f"torsion {kind}")
    form = Form.at(n, prev, sol.potential)
    return TorsionReport(
        kind=kind,
        torsion=form,
        source=source,
        projected_source=Form.at(n, key, sol.projected_source),
        harmonic_component=sol.harmonic_component,
        residual_equation=sol.residual_equation,
        residual_kernel=sol.residual_kernel,
        norm_sq=bundle.l2_inner(form, form).real,
    )


def torsion_rho(bundle):
    """Minimal 2-form rho with d(rho) = projection of del(omega) onto im(d).

    rho = green(Delta_2) d^* P(del omega); vanishing of rho is equivalent to
    the metric being Kahler.  Requires an SKT metric.
    """
    return _torsion(bundle, "rho")


def torsion_gamma(bundle):
    """Minimal (n-1,n-2)-form Gamma with dbar(Gamma) = projection of omega_{n-1}.

    Gamma = green(Delta''_{n-1,n-2}) dbar^* P(omega_{n-1}); vanishing is
    equivalent to the metric being Kahler.  Requires a balanced metric.
    """
    return _torsion(bundle, "gamma")


def torsion(bundle, kind):
    """torsion_rho or torsion_gamma by kind ("rho" or "gamma"); ValueError for another."""
    if kind not in TORSIONS:
        raise ValueError(f"unknown torsion kind {kind!r}")
    return torsion_rho(bundle) if kind == "rho" else torsion_gamma(bundle)


@memo
def pure_norm_sq(bundle, kind):
    """The squared L2 norms of the pure-type parts of the torsion of kind, by bidegree,
    where its space has more than one type (else empty), kept on the bundle: the eval
    and torsion reports read them, a descent's trial point never does."""
    form = torsion(bundle, kind).torsion
    which, key = TORSIONS[kind].space(bundle.n)
    types = bundle.alg.slices(neighbor(which, key, -1))
    if len(types) < 2:
        return {}
    parts = {pq: Form.at(bundle.n, pq, form.part(pq)) for pq in types}
    return {pq: float(bundle.l2_inner(part, part).real) for pq, part in parts.items()}


# ----- Michelsohn root ------------------------------------------------------------------


def matrix_of_top_minus_one(alg, form):
    """Hermitian matrix B of an (n-1,n-1)-form via wedge pairing with i theta^k^thetabar^j.

    For omega_{n-1} this recovers det(H) H^{-1}.  Only the monomial without
    theta^k and thetabar^j pairs with the probe: its complement, index k n + j
    in Lambda^{1,1}.
    """
    n = alg.n
    comp, unit = _complement(n, n - 1, n - 1)
    # unit * theta_coefficient is the +-1 of monomial ^ complement on theta_{1..n}^thetabar_{1..n};
    # the integrand is summed onto +0 as in wedge (-0 becomes +0), then integrated
    top = 0.0 + unit * alg.theta_coefficient * form.part((n - 1, n - 1)) * 1j
    b = np.zeros((n, n), dtype=complex)
    b[comp % n, comp // n] = top / alg.theta_coefficient
    return b


def root_n_minus_1(alg, form):
    """Unique positive metric H with (omega_H)_{n-1} equal to the given form.

    Solves det(H) H^{-1} = B, i.e. H = det(B)^{1/(n-1)} B^{-1}, and returns it
    checked: B is positive exactly when H is, so check() alone decides it.
    """
    n = alg.n
    if n < 2:
        raise DimensionMismatch("root requires n >= 2")
    b = matrix_of_top_minus_one(alg, form)
    herm_res = float(np.max(np.abs(b - b.conj().T)))
    if herm_res > 1e-9 * max(1.0, float(np.max(np.abs(b)))):
        raise NotPositive(f"pairing matrix is not Hermitian (residual {herm_res:.3e}); "
                          "input form is not real")
    b = 0.5 * (b + b.conj().T)
    det_b = float(np.linalg.det(b).real)
    if det_b <= 0:  # the root would not be real
        raise NotPositive(f"pairing matrix has determinant {det_b:.3e}")
    h = det_b ** (1.0 / (n - 1)) * np.linalg.inv(b)
    return HermitianMetric(0.5 * (h + h.conj().T)).check()
