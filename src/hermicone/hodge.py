"""Hodge decompositions, projectors, torsion forms and the (n-1) root.

The kernel cut of each Laplacian is made once per bundle, by
decomposition(bundle, which, key), at the bundle's tolerance tol:
eigenvalues below tol * max(unit, lambda_max) count as kernel, where
unit = 1 / (tr H / n) scales with the eigenvalues, and any eigenvalue
inside [threshold/10, 10*threshold] raises ToleranceAmbiguity rather than
silently choosing a side.  Every projector, potential and torsion below
reads the decomposition's harmonic projector and Green operator.

The projectors onto the images of a differential and of its codifferential
and the minimum-norm potential are written once over (which, key), as the
bundle's codiff and laplacian are: torsion rho is the "d" potential on
degree 3, torsion Gamma the "dbar" potential on (n-1, n-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DegenerateDimension, KernelJump, NotBalanced, NotPositive, NotSKT,
                     ToleranceAmbiguity, ToleranceFailure)
from .exterior import Form, _complement, neighbor
from .metric import DEFAULT_TOL, HermitianMetric

# the harmonic projector has a derivative only where the spectral gap clears
# the kernel threshold by this factor
GAP_FACTOR = 100.0


def kernel_mask(eigenvalues, tol=DEFAULT_TOL, unit=1.0):
    """Boolean kernel mask under the threshold tol * max(unit, lambda_max),
    with ambiguity guard."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0:
        return np.zeros(0, dtype=bool)
    thr = tol * max(unit, float(eigs.max()))
    bad = (eigs >= thr / 10.0) & (eigs <= 10.0 * thr)
    if np.any(bad):
        raise ToleranceAmbiguity(
            f"eigenvalues {eigs[bad]} inside the ambiguity window around {thr:.3e}")
    return eigs < thr


class Decomposition:
    """The Hodge decomposition of one Laplacian, cut at its kernel threshold.

    threshold is bundle.tol * max(unit, lambda_max) with unit = n / tr H;
    gap is the smallest eigenvalue above the cut (inf if none).  The
    harmonic projector v v^H G over the kernel eigenvectors and the Green
    operator v Lambda^-1 v^H G over the others are built on first use.
    """

    def __init__(self, bundle, which, key):
        self.spectral = spec = bundle.spectral(which, key)
        eigs = spec.eigenvalues
        unit = bundle.n / bundle.trace_h
        self.mask = kernel_mask(eigs, bundle.tol, unit)
        self.threshold = bundle.tol * max(unit, float(eigs.max(initial=0.0)))
        self.kernel_dim = int(self.mask.sum())
        self.gap = float(eigs[~self.mask].min(initial=np.inf))

    def require_gap(self):
        """Refuse (KernelJump) a gap within GAP_FACTOR of the threshold: there the
        kernel dimension is not stable under perturbation and the harmonic
        projector has no derivative."""
        if self.gap < GAP_FACTOR * self.threshold:
            raise KernelJump(f"spectral gap {self.gap:.3e} is within {GAP_FACTOR:g}x "
                             f"of threshold {self.threshold:.3e}")
        return self

    @cached_property
    def harmonic(self):
        v = self.spectral.vectors[:, self.mask]
        return v @ (v.conj().T @ self.spectral.gram)

    @cached_property
    def green(self):
        v, lam = self.spectral.vectors[:, ~self.mask], self.spectral.eigenvalues[~self.mask]
        return (v / lam) @ (v.conj().T @ self.spectral.gram)


def decomposition(bundle, which, key):
    """The bundle's cached Decomposition of the Laplacian of which at key."""
    cache_key = (which, key if which == "d" else tuple(key))
    if cache_key not in bundle._hodge:
        bundle._hodge[cache_key] = Decomposition(bundle, which, key)
    return bundle._hodge[cache_key]


def harmonic_projector(bundle, which, key):
    """G-orthogonal projector onto ker of the chosen Laplacian."""
    return decomposition(bundle, which, key).harmonic


def green_operator(bundle, which, key):
    """Pseudo-inverse of the Laplacian: zero on kernel, 1/lambda elsewhere."""
    return decomposition(bundle, which, key).green


def kernel_dimension(bundle, which, key):
    return decomposition(bundle, which, key).kernel_dim


def image_projector(bundle, which, key):
    """G-orthogonal projector of the space at key onto the image of diff(which, .)."""
    prev = neighbor(which, key, -1)
    if bundle.dim(which, prev) == 0:
        return np.zeros((bundle.dim(which, key),) * 2, dtype=complex)
    return bundle.alg.diff(which, prev) @ green_operator(bundle, which, prev) \
        @ bundle.codiff(which, key)


def coimage_projector(bundle, which, key):
    """G-orthogonal projector of the space at key onto the image of codiff(which, .)."""
    nxt = neighbor(which, key, 1)
    if bundle.dim(which, nxt) == 0:
        return np.zeros((bundle.dim(which, key),) * 2, dtype=complex)
    return bundle.codiff(which, nxt) @ green_operator(bundle, which, nxt) \
        @ bundle.alg.diff(which, key)


# the per-complex names bind perfbench/tracing.py TARGETS; the package calls the above
def image_projector_d(bundle, k):
    return image_projector(bundle, "d", k)


def image_projector_d_star(bundle, k):
    return coimage_projector(bundle, "d", k)


def image_projector_dbar(bundle, p, q):
    return image_projector(bundle, "dbar", (p, q))


def image_projector_dbar_star(bundle, p, q):
    return coimage_projector(bundle, "dbar", (p, q))


def three_space_residuals(bundle, k):
    """Residuals of harmonic + im(d) + im(d^*) = identity, mutually orthogonal."""
    ph = harmonic_projector(bundle, "d", k)
    pd = image_projector(bundle, "d", k)
    pds = coimage_projector(bundle, "d", k)
    g = bundle.gram_total(k)
    eye = np.eye(ph.shape[0])
    out = {
        "sum_identity": float(np.max(np.abs(ph + pd + pds - eye))) if ph.size else 0.0,
    }
    pairs = {"h_imd": (ph, pd), "h_imdstar": (ph, pds), "imd_imdstar": (pd, pds)}
    for name, (a, b) in pairs.items():
        out[name] = float(np.max(np.abs(a @ b))) if a.size else 0.0
    for name, proj in (("idem_h", ph), ("idem_imd", pd), ("idem_imdstar", pds)):
        out[name] = float(np.max(np.abs(proj @ proj - proj))) if proj.size else 0.0
    for name, proj in (("selfadj_h", ph), ("selfadj_imd", pd), ("selfadj_imdstar", pds)):
        out[name] = float(np.max(np.abs(g @ proj - proj.conj().T @ g))) if proj.size else 0.0
    return out


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


def predicates(bundle, tol=None):
    """Kahler / SKT / balanced flags with their defining residuals, at tol
    (the bundle's tolerance by default).  The residuals depend on the metric
    alone: they are computed once per bundle and kept on it."""
    tol = bundle.tol if tol is None else tol
    if bundle._predicate_residuals is None:
        alg = bundle.alg
        omega = bundle.omega
        bundle._predicate_residuals = tuple(float(form.max_abs()) for form in (
            alg.d_form(omega),
            alg.del_form(alg.dbar_form(omega)),
            alg.d_form(bundle.omega_power(bundle.n - 1))))
    d_omega, ddbar, d_pow = bundle._predicate_residuals
    return MetricPredicates(
        is_kahler=bool(d_omega <= tol),
        is_skt=bool(ddbar <= tol),
        is_balanced=bool(d_pow <= tol),
        d_omega_residual=d_omega,
        ddbar_omega_residual=ddbar,
        d_omega_power_residual=d_pow,
        tol=tol,
    )


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
    below = decomposition(bundle, which, prev)
    proj = image_projector(bundle, which, key) @ source_vec
    harm = harmonic_projector(bundle, which, key) @ source_vec
    pot = below.green @ (bundle.codiff(which, key) @ proj)
    res_eq = _l2(bundle, which, key, bundle.alg.diff(which, prev) @ pot - proj)
    ker_proj = below.harmonic + image_projector(bundle, which, prev)
    res_ker = _l2(bundle, which, prev, ker_proj @ pot)
    return PotentialSolution(pot, proj, harm, res_eq, res_ker)


# per-complex names kept for perfbench/tracing.py TARGETS, like the projectors above
def d_potential(bundle, source_vec, k):
    return potential(bundle, "d", k, source_vec)


def dbar_potential(bundle, source_vec, pq):
    return potential(bundle, "dbar", pq, source_vec)


def _l2(bundle, which, key, vec):
    """L2 norm of a coefficient vector at key: sqrt of its Gram pairing times det(H)."""
    g = bundle.gram_for(which, key)
    val = (vec.conj() @ (g @ vec)).real * bundle.det_h
    return float(np.sqrt(max(val, 0.0)))


@dataclass
class TorsionReport:
    kind: str
    torsion: Form
    source: Form
    projected_source: Form
    harmonic_source: Form
    residual_equation: float
    residual_kernel: float
    tol: float
    norm_sq: float
    pure_norm_sq: dict = field(default_factory=dict)


def torsion_space(kind, n):
    """(which, key) of the space holding the source of torsion kind.

    The torsion itself is the minimal potential one step down, at
    neighbor(which, key, -1): rho on degree 2, Gamma on (n-1, n-2).
    """
    return ("d", 3) if kind == "rho" else ("dbar", (n - 1, n - 1))


# per torsion: the predicate flag it needs, the residual and error reported when the
# flag is off, the residual's name, and the source form whose image part it solves for
_TORSIONS = {
    "rho": ("is_skt", "ddbar_omega_residual", NotSKT, "dd-bar of omega",
            lambda bundle: bundle.alg.del_form(bundle.omega)),
    "gamma": ("is_balanced", "d_omega_power_residual", NotBalanced, "d of omega_(n-1)",
              lambda bundle: bundle.omega_power(bundle.n - 1)),
}


def _torsion(bundle, kind):
    """The minimal torsion potential of kind, with its source and residuals."""
    flag, residual, error, what, source_of = _TORSIONS[kind]
    tol = bundle.tol
    pred = predicates(bundle)
    if not getattr(pred, flag):
        raise error(f"{what} has residual {getattr(pred, residual):.3e} > {tol:.1e}")
    n = bundle.n
    which, key = torsion_space(kind, n)
    prev = neighbor(which, key, -1)
    source = source_of(bundle)
    vec = source.part(key)
    sol = potential(bundle, which, key, vec)
    sol.check(tol, _l2(bundle, which, key, vec), f"torsion {kind}")
    form = Form.at(n, prev, sol.potential)
    # the norms of the pure-type parts, where the torsion's space has more than one type
    types, pure_norm_sq = bundle.alg.slices(prev), {}
    if len(types) > 1:
        for pq in types:
            part = Form.at(n, pq, form.part(pq))
            pure_norm_sq[pq] = float(bundle.l2_inner(part, part).real)
    return TorsionReport(
        kind=kind,
        torsion=form,
        source=source,
        projected_source=Form.at(n, key, sol.projected_source),
        harmonic_source=Form.at(n, key, sol.harmonic_component),
        residual_equation=sol.residual_equation,
        residual_kernel=sol.residual_kernel,
        tol=tol,
        norm_sq=bundle.l2_inner(form, form).real,
        pure_norm_sq=pure_norm_sq,
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
    """torsion_rho or torsion_gamma by kind ("rho" or "gamma")."""
    return torsion_rho(bundle) if kind == "rho" else torsion_gamma(bundle)


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


def root_n_minus_1(alg, form, hermit_tol=1e-9):
    """Unique positive metric H with (omega_H)_{n-1} equal to the given form.

    Solves det(H) H^{-1} = B, i.e. H = det(B)^{1/(n-1)} B^{-1}.
    """
    n = alg.n
    if n < 2:
        raise DegenerateDimension("root requires n >= 2")
    b = matrix_of_top_minus_one(alg, form)
    herm_res = float(np.max(np.abs(b - b.conj().T)))
    if herm_res > hermit_tol * max(1.0, float(np.max(np.abs(b)))):
        raise NotPositive(f"pairing matrix is not Hermitian (residual {herm_res:.3e}); "
                          "input form is not real")
    b = 0.5 * (b + b.conj().T)
    eigs = np.linalg.eigvalsh(b)
    if eigs[0] <= 0:
        raise NotPositive(f"pairing matrix has min eigenvalue {eigs[0]:.3e}")
    det_b = float(np.linalg.det(b).real)
    h = det_b ** (1.0 / (n - 1)) * np.linalg.inv(b)
    return HermitianMetric(0.5 * (h + h.conj().T))
