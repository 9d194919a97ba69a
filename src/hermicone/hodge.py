"""Spectral decompositions, projectors, torsion forms and the (n-1) root.

Kernel detection is relative: eigenvalues below tol * max(1, lambda_max)
count as kernel.  Any eigenvalue inside [threshold/10, 10*threshold]
raises ToleranceAmbiguity rather than silently choosing a side.

The projectors onto the images of a differential and of its codifferential
and the minimum-norm potential are written once over (which, key), as the
bundle's codiff and laplacian are: torsion rho is the "d" potential on
degree 3, torsion Gamma the "dbar" potential on (n-1, n-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateDimension, NotBalanced, NotPositive, NotSKT,
                     ToleranceAmbiguity, ToleranceFailure)
from .exterior import Form, _basis_index, _merge, neighbor
from .metric import HermitianMetric

DEFAULT_TOL = 1e-9


def kernel_mask(eigenvalues, tol=DEFAULT_TOL):
    """Boolean kernel mask under the relative threshold, with ambiguity guard."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0:
        return np.zeros(0, dtype=bool)
    thr = tol * max(1.0, float(eigs.max(initial=0.0)))
    bad = (eigs >= thr / 10.0) & (eigs <= 10.0 * thr)
    if np.any(bad):
        raise ToleranceAmbiguity(
            f"eigenvalues {eigs[bad]} inside the ambiguity window around {thr:.3e}")
    return eigs < thr


def harmonic_projector(bundle, which, key, tol=DEFAULT_TOL):
    """G-orthogonal projector onto ker of the chosen Laplacian."""
    spec = bundle.spectral(which, key)
    mask = kernel_mask(spec.eigenvalues, tol)
    v = spec.vectors[:, mask]
    return v @ (v.conj().T @ spec.gram)


def green_operator(bundle, which, key, tol=DEFAULT_TOL):
    """Pseudo-inverse of the Laplacian: zero on kernel, 1/lambda elsewhere."""
    spec = bundle.spectral(which, key)
    mask = kernel_mask(spec.eigenvalues, tol)
    v = spec.vectors[:, ~mask]
    lam = spec.eigenvalues[~mask]
    if v.shape[1] == 0:
        return np.zeros((spec.vectors.shape[0],) * 2, dtype=complex)
    return (v / lam) @ (v.conj().T @ spec.gram)


def kernel_dimension(bundle, which, key, tol=DEFAULT_TOL):
    return int(np.sum(kernel_mask(bundle.spectral(which, key).eigenvalues, tol)))


def image_projector(bundle, which, key, tol=DEFAULT_TOL):
    """G-orthogonal projector of the space at key onto the image of diff(which, .)."""
    prev = neighbor(which, key, -1)
    if bundle.dim(which, prev) == 0:
        return np.zeros((bundle.dim(which, key),) * 2, dtype=complex)
    return bundle.alg.diff(which, prev) @ green_operator(bundle, which, prev, tol) \
        @ bundle.codiff(which, key)


def coimage_projector(bundle, which, key, tol=DEFAULT_TOL):
    """G-orthogonal projector of the space at key onto the image of codiff(which, .)."""
    nxt = neighbor(which, key, 1)
    if bundle.dim(which, nxt) == 0:
        return np.zeros((bundle.dim(which, key),) * 2, dtype=complex)
    return bundle.codiff(which, nxt) @ green_operator(bundle, which, nxt, tol) \
        @ bundle.alg.diff(which, key)


# the per-complex names bind perfbench/tracing.py TARGETS; the package calls the above
def image_projector_d(bundle, k, tol=DEFAULT_TOL):
    return image_projector(bundle, "d", k, tol)


def image_projector_d_star(bundle, k, tol=DEFAULT_TOL):
    return coimage_projector(bundle, "d", k, tol)


def image_projector_dbar(bundle, p, q, tol=DEFAULT_TOL):
    return image_projector(bundle, "dbar", (p, q), tol)


def image_projector_dbar_star(bundle, p, q, tol=DEFAULT_TOL):
    return coimage_projector(bundle, "dbar", (p, q), tol)


def three_space_residuals(bundle, k, tol=DEFAULT_TOL):
    """Residuals of harmonic + im(d) + im(d^*) = identity, mutually orthogonal."""
    ph = harmonic_projector(bundle, "d", k, tol)
    pd = image_projector(bundle, "d", k, tol)
    pds = coimage_projector(bundle, "d", k, tol)
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


def predicates(bundle, tol=DEFAULT_TOL):
    """Kahler / SKT / balanced flags with their defining residuals."""
    alg = bundle.alg
    omega = bundle.omega
    d_omega = alg.d_form(omega)
    ddbar = alg.del_form(alg.dbar_form(omega))
    d_pow = alg.d_form(bundle.omega_power(bundle.n - 1))
    return MetricPredicates(
        is_kahler=bool(d_omega.max_abs() <= tol),
        is_skt=bool(ddbar.max_abs() <= tol),
        is_balanced=bool(d_pow.max_abs() <= tol),
        d_omega_residual=float(d_omega.max_abs()),
        ddbar_omega_residual=float(ddbar.max_abs()),
        d_omega_power_residual=float(d_pow.max_abs()),
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


def potential(bundle, which, key, source_vec, tol=DEFAULT_TOL):
    """Minimum-norm solution at neighbor(which, key, -1) of diff(pot) = P_im(source)."""
    prev = neighbor(which, key, -1)
    proj = image_projector(bundle, which, key, tol) @ source_vec
    harm = harmonic_projector(bundle, which, key, tol) @ source_vec
    pot = green_operator(bundle, which, prev, tol) @ (bundle.codiff(which, key) @ proj)
    res_eq = _l2(bundle, which, key, bundle.alg.diff(which, prev) @ pot - proj)
    ker_proj = harmonic_projector(bundle, which, prev, tol) \
        + image_projector(bundle, which, prev, tol)
    res_ker = _l2(bundle, which, prev, ker_proj @ pot)
    return PotentialSolution(pot, proj, harm, res_eq, res_ker)


# per-complex names kept for perfbench/tracing.py TARGETS, like the projectors above
def d_potential(bundle, source_vec, k, tol=DEFAULT_TOL):
    return potential(bundle, "d", k, source_vec, tol)


def dbar_potential(bundle, source_vec, pq, tol=DEFAULT_TOL):
    return potential(bundle, "dbar", pq, source_vec, tol)


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
    pure_parts: dict = field(default_factory=dict)

    @property
    def norm_sq(self):
        return self._norm_sq

    def with_norms(self, bundle):
        self._norm_sq = bundle.l2_inner(self.torsion, self.torsion).real
        return self


def torsion_rho(bundle, tol=DEFAULT_TOL):
    """Minimal 2-form rho with d(rho) = projection of del(omega) onto im(d).

    rho = green(Delta_2) d^* P(del omega); vanishing of rho is equivalent to
    the metric being Kahler.  Requires an SKT metric.
    """
    alg = bundle.alg
    pred = predicates(bundle, tol)
    if not pred.is_skt:
        raise NotSKT(f"dd-bar of omega has residual {pred.ddbar_omega_residual:.3e} > {tol:.1e}")
    del_omega = alg.del_form(bundle.omega)
    v3 = alg.to_vector(del_omega, 3)
    sol = potential(bundle, "d", 3, v3, tol)
    sol.check(tol, _l2(bundle, "d", 3, v3), "torsion rho")
    rho = alg.from_vector(sol.potential, 2)
    report = TorsionReport(
        kind="rho",
        torsion=rho,
        source=del_omega,
        projected_source=alg.from_vector(sol.projected_source, 3),
        harmonic_source=alg.from_vector(sol.harmonic_component, 3),
        residual_equation=sol.residual_equation,
        residual_kernel=sol.residual_kernel,
        tol=tol,
        pure_parts={pq: rho.pure_part(*pq) for pq in ((2, 0), (1, 1), (0, 2))},
    )
    return report.with_norms(bundle)


def torsion_gamma(bundle, tol=DEFAULT_TOL):
    """Minimal (n-1,n-2)-form Gamma with dbar(Gamma) = projection of omega_{n-1}.

    Gamma = green(Delta''_{n-1,n-2}) dbar^* P(omega_{n-1}); vanishing is
    equivalent to the metric being Kahler.  Requires a balanced metric.
    """
    alg, n = bundle.alg, bundle.n
    pred = predicates(bundle, tol)
    if not pred.is_balanced:
        raise NotBalanced(
            f"d of omega_(n-1) has residual {pred.d_omega_power_residual:.3e} > {tol:.1e}")
    omega_top = bundle.omega_power(n - 1)
    v = omega_top.block(n - 1, n - 1)
    sol = potential(bundle, "dbar", (n - 1, n - 1), v, tol)
    sol.check(tol, _l2(bundle, "dbar", (n - 1, n - 1), v), "torsion gamma")
    gamma = alg.from_blockvec((n - 1, n - 2), sol.potential)
    report = TorsionReport(
        kind="gamma",
        torsion=gamma,
        source=omega_top,
        projected_source=alg.from_blockvec((n - 1, n - 1), sol.projected_source),
        harmonic_source=alg.from_blockvec((n - 1, n - 1), sol.harmonic_component),
        residual_equation=sol.residual_equation,
        residual_kernel=sol.residual_kernel,
        tol=tol,
    )
    return report.with_norms(bundle)


# ----- Michelsohn root ------------------------------------------------------------------


def matrix_of_top_minus_one(alg, form):
    """Hermitian matrix B of an (n-1,n-1)-form via wedge pairing with i theta^k^thetabar^j.

    For omega_{n-1} this recovers det(H) H^{-1}.  Only the monomial without
    theta^k and thetabar^j pairs with the probe, with the sign of _wedge_table.
    """
    n = alg.n
    full, coeffs = tuple(range(n)), form.block(n - 1, n - 1)
    b = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            I, J = full[:k] + full[k + 1:], full[:j] + full[j + 1:]
            sign = _merge(I, (k,))[0] * _merge(J, (j,))[0] * (-1) ** (n - 1)
            top = np.zeros(1, dtype=complex)  # summed onto +0 as in wedge: -0 becomes +0
            top[0] += sign * coeffs[_basis_index(n, n - 1, n - 1)[(I, J)]] * 1j
            b[j, k] = alg.integrate(Form(n, {(n, n): top}))
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
