"""The four torsion energies: F, G, H and the normalized Ftilde.

F(omega) = ||rho_omega||^2 on SKT metrics, zero exactly on Kahler ones.
G(omega_{n-1}) = ||Gamma||^2 on balanced metrics, zero exactly on Kahler ones.
H(omega, gamma_{n-1}) = ||trace_omega(del omega)||^2 in the gamma L2 norm,
zero exactly on balanced omega, invariant under scaling of omega.
Ftilde_nu(omega) = F(omega) / (int omega ^ nu_{n-1})^n is scale invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPositive
from .exterior import wedge, wedge_power
from .hodge import DEFAULT_TOL, torsion_gamma, torsion_rho


@dataclass
class FunctionalValue:
    kind: str
    value: float
    ingredients: dict


@dataclass(frozen=True)
class Energy:
    """What differs between the energies: variation, descent and the CLI read it here."""

    torsion: str | None  # "rho" or "gamma", whose squared norm the energy is; None for H
    direction: str  # variation directions: "metric" for real (1,1), "volume" for (n-1,n-1)
    constraint: str | None  # what a variation direction must keep: "skt", "balanced", None
    slice: str  # the cone a descent moves in
    normalize: bool = False  # the descent's default
    weighted: bool = False  # measured against a second metric's bundle
    certifies_kahler: bool = False  # its vanishing certifies a Kahler point


ENERGIES = {
    "F": Energy("rho", "metric", "skt", "skt", certifies_kahler=True),
    "F_tilde": Energy("rho", "metric", "skt", "skt", normalize=True, certifies_kahler=True),
    "G": Energy("gamma", "volume", "balanced", "balanced"),
    "H": Energy(None, "metric", None, "skt", weighted=True),
}


def energy(functional):
    """The ENERGIES entry of a functional name; ValueError for an unknown one."""
    if functional not in ENERGIES:
        raise ValueError(f"unknown functional {functional!r}")
    return ENERGIES[functional]


def _torsion_energy(bundle, rep, kind):
    """||torsion||^2 with its source norms, residuals and pure-type split."""
    ing = {
        "projected_source_norm": bundle.l2_norm(rep.projected_source),
        "harmonic_source_norm": bundle.l2_norm(rep.harmonic_source),
        "residual_equation": rep.residual_equation,
        "residual_kernel": rep.residual_kernel,
    }
    ing.update({f"norm_sq_{p}{q}": float(bundle.l2_inner(part, part).real)
                for (p, q), part in rep.pure_parts.items()})
    return FunctionalValue(kind, float(rep.norm_sq), ing)


def eval_F(bundle, tol=DEFAULT_TOL):
    """SKT energy ||rho||^2 with its pure-type split."""
    return _torsion_energy(bundle, torsion_rho(bundle, tol), "F")


def eval_G(bundle, tol=DEFAULT_TOL):
    """Balanced energy ||Gamma||^2."""
    return _torsion_energy(bundle, torsion_gamma(bundle, tol), "G")


def eval_H(bundle_omega, bundle_gamma):
    """Trace energy of del(omega) measured against a second metric gamma.

    Computed as the gamma-L2 norm of trace_omega(del omega) and, as a
    cross-check, as i times the wedge integral of the two traces against
    gamma_{n-1}; both values are returned.
    """
    alg = bundle_omega.alg
    n = alg.n
    u = bundle_omega.trace_contract(alg.del_form(bundle_omega.omega))
    ubar = bundle_omega.trace_contract(alg.dbar_form(bundle_omega.omega))
    norm_form = bundle_gamma.l2_inner(u, u).real
    gamma_pow = bundle_gamma.omega_power(n - 1)
    wedge_val = 1j * alg.integrate(wedge(wedge(u, ubar), gamma_pow))
    return FunctionalValue("H", float(norm_form), {
        "wedge_form": float(wedge_val.real),
        "cross_check_residual": float(abs(norm_form - wedge_val)),
        "trace_norm": bundle_gamma.l2_norm(u),
    })


def normalization_integral(bundle, nu):
    """int omega ^ nu_{n-1} for a positive reference metric nu."""
    alg = bundle.alg
    nu_pow = wedge_power(nu.form(), alg.n - 1)
    return alg.integrate(wedge(bundle.omega, nu_pow)).real


def eval_F_tilde(bundle, nu, tol=DEFAULT_TOL):
    """Scale-invariant F / (int omega ^ nu_{n-1})^n."""
    f = eval_F(bundle, tol)
    integral = normalization_integral(bundle, nu)
    if integral <= 0:
        raise NotPositive(f"normalization integral {integral:.3e} is not positive")
    value = f.value / integral ** bundle.n
    ing = dict(f.ingredients)
    ing.update({"F": f.value, "normalization_integral": float(integral)})
    return FunctionalValue("Ftilde", float(value), ing)


def evaluate(bundle, functional, nu=None, weight_bundle=None, tol=DEFAULT_TOL):
    """Value of the energy named functional (a key of ENERGIES) at bundle.

    nu is the normalization metric of F_tilde, weight_bundle the weight of H.
    """
    energy(functional)
    if functional == "H":
        return eval_H(bundle, weight_bundle)
    if functional == "F_tilde":
        return eval_F_tilde(bundle, nu, tol)
    return eval_F(bundle, tol) if functional == "F" else eval_G(bundle, tol)
