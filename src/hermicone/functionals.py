"""The four torsion energies: F, G, H and the normalized Ftilde.

F(omega) = ||rho_omega||^2 on SKT metrics, zero exactly on Kahler ones.
G(omega_{n-1}) = ||Gamma||^2 on balanced metrics, zero exactly on Kahler ones.
H(omega, gamma_{n-1}) = ||trace_omega(del omega)||^2 in the gamma L2 norm,
zero exactly on balanced omega, invariant under scaling of omega.
Ftilde_nu(omega) = F(omega) / (int omega ^ nu_{n-1})^n is scale invariant.
SLICES describes the two cones the energies are varied and descended over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import NotPositive
from .exterior import wedge, wedge_power
from .hodge import root_n_minus_1, torsion_gamma, torsion_rho
from .metric import HermitianMetric


@dataclass
class FunctionalValue:
    kind: str
    value: float
    ingredients: dict


@dataclass(frozen=True)
class Slice:
    """One metric cone as a linear slice of real (p,p) data, read by the
    constraint bases, the descent, make_direction and the difference paths.

    The datum of a metric is omega on the pluriclosed cone and omega_{n-1}
    on the balanced one; the slice is the kernel of constraint, a variation
    direction moves the datum linearly, and metric maps a datum back.
    """

    name: str  # the constraint, as error messages name it
    empty: str  # why the feasibility probe finds the cone empty
    direction: str  # "metric" for real (1,1) directions, "volume" for (n-1,n-1) ones
    degree: Callable  # n -> p
    datum: Callable  # HermitianMetric -> its datum form
    metric: Callable  # (alg, datum form) -> HermitianMetric, for the caller to check()
    constraint: Callable  # (alg, form) -> the form that vanishes on the slice


SLICES = {
    "skt": Slice("pluriclosed", "projected reference metric is not positive definite",
                 "metric", lambda n: 1,
                 lambda metric: metric.form(),
                 lambda alg, form: HermitianMetric.from_form(form),
                 lambda alg, form: alg.del_form(alg.dbar_form(form))),
    "balanced": Slice("coclosed", "projected reference volume datum is not positive",
                      "volume", lambda n: n - 1,
                      lambda metric: wedge_power(metric.form(), metric.n - 1),
                      lambda alg, form: root_n_minus_1(alg, form),
                      lambda alg, form: alg.d_form(form)),
}


def cone_slice(kind):
    """The SLICES entry of a cone name; ValueError for an unknown one."""
    if kind not in SLICES:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return SLICES[kind]


def direction_slice(kind):
    """The SLICES entry whose variation directions are of this kind."""
    for entry in SLICES.values():
        if entry.direction == kind:
            return entry
    raise ValueError(f"unknown direction kind {kind!r}")


@dataclass(frozen=True)
class Energy:
    """What differs between the energies: variation, descent and the CLI read it here."""

    torsion: str | None  # "rho" or "gamma", whose squared norm the energy is; None for H
    constraint: str | None  # what a variation direction must keep: "skt", "balanced", None
    slice: str  # the SLICES cone a descent moves in, whose kind its directions are
    normalize: bool = False  # the descent's default
    weighted: bool = False  # measured against a second metric's bundle
    certifies_kahler: bool = False  # its vanishing certifies a Kahler point


ENERGIES = {
    "F": Energy("rho", "skt", "skt", certifies_kahler=True),
    "F_tilde": Energy("rho", "skt", "skt", normalize=True, certifies_kahler=True),
    "G": Energy("gamma", "balanced", "balanced"),
    "H": Energy(None, None, "skt", weighted=True),
}


def energy(functional):
    """The ENERGIES entry of a functional name; ValueError for an unknown one."""
    if functional not in ENERGIES:
        raise ValueError(f"unknown functional {functional!r}")
    return ENERGIES[functional]


def _torsion_energy(bundle, rep, kind):
    """||torsion||^2 with its source norms, residuals and pure-type norms."""
    ing = {
        "projected_source_norm": bundle.l2_norm(rep.projected_source),
        "harmonic_source_norm": bundle.l2_norm(rep.harmonic_source),
        "residual_equation": rep.residual_equation,
        "residual_kernel": rep.residual_kernel,
    }
    ing.update({f"norm_sq_{p}{q}": v for (p, q), v in rep.pure_norm_sq.items()})
    return FunctionalValue(kind, float(rep.norm_sq), ing)


def eval_F(bundle):
    """SKT energy ||rho||^2 with its pure-type split."""
    return _torsion_energy(bundle, torsion_rho(bundle), "F")


def eval_G(bundle):
    """Balanced energy ||Gamma||^2."""
    return _torsion_energy(bundle, torsion_gamma(bundle), "G")


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


def eval_F_tilde(bundle, nu):
    """Scale-invariant F / (int omega ^ nu_{n-1})^n."""
    f = eval_F(bundle)
    integral = normalization_integral(bundle, nu)
    if integral <= 0:
        raise NotPositive(f"normalization integral {integral:.3e} is not positive")
    value = f.value / integral ** bundle.n
    ing = dict(f.ingredients)
    ing.update({"F": f.value, "normalization_integral": float(integral)})
    return FunctionalValue("Ftilde", float(value), ing)


def evaluate(bundle, functional, nu=None, weight_bundle=None):
    """Value of the energy named functional (a key of ENERGIES) at bundle.

    nu is the normalization metric of F_tilde, weight_bundle the weight of H.
    """
    energy(functional)
    if functional == "H":
        return eval_H(bundle, weight_bundle)
    if functional == "F_tilde":
        return eval_F_tilde(bundle, nu)
    return eval_F(bundle) if functional == "F" else eval_G(bundle)
