"""The four torsion energies: F, G, H and the normalized Ftilde.

F(omega) = ||rho_omega||^2 on SKT metrics, zero exactly on Kahler ones.
G(omega_{n-1}) = ||Gamma||^2 on balanced metrics, zero exactly on Kahler ones.
H(omega, gamma_{n-1}) = ||trace_omega(del omega)||^2 in the gamma L2 norm,
zero exactly on balanced omega, invariant under scaling of omega.
Ftilde_nu(omega) = F(omega) / (int omega ^ nu_{n-1})^n is scale invariant.
ENERGIES names the hodge.CONES entry each energy is varied and descended over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import DimensionMismatch, NotPositive
from .exterior import wedge, wedge_power
from .hodge import CONES, pure_norm_sq, torsion_gamma, torsion_rho
from .metric import HermitianMetric, bundle_for_algebra


@dataclass
class FunctionalValue:
    """An energy's value, and the ingredients the eval report reads with it, built by
    build on first read: a descent's trial point is judged on the value alone."""

    kind: str
    value: float
    build: Callable = field(repr=False)

    @cached_property
    def ingredients(self):
        return self.build()


def cone_slice(kind):
    """The CONES entry of a cone name; ValueError for an unknown one."""
    if kind not in CONES:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return CONES[kind]


def direction_slice(kind):
    """The CONES entry whose variation directions are of this kind."""
    for entry in CONES.values():
        if entry.direction == kind:
            return entry
    raise ValueError(f"unknown direction kind {kind!r}")


@dataclass(frozen=True)
class Energy:
    """What differs between the energies: variation, descent and the CLI read it here."""

    slice: str  # the CONES entry a descent moves in, whose kind its directions are
    of_torsion: bool  # the squared norm of the cone's torsion, varied along the cone only
    normalize: bool = False  # the descent's default
    weighted: bool = False  # measured against a second metric's bundle
    certifies_kahler: bool = False  # its vanishing certifies a Kahler point

    @property
    def torsion(self):
        """The torsion whose squared norm the energy is, a key of TORSIONS; None for H."""
        return CONES[self.slice].torsion if self.of_torsion else None


ENERGIES = {
    "F": Energy("skt", True, certifies_kahler=True),
    "F_tilde": Energy("skt", True, normalize=True, certifies_kahler=True),
    "G": Energy("balanced", True),
    "H": Energy("skt", False, weighted=True),
}


def energy(functional):
    """The ENERGIES entry of a functional name; ValueError for an unknown one."""
    if functional not in ENERGIES:
        raise ValueError(f"unknown functional {functional!r}")
    return ENERGIES[functional]


def _torsion_energy(bundle, rep, kind):
    """||torsion||^2 with its source norms, residuals and pure-type norms."""
    def ingredients():
        ing = {
            "projected_source_norm": bundle.l2_norm(rep.projected_source),
            "harmonic_source_norm": bundle.l2_norm(rep.harmonic_source),
            "residual_equation": rep.residual_equation,
            "residual_kernel": rep.residual_kernel,
        }
        ing.update({f"norm_sq_{p}{q}": v for (p, q), v in pure_norm_sq(bundle, rep.kind).items()})
        return ing
    return FunctionalValue(kind, float(rep.norm_sq), ingredients)


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
    norm_form = bundle_gamma.l2_inner(u, u).real

    def ingredients():
        ubar = bundle_omega.trace_contract(alg.dbar_form(bundle_omega.omega))
        gamma_pow = bundle_gamma.omega_power(n - 1)
        wedge_val = 1j * alg.integrate(wedge(wedge(u, ubar), gamma_pow))
        return {
            "wedge_form": float(wedge_val.real),
            "cross_check_residual": float(abs(norm_form - wedge_val)),
            "trace_norm": bundle_gamma.l2_norm(u),
        }
    return FunctionalValue("H", float(norm_form), ingredients)


def normalization_integral(bundle, nu):
    """int omega ^ nu_{n-1} for a positive reference metric nu; NotPositive unless > 0."""
    alg = bundle.alg
    nu_pow = wedge_power(nu.form(), alg.n - 1)
    integral = alg.integrate(wedge(bundle.omega, nu_pow)).real
    if integral <= 0:
        raise NotPositive(f"normalization integral {integral:.3e} is not positive")
    return integral


def eval_F_tilde(bundle, nu):
    """Scale-invariant F / (int omega ^ nu_{n-1})^n."""
    f = eval_F(bundle)
    integral = normalization_integral(bundle, nu)
    value = f.value / integral ** bundle.n
    return FunctionalValue("F_tilde", float(value), lambda: {
        **f.ingredients, "F": f.value, "normalization_integral": float(integral)})


def references(bundle, functional, nu=None, weight_bundle=None):
    """(nu, weight_bundle) with their defaults, the identity metric for nu and for a weighted
    energy the bundle of nu at the bundle's tolerance; a stacked bundle is refused."""
    if bundle.lead:
        raise DimensionMismatch(f"energies take one metric, not a stack of {bundle.lead[0]}")
    nu = nu if nu is not None else HermitianMetric.identity(bundle.n)
    if weight_bundle is None and energy(functional).weighted:
        weight_bundle = bundle_for_algebra(bundle.alg, nu, bundle.tol)
    return nu, weight_bundle


def evaluate(bundle, functional, nu=None, weight_bundle=None):
    """Value of the energy named functional (a key of ENERGIES) at bundle.

    nu is the normalization metric of F_tilde, weight_bundle the weight of H; they
    default as references gives them, the identity and its bundle.  The value is
    computed here, with what decides it: the torsion's guard and residual gate, or H's
    trace.  The ingredients (source norms, residuals, pure-type norms, H's wedge
    cross-check) are computed on their first read, by the same expressions, so the eval
    report's bits do not depend on when; a descent's trial point never reads them.
    """
    nu, weight_bundle = references(bundle, functional, nu, weight_bundle)
    if functional == "H":
        return eval_H(bundle, weight_bundle)
    if functional == "F_tilde":
        return eval_F_tilde(bundle, nu)
    return eval_F(bundle) if functional == "F" else eval_G(bundle)
