"""First variations: the fd audit battery and the energy derivatives."""

import numpy as np

from hermicone import (
    HermitianMetric,
    build_bundle,
    catalog,
    constraint_basis,
    eval_F,
    eval_G,
    first_variation,
    var_harmonic_projector,
    variation_battery,
)
from hermicone.variation import make_direction

# Every closed-form derivative (star, trace, Gram, codifferentials, Laplacians,
# kernel projectors) is audited against Richardson central differences.
rows = variation_battery(catalog("iwasawa"), seed=0, tuples=5)
worst = max(rows, key=lambda r: r.rel_err)
print(f"battery: {len(rows)} rows, worst rel err {worst.rel_err:.3e} "
      f"({worst.name}, {worst.detail})")

# dF(omega; omega) = n F, the Euler identity of a degree-n homogeneous energy
kt = build_bundle(catalog("kodaira_thurston"), HermitianMetric.identity(2))
var = first_variation(kt, "F", kt.metric.h, with_fd=True)
print("\ndF(omega;omega) =", var.value, " n*F =", kt.n * eval_F(kt).value,
      " fd =", var.fd)

# along a generic direction the value splits into six type pairings plus a
# nonnegative bound on the moving-projector remainder
rng = np.random.default_rng(3)
mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
var = first_variation(kt, "F", mat + mat.conj().T, with_fd=True)
print("\nrandom direction terms:")
for key, val in var.terms.items():
    print(f"  {key:28s} {val: .6e}")
print("fd - value =", var.discrepancy)

# on the volume side the remainder genuinely moves; the signed pairing stays
# tiny while the norm bound is reported openly as a surcharge
iw = build_bundle(catalog("iwasawa"), HermitianMetric.identity(3))
basis = constraint_basis(catalog("iwasawa"), "balanced")
direction = basis.combine(np.random.default_rng(4).normal(size=basis.dimension))
vg = first_variation(iw, "G", direction, with_fd=True)
print("\nvolume direction: value =", vg.value, " fd =", vg.fd)
print("projector_term =", vg.terms["projector_term"],
      " signed pairing =", vg.terms["projector_pairing_signed"])
print("dG(Omega;Omega) =", first_variation(iw, "G", iw.omega_power(2)).value,
      " (n+1)/(n-1)*G =", 2.0 * eval_G(iw).value)

# the projector derivative itself, applied to a form with no kernel part
gamma = make_direction(iw.alg, np.eye(3)).form
pv = var_harmonic_projector(iw, gamma, "d", 3)
vec = iw.alg.del_form(iw.omega).part(3)
print("\nprojector variation: kernel dim", iw.alg.harmonic_dim("d", 3),
      " P dP (I - P) vs dP gap:",
      np.max(np.abs(pv.image_part @ vec - pv.derivative @ vec)))
