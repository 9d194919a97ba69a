"""The metric operator bundle: star, adjoints, Laplacians, and their identities."""

import numpy as np

from hermicone import (
    build_bundle,
    algebra_for,
    catalog,
    identity_suite,
    random_metric,
    three_space_residuals,
)
from hermicone.exterior import random_form

alg = algebra_for(catalog("iwasawa"))
rng = np.random.default_rng(7)
bundle = build_bundle(catalog("iwasawa"), random_metric(alg.n, rng))

# star maps (p,q) to (n-q,n-p); applying it twice gives (-1)^(p+q)
u = random_form(alg.n, [(2, 1)], rng)
print("star u lives in", bundle.star(u).bidegrees())
print("max |star star u - (-1)^3 u| =", (bundle.star(bundle.star(u)) + u).max_abs())

# d^* is the L2 adjoint of d; check the pairing directly
v = random_form(alg.n, [(2, 0), (1, 1), (0, 2)], rng)
w = random_form(alg.n, [(1, 0), (0, 1)], rng)
lhs = bundle.l2_inner(alg.d_form(w), v)
rhs = bundle.l2_inner(w, bundle.d_star(v))
print("adjoint pairing gap:", abs(lhs - rhs))

# identity_suite sweeps every block and reports one residual per family
res = identity_suite(bundle)
print("\nidentity residuals:")
for key, val in sorted(res.items()):
    print(f"  {key:20s} {val:.3e}")

# degree by degree the space splits into harmonic + im(d) + im(d^*): each projector
# meets its defining equations on its own basis and agrees with d and d^*
for k in (1, 2, 3):
    worst = max(three_space_residuals(bundle, k).values())
    print(f"three-space residual, degree {k}: {worst:.3e}")

# the spectral diagnostic: eigenvalues of the d-Laplacian, as many zeros as b_2 = 8
spec = bundle.spectral("d", 2)
print("\nsmallest degree-2 Laplacian eigenvalues:", np.round(spec.eigenvalues[:5], 6))
