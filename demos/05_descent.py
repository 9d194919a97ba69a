"""Projected gradient descent of the torsion energies inside their cones."""

from hermicone import catalog, constraint_basis, descend
from hermicone.errors import EmptyCone

# The feasible slices are null spaces of the constraint maps; both
# nilmanifold-style models carry one nonempty cone and one empty cone, which
# descent refuses before its first step.
for name, kind in (("kodaira_thurston", "skt"), ("iwasawa", "balanced")):
    basis = constraint_basis(catalog(name), kind)
    print(f"{name} {kind} slice dimension: {basis.dimension}")
try:
    descend(catalog("iwasawa"), "F")
except EmptyCone as exc:
    print("iwasawa skt cone:", exc)

# Normalized pluriclosed descent from a random start; the scale-invariant
# energy keeps the iterates on the unit-normalization slice.
trace = descend(catalog("kodaira_thurston"), "F_tilde", start="random",
                seed=0, steps=60, gradient_tol=0.0, max_step=0.05)
print(f"\nkodaira_thurston Ftilde: {trace.termination}, "
      f"{len(trace.records)} iterates, monotone={trace.monotone}")
print(f"  value {trace.initial_value:.6f} -> {trace.final_value:.6f}, "
      f"min eig at the end {trace.records[-1].min_eigenvalue:.4f}")
print(f"  worst constraint residual {trace.max_constraint_residual:.2e}, "
      f"kahler consistent: {trace.kahler_consistent}")

# On a torus the energy starts at its minimum; the run reports that honestly.
flat = descend(catalog("torus3"), "F", start="random", seed=0, steps=5)
print(f"\ntorus3 F: {flat.termination} after {len(flat.records)} record(s), "
      f"final value {flat.final_value}")

# The volume-side energy from the identity data: the exact closed-form
# gradient takes it to rounding scale in two steps, where the gradient
# vanishes to rounding as well and the run stops on GradientSmall.
vol = descend(catalog("iwasawa"), "G", steps=100)
print(f"\niwasawa G: {vol.termination}, {len(vol.records)} iterates, "
      f"monotone={vol.monotone}")
print(f"  value {vol.initial_value:.6f} -> {vol.final_value:.3e} (> 0)")
for r in vol.records:
    print(f"  it {r.index:3d}  value {r.value:.6e}  |grad| {r.gradient_norm:.2e} "
          f"  step {r.step_size:.2e}")

# From a random start the iterates drift towards a residual-gate cliff:
# no trial step stays evaluable, and the stall is reported, not hidden.
rnd = descend(catalog("iwasawa"), "G", start="random", seed=0, steps=100)
print(f"\niwasawa G, random start: {rnd.termination} after {len(rnd.records)} "
      f"iterates, value {rnd.initial_value:.4f} -> {rnd.final_value:.3e}")
