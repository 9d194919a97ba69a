"""First variations of the metric operator stack and of the torsion energies.

Every formula here differentiates along the affine metric path
omega_t = omega + t*gamma for a real (1,1) direction gamma (or, for the
codifferential energy, Omega_t = Omega + t*direction at the level of
(n-1,n-1) data, pulled back through the root map).  The building block is
the degree-preserving commutator C = [trace, gamma ^ .]; in terms of it

    d/dt star_t   = star C
    d/dt trace_t  = -(gamma ^ .)*
    d/dt codiff_t = codiff C + (-1)^(k+1) (star C star) codiff  (on degree k)

for each of the three codifferentials codiff(which, key) of the bundle
(C block diagonal on a total degree), and the Laplacian variations
assemble from these by the product rule, once for all three complexes.
The Gram matrix moves by G C - tr(H^-1 Gamma) G, so each projector of a Hodge
decomposition, from a metric-free basis, moves by P C (I - P): the energy
variations need no Laplacian variation and no Green operator at the source.
All matrix derivatives are exact (the model is finite dimensional); the
finite-difference harness in this module exists to cross-check them.

A direction may be a stack.  gamma may be one (1,1) form or a stack of them,
a Form with a leading axis; every matrix above then carries that axis.  A
Direction is one vetted form or a stack of them, and variation_at(...) maps it
to one FunctionalVariation whose fields are arrays over the stack, in one pass
walked in chunks whose stacked matrices stay within DENSE_BUDGET.  Each form
of a stack gets the bits it gets alone, which three rules keep:

* a stack of vectors goes through one matrix-vector product per direction,
  A @ X[..., None], and one dot per direction, x[..., None, :] @ y[..., :, None];
  one matrix product for the whole stack (X @ A.T) sums in another order;
* the volume coefficient coef / (n - 1) stays a Python complex division, which
  numpy's complex division does not round alike;
* wedge matrices are placed, not summed: every cell of a wedge table takes
  exactly one term (see Form.wedge_matrix).

Work is kept where it belongs (exterior.memo): the matrices of gamma ^ . on
gamma, and a Direction's chunks, its del and its integrals on the Direction.
A commutator [trace, gamma ^ .] depends on gamma and the bundle both, so no
memo keeps it (a Form is no memo key): it is two products of kept matrices,
formed again on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, DirectionNotAdmissible, NotPositive,
                     NotPositiveDefinite, StepTooLarge)
from .exterior import (DENSE_BUDGET, Form, conj_block_matrix, dim_pq, memo, neighbor, wedge,
                       wedge_power)
from .functionals import (SLICES, cone_slice, direction_slice, energy, evaluate,
                          normalization_integral)
from .hodge import (Decomposition, decomposition, green_operator, harmonic_projector,
                    potential_codiff, torsion, torsion_space)
from .metric import (DEFAULT_TOL, HermitianMetric, OperatorBundle, bundle_for_algebra,
                     random_metric)
from .model import algebra_for

FD_REL_STEP = 1e-3


# ----- finite differences ----------------------------------------------------------


def fd_derivative(func, step):
    """Central difference of func at 0, Richardson-extrapolated.

    func may return floats, complex numbers, numpy arrays or Forms, or a list
    of them, which is differenced element by element with the same operations:
    d1 = (f(h) - f(-h)) * (0.5 / h), d2 = (f(h/2) - f(-h/2)) * (1 / h), then
    (4/3) d2 - (1/3) d1.  func is called once per stencil point, in the order
    h, -h, h/2, -h/2.  A positivity failure at any probe point is reported as
    StepTooLarge.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    try:
        d1 = _each(lambda a, b: (a - b) * (0.5 / step), func(step), func(-step))
        d2 = _each(lambda a, b: (a - b) * (1.0 / step), func(0.5 * step), func(-0.5 * step))
    except (NotPositiveDefinite, NotPositive) as exc:
        raise StepTooLarge(
            f"positivity lost inside the difference stencil (step {step:.3e})") from exc
    return _each(lambda a, b: (4.0 / 3.0) * a - (1.0 / 3.0) * b, d2, d1)


def _each(op, a, b):
    """op(a, b), or op on each pair of elements when a and b are lists."""
    return [op(x, y) for x, y in zip(a, b)] if isinstance(a, list) else op(a, b)


def default_step(metric):
    """Step proportional to the smallest metric eigenvalue, so omega +/- t gamma stays safe."""
    return FD_REL_STEP * metric.min_eigenvalue()


# ----- directions -------------------------------------------------------------------


@dataclass
class Direction:
    """A vetted variation direction, or a stack of them of one kind: a real (p,p) form
    moving the datum of a SLICES cone, whose vec may carry a leading axis, as a Form's may.

    A direction keeps the work that depends on it alone (its chunks, its del, its
    integrals against a power of nu, which F_tilde and the descent's normalization
    read), so a stack kept across bundles, as the descent keeps its slice basis, does
    it once.
    """

    kind: str  # "metric" for real (1,1), "volume" for real (n-1,n-1)
    form: Form

    def chunks(self, size):
        """The stack cut into stacks of at most size directions, each keeping its work.
        A stack that fits is its own chunk and is not kept: its memo would hold it."""
        return [self] if size >= len(self.form.vec) else self._cuts(size)

    @memo
    def _cuts(self, size):
        vec = self.form.vec
        return [Direction(self.kind, Form(self.form.n, vec[i:i + size]))
                for i in range(0, len(vec), size)]

    @memo
    def del_forms(self, alg):
        return alg.del_form(self.form)

    @memo
    def nu_integrals(self, alg, nu):
        """The real part of each form's integral against nu^(n-p), (p,p) the
        direction's bidegree: a (1,1) direction pairs with nu^(n-1), a volume
        direction with nu.  A view of the complex integrals: the descent's dot
        product with a contiguous copy rounds otherwise."""
        (p, _), = self.form.bidegrees()
        return alg.integrate(wedge(self.form, wedge_power(nu.form(), alg.n - p))).real


def make_direction(alg, obj, kind="metric", require=None, tol=DEFAULT_TOL):
    """Build and vet a variation direction, or a stack of them.

    kind names the SLICES direction kind: "metric" takes a real (1,1) form
    or a Hermitian matrix, "volume" a real (n-1,n-1) form; a Form with a
    leading axis is a stack, vetted form by form into one Direction.  require
    names a SLICES cone whose constraint each form must keep ("skt": del dbar
    = 0, "balanced": d = 0).  A zero form (or an empty stack), one of another
    type and a violation raise DirectionNotAdmissible; a violation names the
    worst residual of the stack.
    """
    p = direction_slice(kind).degree(alg.n)
    if kind == "metric" and not isinstance(obj, Form):
        obj = HermitianMetric(obj).form()
    if not isinstance(obj, Form) or obj.n != alg.n:
        raise DimensionMismatch(f"{kind} direction must be a form over the same coframe")
    if not obj.bidegrees() or not np.all(np.any(obj.vec, axis=-1)):
        raise DirectionNotAdmissible(f"{kind} direction is zero: there is nothing to vary along")
    if obj.bidegrees() != [(p, p)]:
        raise DirectionNotAdmissible(f"{kind} direction must be a ({p},{p}) form")
    _refuse_residual(obj - obj.conj(), obj, tol, f"{kind} direction is not real")
    direction = Direction(kind, 0.5 * (obj + obj.conj()))
    if require is not None:
        cone = cone_slice(require)
        _refuse_residual(cone.constraint(alg, direction.form), direction.form, tol,
                         f"direction leaves the {cone.name} constraint")
    return direction


def _refuse_residual(residual, form, tol, what):
    """DirectionNotAdmissible when a form of the stack has a residual form larger than
    tol * (1 + its largest coefficient), naming the residual furthest past its bound."""
    res = np.abs(residual.vec).max(axis=-1)
    bound = tol * (1.0 + np.abs(form.vec).max(axis=-1))
    if np.any(res > bound):
        raise DirectionNotAdmissible(f"{what} (residual {res.flat[np.argmax(res / bound)]:.3e})")


# ----- operator variations -----------------------------------------------------------


def star_comm_star(bundle, gamma, p, q):
    """star C star as an endomorphism of (p,q); C acts at the star image (n-q,n-p)."""
    n = bundle.n
    mid = bundle.commutator(gamma, n - q, n - p)
    return bundle.star_block(n - q, n - p) @ mid @ bundle.star_block(p, q)


def _on_complex(block, bundle, gamma, which, key):
    """block(bundle, gamma, p, q) at key: itself on a bidegree, block diagonal on a degree."""
    if which != "d":
        return block(bundle, gamma, *key)
    return bundle.alg.total(lambda p, q: {(p, q): block(bundle, gamma, p, q)}, key, key)


def var_star_matrix(bundle, gamma, p, q):
    """d/dt of the star matrix on (p,q): star composed with the commutator."""
    return bundle.star_block(p, q) @ bundle.commutator(gamma, p, q)


def var_trace_matrix(bundle, gamma, p, q):
    """d/dt of the trace operator on (p,q): minus the adjoint of gamma ^ . ."""
    return -bundle.mult_adjoint_block(gamma, p, q)


def var_codiff_matrix(bundle, gamma, which, key):
    """d/dt of codiff(which, key): codiff C + (-1)^(k+1) (star C star) codiff on degree k."""
    prev = neighbor(which, key, -1)
    if bundle.dim(which, prev) == 0:
        return np.zeros(gamma.vec.shape[:-1] + (0, bundle.dim(which, key)), dtype=complex)
    degree = key if which == "d" else sum(key)
    sign = -1.0 if degree % 2 == 0 else 1.0
    ds = bundle.codiff(which, key)
    return ds @ _on_complex(OperatorBundle.commutator, bundle, gamma, which, key) \
        + sign * _on_complex(star_comm_star, bundle, gamma, which, prev) @ ds


def laplacian_variation_matrix(bundle, gamma, which, key):
    """d/dt of the chosen Laplacian matrix along omega + t gamma.

    which "del"/"dbar" take a bidegree key, "d" a total degree; the result
    acts on the same space as the Laplacian itself.
    """
    prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
    dim = bundle.dim(which, key)
    out = np.zeros(gamma.vec.shape[:-1] + (dim, dim), dtype=complex)
    if bundle.dim(which, prev):
        out += bundle.alg.diff(which, prev) @ var_codiff_matrix(bundle, gamma, which, key)
    if bundle.dim(which, nxt):
        out += var_codiff_matrix(bundle, gamma, which, nxt) @ bundle.alg.diff(which, key)
    return out


# ----- kernel projector variation ---------------------------------------------------


@dataclass
class ProjectorVariation:
    """Derivative data of the harmonic projector P of one Laplacian.

    derivative is dP = K C (I - K) - Im C (I - Im), for the kernel and image
    projectors K and Im; image_part is P dP (I - P), which agrees with the
    derivative exactly on inputs with vanishing harmonic component.
    decomposition is the space's hodge.Decomposition: its kernel dimension
    and its projectors.
    """

    which: str
    key: object
    derivative: np.ndarray
    image_part: np.ndarray
    decomposition: Decomposition = field(repr=False)

    @property
    def kernel_dim(self):
        return self.decomposition.kernel_dim


def var_harmonic_projector(bundle, gamma, which, key):
    """Variation of the kernel projector of a Laplacian along omega + t gamma.

    The kernel and image projectors P = B (B^H G B)^-1 B^H G have metric-free
    bases B, so dP = B (B^H G B)^-1 B^H dG (I - P) (Golub and Pereyra, The
    differentiation of pseudo-inverses and nonlinear least squares problems
    whose variables separate), which dG = G C - tr(H^-1 Gamma) G makes P C (I - P).
    """
    dec = decomposition(bundle, which, key)
    comm = _on_complex(OperatorBundle.commutator, bundle, gamma, which, key)
    eye = np.eye(comm.shape[-1])
    derivative = dec.kernel @ comm @ (eye - dec.kernel) - dec.image @ comm @ (eye - dec.image)
    image_part = dec.harmonic @ derivative @ (eye - dec.harmonic)
    return ProjectorVariation(which, key, derivative, image_part, dec)


# ----- induced metric direction of a volume-level path --------------------------------


def metric_direction_of_volume(bundle, direction_form):
    """First variation of the (n-1) root along Omega + t * direction.

    Returns the real (1,1) form (trace(star direction)/(n-1)) omega -
    star(direction), the derivative at t=0 of the positive root of the
    moving (n-1,n-1) form; a stack of directions gives the stack of theirs.
    """
    n = bundle.n
    if n < 2:
        raise DimensionMismatch("volume directions need n >= 2")
    starred = Form.at(n, (1, 1), bundle.star(direction_form).part((1, 1)))
    traced = bundle.trace_contract(starred).part((0, 0))[..., 0]
    # one Python complex division per direction: numpy's rounds otherwise
    coef = np.array([complex(c) / (n - 1) for c in traced.reshape(-1)]).reshape(traced.shape)
    return Form(n, coef[..., None] * bundle.omega.vec + (-1.0) * starred.vec)


# ----- functional variations ----------------------------------------------------------


@dataclass
class FunctionalVariation:
    """First variation of one torsion energy along an admissible direction.

    derivative is the exact directional derivative: the pairing summands
    plus the signed pairing of the torsion with the moving-projector
    remainder (the closed-form projector derivative P C (I - P)).
    value is the bound-carrying diagnostic: it adds the nonnegative bound
    on that remainder instead of the signed pairing, so it is a derivative
    only where the projector source norm vanishes, and not linear in the
    direction elsewhere.  terms keeps every summand separately together
    with diagnostics (the signed remainder pairing, the norm of the moving
    projector applied to the frozen source).  fd is filled by the
    finite-difference harness on request; discrepancy then records
    fd - value, which stays at rounding level whenever the projector
    source norm vanishes.  imag_residual reports how far the assembled
    pairing strays from being real.  The fields of one direction's variation
    are floats, those of a stack's arrays over the stack, every term too.
    """

    kind: str
    value: float
    derivative: float
    terms: dict
    imag_residual: float
    fd: float | None = None

    @property
    def discrepancy(self):
        return None if self.fd is None else float(self.fd - self.value)


def variation_at(bundle, functional, nu=None, weight_bundle=None):
    """The first variation of one energy at a fixed bundle, as a map.

    Returns a map from a vetted Direction to its FunctionalVariation (without
    fd): floats for one form, which runs as a stack of one, and arrays over the
    stack for a stack.  Every direction-independent ingredient (torsion,
    projectors, the potential's Green operator) is computed once, and the stack
    runs in one pass per chunk of the largest stack within DENSE_BUDGET; a
    Direction keeps its direction-only work for the next bundle.  functional is
    "F", "F_tilde" (needs nu), "G" or "H" (needs weight_bundle).
    """
    kind = energy(functional).torsion
    if kind is None:
        body, side = _var_H_at(bundle, weight_bundle), dim_pq(bundle.n, 2, 1)
    else:
        body, report, side = _var_torsion_at(bundle, kind)
        if functional == "F_tilde":
            body = _var_F_tilde_at(bundle, nu, body, report)
    size = max(1, DENSE_BUDGET // max(1, side * side))

    def at(direction):
        form = direction.form
        if form.vec.ndim == 1:
            var = at(Direction(direction.kind, Form(form.n, form.vec[None])))
            return _joined(lambda rows: float(rows[0][0]), [var])
        parts = [body(chunk) for chunk in direction.chunks(size)]
        return parts[0] if len(parts) == 1 else _joined(np.concatenate, parts)

    return at


def _joined(op, variations):
    """One FunctionalVariation whose every field is op of that field's list over
    variations of one kind."""
    first = variations[0]
    return FunctionalVariation(
        kind=first.kind,
        value=op([v.value for v in variations]),
        derivative=op([v.derivative for v in variations]),
        terms={name: op([v.terms[name] for v in variations]) for name in first.terms},
        imag_residual=op([v.imag_residual for v in variations]),
    )


def _dots(x, y):
    """x_i^H y_i for stacks of column vectors (..., d, 1), one dot per direction."""
    return (x[..., 0].conj()[..., None, :] @ y)[..., 0, 0]


def _norm(sq):
    """The norms of squared Gram norms, negative rounding clipped."""
    return np.sqrt(np.maximum(np.real(sq), 0.0))


def _var_torsion_at(bundle, kind):
    """(direction stack -> variation of ||torsion||^2, torsion report, widest
    matrix side) at one bundle.

    The torsion is the minimal potential at prev of the image part of its
    source at key.  A metric direction gamma moves the source del(omega) by
    del(gamma); a volume direction moves the source omega_{n-1} by itself
    and the metric by metric_direction_of_volume.  The moving projector adds
    -dP s = Im C (I - Im) s - K C (I - K) s (var_harmonic_projector).
    """
    alg, n = bundle.alg, bundle.n
    report = torsion(bundle, kind)
    which, key = torsion_space(kind, n)
    prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
    tors_vec = report.torsion.part(prev)
    tors_col = tors_vec[:, None]
    gram = bundle.gram_for(which, prev)
    det = bundle.det_h
    dec = decomposition(bundle, which, key)
    codiff = potential_codiff(bundle, which, key)
    green_prev = green_operator(bundle, which, prev)
    omega_src = report.source.part(key)
    # (I - P) s for the kernel and image projectors P
    ker_rest, im_rest = ((omega_src - p @ omega_src)[:, None] for p in (dec.kernel, dec.image))
    tors_norm = float(_norm(report.norm_sq))
    types = [(p, q, sl, bundle.gram(p, q)) for (p, q), sl in alg.slices(prev).items()]
    side = max(bundle.dim(which, k) for k in (prev, key, nxt))

    def at(dirs):
        if dirs.kind == "volume":
            metric_dir = metric_direction_of_volume(bundle, dirs.form)
            src_vec = dirs.form.part(key)
        else:
            metric_dir = dirs.form
            src_vec = dirs.del_forms(alg).part(key)
        # the minimal potential of each direction's source
        eta = green_prev @ (codiff @ (dec.image @ src_vec[..., None]))
        comm = _on_complex(OperatorBundle.commutator, bundle, metric_dir, which, prev)

        # two pairing summands per type of the torsion's space (the
        # commutator preserves type)
        second_full = eta + comm @ tors_col
        terms, total = {}, 0.0 + 0.0j
        for p, q, sl, g in types:
            first = (tors_vec[sl].conj() @ (g @ eta[..., sl, :]))[..., 0] * det
            second = _dots(second_full[..., sl, :], g @ tors_col[sl]) * det
            terms[f"eta_{kind}_{p}{q}"] = first.real
            terms[f"{kind}_eta_comm_{p}{q}"] = second.real
            total += first + second

        # moving-projector remainder: the value carries its norm bound,
        # the derivative its signed pairing
        comm_key = _on_complex(OperatorBundle.commutator, bundle, metric_dir, which, key)
        a_vec = dec.image @ (comm_key @ im_rest) - dec.kernel @ (comm_key @ ker_rest)
        lift = green_prev @ (codiff @ a_vec)
        gram_lift = gram @ lift
        proj_term = 2.0 * tors_norm * (_norm(_dots(lift, gram_lift)) * np.sqrt(det))
        pairing = 2.0 * (tors_vec.conj() @ gram_lift)[..., 0].real * det
        terms["projector_term"] = proj_term
        terms["projector_pairing_signed"] = pairing
        terms["projector_source_norm"] = \
            _norm(_dots(a_vec, bundle.gram_for(which, key) @ a_vec)) * np.sqrt(det)
        return FunctionalVariation(
            kind="F" if kind == "rho" else "G",
            value=total.real + proj_term,
            derivative=total.real + pairing,
            terms=terms,
            imag_residual=np.abs(total.imag),
        )

    return at, report, side


def _var_H_at(bundle, gamma_bundle):
    alg, n = bundle.alg, bundle.n
    u_bar = bundle.trace_contract(alg.dbar_form(bundle.omega))  # (0,1)
    del_omega = alg.del_form(bundle.omega)
    weight = gamma_bundle.omega_power(n - 1)

    def pairings(forms):
        """2 Re(i integral(form ^ u_bar ^ weight)) for each (1,0) form of a stack."""
        return 2.0 * (1j * alg.integrate(wedge(wedge(forms, u_bar), weight))).real

    def at(dirs):
        t1 = pairings(bundle.trace_contract(dirs.del_forms(alg)))
        t2_form = bundle.mult_adjoint(dirs.form, del_omega)
        t2 = pairings(Form.at(n, (1, 0), np.broadcast_to(t2_form.part((1, 0)), t1.shape + (n,))))
        return FunctionalVariation(
            kind="H",
            value=t1 - t2,
            derivative=t1 - t2,
            terms={"trace_of_derivative": t1, "adjoint_of_direction": t2},
            imag_residual=np.zeros(t1.shape),
        )

    return at


def _var_F_tilde_at(bundle, nu, var_f, report):
    """The quotient rule on the variation var_f of F at the same bundle."""
    alg, n = bundle.alg, bundle.n
    f_val = float(report.norm_sq)  # eval_F(bundle).value
    denom = normalization_integral(bundle, nu)
    if denom <= 0:
        raise NotPositive(f"normalization integral {denom:.3e} is not positive")

    def at(dirs):
        base = var_f(dirs)
        dir_int = dirs.nu_integrals(alg, nu)

        def quotient(d_f):
            return (d_f - n * (dir_int / denom) * f_val) / denom ** n

        terms = dict(base.terms)
        terms.update({"unnormalized": base.value, "normalization": np.full(dir_int.shape, denom),
                      "direction_integral": dir_int})
        return FunctionalVariation(
            kind="F_tilde",
            value=quotient(base.value),
            derivative=quotient(base.derivative),
            terms=terms,
            imag_residual=base.imag_residual,
        )

    return at


def _variation(bundle, functional, direction, nu=None, weight_bundle=None, with_fd=False):
    """The first variation of one energy along a direction vetted against its
    ENERGIES entry (make_direction for raw input; a Direction only has its kind
    checked), with the finite-difference audit on request."""
    spec = energy(functional)
    kind = SLICES[spec.slice].direction
    if not isinstance(direction, Direction):
        direction = make_direction(bundle.alg, direction, kind=kind,
                                   require=spec.constraint, tol=bundle.tol)
    elif direction.kind != kind:
        raise DirectionNotAdmissible(f"this energy varies along {kind} "
                                     f"directions, not {direction.kind} ones")
    out = variation_at(bundle, functional, nu, weight_bundle)(direction)
    if with_fd:
        fd, = _fd_along(bundle, direction, default_step(bundle.metric),
                        [lambda b: evaluate(b, functional, nu, weight_bundle).value])
        out.fd = float(fd)
    return out


def var_F(bundle, direction, with_fd=False):
    """First variation of the pluriclosed torsion energy along a real (1,1) direction.

    The direction must keep del dbar omega = 0 to first order.  At
    direction = omega the value equals n times the energy.
    """
    return _variation(bundle, "F", direction, with_fd=with_fd)


def var_G(bundle, direction, with_fd=False):
    """First variation of the coclosed torsion energy along a closed real (n-1,n-1) direction."""
    return _variation(bundle, "G", direction, with_fd=with_fd)


def var_H(bundle, gamma_bundle, direction, with_fd=False):
    """First variation of the trace energy in its metric slot, weight fixed."""
    return _variation(bundle, "H", direction, weight_bundle=gamma_bundle, with_fd=with_fd)


def var_F_tilde(bundle, nu, direction, with_fd=False):
    """First variation of the normalized pluriclosed energy."""
    return _variation(bundle, "F_tilde", direction, nu=nu, with_fd=with_fd)


def _fd_along(bundle, direction, step, extracts):
    """Central differences of each extract(bundle at t) along the direction's metric
    path, as a list in the order of extracts: the datum of the direction's slice
    (omega, or omega_{n-1}) moves by t * direction and maps back to a metric, whose
    bundle is built at the bundle's tolerance.  One bundle is built per stencil
    point; every extract reads it, and it is dropped before the next point's."""
    alg = bundle.alg
    cone = direction_slice(direction.kind)
    base = cone.datum(bundle.metric)

    def at(t):
        moved = bundle_for_algebra(alg, cone.metric(alg, base + t * direction.form), bundle.tol)
        return [extract(moved) for extract in extracts]

    return fd_derivative(at, step)


# ----- the check battery ---------------------------------------------------------------


@dataclass
class VariationCheck:
    """One audited derivative: closed form against its reference.

    analytic and fd record the largest magnitudes of the two sides (fd is
    a finite difference for most rows, an independent closed form for the
    self-consistency rows).  rel_err divides by max(1, analytic, fd) so
    rows whose entries are tiny are judged on absolute error.
    """

    name: str
    detail: str
    analytic: float
    fd: float
    abs_err: float

    @property
    def rel_err(self):
        return self.abs_err / max(1.0, self.analytic, self.fd)

    def to_row(self):
        return {
            "name": self.name,
            "detail": self.detail,
            "analytic": self.analytic,
            "fd": self.fd,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
        }


def _amax(x):
    arr = np.asarray(x)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _check(rows, name, detail, got, want):
    rows.append(VariationCheck(name, detail, _amax(got), _amax(want),
                               _amax(np.asarray(got) - np.asarray(want))))


def variation_battery(model, seed=0, tuples=20):
    """Finite-difference audit of every operator variation formula.

    Tuple i draws a metric, a real direction and a bidegree from the generator
    seeded with seed + i, then compares the closed-form derivative matrices of
    star, trace, the Gram matrix, the three codifferentials, the three Laplacians
    and the kernel projector against Richardson-extrapolated central differences,
    plus the self-consistency rows (conjugation symmetry, omega scalings, the
    perturbation oracle).  A tuple builds its own bundle and one bundle per
    stencil point, which gives the differences of every row before the next
    point's is built.  Returns VariationCheck rows; callers assert on rel_err.
    """
    alg = algebra_for(model)
    n = alg.n
    rows = []
    for idx in range(tuples):
        rng = np.random.default_rng(seed + idx)
        met = random_metric(n, rng)
        b = bundle_for_algebra(alg, met)
        gm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gm = 0.5 * (gm + gm.conj().T)
        gamma = HermitianMetric(gm).form()
        along = Direction("metric", gamma)
        omega = b.omega
        step = default_step(met)
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        k = p + q
        tag = f"tuple {idx} (p,q)=({p},{q})"

        # the projector's differences come from the same stencil bundles as the others
        pv = var_harmonic_projector(b, gamma, "d", k)
        complexes = (("del", (p, q)), ("dbar", (p, q)), ("d", k))
        extracts = [lambda bb: bb.star_block(p, q), lambda bb: bb.trace_block(p, q),
                    lambda bb: bb.gram(p, q)]
        extracts += [lambda bb, w=which, kk=key: bb.codiff(w, kk) for which, key in complexes]
        extracts += [lambda bb, w=which, kk=key: bb.laplacian(w, kk)
                     for which, key in complexes]
        extracts.append(lambda bb: harmonic_projector(bb, "d", k))
        fds = iter(_fd_along(b, along, step, extracts))

        _check(rows, "star", tag, var_star_matrix(b, gamma, p, q), next(fds))
        _check(rows, "trace", tag, var_trace_matrix(b, gamma, p, q), next(fds))
        # the premise of the projector derivative: dG = G (C - tr(H^-1 Gamma) I)
        comm = b.commutator(gamma, p, q)
        g = b.gram(p, q)
        _check(rows, "gram", tag, g @ (comm - np.trace(b.h_inv @ gm) * np.eye(len(g))),
               next(fds))
        for which, key in complexes:
            _check(rows, f"{which}_star", tag, var_codiff_matrix(b, gamma, which, key),
                   next(fds))
        for which, key in complexes:
            _check(rows, f"laplacian_{which}", tag,
                   laplacian_variation_matrix(b, gamma, which, key), next(fds))

        # commutator self-adjointness and the gamma = omega normalization
        _check(rows, "commutator_selfadjoint", tag, g @ comm, comm.conj().T @ g)
        comm_omega = b.commutator(omega, p, q)
        _check(rows, "commutator_omega", tag, comm_omega,
               (n - p - q) * np.eye(dim_pq(n, p, q), dtype=complex))

        # conjugation symmetry: the dbar-adjoint variation is the conjugate
        # of the del-adjoint variation at the mirrored bidegree
        if q >= 1:
            conj_in = conj_block_matrix(n, p, q)
            conj_out = conj_block_matrix(n, q - 1, p)
            mirrored = conj_out @ var_codiff_matrix(b, gamma, "del", (q, p)).conj() @ conj_in
            _check(rows, "conjugation_symmetry", tag,
                   var_codiff_matrix(b, gamma, "dbar", (p, q)), mirrored)

        # direction omega: first-order scaling pins each variation exactly
        _check(rows, "omega_scaling_star", tag,
               var_star_matrix(b, omega, p, q),
               (n - k) * b.star_block(p, q))
        _check(rows, "omega_scaling_d_star", tag,
               var_codiff_matrix(b, omega, "d", k), -b.codiff("d", k))
        _check(rows, "omega_scaling_laplacian", tag,
               laplacian_variation_matrix(b, gamma=omega, which="d", key=k),
               -b.laplacian("d", k))

        # projector derivative: full two-term formula against differences,
        # one-term restriction on a deflated vector, and the exact
        # vanishing of the derivative along omega itself
        fd = next(fds)
        _check(rows, "projector", tag, pv.derivative, fd)
        dimk = alg.dim_total(k)
        if dimk:
            v = rng.standard_normal(dimk) + 1j * rng.standard_normal(dimk)
            v0 = v - pv.decomposition.harmonic @ v
            _check(rows, "projector_deflated", tag, pv.image_part @ v0, fd @ v0)
            _check(rows, "projector_oracle", tag, pv.image_part @ v0,
                   pv.derivative @ v0)
        pv_omega = var_harmonic_projector(b, omega, "d", k)
        _check(rows, "omega_scaling_projector", tag, pv_omega.derivative,
               np.zeros_like(pv_omega.derivative))
    return rows
