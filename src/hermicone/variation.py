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
All matrix derivatives are exact (the model is finite dimensional); the
finite-difference harness in this module exists to cross-check them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, DirectionNotAdmissible, KernelJump,
                     NotPositive, NotPositiveDefinite, StepTooLarge)
from .exterior import Form, conj_block_matrix, dim_pq, neighbor, wedge, wedge_power
from .functionals import (SLICES, cone_slice, direction_slice, energy, evaluate,
                          normalization_integral)
from .hodge import (Decomposition, decomposition, harmonic_projector, image_projector,
                    torsion, torsion_space)
from .metric import DEFAULT_TOL, HermitianMetric, bundle_for_algebra, random_metric
from .model import algebra_for

FD_REL_STEP = 1e-3


# ----- finite differences ----------------------------------------------------------


def fd_derivative(func, step, richardson=True):
    """Central difference of func at 0, Richardson-extrapolated by default.

    func may return floats, complex numbers, numpy arrays or Forms.  A
    positivity failure at any probe point is reported as StepTooLarge.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    try:
        d1 = (func(step) - func(-step)) * (0.5 / step)
        if not richardson:
            return d1
        d2 = (func(0.5 * step) - func(-0.5 * step)) * (1.0 / step)
    except (NotPositiveDefinite, NotPositive) as exc:
        raise StepTooLarge(
            f"positivity lost inside the difference stencil (step {step:.3e})") from exc
    return (4.0 / 3.0) * d2 - (1.0 / 3.0) * d1


def default_step(metric):
    """Step proportional to the smallest metric eigenvalue, so omega +/- t gamma stays safe."""
    return FD_REL_STEP * metric.min_eigenvalue()


# ----- directions -------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """A variation direction: a real (p,p) form moving the datum of a SLICES cone."""

    kind: str  # "metric" for real (1,1), "volume" for real (n-1,n-1)
    form: Form


def make_direction(alg, obj, kind="metric", require=None, tol=DEFAULT_TOL):
    """Build and vet a variation direction.

    kind names the SLICES direction kind: "metric" takes a real (1,1) form
    or a Hermitian matrix, "volume" a real (n-1,n-1) form.  require names a
    SLICES cone whose constraint the direction must keep ("skt": del dbar
    = 0, "balanced": d = 0); violations raise DirectionNotAdmissible.
    """
    p = direction_slice(kind).degree(alg.n)
    if kind == "metric" and not isinstance(obj, Form):
        obj = HermitianMetric(obj).form()
    if not isinstance(obj, Form) or obj.n != alg.n:
        raise DimensionMismatch(f"{kind} direction must be a form over the same coframe")
    if obj.bidegrees() not in ([], [(p, p)]):
        raise DirectionNotAdmissible(f"{kind} direction must be a ({p},{p}) form")
    real_res = (obj - obj.conj()).max_abs()
    if real_res > tol * (1.0 + obj.max_abs()):
        raise DirectionNotAdmissible(f"{kind} direction is not real (residual {real_res:.3e})")
    direction = Direction(kind, 0.5 * (obj + obj.conj()))
    if require is not None:
        cone = cone_slice(require)
        res = cone.constraint(alg, direction.form).max_abs()
        if res > tol * (1.0 + direction.form.max_abs()):
            raise DirectionNotAdmissible(
                f"direction leaves the {cone.name} constraint (residual {res:.3e})")
    return direction


# ----- operator variations -----------------------------------------------------------


class _Wedges(dict):
    """The matrices of gamma ^ . by source bidegree, each built(p, q) on first use."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, pq):
        self[pq] = mat = self.build(*pq)
        return mat


def _wedges(alg, gamma):
    """The _Wedges of a (1,1) form; one passed in is returned as is, so the
    variations along one direction share its wedge matrices."""
    if isinstance(gamma, _Wedges):
        return gamma
    return _Wedges(lambda p, q: alg.wedge_matrix(gamma, p, q))


def commutator_mult(bundle, gamma, p, q):
    """Matrix of [trace, gamma ^ .] on (p,q) for a (1,1) form gamma.

    For gamma = omega this is (n - p - q) times the identity.  Here and in
    the variations below gamma may also be its _wedges memo.
    """
    n = bundle.n
    wedge = _wedges(bundle.alg, gamma)
    dim = dim_pq(n, p, q)
    out = np.zeros((dim, dim), dtype=complex)
    if p + 1 <= n and q + 1 <= n:
        out += bundle.trace_block(p + 1, q + 1) @ wedge[p, q]
    if p >= 1 and q >= 1:
        out -= wedge[p - 1, q - 1] @ bundle.trace_block(p, q)
    return out


def star_comm_star(bundle, gamma, p, q):
    """star C star as an endomorphism of (p,q); C acts at the star image (n-q,n-p)."""
    n = bundle.n
    mid = commutator_mult(bundle, gamma, n - q, n - p)
    return bundle.star_block(n - q, n - p) @ mid @ bundle.star_block(p, q)


def _on_complex(block, bundle, gamma, which, key):
    """block(bundle, gamma, p, q) at key: itself on a bidegree, block diagonal on a degree."""
    if which != "d":
        return block(bundle, gamma, *key)
    return bundle.alg.total(lambda p, q: {(p, q): block(bundle, gamma, p, q)}, key, key)


def var_star_matrix(bundle, gamma, p, q):
    """d/dt of the star matrix on (p,q): star composed with the commutator."""
    return bundle.star_block(p, q) @ commutator_mult(bundle, gamma, p, q)


def var_trace_matrix(bundle, gamma, p, q):
    """d/dt of the trace operator on (p,q): minus the adjoint of gamma ^ . ."""
    if p < 1 or q < 1:
        return np.zeros((dim_pq(bundle.n, p - 1, q - 1), dim_pq(bundle.n, p, q)),
                        dtype=complex)
    return -bundle.mult_adjoint_block(gamma, p, q)


def var_codiff_matrix(bundle, gamma, which, key):
    """d/dt of codiff(which, key): codiff C + (-1)^(k+1) (star C star) codiff on degree k."""
    prev = neighbor(which, key, -1)
    if bundle.dim(which, prev) == 0:
        return np.zeros((0, bundle.dim(which, key)), dtype=complex)
    degree = key if which == "d" else sum(key)
    sign = -1.0 if degree % 2 == 0 else 1.0
    ds = bundle.codiff(which, key)
    gamma = _wedges(bundle.alg, gamma)
    return ds @ _on_complex(commutator_mult, bundle, gamma, which, key) \
        + sign * _on_complex(star_comm_star, bundle, gamma, which, prev) @ ds


def laplacian_variation_matrix(bundle, gamma, which, key):
    """d/dt of the chosen Laplacian matrix along omega + t gamma.

    which "del"/"dbar" take a bidegree key, "d" a total degree; the result
    acts on the same space as the Laplacian itself.
    """
    prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
    dim = bundle.dim(which, key)
    out = np.zeros((dim, dim), dtype=complex)
    gamma = _wedges(bundle.alg, gamma)
    if bundle.dim(which, prev):
        out += bundle.alg.diff(which, prev) @ var_codiff_matrix(bundle, gamma, which, key)
    if bundle.dim(which, nxt):
        out += var_codiff_matrix(bundle, gamma, which, nxt) @ bundle.alg.diff(which, key)
    return out


# ----- kernel projector variation ---------------------------------------------------


@dataclass
class ProjectorVariation:
    """Derivative data of the harmonic projector of one Laplacian.

    derivative is the unconditional two-term expression
    -(P dLap S + S dLap P); image_part keeps only -P dLap S, which agrees
    with the derivative exactly on inputs with vanishing kernel component.
    When a test form was supplied, value_form applies image_part to it,
    oracle_form applies the two-term expression, and input_kernel_norm
    flags how much of the input the one-term restriction cannot see.
    decomposition is the Laplacian's hodge.Decomposition: its kernel
    dimension, spectral gap, threshold and harmonic projector P.
    """

    which: str
    key: object
    derivative: np.ndarray
    image_part: np.ndarray
    decomposition: Decomposition = field(repr=False)
    value_form: object = None
    oracle_form: object = None
    input_kernel_norm: float = 0.0

    @property
    def kernel_dim(self):
        return self.decomposition.kernel_dim

    def kernel_component_norm(self, vec):
        """Pointwise-Gram norm of the kernel component of vec."""
        dec = self.decomposition
        return _gram_norm(dec.spectral.gram, dec.harmonic @ vec)


def var_harmonic_projector(bundle, gamma, which, key, v=None):
    """Variation of the kernel projector of a Laplacian along omega + t gamma.

    Refuses (KernelJump) where the decomposition's spectral gap is too
    small (Decomposition.require_gap).  With a test form v the applied
    results are attached (value_form from the one-term restriction,
    oracle_form from the full two-term expression).
    """
    dec = decomposition(bundle, which, key).require_gap()
    proj, green = dec.harmonic, dec.green
    dlap = laplacian_variation_matrix(bundle, gamma, which, key)
    image_part = -proj @ dlap @ green
    derivative = image_part - green @ dlap @ proj
    out = ProjectorVariation(which, key, derivative, image_part, dec)
    if v is not None:
        vec = v.part(key)
        out.value_form = Form.at(v.n, key, image_part @ vec)
        out.oracle_form = Form.at(v.n, key, derivative @ vec)
        out.input_kernel_norm = out.kernel_component_norm(vec)
    return out


# ----- induced metric direction of a volume-level path --------------------------------


def metric_direction_of_volume(bundle, direction_form):
    """First variation of the (n-1) root along Omega + t * direction.

    Returns the real (1,1) form (trace(star direction)/(n-1)) omega -
    star(direction), the derivative at t=0 of the positive root of the
    moving (n-1,n-1) form.
    """
    n = bundle.n
    if n < 2:
        raise DimensionMismatch("volume directions need n >= 2")
    starred = Form.at(n, (1, 1), bundle.star(direction_form).part((1, 1)))
    coef = complex(bundle.trace_contract(starred).part((0, 0))[0])
    return (coef / (n - 1)) * bundle.omega - starred


# ----- functional variations ----------------------------------------------------------


@dataclass
class FunctionalVariation:
    """First variation of one torsion energy along an admissible direction.

    derivative is the exact directional derivative: the pairing summands
    plus the signed pairing of the torsion with the moving-projector
    remainder (the resolvent formula for the projector derivative).
    value is the bound-carrying diagnostic: it adds the nonnegative bound
    on that remainder instead of the signed pairing, so it is a derivative
    only where the projector source norm vanishes, and not linear in the
    direction elsewhere.  terms keeps every summand separately together
    with diagnostics (the signed remainder pairing, the norm of the moving
    projector applied to the frozen source).  fd is filled by the
    finite-difference harness on request; discrepancy then records
    fd - value, which stays at rounding level whenever the projector
    source norm vanishes.  imag_residual reports how far the assembled
    pairing strays from being real.
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

    Returns direction -> FunctionalVariation (without fd) for vetted
    Direction objects; every direction-independent ingredient (torsion,
    projectors, Green operators) is computed once, so many directions at
    one metric cost one torsion solve.  functional is "F", "F_tilde"
    (needs nu), "G" or "H" (needs weight_bundle).
    """
    kind = energy(functional).torsion
    if kind is None:
        return _var_H_at(bundle, weight_bundle)
    at, report = _var_torsion_at(bundle, kind)
    return _var_F_tilde_at(bundle, nu, at, report) if functional == "F_tilde" else at


def _var_torsion_at(bundle, kind):
    """(direction -> variation of ||torsion||^2, torsion report) at one bundle.

    The torsion is the minimal potential at prev of the image part of its
    source at key.  A metric direction gamma moves the source del(omega) by
    del(gamma); a volume direction moves the source omega_{n-1} by itself
    and the metric by metric_direction_of_volume.
    """
    alg = bundle.alg
    report = torsion(bundle, kind)
    which, key = torsion_space(kind, bundle.n)
    prev = neighbor(which, key, -1)
    tors_vec = report.torsion.part(prev)
    gram = bundle.gram_for(which, prev)
    det = bundle.det_h
    im_proj = image_projector(bundle, which, key)
    codiff = bundle.codiff(which, key)
    green_prev = decomposition(bundle, which, prev).green
    here = decomposition(bundle, which, key)
    proj, green = here.harmonic, here.green
    omega_src = report.source.part(key)
    green_src, proj_src = green @ omega_src, proj @ omega_src
    tors_norm = float(np.sqrt(max(report.norm_sq, 0.0)))
    types = [(p, q, sl, bundle.gram(p, q)) for (p, q), sl in alg.slices(prev).items()]

    def at(direction):
        if direction.kind == "volume":
            metric_dir = metric_direction_of_volume(bundle, direction.form)
            src_dir = direction.form
        else:
            metric_dir, src_dir = direction.form, alg.del_form(direction.form)
        metric_dir = _wedges(alg, metric_dir)
        src_vec = src_dir.part(key)
        eta = green_prev @ (codiff @ (im_proj @ src_vec))  # the minimal potential
        comm = _on_complex(commutator_mult, bundle, metric_dir, which, prev)

        # two pairing summands per type of the torsion's space (the
        # commutator preserves type)
        terms = {}
        total = 0.0 + 0.0j
        second_full = eta + comm @ tors_vec
        for p, q, sl, g in types:
            first = (tors_vec[sl].conj() @ (g @ eta[sl])) * det
            second = (second_full[sl].conj() @ (g @ tors_vec[sl])) * det
            terms[f"eta_{kind}_{p}{q}"] = float(first.real)
            terms[f"{kind}_eta_comm_{p}{q}"] = float(second.real)
            total += first + second

        # moving-projector remainder: the value carries its norm bound,
        # the derivative its signed pairing
        dlap = laplacian_variation_matrix(bundle, metric_dir, which, key)
        a_vec = proj @ (dlap @ green_src) + green @ (dlap @ proj_src)
        lift = green_prev @ (codiff @ a_vec)
        proj_term = 2.0 * tors_norm * (_gram_norm(gram, lift) * np.sqrt(det))
        pairing = float(2.0 * (tors_vec.conj() @ (gram @ lift)).real * det)
        terms["projector_term"] = float(proj_term)
        terms["projector_pairing_signed"] = pairing
        terms["projector_source_norm"] = float(
            _gram_norm(bundle.gram_for(which, key), a_vec) * np.sqrt(det))
        return FunctionalVariation(
            kind="F" if kind == "rho" else "G",
            value=float(total.real + proj_term),
            derivative=float(total.real + pairing),
            terms=terms,
            imag_residual=float(abs(total.imag)),
        )

    return at, report


def _var_H_at(bundle, gamma_bundle):
    alg, n = bundle.alg, bundle.n
    u_bar = bundle.trace_contract(alg.dbar_form(bundle.omega))  # (0,1)
    del_omega = alg.del_form(bundle.omega)
    weight = gamma_bundle.omega_power(n - 1)

    def at(direction):
        eta = direction.form
        t1_form = bundle.trace_contract(alg.del_form(eta))
        t1 = 2.0 * (1j * alg.integrate(wedge(wedge(t1_form, u_bar), weight))).real
        t2_form = bundle.mult_adjoint(eta, del_omega)
        t2_part = Form.at(n, (1, 0), t2_form.part((1, 0)))
        t2 = 2.0 * (1j * alg.integrate(wedge(wedge(t2_part, u_bar), weight))).real
        return FunctionalVariation(
            kind="H",
            value=float(t1 - t2),
            derivative=float(t1 - t2),
            terms={"trace_of_derivative": float(t1), "adjoint_of_direction": float(t2)},
            imag_residual=0.0,
        )

    return at


def _var_F_tilde_at(bundle, nu, var_f, report):
    """The quotient rule on the variation var_f of F at the same bundle."""
    alg, n = bundle.alg, bundle.n
    f_val = float(report.norm_sq)  # eval_F(bundle).value
    denom = normalization_integral(bundle, nu)
    if denom <= 0:
        raise NotPositive(f"normalization integral {denom:.3e} is not positive")
    nu_pow = wedge_power(nu.form(), n - 1)

    def at(direction):
        base = var_f(direction)
        dir_int = (alg.integrate(wedge(direction.form, nu_pow))).real

        def quotient(d_f):
            return float((d_f - n * (dir_int / denom) * f_val) / denom ** n)

        terms = dict(base.terms)
        terms.update({"unnormalized": base.value, "normalization": float(denom),
                      "direction_integral": float(dir_int)})
        return FunctionalVariation(
            kind="F_tilde",
            value=quotient(base.value),
            derivative=quotient(base.derivative),
            terms=terms,
            imag_residual=base.imag_residual,
        )

    return at


def _variation(bundle, functional, direction, nu=None, weight_bundle=None,
               with_fd=False, step=None):
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
        out.fd = float(_fd_along(bundle, direction, step, lambda b: evaluate(
            b, functional, nu, weight_bundle).value))
    return out


def var_F(bundle, direction, with_fd=False, step=None):
    """First variation of the pluriclosed torsion energy along a real (1,1) direction.

    The direction must keep del dbar omega = 0 to first order.  At
    direction = omega the value equals n times the energy.
    """
    return _variation(bundle, "F", direction, with_fd=with_fd, step=step)


def var_G(bundle, direction, with_fd=False, step=None):
    """First variation of the coclosed torsion energy along a closed real (n-1,n-1) direction."""
    return _variation(bundle, "G", direction, with_fd=with_fd, step=step)


def var_H(bundle, gamma_bundle, direction, with_fd=False, step=None):
    """First variation of the trace energy in its metric slot, weight fixed."""
    return _variation(bundle, "H", direction, weight_bundle=gamma_bundle,
                      with_fd=with_fd, step=step)


def var_F_tilde(bundle, nu, direction, with_fd=False, step=None):
    """First variation of the normalized pluriclosed energy."""
    return _variation(bundle, "F_tilde", direction, nu=nu, with_fd=with_fd, step=step)


def _gram_norm(gram, vec):
    return float(np.sqrt(max((vec.conj() @ (gram @ vec)).real, 0.0)))


def _fd_along(bundle, direction, step, extract):
    """Central difference of extract(bundle at t) along the direction's metric path:
    the datum of the direction's slice (omega, or omega_{n-1}) moves by t * direction
    and maps back to a metric, whose bundle is built at the bundle's tolerance."""
    alg = bundle.alg
    cone = direction_slice(direction.kind)
    base = cone.datum(bundle.metric)
    step = default_step(bundle.metric) if step is None else step
    return fd_derivative(lambda t: extract(bundle_for_algebra(
        alg, cone.metric(alg, base + t * direction.form), bundle.tol)), step)


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


def variation_battery(model, seed=0, tuples=20, tol=DEFAULT_TOL):
    """Finite-difference audit of every operator variation formula.

    Tuple i draws a metric, a real direction and a bidegree from the
    generator seeded with seed + i, then compares the closed-form
    derivative matrices of star, trace, the three codifferentials, the
    three Laplacians and the kernel projector against Richardson-extrapolated
    central differences, plus the self-consistency rows (conjugation
    symmetry, omega scalings, the perturbation oracle).  Returns
    VariationCheck rows; callers assert on rel_err.
    """
    alg = algebra_for(model)
    n = alg.n
    rows = []
    for idx in range(tuples):
        rng = np.random.default_rng(seed + idx)
        met = random_metric(n, rng)
        b = bundle_for_algebra(alg, met, tol)
        gm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gm = 0.5 * (gm + gm.conj().T)
        gamma = HermitianMetric(gm).form()
        along = Direction("metric", gamma)
        # the row's wedge matrices are built once: gamma's here, omega's by the bundle
        wedges, omega = _wedges(alg, gamma), _Wedges(b.lefschetz_block)
        step = default_step(met)
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        k = p + q
        tag = f"tuple {idx} (p,q)=({p},{q})"

        fd = _fd_along(b, along, step, lambda bb: bb.star_block(p, q))
        _check(rows, "star", tag, var_star_matrix(b, wedges, p, q), fd)

        fd = _fd_along(b, along, step, lambda bb: bb.trace_block(p, q))
        _check(rows, "trace", tag, var_trace_matrix(b, gamma, p, q), fd)

        complexes = (("del", (p, q)), ("dbar", (p, q)), ("d", k))
        for which, key in complexes:
            fd = _fd_along(b, along, step, lambda bb, w=which, kk=key: bb.codiff(w, kk))
            _check(rows, f"{which}_star", tag, var_codiff_matrix(b, wedges, which, key), fd)

        for which, key in complexes:
            fd = _fd_along(b, along, step,
                           lambda bb, w=which, kk=key: bb.laplacian(w, kk))
            _check(rows, f"laplacian_{which}", tag,
                   laplacian_variation_matrix(b, wedges, which, key), fd)

        # commutator self-adjointness and the gamma = omega normalization
        comm = commutator_mult(b, wedges, p, q)
        g = b.gram(p, q)
        _check(rows, "commutator_selfadjoint", tag, g @ comm, comm.conj().T @ g)
        comm_omega = commutator_mult(b, omega, p, q)
        _check(rows, "commutator_omega", tag, comm_omega,
               (n - p - q) * np.eye(dim_pq(n, p, q), dtype=complex))

        # conjugation symmetry: the dbar-adjoint variation is the conjugate
        # of the del-adjoint variation at the mirrored bidegree
        if q >= 1:
            conj_in = conj_block_matrix(n, p, q)
            conj_out = conj_block_matrix(n, q - 1, p)
            mirrored = conj_out @ var_codiff_matrix(b, wedges, "del", (q, p)).conj() @ conj_in
            _check(rows, "conjugation_symmetry", tag,
                   var_codiff_matrix(b, wedges, "dbar", (p, q)), mirrored)

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
        try:
            pv = var_harmonic_projector(b, wedges, "d", k)
        except KernelJump:
            continue
        fd = _fd_along(b, along, step, lambda bb: harmonic_projector(bb, "d", k))
        _check(rows, "projector", tag, pv.derivative, fd)
        dimk = alg.dim_total(k)
        if dimk:
            v = rng.standard_normal(dimk) + 1j * rng.standard_normal(dimk)
            v0 = v - pv.decomposition.harmonic @ v
            _check(rows, "projector_deflated", tag, pv.image_part @ v0, fd @ v0)
            _check(rows, "projector_oracle", tag, pv.image_part @ v0,
                   pv.derivative @ v0)
        try:
            pv_omega = var_harmonic_projector(b, omega, "d", k)
            _check(rows, "omega_scaling_projector", tag, pv_omega.derivative,
                   np.zeros_like(pv_omega.derivative))
        except KernelJump:
            pass
    return rows
