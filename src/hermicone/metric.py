"""Hermitian metrics and the per-metric operator bundle.

A metric is the coefficient matrix H of omega = i sum_jk H_jk theta^j ^
thetabar^k, Hermitian positive definite.  The bundle keeps (exterior.memo),
per bidegree, the Gram matrices of the induced pointwise inner product and
their inverses, the Hodge star (permuted Gram rows: each monomial pairs only
with its complement) and the trace operators (adjoints of omega ^ ., whose
matrices omega keeps).  The (p, q) Gram matrix is kron(C_p, C_q^T), C_p the
p-th compound of H^{-1}; compounds are multiplicative (Cauchy-Binet), so its
inverse is the same product of the compounds of H, and every adjoint
A^* = G_src^{-1} A^H G_tgt is two matrix products, with no solve.  For each
of the three complexes (which = "d" on total degrees, "del" and "dbar" on
bidegrees) it keeps one codifferential codiff(which, key); on a total degree
it is assembled from the adjoints of the bidegree blocks of d, as the
total-degree Gram is block diagonal by bidegree, so no total-degree Gram is
solved or inverted.  The closed-form inverse is the exact inverse of the
computed Gram only to ~eps kappa(H); hodge's Green operator and potentials,
whose kernel residual gate measures against the computed Gram, solve for their
codifferentials instead (hodge.potential_codiff).  What a job reads once is
formed on each call: the
commutators [trace, gamma ^ .] of the variation formulas, each Laplacian
laplacian(which, key), and the diagnostic spectral data of one: numpy's eigh
of the Laplacian reduced by the Gram's Cholesky factor (the Hermitian-definite
pencil reduction), whose eigenvectors are G-orthonormal.  No job reads the
spectral data: the Hodge decompositions come from the algebra's metric-free
bases.  The bundle also carries the tolerance tol of its predicates and of its
potentials' residual gates, and keeps the Hodge decompositions and Green
operators that hodge makes, one per space.

Inner product conventions: <theta^j, theta^k> = (H^{-1})_{kj}, extended to
monomials by determinant multiplicativity; matrices G satisfy
<u, v> = v^H G u on coefficient vectors.  L2 quantities multiply by
det(H), the total volume of dV = det(H) Theta.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SchemaError
from .exterior import (Form, _combos, _complement, _conj_table, dim_pq, memo, neighbor,
                       random_form, wedge_power)
from .model import algebra_for, require_valid

HERMITICITY_TOL = 1e-12
DEFAULT_TOL = 1e-9  # the predicate and potential-residual tolerance of a bundle
NORMAL_FLOAT_LOGS = (math.log(sys.float_info.min), math.log(sys.float_info.max))


class HermitianMetric:
    """Positive definite coefficient matrix of an invariant (1,1) metric form."""

    __slots__ = ("h", "_checked")

    def __init__(self, h):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"metric matrix must be square, got shape {h.shape}")
        self.h = h.copy()
        self.h.setflags(write=False)
        self._checked = False  # h is read-only, so a passing check() holds for good

    @property
    def n(self):
        return self.h.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def from_json(cls, text):
        """Parse "identity" plus n (handled by caller) or an n x n array of {re, im}."""
        obj = json.loads(text) if isinstance(text, str) else text
        if not isinstance(obj, list) or not obj:
            raise SchemaError("metric document must be a non-empty array of rows")
        rows = []
        for row in obj:
            if not isinstance(row, list) or len(row) != len(obj):
                raise SchemaError("metric document must be a square array")
            vals = []
            for cell in row:
                if not isinstance(cell, dict) or "re" not in cell or "im" not in cell:
                    raise SchemaError("metric entries must be objects with 're' and 'im'")
                try:
                    vals.append(complex(cell["re"], cell["im"]))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise SchemaError(f"metric entry is not a number: {exc}") from None
            rows.append(vals)
        if not np.all(np.isfinite(rows)):
            raise SchemaError("metric entries must be finite")
        return cls(np.array(rows))

    def to_json_obj(self):
        return [[{"re": float(c.real), "im": float(c.imag)} for c in row] for row in self.h]

    def check(self):
        """Refuse a metric that is not finite, Hermitian, positive definite and in
        float range; returns self.  Only the first passing call does the work."""
        if self._checked:
            return self
        if not np.all(np.isfinite(self.h)):
            raise SchemaError("metric entries must be finite")
        # entries near the float limit overflow here; the inf or nan is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            skew = np.max(np.abs(self.h - self.h.conj().T))
            scale = max(1.0, float(np.max(np.abs(self.h))))
            sym = 0.5 * (self.h + self.h.conj().T)
        # relative to the largest entry: rounding leaves a skew ~ eps * max|H|
        if skew > HERMITICITY_TOL * scale:
            raise NotPositiveDefinite(f"metric matrix is not Hermitian: skew {skew:.3e} "
                                      f"exceeds {HERMITICITY_TOL:g} * max(1, max |H|)")
        try:
            lam = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:
            raise SchemaError(f"metric matrix has no eigenvalues: {exc}") from None
        lo, hi = float(lam[0]), float(lam[-1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SchemaError("metric matrix overflows: its eigenvalues are not finite")
        if lo <= 0:
            raise NotPositiveDefinite("metric matrix is not positive definite")
        # the (p, q) Gram block scales as H^-(p+q), up to det(H)^-2 on (n, n):
        # refuse scales at which lambda_max^2n or lambda_min^-2n is not a normal float
        logs = (2 * self.n * math.log(hi), -2 * self.n * math.log(lo))
        if not all(NORMAL_FLOAT_LOGS[0] <= x <= NORMAL_FLOAT_LOGS[1] for x in logs):
            raise SchemaError(
                f"metric scale overflows: eigenvalues {lo:.3e}..{hi:.3e} put "
                "its Gram blocks outside the float range")
        self._checked = True
        return self

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(0.5 * (self.h + self.h.conj().T))[0])

    def scaled(self, lam):
        return HermitianMetric(lam * self.h)

    def form(self):
        """The metric form omega = i sum H_jk theta^j ^ thetabar^k."""
        return Form.at(self.n, (1, 1), 1j * self.h.reshape(-1))

    @classmethod
    def from_form(cls, form):
        """Extract H from a (1,1) form; inverse of .form()."""
        return cls((form.part((1, 1)) / 1j).reshape(form.n, form.n))


def random_metric(n, rng):
    """Seeded H = B^H B + I / 2, comfortably positive definite."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMetric(b.conj().T @ b + 0.5 * np.eye(n))


def _adjoint(mat, g_src_inv, g_tgt):
    # A^* = G_src^{-1} (A^H G_tgt), two products; a stack of A gives the stack of adjoints
    return g_src_inv @ (mat.conj().swapaxes(-1, -2) @ g_tgt)


def _hermitian_kron(a, b):
    """The Hermitian part of kron(a, b^T), kron as one broadcast product, the same
    products as np.kron."""
    b = b.T
    g = (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    g += g.conj().T
    g *= 0.5
    return g


@dataclass
class SpectralData:
    """Eigen-decomposition of a Laplacian: eigenvalues ascending, and as columns of
    vectors the eigenvectors, G-orthonormal (v^H G v = I) for G = gram, the Gram
    matrix of the space."""
    which: str
    key: object
    eigenvalues: np.ndarray
    vectors: np.ndarray
    gram: np.ndarray


class OperatorBundle:
    """All metric-dependent operators of one (model, metric) pair, lazily cached."""

    def __init__(self, alg, metric, tol=DEFAULT_TOL):
        if alg.n != metric.n:
            raise DimensionMismatch(f"model n={alg.n} but metric n={metric.n}")
        self.alg = alg
        self.metric = metric
        self.tol = tol
        self.h = np.asarray(metric.h)
        self.h_inv = np.linalg.inv(self.h)
        self.det_h = float(np.linalg.det(self.h).real)

    @property
    def n(self):
        return self.alg.n

    @cached_property
    def omega(self):
        return self.metric.form()

    def omega_power(self, k):
        """omega^k / k!, from the products kept on omega."""
        return wedge_power(self.omega, k)

    def integrate(self, form):
        return self.alg.integrate(form)

    # ----- inner products ---------------------------------------------------

    @memo
    def compound(self, p, of_h=False):
        """p-th compound of H^{-1}, or of H when of_h: C[I, K] = det(M[I, K]) over
        p-subsets.  Compounds are multiplicative (Cauchy-Binet), so the two are inverse
        to each other; the second is formed only where an inverse Gram is read."""
        combos = _combos(self.n, p)
        rows = np.array(combos, dtype=np.intp).reshape(len(combos), 1, p, 1)
        return np.linalg.det((self.h if of_h else self.h_inv)[rows, rows.transpose(1, 0, 3, 2)])

    @memo
    def gram(self, p, q):
        # <theta_I^thetabar_J, theta_K^thetabar_L> = C_p[I, K] * C_q[L, J]: kron(C_p, C_q^T)
        return _hermitian_kron(self.compound(p), self.compound(q))

    @memo
    def gram_inv(self, p, q):
        """Inverse of gram(p, q) in closed form: kron(C_p(H), C_q(H)^T), no solve."""
        return _hermitian_kron(self.compound(p, True), self.compound(q, True))

    @memo
    def gram_total(self, k):
        return self.alg.total(lambda p, q: {(p, q): self.gram(p, q)}, k, k)

    def inner(self, u, v):
        """Pointwise Hermitian product, summed over shared bidegrees."""
        if u.n != self.n or v.n != self.n:
            raise DimensionMismatch("form dimension does not match bundle")
        total = 0.0 + 0.0j
        for key in set(u.bidegrees()) | set(v.bidegrees()):
            total += v.part(key).conj() @ (self.gram(*key) @ u.part(key))
        return complex(total)

    def l2_inner(self, u, v):
        return self.inner(u, v) * self.det_h

    def l2_norm(self, u):
        val = self.l2_inner(u, u).real
        return float(np.sqrt(max(val, 0.0)))

    # ----- Hodge star ---------------------------------------------------------

    @memo
    def star_block(self, a, b):
        """Matrix of the C-linear star from Lambda^{a,b} to Lambda^{n-b,n-a}.

        u ^ star(w) = <u, conj(w)> dV for u in Lambda^{b,a}; only the complement
        of monomial r of u pairs with star(w), so row comp[r] of the star is
        det(H) times row r of the Gram pairing with conj(w), over unit[r].
        """
        comp, unit = _complement(self.n, b, a)
        sign, perm = _conj_table(self.n, a, b)
        star = np.empty((len(comp),) * 2, dtype=complex)
        star[comp] = self.det_h * (sign * self.gram(b, a)[perm].T) / unit[:, None]
        return star

    def star_blocks(self, p, q):
        """The star as a block map."""
        return {(self.n - q, self.n - p): self.star_block(p, q)}

    def star(self, form):
        return self.alg.apply(self.star_blocks, form)

    def star_total(self, k):
        """Block star matrix from total degree k to 2n - k."""
        return self.alg.total(self.star_blocks, k, 2 * self.n - k)

    # ----- Lefschetz and trace -------------------------------------------------

    @memo
    def trace_block(self, p, q):
        """Matrix of the pointwise adjoint of omega ^ . mapping (p,q) -> (p-1,q-1)."""
        return self.mult_adjoint_block(self.omega, p, q)

    def trace_contract(self, form):
        return self.alg.apply(lambda p, q: {(p - 1, q - 1): self.trace_block(p, q)}, form)

    def mult_adjoint_block(self, eta, p, q):
        """Adjoint of (eta ^ .) landing on Lambda^{p,q}, for homogeneous eta or a
        stack of them (then one adjoint per form, on its leading axis).

        Maps (p,q) back to (p-a, q-b) when eta has bidegree (a,b).
        """
        (a, b), = eta.bidegrees() or [(0, 0)]
        src = (p - a, q - b)
        if dim_pq(self.n, *src) == 0:
            return np.zeros(eta.vec.shape[:-1] + (0, dim_pq(self.n, p, q)), dtype=complex)
        return _adjoint(eta.wedge_matrix(*src), self.gram_inv(*src), self.gram(p, q))

    def mult_adjoint(self, eta, form):
        if not eta.bidegrees():
            return Form.zero(self.n)
        (a, b), = eta.bidegrees()
        return self.alg.apply(
            lambda p, q: {(p - a, q - b): self.mult_adjoint_block(eta, p, q)}, form)

    def commutator(self, gamma, p, q):
        """Matrix of [trace, gamma ^ .] on (p,q) for a (1,1) form gamma, or the stack
        of them for a stack; formed on each call from the kept trace blocks and
        gamma's kept wedge matrices.

        For gamma = omega this is (n - p - q) times the identity.
        """
        n, dim = self.n, dim_pq(self.n, p, q)
        out = np.zeros(gamma.vec.shape[:-1] + (dim, dim), dtype=complex)
        if p + 1 <= n and q + 1 <= n:
            out += self.trace_block(p + 1, q + 1) @ gamma.wedge_matrix(p, q)
        if p >= 1 and q >= 1:
            out -= gamma.wedge_matrix(p - 1, q - 1) @ self.trace_block(p, q)
        return out

    # ----- codifferentials and Laplacians ----------------------------------------

    def dim(self, which, key):
        """Dimension of the space at key in the complex of which; 0 outside it."""
        return self.alg.dim(which, key)

    @memo
    def codiff(self, which, key):
        """Matrix of the adjoint of diff(which, .) from key to neighbor(which, key, -1).

        "d" is assembled from the bigraded blocks (_codiff_blocks), as the Gram is
        block diagonal, so no total-degree Gram is solved or inverted."""
        prev = neighbor(which, key, -1)
        if which == "d":
            return self.alg.total(self._codiff_blocks, key, prev)
        if self.dim(which, prev) == 0:
            return np.zeros((0, self.dim(which, key)), dtype=complex)
        return _adjoint(self.alg.diff(which, prev), self.gram_inv(*prev), self.gram(*key))

    def _codiff_blocks(self, p, q):
        """d^* from (p, q) as a block map: the adjoint of every block of d that lands on
        (p, q).  The del and dbar blocks are codiff's own; any other comes from an
        antiholomorphic term below VALIDATION_TOL and is formed here."""
        blocks = {}
        for src in self.alg.slices(p + q - 1) if p + q else ():
            mat = self.alg.d_blocks(*src).get((p, q))
            if mat is not None:
                which = {(p - 1, q): "del", (p, q - 1): "dbar"}.get(src)
                blocks[src] = self.codiff(which, (p, q)) if which else \
                    _adjoint(mat, self.gram_inv(*src), self.gram(p, q))
        return blocks

    # the per-complex names bind perfbench/tracing.py TARGETS; the package calls codiff
    def del_star_block(self, p, q):
        return self.codiff("del", (p, q))

    def dbar_star_block(self, p, q):
        return self.codiff("dbar", (p, q))

    def d_star_total(self, k):
        return self.codiff("d", k)

    def _bigraded_codiff(self, which, form):
        """del^* or dbar^* of a form, block by block."""
        return self.alg.apply(
            lambda p, q: {neighbor(which, (p, q), -1): self.codiff(which, (p, q))}, form)

    def del_star(self, form):
        return self._bigraded_codiff("del", form)

    def dbar_star(self, form):
        return self._bigraded_codiff("dbar", form)

    def d_star(self, form):
        return self.del_star(form) + self.dbar_star(form)

    def laplacian(self, which, key, codiff=None):
        """Matrix of diff codiff + codiff diff: which in {"d", "del", "dbar"}.

        "d" takes a total degree k; "del"/"dbar" take a bidegree (p, q).  codiff(which,
        key) gives the codifferentials, the bundle's own by default.
        """
        codiff = codiff or self.codiff
        prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
        mat = np.zeros((self.dim(which, key),) * 2, dtype=complex)
        if self.dim(which, prev):
            mat += self.alg.diff(which, prev) @ codiff(which, key)
        if self.dim(which, nxt):
            mat += codiff(which, nxt) @ self.alg.diff(which, key)
        return mat

    def gram_for(self, which, key):
        return self.gram_total(key) if which == "d" else self.gram(*key)

    def spectral(self, which, key):
        """Eigen-data of a Laplacian w.r.t. the pointwise Gram inner product, computed
        on each call, a diagnostic: no job reads it.

        The generalized problem lap v = v diag(w), v^H G v = I, is reduced with the
        Cholesky factor G = L L^H: C = L^H lap L^{-H} is Hermitian, as lap is
        G-self-adjoint, and its eigenvectors y give v = L^{-H} y, G-orthonormal by
        construction.
        """
        lap = self.laplacian(which, key)
        g = self.gram_for(which, key)
        if lap.size == 0:
            return SpectralData(which, key, np.zeros(0), np.zeros((0, 0), dtype=complex), g)
        up = np.linalg.cholesky(g).conj().T
        up_inv = np.linalg.inv(up)
        c = (up @ lap) @ up_inv
        w, y = np.linalg.eigh(0.5 * (c + c.conj().T))
        return SpectralData(which, key, w, up_inv @ y, g)


def build_bundle(model, metric, tol=DEFAULT_TOL):
    """Validated operator bundle; the model must be unimodular."""
    require_valid(model)
    return bundle_for_algebra(algebra_for(model), metric, tol)


def bundle_for_algebra(alg, metric, tol=DEFAULT_TOL):
    """Bundle over an already-validated algebra (internal fast path)."""
    metric.check()
    return OperatorBundle(alg, metric, tol)


# ----- identity suite ------------------------------------------------------------


def _primitive_vectors(bundle, p, q, rng):
    """Two random elements of ker(trace) at bidegree (p,q), none if it is 0."""
    lam = bundle.trace_block(p, q)
    if lam.shape[1] == 0:
        return []
    if lam.shape[0] == 0:
        basis_null = np.eye(lam.shape[1], dtype=complex)
    else:
        _, s, vh = np.linalg.svd(lam)
        tol = (s[0] if s.size else 0.0) * 1e-12
        rank = int(np.sum(s > tol))
        basis_null = vh[rank:].conj().T
    if basis_null.shape[1] == 0:
        return []
    coef = rng.standard_normal((basis_null.shape[1], 2)) \
        + 1j * rng.standard_normal((basis_null.shape[1], 2))
    return list((basis_null @ coef).T)


def identity_suite(bundle, seed=0):
    """Residuals of the operator identities tying star, wedge and adjoints.

    Returns a dict of max absolute residuals, one entry per identity family, each
    taken block by block; no total-degree matrix is formed.
    - star_star, star_lefschetz, commutator, mult_adjoint_star (three seeded (1,1)
      probes) and primitive_star (two seeded primitive forms): the blocks at every
      bidegree (p, q); mult_adjoint_11 on the probes; star_one and star_omega once.
    - The codifferential families: every block of d from src to (p, q), with c its
      block of d^* from (p, q) back to src (_codiff_blocks).  c = -star d star, the
      mirrored block of d from (n - q, n - p) between two star blocks, is
      delstar_formula on the del blocks, src = (p - 1, q), dbarstar_formula on the
      dbar blocks, src = (p, q - 1), and dstar_formula on every block, an
      antiholomorphic one below VALIDATION_TOL included; adjoint_pairing is
      (gram(p, q) d - c^H gram(src)) det H on every block.
    """
    rng = np.random.default_rng(seed)
    alg, n = bundle.alg, bundle.n
    res = {k: 0.0 for k in (
        "star_star", "star_one", "star_omega", "star_lefschetz", "commutator",
        "mult_adjoint_star", "mult_adjoint_11", "primitive_star",
        "dstar_formula", "delstar_formula", "dbarstar_formula", "adjoint_pairing")}

    def upd(key, value):
        res[key] = max(res[key], float(value))

    # the (1,1) probes' coefficients, one row per probe; each bidegree makes its own
    # stack of them, so the wedge matrices kept on that Form go with it
    probes = np.stack([random_form(n, [(1, 1)], rng).part((1, 1)) for _ in range(3)])

    for p in range(n + 1):
        for q in range(n + 1):
            d = dim_pq(n, p, q)
            s_here = bundle.star_block(p, q)
            s_back = bundle.star_block(n - q, n - p)
            upd("star_star", np.max(np.abs(s_back @ s_here - (-1) ** (p + q) * np.eye(d))))

            if p + 1 <= n and q + 1 <= n:
                lef = bundle.omega.wedge_matrix(p, q)
                lhs = bundle.star_block(p + 1, q + 1) @ lef
                rhs = bundle.trace_block(n - q, n - p) @ s_here
                upd("star_lefschetz", np.max(np.abs(lhs - rhs)))

                comm = bundle.commutator(bundle.omega, p, q)
                upd("commutator", np.max(np.abs(comm - (n - p - q) * np.eye(d))))

                # one matrix product per probe, on the stack's leading axis
                etas = Form.at(n, (1, 1), probes)
                lhs = bundle.star_block(p + 1, q + 1) @ etas.wedge_matrix(p, q)
                rhs = bundle.mult_adjoint_block(etas.conj(), n - q, n - p) @ s_here
                upd("mult_adjoint_star", np.max(np.abs(lhs - rhs)))

            if p + q <= n:
                kk = p + q
                coeff = (-1) ** (kk * (kk + 1) // 2) * (1j) ** (p - q)
                pow_mat = bundle.omega_power(n - p - q).wedge_matrix(p, q)
                for vec in _primitive_vectors(bundle, p, q, rng):
                    lhs = s_here @ vec
                    rhs = coeff * (pow_mat @ vec)
                    upd("primitive_star", np.max(np.abs(lhs - rhs)))

            # d^* = -star d star and the L2 pairing, on each block of d landing on (p, q)
            for src, cod in bundle._codiff_blocks(p, q).items():
                back = (n - src[1], n - src[0])
                mirror = alg.d_blocks(n - q, n - p).get(back)
                rhs = 0.0 if mirror is None else -bundle.star_block(*back) @ mirror @ s_here
                resid = np.max(np.abs(cod - rhs))
                upd("dstar_formula", resid)
                if src in ((p - 1, q), (p, q - 1)):
                    upd("delstar_formula" if src[0] < p else "dbarstar_formula", resid)
                pair = bundle.gram(p, q) @ alg.d_blocks(*src)[(p, q)] \
                    - cod.conj().T @ bundle.gram(*src)
                upd("adjoint_pairing", np.max(np.abs(pair)) * bundle.det_h)

    # (eta ^ .)^* = <., eta> on (1,1); the pairing stays one vector-matrix product per
    # probe, a 1 x N row each on the leading axis: one 3 x N product rounds otherwise
    adj = bundle.mult_adjoint_block(Form.at(n, (1, 1), probes), 1, 1)
    pairing = probes.conj()[..., None, :] @ bundle.gram(1, 1)
    upd("mult_adjoint_11", np.max(np.abs(adj - pairing)))

    # star of the constant 1 and of omega
    one = Form.scalar(n, 1.0)
    upd("star_one", (bundle.star(one) - bundle.det_h * alg.theta_form()).max_abs())
    upd("star_omega", (bundle.star(bundle.omega) - bundle.omega_power(n - 1)).max_abs())

    return res
