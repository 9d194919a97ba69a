"""Hermitian metrics and the per-metric operator bundle.

A metric is the coefficient matrix H of omega = i sum_jk H_jk theta^j ^
thetabar^k, Hermitian positive definite.  The bundle keeps (exterior.memo),
per bidegree, the Gram matrices of the induced pointwise inner product and
their inverses, the Hodge star (permuted Gram rows: each monomial pairs only
with its complement) and the trace operators (adjoints of omega ^ ., whose
matrices omega keeps).  The (p, q) Gram matrix is kron(C_p, C_q^T), C_p the
p-th compound of H^{-1}; compounds are multiplicative (Cauchy-Binet), so its
inverse is the same product of the compounds of H, and every adjoint
A^* = G_src^{-1} A^H G_tgt is two matrix products, with no solve.  The adjoints of
the blocks of d are formed in one place and kept as one block map, d^* from (p, q)
(_codiff_blocks): a block for each block of d that lands on (p, q), del, dbar or
antiholomorphic.  Every codifferential reads it: codiff(which, key) of the three
complexes (which = "d" on total degrees, "del" and "dbar" on bidegrees) takes its
block, or on a total degree places them all, as the total-degree Gram is block
diagonal by bidegree, so no total-degree Gram is solved or inverted; d_star applies
it to a form and verify to its columns.  The closed-form inverse is the exact
inverse of the computed Gram only to ~eps kappa(H); hodge's Green operator and
potentials, whose kernel residual gate measures against the computed Gram, solve for
their codifferentials instead (hodge.potential_codiff).  What a job reads once is
formed on each call: the commutators [trace, gamma ^ .] of the variation formulas,
each Laplacian laplacian(which, key), and the diagnostic spectral data of one:
numpy's eigh of the Laplacian reduced by the Gram's Cholesky factor (the
Hermitian-definite pencil reduction), whose eigenvectors are G-orthonormal.  No job reads the
spectral data: the Hodge decompositions come from the algebra's metric-free
bases.  The bundle also carries the tolerance tol of its predicates and of its
potentials' residual gates, and keeps the Hodge decompositions and Green
operators that hodge makes for a job, one per space.  verify keeps none of them,
nor a total-degree Gram or an assembled "d" codifferential: it takes every
total-degree product block by block, on one bundle over a stack of metrics per
chunk, whose blocks carry the stack on a leading axis; varcheck's stencil reads its
rows on one bundle over a tuple's four stencil metrics the same way.  The kernels
they run on a stack (elementwise products, matmul, det, inv, solve and svd) give each
metric the bits it gets alone, so the job path keeps stack-less bundles and the
reports of both are those of one bundle per metric.

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
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, NotPositive, SchemaError
from .exterior import (Form, _combos, _complement, _conj_table, dim_pq, memo, neighbor,
                       random_form, wedge_power)
from .model import algebra_for, require_valid

HERMITICITY_TOL = 1e-12
DEFAULT_TOL = 1e-9  # the predicate and potential-residual tolerance of a bundle
NORMAL_FLOAT_LOGS = (math.log(sys.float_info.min), math.log(sys.float_info.max))


class HermitianMetric:
    """Positive definite coefficient matrix of an invariant (1,1) metric form, or a stack
    of them on a leading axis, h of shape (c, n, n): the metrics of one bundle."""

    __slots__ = ("h", "_lambda_min")

    def __init__(self, h):
        h = np.asarray(h, dtype=complex)
        if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
            raise DimensionMismatch(f"metric matrix must be square, got shape {h.shape}")
        self.h = h.copy()
        self.h.setflags(write=False)
        self._lambda_min = None  # kept by a passing check(); h is read-only, so it holds

    @property
    def n(self):
        return self.h.shape[-1]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @classmethod
    def from_json(cls, text):
        """Parse "identity" plus n (handled by caller) or an n x n array of {re, im}."""
        try:
            obj = json.loads(text) if isinstance(text, str) else text
        except (ValueError, RecursionError) as exc:  # a digit or nesting limit, too
            raise SchemaError(f"metric document is not valid JSON: {exc}") from None
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
        float range; returns self.  Only the first passing call does the work, and it
        keeps the smallest eigenvalue it computed for min_eigenvalue."""
        if self._lambda_min is not None:
            return self
        if self.h.ndim == 3:  # a stack: each metric on its own
            self._lambda_min = np.array([HermitianMetric(h).check()._lambda_min
                                         for h in self.h])
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
            raise NotPositive(f"metric matrix is not Hermitian: skew {skew:.3e} "
                              f"exceeds {HERMITICITY_TOL:g} * max(1, max |H|)")
        try:
            lam = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:
            raise SchemaError(f"metric matrix has no eigenvalues: {exc}") from None
        lo, hi = float(lam[0]), float(lam[-1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SchemaError("metric matrix overflows: its eigenvalues are not finite")
        if lo <= 0:
            raise NotPositive("metric matrix is not positive definite")
        # the (p, q) Gram block scales as H^-(p+q), up to det(H)^-2 on (n, n):
        # refuse scales at which lambda_max^2n or lambda_min^-2n is not a normal float
        logs = (2 * self.n * math.log(hi), -2 * self.n * math.log(lo))
        if not all(NORMAL_FLOAT_LOGS[0] <= x <= NORMAL_FLOAT_LOGS[1] for x in logs):
            raise SchemaError(
                f"metric scale overflows: eigenvalues {lo:.3e}..{hi:.3e} put "
                "its Gram blocks outside the float range")
        self._lambda_min = lo
        return self

    def min_eigenvalue(self):
        """The smallest eigenvalue of 0.5 (H + H^H), each metric's for a checked stack:
        the one check() kept (same expression, same bits), else computed here."""
        if self._lambda_min is None:
            lam = np.linalg.eigvalsh(0.5 * (self.h + self.h.conj().swapaxes(-1, -2)))[..., 0]
            return lam if lam.ndim else float(lam)
        return self._lambda_min

    def scaled(self, lam):
        return HermitianMetric(lam * self.h)

    def form(self):
        """The metric form omega = i sum H_jk theta^j ^ thetabar^k; a stack of them for
        a stack of metrics."""
        return Form.at(self.n, (1, 1), 1j * self.h.reshape(self.h.shape[:-2] + (-1,)))

    @classmethod
    def from_form(cls, form):
        """Extract H from a (1,1) form; inverse of .form()."""
        return cls((form.part((1, 1)) / 1j).reshape(form.n, form.n))


def random_metric(n, rng):
    """Seeded H = B^H B + I / 2, comfortably positive definite."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMetric(b.conj().T @ b + 0.5 * np.eye(n))


@lru_cache(maxsize=None)
def _minors(n, p):
    """The flat positions in an n x n matrix of its p x p minors over p-subsets I, K:
    entry [I, K] is the p x p array of the positions of rows I and columns K."""
    combos = _combos(n, p)
    rows = np.array(combos, dtype=np.intp).reshape(len(combos), 1, p, 1)
    flat = rows * n + rows.transpose(1, 0, 3, 2)
    flat.setflags(write=False)
    return flat


def _adjoint(mat, g_src_inv, g_tgt):
    # A^* = G_src^{-1} (A^H G_tgt), two products; a stack of A gives the stack of adjoints
    return g_src_inv @ (mat.conj().swapaxes(-1, -2) @ g_tgt)


def _hermitian_kron(a, b):
    """The Hermitian part of kron(a, b^T), kron as one broadcast product, the same
    products as np.kron; stacks of a and b on a leading axis give the stack."""
    b = b.swapaxes(-1, -2)
    g = (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        a.shape[:-2] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))
    g += g.conj().swapaxes(-1, -2)
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


def _pairing(gram, u, v):
    """sum over the bidegrees (p, q) of u or v of v^H gram(p, q) u, gram giving the Gram
    block of a bidegree: the pointwise product of OperatorBundle.inner."""
    total = 0.0 + 0.0j
    for key in set(u.bidegrees()) | set(v.bidegrees()):
        total += v.part(key).conj() @ (gram(*key) @ u.part(key))
    return complex(total)


class OperatorBundle:
    """All metric-dependent operators of one (model, metric) pair, lazily cached.

    Over a stack of c metrics (verify's, varcheck's stencil) every block carries the
    stack on its leading axis, lead = (c,), with each metric's block bit for bit the one
    its own bundle keeps; det_h is then the array of the c determinants.  A stack of
    forms per metric, such as verify's probes, takes its axes after the metric axis."""

    def __init__(self, alg, metric, tol=DEFAULT_TOL):
        if alg.n != metric.n:
            raise DimensionMismatch(f"model n={alg.n} but metric n={metric.n}")
        self.alg = alg
        self.metric = metric
        self.tol = tol
        self.h = np.asarray(metric.h)
        self.lead = self.h.shape[:-2]
        self.h_inv = np.linalg.inv(self.h)
        det = np.linalg.det(self.h).real
        self.det_h = det if self.lead else float(det)

    @property
    def n(self):
        return self.alg.n

    @cached_property
    def omega(self):
        return self.metric.form()

    def omega_power(self, k):
        """omega^k / k!, from the products kept on omega."""
        return wedge_power(self.omega, k)

    def _lift(self, mat, ndim):
        """A block of a stacked bundle with axes of length 1 after the metric axis, up to
        ndim axes, so that a stack of forms per metric meets its own metric's block."""
        if not self.lead or mat.ndim >= ndim:
            return mat
        return mat.reshape(self.lead + (1,) * (ndim - mat.ndim) + mat.shape[-2:])

    # ----- inner products ---------------------------------------------------

    @memo
    def compound(self, p, of_h=False):
        """p-th compound of H^{-1}, or of H when of_h: C[I, K] = det(M[I, K]) over
        p-subsets.  Compounds are multiplicative (Cauchy-Binet), so the two are inverse
        to each other; the second is formed only where an inverse Gram is read."""
        mat = self.h if of_h else self.h_inv
        return np.linalg.det(mat.reshape(self.lead + (-1,)).take(_minors(self.n, p), axis=-1))

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
        """The block-diagonal Gram of total degree k, for the job path's potentials and
        norms; verify reads the blocks gram(p, q) alone."""
        return self.alg.total(lambda p, q: {(p, q): self.gram(p, q)}, k, k)

    def inner(self, u, v):
        """Pointwise Hermitian product, summed over shared bidegrees."""
        if u.n != self.n or v.n != self.n:
            raise DimensionMismatch("form dimension does not match bundle")
        return _pairing(self.gram, u, v)

    def l2_inner(self, u, v):
        return self.inner(u, v) * self.det_h

    def l2_inner_on(self, types):
        """l2_inner of forms of the bidegrees types alone, as a function that keeps their
        Gram blocks and det(H), not the bundle: a report kept on the bundle reads it later,
        and a reference back would make every bundle cyclic garbage."""
        blocks, det = {pq: self.gram(*pq) for pq in types}, self.det_h
        return lambda u, v: _pairing(lambda p, q: blocks[p, q], u, v) * det

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
        det = self.det_h[..., None, None] if self.lead else self.det_h
        star = np.empty(self.lead + (len(comp),) * 2, dtype=complex)
        star[..., comp, :] = det * (sign * self.gram(b, a).take(perm, axis=-2).swapaxes(-1, -2)) \
            / unit[:, None]
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
        stack of them (then one adjoint per form, on its leading axes).

        Maps (p,q) back to (p-a, q-b) when eta has bidegree (a,b).
        """
        (a, b), = eta.bidegrees() or [(0, 0)]
        src = (p - a, q - b)
        if dim_pq(self.n, *src) == 0:
            return np.zeros(eta.vec.shape[:-1] + (0, dim_pq(self.n, p, q)), dtype=complex)
        mat = eta.wedge_matrix(*src)
        return _adjoint(mat, self._lift(self.gram_inv(*src), mat.ndim),
                        self._lift(self.gram(p, q), mat.ndim))

    def mult_adjoint(self, eta, form):
        """(eta ^ .)^* applied to a form, for a nonzero homogeneous eta (make_direction
        refuses a zero direction)."""
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

    @memo
    def codiff(self, which, key):
        """Matrix of the adjoint of diff(which, .) from key to neighbor(which, key, -1),
        read off the kept d^* blocks (_codiff_blocks): "del" and "dbar" take their one
        block, zeros where d has none, and "d" places every block of its total degree,
        as the Gram is block diagonal, so no total-degree Gram is solved or inverted;
        verify applies those blocks to its columns instead (ExteriorAlgebra.total_times)."""
        prev = neighbor(which, key, -1)
        if which == "d":  # a map that places no block gives a matrix with no stack axis
            mat = self.alg.total(self._codiff_blocks, key, prev)
            return np.broadcast_to(mat, self.lead + mat.shape[-2:])
        mat = self._codiff_blocks(*key).get(prev) if self.alg.dim(which, prev) else None
        return np.zeros(self.lead + (self.alg.dim(which, prev), self.alg.dim(which, key)),
                        dtype=complex) if mat is None else mat

    @memo
    def _codiff_blocks(self, p, q):
        """d^* from (p, q) as a block map, kept: the adjoint of every block of d that
        lands on (p, q), the del and dbar blocks and any antiholomorphic one, from a term
        below VALIDATION_TOL.  The one place where an adjoint of d is formed."""
        blocks = {}
        for src in self.alg.slices(p + q - 1) if p + q else ():
            mat = self.alg.d_blocks(*src).get((p, q))
            if mat is not None:
                blocks[src] = _adjoint(mat, self.gram_inv(*src), self.gram(p, q))
        return blocks

    # the per-complex names bind perfbench/tracing.py TARGETS; the package calls codiff
    def del_star_block(self, p, q):
        return self.codiff("del", (p, q))

    def dbar_star_block(self, p, q):
        return self.codiff("dbar", (p, q))

    def d_star_total(self, k):
        return self.codiff("d", k)

    def d_star(self, form):
        """d^* of a form, every kept block of d^* applied (_codiff_blocks)."""
        return self.alg.apply(self._codiff_blocks, form)

    def laplacian(self, which, key, codiff=None):
        """Matrix of diff codiff + codiff diff: which in {"d", "del", "dbar"}.

        "d" takes a total degree k; "del"/"dbar" take a bidegree (p, q).  codiff(which,
        key) gives the codifferentials, the bundle's own by default, or stacks of them
        (variation's derivatives along a stack of directions) the sum broadcasts over.
        """
        codiff = codiff or self.codiff
        prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
        mat = np.zeros((self.alg.dim(which, key),) * 2, dtype=complex)
        if self.alg.dim(which, prev):
            mat = mat + self.alg.diff(which, prev) @ codiff(which, key)
        if self.alg.dim(which, nxt):
            mat = mat + codiff(which, nxt) @ self.alg.diff(which, key)
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


def _primitive_vectors(bundle, p, q, rngs):
    """Two random elements of ker(trace) at bidegree (p,q) per metric, drawn from that
    metric's generator in rngs, as the rows of a (..., 2, d) array over the bundle's
    leading axes.  A metric whose kernel is 0 draws nothing and gets zero rows.  Each
    metric's rows are the columns of one product, so that a row reaches its
    matrix-vector products with the stride it has alone."""
    lam = bundle.trace_block(p, q)
    rows, d = lam.shape[-2:]
    if rows == 0:
        nulls = [np.eye(d, dtype=complex)] * len(rngs)
    else:
        _, s, vh = np.linalg.svd(lam)
        nulls = []
        for sv, v in zip(s.reshape(len(rngs), -1), vh.reshape(len(rngs), d, d)):
            tol = (sv[0] if sv.size else 0.0) * 1e-12
            nulls.append(v[int(np.sum(sv > tol)):].conj().T)
    cols = np.zeros((len(rngs), d, 2), dtype=complex)
    for col, rng, null in zip(cols, rngs, nulls):
        if null.shape[1]:
            coef = rng.standard_normal((null.shape[1], 2)) \
                + 1j * rng.standard_normal((null.shape[1], 2))
            col[...] = null @ coef
    return cols.reshape(bundle.lead + (d, 2)).swapaxes(-1, -2)


def identity_suite(bundle, seed=0):
    """Residuals of the operator identities tying star, wedge and adjoints.

    Returns a dict of max absolute residuals, one entry per identity family, each
    taken block by block; no total-degree matrix is formed.  On a bundle over a stack
    of metrics each family is the maximum over the stack, metric i drawing its probes
    from seed + i, and each metric's residuals are the bits of its own bundle's.
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
    rngs = [np.random.default_rng(seed + i) for i in range(math.prod(bundle.lead))]
    alg, n = bundle.alg, bundle.n
    res = {k: 0.0 for k in (
        "star_star", "star_one", "star_omega", "star_lefschetz", "commutator",
        "mult_adjoint_star", "mult_adjoint_11", "primitive_star",
        "dstar_formula", "delstar_formula", "dbarstar_formula", "adjoint_pairing")}

    def upd(key, value):
        res[key] = max(res[key], float(value))

    def per_probe(mat):  # a block of the bundle against a stack of forms per metric
        return bundle._lift(mat, len(bundle.lead) + 3)

    # the (1,1) probes' coefficients, three rows per metric; each bidegree makes its own
    # stack of them, so the wedge matrices kept on that Form go with it
    probes = np.array([[random_form(n, [(1, 1)], rng).part((1, 1)) for _ in range(3)]
                       for rng in rngs]).reshape(bundle.lead + (3, -1))

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

                # one matrix product per probe, on the stack's probe axis
                etas = Form.at(n, (1, 1), probes)
                lhs = per_probe(bundle.star_block(p + 1, q + 1)) @ etas.wedge_matrix(p, q)
                rhs = bundle.mult_adjoint_block(etas.conj(), n - q, n - p) @ per_probe(s_here)
                upd("mult_adjoint_star", np.max(np.abs(lhs - rhs)))

            if p + q <= n:
                vecs = _primitive_vectors(bundle, p, q, rngs)
                kk = p + q
                coeff = (-1) ** (kk * (kk + 1) // 2) * (1j) ** (p - q)
                pow_mat = bundle.omega_power(n - p - q).wedge_matrix(p, q)
                # one matrix-vector product per vector
                lhs = (per_probe(s_here) @ vecs[..., None])[..., 0]
                rhs = coeff * (per_probe(pow_mat) @ vecs[..., None])[..., 0]
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
                    - cod.conj().swapaxes(-1, -2) @ bundle.gram(*src)
                upd("adjoint_pairing", np.max(np.max(np.abs(pair), axis=(-2, -1)) * bundle.det_h))

    # (eta ^ .)^* = <., eta> on (1,1); the pairing stays one vector-matrix product per
    # probe, a 1 x N row each on the leading axes: one 3 x N product rounds otherwise
    adj = bundle.mult_adjoint_block(Form.at(n, (1, 1), probes), 1, 1)
    pairing = probes.conj()[..., None, :] @ per_probe(bundle.gram(1, 1))
    upd("mult_adjoint_11", np.max(np.abs(adj - pairing)))

    # star of the constant 1 and of omega
    det = bundle.det_h[..., None] if bundle.lead else bundle.det_h
    one = Form.scalar(n, 1.0)
    upd("star_one", (bundle.star(one) - alg.theta_form() * det).max_abs())
    upd("star_omega", (bundle.star(bundle.omega) - bundle.omega_power(n - 1)).max_abs())

    return res
