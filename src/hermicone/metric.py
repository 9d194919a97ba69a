"""Hermitian metrics and the per-metric operator bundle.

A metric is the coefficient matrix H of omega = i sum_jk H_jk theta^j ^
thetabar^k, Hermitian positive definite.  The bundle caches, per bidegree,
the Gram matrices of the induced pointwise inner product, the Hodge star
(permuted Gram rows: each monomial pairs only with its complement),
Lefschetz and trace operators and their adjoints.  For each of the three
complexes (which = "d" on total degrees, "del" and "dbar" on bidegrees) it
caches one codifferential codiff(which, key) and one Laplacian
laplacian(which, key), plus its spectral data.  It also carries the
tolerance tol of its kernel cuts and predicates, and keeps the Hodge
decompositions that hodge.decomposition cuts from the spectral data.

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
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, SchemaError
from .exterior import (Form, _combos, _complement, _conj_table, dim_pq, neighbor,
                       random_form, wedge)
from .model import algebra_for, require_valid

HERMITICITY_TOL = 1e-12
DEFAULT_TOL = 1e-9  # the kernel-cut and predicate tolerance of a bundle
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
            sym = 0.5 * (self.h + self.h.conj().T)
        if skew > HERMITICITY_TOL:
            raise NotPositiveDefinite("metric matrix is not Hermitian within 1e-12")
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

    def form(self, n=None):
        """The metric form omega = i sum H_jk theta^j ^ thetabar^k."""
        return Form.at(self.n, (1, 1), 1j * self.h.reshape(-1))

    @classmethod
    def from_form(cls, form):
        """Extract H from a (1,1) form; inverse of .form()."""
        return cls((form.part((1, 1)) / 1j).reshape(form.n, form.n))


def random_metric(n, rng, eps=0.5):
    """Seeded H = B^H B + eps I, comfortably positive definite."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMetric(b.conj().T @ b + eps * np.eye(n))


def _adjoint(mat, g_src, g_tgt):
    # A^* = G_src^{-1} A^H G_tgt
    return np.linalg.solve(g_src, mat.conj().T @ g_tgt)


@dataclass
class SpectralData:
    """Eigen-decomposition of a Laplacian, G-orthonormal eigenvectors as columns."""
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
        self.trace_h = float(self.h.trace().real)
        self._compound = {}
        self._gram = {}
        self._gram_total = {}
        self._star = {}
        self._lef = {}
        self._trace = {}
        self._codiff = {}
        self._lap = {}
        self._spec = {}
        self._hodge = {}  # hodge.decomposition per (which, key)
        self._predicate_residuals = None  # hodge.predicates, computed once
        self._omega_prod = [Form.scalar(alg.n, 1.0)]

    @property
    def n(self):
        return self.alg.n

    @cached_property
    def omega(self):
        return self.metric.form()

    def omega_power(self, k):
        """omega^k / k!, from the cached undivided products omega^j = omega^(j-1) ^ omega."""
        while len(self._omega_prod) <= k:
            self._omega_prod.append(wedge(self._omega_prod[-1], self.omega))
        return self._omega_prod[k] / math.factorial(k)

    def integrate(self, form):
        return self.alg.integrate(form)

    # ----- inner products ---------------------------------------------------

    def compound(self, p):
        """p-th compound of H^{-1}: C[I, K] = det(H^{-1}[I, K]) over p-subsets."""
        if p not in self._compound:
            combos = _combos(self.n, p)
            rows = np.array(combos, dtype=np.intp).reshape(len(combos), 1, p, 1)
            self._compound[p] = np.linalg.det(self.h_inv[rows, rows.transpose(1, 0, 3, 2)])
        return self._compound[p]

    def gram(self, p, q):
        key = (p, q)
        if key not in self._gram:
            # <theta_I^thetabar_J, theta_K^thetabar_L> = C_p[I, K] * C_q[L, J]:
            # kron(C_p, C_q^T) as one broadcast product, the same products as np.kron
            a, b = self.compound(p), self.compound(q).T
            g = (a[:, None, :, None] * b[None, :, None, :]).reshape(
                a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
            self._gram[key] = 0.5 * (g + g.conj().T)
        return self._gram[key]

    def gram_total(self, k):
        if k not in self._gram_total:
            self._gram_total[k] = self.alg.total(lambda p, q: {(p, q): self.gram(p, q)}, k, k)
        return self._gram_total[k]

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

    def star_block(self, a, b):
        """Matrix of the C-linear star from Lambda^{a,b} to Lambda^{n-b,n-a}.

        u ^ star(w) = <u, conj(w)> dV for u in Lambda^{b,a}; only the complement
        of monomial r of u pairs with star(w), so row comp[r] of the star is
        det(H) times row r of the Gram pairing with conj(w), over unit[r].
        """
        key = (a, b)
        if key not in self._star:
            comp, unit = _complement(self.n, b, a)
            sign, perm = _conj_table(self.n, a, b)
            star = np.empty((len(comp),) * 2, dtype=complex)
            star[comp] = self.det_h * (sign * self.gram(b, a)[list(perm)].T) / unit[:, None]
            self._star[key] = star
        return self._star[key]

    def star_blocks(self, p, q):
        """The star as a block map."""
        return {(self.n - q, self.n - p): self.star_block(p, q)}

    def star(self, form):
        return self.alg.apply(self.star_blocks, form)

    def star_total(self, k):
        """Block star matrix from total degree k to 2n - k."""
        return self.alg.total(self.star_blocks, k, 2 * self.n - k)

    # ----- Lefschetz and trace -------------------------------------------------

    def lefschetz_block(self, p, q):
        key = (p, q)
        if key not in self._lef:
            self._lef[key] = self.alg.wedge_matrix(self.omega, p, q)
        return self._lef[key]

    def trace_block(self, p, q):
        """Matrix of the pointwise adjoint of omega ^ . mapping (p,q) -> (p-1,q-1)."""
        key = (p, q)
        if key not in self._trace:
            if p < 1 or q < 1:
                self._trace[key] = np.zeros((dim_pq(self.n, p - 1, q - 1),
                                             dim_pq(self.n, p, q)), dtype=complex)
            else:
                self._trace[key] = _adjoint(self.lefschetz_block(p - 1, q - 1),
                                            self.gram(p - 1, q - 1), self.gram(p, q))
        return self._trace[key]

    def trace_contract(self, form):
        return self.alg.apply(lambda p, q: {(p - 1, q - 1): self.trace_block(p, q)}, form)

    def mult_adjoint_block(self, eta, p, q):
        """Adjoint of (eta ^ .) landing on Lambda^{p,q}, for homogeneous eta.

        Maps (p,q) back to (p-a, q-b) when eta has bidegree (a,b).
        """
        (a, b), = eta.bidegrees() or [(0, 0)]
        src = (p - a, q - b)
        if dim_pq(self.n, *src) == 0:
            return np.zeros((0, dim_pq(self.n, p, q)), dtype=complex)
        mat = self.alg.wedge_matrix(eta, *src)
        return _adjoint(mat, self.gram(*src), self.gram(p, q))

    def mult_adjoint(self, eta, form):
        if not eta.bidegrees():
            return Form.zero(self.n)
        (a, b), = eta.bidegrees()
        return self.alg.apply(lambda p, q: {(p - a, q - b): self.mult_adjoint_block(eta, p, q)},
                              form)

    # ----- codifferentials and Laplacians ----------------------------------------

    def dim(self, which, key):
        """Dimension of the space at key in the complex of which; 0 outside it."""
        if which == "d":
            return self.alg.dim_total(key) if 0 <= key <= 2 * self.n else 0
        return dim_pq(self.n, *key)

    def codiff(self, which, key):
        """Matrix of the adjoint of diff(which, .) from key to neighbor(which, key, -1)."""
        cache_key = (which, key if which == "d" else tuple(key))
        if cache_key not in self._codiff:
            prev = neighbor(which, key, -1)
            if self.dim(which, prev) == 0:
                mat = np.zeros((0, self.dim(which, key)), dtype=complex)
            else:
                mat = _adjoint(self.alg.diff(which, prev), self.gram_for(which, prev),
                               self.gram_for(which, key))
            self._codiff[cache_key] = mat
        return self._codiff[cache_key]

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

    def laplacian(self, which, key):
        """Matrix of diff codiff + codiff diff: which in {"d", "del", "dbar"}.

        "d" takes a total degree k; "del"/"dbar" take a bidegree (p, q).
        """
        cache_key = (which, key if which == "d" else tuple(key))
        if cache_key not in self._lap:
            prev, nxt = neighbor(which, key, -1), neighbor(which, key, 1)
            mat = np.zeros((self.dim(which, key),) * 2, dtype=complex)
            if self.dim(which, prev):
                down = self.alg.diff(which, prev) @ self.codiff(which, key)
                # d has always added its two terms directly, del/dbar onto zeros,
                # which may flip the sign of a zero entry: both sums are kept
                mat = down if which == "d" and self.dim(which, nxt) else mat + down
            if self.dim(which, nxt):
                mat = mat + self.codiff(which, nxt) @ self.alg.diff(which, key)
            self._lap[cache_key] = mat
        return self._lap[cache_key]

    def gram_for(self, which, key):
        return self.gram_total(key) if which == "d" else self.gram(*key)

    def spectral(self, which, key):
        """Eigen-data of a Laplacian w.r.t. the pointwise Gram inner product."""
        cache_key = (which, key if which == "d" else tuple(key))
        if cache_key not in self._spec:
            lap = self.laplacian(which, key)
            g = self.gram_for(which, key)
            if lap.size == 0:
                data = SpectralData(which, key, np.zeros(0), np.zeros((0, 0), dtype=complex), g)
            else:
                a = g @ lap
                a = 0.5 * (a + a.conj().T)
                w, v = scipy.linalg.eigh(a, 0.5 * (g + g.conj().T))
                data = SpectralData(which, key, w, v, g)
            self._spec[cache_key] = data
        return self._spec[cache_key]


def build_bundle(model, metric, tol=DEFAULT_TOL):
    """Validated operator bundle; the model must be unimodular."""
    require_valid(model, need_unimodular=True)
    return bundle_for_algebra(algebra_for(model), metric, tol)


def bundle_for_algebra(alg, metric, tol=DEFAULT_TOL):
    """Bundle over an already-validated algebra (internal fast path)."""
    metric.check()
    return OperatorBundle(alg, metric, tol)


# ----- identity suite ------------------------------------------------------------


def _primitive_vectors(bundle, p, q, rng, count=2):
    """Random elements of ker(trace) at bidegree (p,q), empty if none."""
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
    coef = rng.standard_normal((basis_null.shape[1], count)) \
        + 1j * rng.standard_normal((basis_null.shape[1], count))
    return list((basis_null @ coef).T)


def identity_suite(bundle, seed=0, n_random=3):
    """Residuals of the operator identities tying star, wedge and adjoints.

    Returns a dict of max absolute residuals, one entry per identity family.
    Keys: star_star, star_one, star_omega, star_lefschetz, commutator,
    mult_adjoint_star, mult_adjoint_11, primitive_star, dstar_formula,
    delstar_formula, dbarstar_formula, adjoint_pairing.
    """
    rng = np.random.default_rng(seed)
    alg, n = bundle.alg, bundle.n
    res = {k: 0.0 for k in (
        "star_star", "star_one", "star_omega", "star_lefschetz", "commutator",
        "mult_adjoint_star", "mult_adjoint_11", "primitive_star",
        "dstar_formula", "delstar_formula", "dbarstar_formula", "adjoint_pairing")}

    def upd(key, value):
        res[key] = max(res[key], float(value))

    etas = [random_form(n, [(1, 1)], rng) for _ in range(n_random)]
    eta_bars = [eta.conj() for eta in etas]

    for p in range(n + 1):
        for q in range(n + 1):
            d = dim_pq(n, p, q)
            if d == 0:
                continue
            s_here = bundle.star_block(p, q)
            s_back = bundle.star_block(n - q, n - p)
            upd("star_star", np.max(np.abs(s_back @ s_here - (-1) ** (p + q) * np.eye(d))))

            if p + 1 <= n and q + 1 <= n:
                lef = bundle.lefschetz_block(p, q)
                lhs = bundle.star_block(p + 1, q + 1) @ lef
                rhs = bundle.trace_block(n - q, n - p) @ s_here
                upd("star_lefschetz", np.max(np.abs(lhs - rhs)))

                comm = bundle.trace_block(p + 1, q + 1) @ lef
                if p >= 1 and q >= 1:
                    comm = comm - bundle.lefschetz_block(p - 1, q - 1) @ bundle.trace_block(p, q)
                upd("commutator", np.max(np.abs(comm - (n - p - q) * np.eye(d))))

                for eta, eta_bar in zip(etas, eta_bars):
                    lhs = bundle.star_block(p + 1, q + 1) @ alg.wedge_matrix(eta, p, q)
                    rhs = bundle.mult_adjoint_block(eta_bar, n - q, n - p) @ s_here
                    upd("mult_adjoint_star", np.max(np.abs(lhs - rhs)))

            if p + q <= n:
                kk = p + q
                coeff = (-1) ** (kk * (kk + 1) // 2) * (1j) ** (p - q)
                pow_mat = alg.wedge_matrix(bundle.omega_power(n - p - q), p, q)
                for vec in _primitive_vectors(bundle, p, q, rng):
                    lhs = s_here @ vec
                    rhs = coeff * (pow_mat @ vec)
                    upd("primitive_star", np.max(np.abs(lhs - rhs)))

            # del^* = -star dbar star and dbar^* = -star del star
            for which, mirror in (("del", "dbar"), ("dbar", "del")):
                if bundle.dim(which, neighbor(which, (p, q), -1)):
                    lhs = bundle.codiff(which, (p, q))
                    rhs = -bundle.star_block(*neighbor(mirror, (n - q, n - p), 1)) \
                        @ alg.diff(mirror, (n - q, n - p)) @ s_here
                    upd(f"{which}star_formula", np.max(np.abs(lhs - rhs)))

    # (eta ^ .)^* = <., eta> on (1,1)
    for eta in etas:
        adj = bundle.mult_adjoint_block(eta, 1, 1)
        pairing = (eta.part((1, 1)).conj() @ bundle.gram(1, 1)).reshape(1, -1)
        upd("mult_adjoint_11", np.max(np.abs(adj - pairing)))

    # star of the constant 1 and of omega
    one = Form.scalar(n, 1.0)
    upd("star_one", (bundle.star(one) - bundle.det_h * alg.theta_form()).max_abs())
    upd("star_omega", (bundle.star(bundle.omega) - bundle.omega_power(n - 1)).max_abs())

    # d^* = -(star d star) degree by degree, and the L2 pairing identity
    for k in range(1, 2 * n + 1):
        if alg.dim_total(k) == 0:
            continue
        lhs = bundle.codiff("d", k)
        rhs = -bundle.star_total(2 * n - k + 1) @ alg.d_total(2 * n - k) @ bundle.star_total(k)
        upd("dstar_formula", np.max(np.abs(lhs - rhs)))
        pair = bundle.gram_total(k) @ alg.d_total(k - 1) \
            - bundle.codiff("d", k).conj().T @ bundle.gram_total(k - 1)
        upd("adjoint_pairing", np.max(np.abs(pair)) * bundle.det_h)

    return res
