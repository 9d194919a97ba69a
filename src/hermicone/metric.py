"""Hermitian metrics and the per-metric operator bundle.

A metric is the coefficient matrix H of omega = i sum_jk H_jk theta^j ^
thetabar^k, Hermitian positive definite.  The bundle caches, per bidegree,
the Gram matrices of the induced pointwise inner product, the Hodge star
(solved from the wedge pairing), Lefschetz and trace operators, adjoints,
and the three Laplacians, plus their spectral decompositions.

Inner product conventions: <theta^j, theta^k> = (H^{-1})_{kj}, extended to
monomials by determinant multiplicativity; matrices G satisfy
<u, v> = v^H G u on coefficient vectors.  L2 quantities multiply by
det(H), the total volume of dV = det(H) Theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DegreeOutOfRange, DimensionMismatch, NotPositiveDefinite,
                     SchemaError)
from .exterior import Form, _basis, _combos, _merge, dim_pq, random_form, wedge_power
from .model import algebra_for, require_valid

HERMITICITY_TOL = 1e-12


class HermitianMetric:
    """Positive definite coefficient matrix of an invariant (1,1) metric form."""

    __slots__ = ("h",)

    def __init__(self, h):
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"metric matrix must be square, got shape {h.shape}")
        self.h = h.copy()
        self.h.setflags(write=False)

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
        if not np.all(np.isfinite(self.h)):
            raise SchemaError("metric entries must be finite")
        if np.max(np.abs(self.h - self.h.conj().T)) > HERMITICITY_TOL:
            raise NotPositiveDefinite("metric matrix is not Hermitian within 1e-12")
        try:
            lam = self.min_eigenvalue()
        except np.linalg.LinAlgError as exc:
            raise SchemaError(f"metric matrix has no eigenvalues: {exc}") from None
        if not np.isfinite(lam):
            raise SchemaError("metric matrix overflows: its eigenvalues are not finite")
        if lam <= 0:
            raise NotPositiveDefinite("metric matrix is not positive definite")
        return self

    def min_eigenvalue(self):
        return float(np.linalg.eigvalsh(0.5 * (self.h + self.h.conj().T))[0])

    def scaled(self, lam):
        return HermitianMetric(lam * self.h)

    def form(self, n=None):
        """The metric form omega = i sum H_jk theta^j ^ thetabar^k."""
        vec = 1j * self.h.reshape(-1)
        out = Form(self.n)
        out.set_block(1, 1, vec)
        return out

    @classmethod
    def from_form(cls, form):
        """Extract H from a (1,1) form; inverse of .form()."""
        n = form.n
        vec = form.block(1, 1)
        return cls((vec / 1j).reshape(n, n))


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

    def __init__(self, alg, metric):
        if alg.n != metric.n:
            raise DimensionMismatch(f"model n={alg.n} but metric n={metric.n}")
        self.alg = alg
        self.metric = metric
        self.h = np.asarray(metric.h)
        self.h_inv = np.linalg.inv(self.h)
        self.det_h = float(np.linalg.det(self.h).real)
        self._compound = {}
        self._gram = {}
        self._gram_total = {}
        self._star = {}
        self._lef = {}
        self._trace = {}
        self._delstar = {}
        self._dbarstar = {}
        self._dstar_total = {}
        self._lap = {}
        self._spec = {}
        self._omega_pow = {}

    @property
    def n(self):
        return self.alg.n

    @property
    def omega(self):
        return self.metric.form()

    def omega_power(self, k):
        """omega^k / k!"""
        if k not in self._omega_pow:
            self._omega_pow[k] = wedge_power(self.omega, k)
        return self._omega_pow[k].copy()

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
            # <theta_I^thetabar_J, theta_K^thetabar_L> = C_p[I, K] * C_q[L, J]
            g = np.kron(self.compound(p), self.compound(q).T)
            self._gram[key] = 0.5 * (g + g.conj().T)
        return self._gram[key]

    def gram_total(self, k):
        if k not in self._gram_total:
            blocks = [self.gram(p, q) for p, q in self.alg.bidegrees(k)]
            self._gram_total[k] = scipy.linalg.block_diag(*blocks) if blocks else np.zeros((0, 0))
        return self._gram_total[k]

    def inner(self, u, v):
        """Pointwise Hermitian product, summed over shared bidegrees."""
        if u.n != self.n or v.n != self.n:
            raise DimensionMismatch("form dimension does not match bundle")
        total = 0.0 + 0.0j
        for key in set(u.blocks) | set(v.blocks):
            total += v.block(*key).conj() @ (self.gram(*key) @ u.block(*key))
        return complex(total)

    def l2_inner(self, u, v):
        return self.inner(u, v) * self.det_h

    def l2_norm(self, u):
        val = self.l2_inner(u, u).real
        return float(np.sqrt(max(val, 0.0)))

    # ----- Hodge star ---------------------------------------------------------

    def star_block(self, a, b):
        """Matrix of the C-linear star from Lambda^{a,b} to Lambda^{n-b,n-a}."""
        key = (a, b)
        if key not in self._star:
            n = self.n
            dim_src = dim_pq(n, a, b)
            dim_u = dim_pq(n, b, a)
            # pairing of (b,a) with (n-b,n-a): complementary monomials wedge to +-(top)
            pair = np.zeros((dim_u, dim_src), dtype=complex)
            tgt_index = {m: i for i, m in enumerate(_basis(n, n - b, n - a))}
            full = tuple(range(n))
            for r, (I, J) in enumerate(_basis(n, b, a)):
                Ic = tuple(sorted(set(full) - set(I)))
                Jc = tuple(sorted(set(full) - set(J)))
                t = tgt_index[(Ic, Jc)]
                top = _merge(I, Ic)[0] * _merge(J, Jc)[0] * (-1) ** ((n - b) * a)
                pair[r, t] = self.alg.integrate(Form.monomial(n, full, full, top))
            # right side: <u_r, conj(w_s)> with conj(w_s) = sign * e_{c(s)} in (b,a)
            g = self.gram(b, a)
            rhs = np.zeros((dim_u, dim_src), dtype=complex)
            src_index = {m: i for i, m in enumerate(_basis(n, b, a))}
            sign = (-1) ** (a * b)
            for s, (I, J) in enumerate(_basis(n, a, b)):
                c = src_index[(J, I)]
                rhs[:, s] = sign * g[c, :]
            self._star[key] = np.linalg.solve(pair, self.det_h * rhs)
        return self._star[key]

    def star(self, form):
        out = Form.zero(self.n)
        for (p, q), vec in form.blocks.items():
            out = out + self.alg.from_blockvec((self.n - q, self.n - p),
                                               self.star_block(p, q) @ vec)
        return out

    def star_total(self, k):
        """Block star matrix from total degree k to 2n - k."""
        n = self.n
        rows = self.alg.dim_total(2 * n - k)
        cols = self.alg.dim_total(k)
        mat = np.zeros((rows, cols), dtype=complex)
        roff = self.alg.offsets(2 * n - k)
        for (p, q), c0 in self.alg.offsets(k).items():
            blk = self.star_block(p, q)
            r0 = roff[(n - q, n - p)]
            mat[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] = blk
        return mat

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
        out = Form.zero(self.n)
        for (p, q), vec in form.blocks.items():
            if p >= 1 and q >= 1:
                out = out + self.alg.from_blockvec((p - 1, q - 1),
                                                   self.trace_block(p, q) @ vec)
        return out

    def mult_adjoint_block(self, eta, p, q):
        """Adjoint of (eta ^ .) landing on Lambda^{p,q}, for homogeneous eta.

        Maps (p,q) back to (p-a, q-b) when eta has bidegree (a,b).
        """
        ((a, b), _), = eta.blocks.items() if eta.blocks else (((0, 0), None),)
        src = (p - a, q - b)
        if dim_pq(self.n, *src) == 0:
            return np.zeros((0, dim_pq(self.n, p, q)), dtype=complex)
        mat = self.alg.wedge_matrix(eta, *src)
        return _adjoint(mat, self.gram(*src), self.gram(p, q))

    def mult_adjoint(self, eta, form):
        out = Form.zero(self.n)
        if not eta.blocks:
            return out
        ((a, b), _), = eta.blocks.items()
        for (p, q), vec in form.blocks.items():
            if dim_pq(self.n, p - a, q - b):
                out = out + self.alg.from_blockvec((p - a, q - b),
                                                   self.mult_adjoint_block(eta, p, q) @ vec)
        return out

    # ----- adjoint differentials ------------------------------------------------

    def del_star_block(self, p, q):
        key = (p, q)
        if key not in self._delstar:
            if p < 1:
                self._delstar[key] = np.zeros((dim_pq(self.n, p - 1, q),
                                               dim_pq(self.n, p, q)), dtype=complex)
            else:
                self._delstar[key] = _adjoint(self.alg.del_block(p - 1, q),
                                              self.gram(p - 1, q), self.gram(p, q))
        return self._delstar[key]

    def dbar_star_block(self, p, q):
        key = (p, q)
        if key not in self._dbarstar:
            if q < 1:
                self._dbarstar[key] = np.zeros((dim_pq(self.n, p, q - 1),
                                                dim_pq(self.n, p, q)), dtype=complex)
            else:
                self._dbarstar[key] = _adjoint(self.alg.dbar_block(p, q - 1),
                                               self.gram(p, q - 1), self.gram(p, q))
        return self._dbarstar[key]

    def d_star_total(self, k):
        if k not in self._dstar_total:
            if k < 1:
                self._dstar_total[k] = np.zeros((0, self.alg.dim_total(0)), dtype=complex)
            else:
                self._dstar_total[k] = _adjoint(self.alg.d_total(k - 1),
                                                self.gram_total(k - 1), self.gram_total(k))
        return self._dstar_total[k]

    def del_star(self, form):
        out = Form.zero(self.n)
        for (p, q), vec in form.blocks.items():
            if p >= 1:
                out = out + self.alg.from_blockvec((p - 1, q), self.del_star_block(p, q) @ vec)
        return out

    def dbar_star(self, form):
        out = Form.zero(self.n)
        for (p, q), vec in form.blocks.items():
            if q >= 1:
                out = out + self.alg.from_blockvec((p, q - 1), self.dbar_star_block(p, q) @ vec)
        return out

    def d_star(self, form):
        return self.del_star(form) + self.dbar_star(form)

    # ----- Laplacians --------------------------------------------------------------

    def laplacian(self, which, key):
        """Matrix of a Laplacian: which in {"d", "del", "dbar"}.

        "d" takes a total degree k; "del"/"dbar" take a bidegree (p, q).
        """
        cache_key = (which, key if isinstance(key, int) else tuple(key))
        if cache_key not in self._lap:
            if which == "d":
                k = key
                down = self.alg.d_total(k - 1) @ self.d_star_total(k) if k >= 1 else 0.0
                up = self.d_star_total(k + 1) @ self.alg.d_total(k) if k + 1 <= 2 * self.n else 0.0
                mat = down + up
                if np.isscalar(mat):
                    mat = np.zeros((self.alg.dim_total(k),) * 2, dtype=complex)
            elif which == "del":
                p, q = key
                mat = np.zeros((dim_pq(self.n, p, q),) * 2, dtype=complex)
                if p >= 1:
                    mat = mat + self.alg.del_block(p - 1, q) @ self.del_star_block(p, q)
                if p + 1 <= self.n:
                    mat = mat + self.del_star_block(p + 1, q) @ self.alg.del_block(p, q)
            elif which == "dbar":
                p, q = key
                mat = np.zeros((dim_pq(self.n, p, q),) * 2, dtype=complex)
                if q >= 1:
                    mat = mat + self.alg.dbar_block(p, q - 1) @ self.dbar_star_block(p, q)
                if q + 1 <= self.n:
                    mat = mat + self.dbar_star_block(p, q + 1) @ self.alg.dbar_block(p, q)
            else:
                raise ValueError(f"unknown Laplacian {which!r}")
            self._lap[cache_key] = mat
        return self._lap[cache_key]

    def gram_for(self, which, key):
        return self.gram_total(key) if which == "d" else self.gram(*key)

    def spectral(self, which, key):
        """Eigen-data of a Laplacian w.r.t. the pointwise Gram inner product."""
        cache_key = (which, key if isinstance(key, int) else tuple(key))
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


def build_bundle(model, metric):
    """Validated operator bundle; the model must be unimodular."""
    require_valid(model, need_unimodular=True)
    metric.check()
    return OperatorBundle(algebra_for(model), metric)


def bundle_for_algebra(alg, metric):
    """Bundle over an already-validated algebra (internal fast path)."""
    metric.check()
    return OperatorBundle(alg, metric)


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

                for eta in etas:
                    lhs = bundle.star_block(p + 1, q + 1) @ alg.wedge_matrix(eta, p, q)
                    rhs = bundle.mult_adjoint_block(eta.conj(), n - q, n - p) @ s_here
                    upd("mult_adjoint_star", np.max(np.abs(lhs - rhs)))

            if p + q <= n:
                kk = p + q
                coeff = (-1) ** (kk * (kk + 1) // 2) * (1j) ** (p - q)
                pow_mat = alg.wedge_matrix(bundle.omega_power(n - p - q), p, q)
                for vec in _primitive_vectors(bundle, p, q, rng):
                    lhs = s_here @ vec
                    rhs = coeff * (pow_mat @ vec)
                    upd("primitive_star", np.max(np.abs(lhs - rhs)))

            if p >= 1:
                lhs = bundle.del_star_block(p, q)
                rhs = -bundle.star_block(n - q, n - p + 1) @ alg.dbar_block(n - q, n - p) \
                    @ s_here
                upd("delstar_formula", np.max(np.abs(lhs - rhs)))
            if q >= 1:
                lhs = bundle.dbar_star_block(p, q)
                rhs = -bundle.star_block(n - q + 1, n - p) @ alg.del_block(n - q, n - p) \
                    @ s_here
                upd("dbarstar_formula", np.max(np.abs(lhs - rhs)))

    # (eta ^ .)^* = <., eta> on (1,1)
    for eta in etas:
        adj = bundle.mult_adjoint_block(eta, 1, 1)
        pairing = (eta.block(1, 1).conj() @ bundle.gram(1, 1)).reshape(1, -1)
        upd("mult_adjoint_11", np.max(np.abs(adj - pairing)))

    # star of the constant 1 and of omega
    one = Form.scalar(n, 1.0)
    upd("star_one", (bundle.star(one) - bundle.det_h * alg.theta_form()).max_abs())
    upd("star_omega", (bundle.star(bundle.omega) - bundle.omega_power(n - 1)).max_abs())

    # d^* = -(star d star) degree by degree, and the L2 pairing identity
    for k in range(1, 2 * n + 1):
        if alg.dim_total(k) == 0:
            continue
        lhs = bundle.d_star_total(k)
        rhs = -bundle.star_total(2 * n - k + 1) @ alg.d_total(2 * n - k) @ bundle.star_total(k)
        upd("dstar_formula", np.max(np.abs(lhs - rhs)))
        pair = bundle.gram_total(k) @ alg.d_total(k - 1) \
            - bundle.d_star_total(k).conj().T @ bundle.gram_total(k - 1)
        upd("adjoint_pairing", np.max(np.abs(pair)) * bundle.det_h)

    return res
