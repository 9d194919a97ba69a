"""Bigraded exterior algebra of invariant forms over a coframe theta^1..theta^n.

Conventions fixed here and used everywhere else:

* A monomial is theta_I ^ thetabar_J with I, J strictly increasing tuples of
  0-based coframe indices; holomorphic factors always stand left of the
  conjugated ones.
* The basis of Lambda^{p,q} runs over (I, J) in lexicographic order, I major.
* Total-degree-k vectors concatenate the (p, q) blocks with p descending,
  so degree 2 reads (2,0), (1,1), (0,2).
* The base volume Theta = (i theta^1^thetabar^1) ^ ... ^ (i theta^n^thetabar^n)
  integrates to 1.
* Three complexes share one vocabulary: which = "d" steps a total degree k,
  "del" and "dbar" step a bidegree (p, q) in p or in q (see neighbor); every
  codifferential, Laplacian, projector and potential is written once over
  (which, key).
* A bigraded operator is a block map op(p, q) -> {target bidegree: matrix}
  (d_blocks is one).  ExteriorAlgebra.apply runs a block map on a form and
  ExteriorAlgebra.total assembles its total-degree matrix; no other module
  places blocks by offset.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch

Multi = tuple


@lru_cache(maxsize=None)
def _combos(n, p):
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def _basis(n, p, q):
    return tuple((I, J) for I in _combos(n, p) for J in _combos(n, q))


@lru_cache(maxsize=None)
def _basis_index(n, p, q):
    return {mono: i for i, mono in enumerate(_basis(n, p, q))}


def dim_pq(n, p, q):
    if p < 0 or q < 0 or p > n or q > n:
        return 0
    return math.comb(n, p) * math.comb(n, q)


def neighbor(which, key, s):
    """The key s steps along a complex: k + s for "d", (p + s, q) for "del",
    (p, q + s) for "dbar"."""
    if which == "d":
        return key + s
    if which not in ("del", "dbar"):
        raise ValueError(f"unknown differential {which!r}")
    p, q = key
    return (p + s, q) if which == "del" else (p, q + s)


def basis(model_or_n, p, q):
    """Ordered monomial basis of Lambda^{p,q} as (I, J) pairs, 0-based."""
    n = getattr(model_or_n, "n", model_or_n)
    if not (0 <= p <= n and 0 <= q <= n):
        raise DegreeOutOfRange(f"bidegree ({p}, {q}) outside 0..{n}")
    return list(_basis(n, p, q))


@lru_cache(maxsize=None)
def _merge(a, b):
    # Sign of sorting the concatenation of two increasing index tuples,
    # None if they overlap.
    if set(a) & set(b):
        return None
    inv = sum(1 for x in a for y in b if y < x)
    return (-1) ** inv, tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _wedge_table(n, p1, q1, p2, q2):
    """Sparse table for Lambda^{p1,q1} x Lambda^{p2,q2} -> Lambda^{p1+p2,q1+q2}.

    Entries are (i1, i2, sign, target_index).  The sign combines the two
    merge signs with (-1)^(p2*q1) for moving the second holomorphic group
    across the first antiholomorphic one.
    """
    if p1 + p2 > n or q1 + q2 > n:
        return ()
    tgt = _basis_index(n, p1 + p2, q1 + q2)
    cross = (-1) ** (p2 * q1)
    out = []
    for i1, (I1, J1) in enumerate(_basis(n, p1, q1)):
        for i2, (I2, J2) in enumerate(_basis(n, p2, q2)):
            mi = _merge(I1, I2)
            if mi is None:
                continue
            mj = _merge(J1, J2)
            if mj is None:
                continue
            out.append((i1, i2, mi[0] * mj[0] * cross, tgt[(mi[1], mj[1])]))
    return tuple(out)


@lru_cache(maxsize=None)
def _wedge_arrays(n, p1, q1, p2, q2):
    """_wedge_table as four index arrays: i1, i2, sign, target_index."""
    table = _wedge_table(n, p1, q1, p2, q2)
    return tuple(np.array(col, dtype=np.intp) for col in zip(*table)) if table else None


@lru_cache(maxsize=None)
def _derivation_table(n, p, q, g, K, L):
    """Entries of theta_K^thetabar_L ^ iota_g on Lambda^{p,q}, None if there are none.

    iota_g removes generator g (theta^g if g < n, else thetabar^(g-n)) from position
    m of (I, J) with sign (-1)^m; the wedge with theta_K^thetabar_L then has the signs
    of _wedge_table.  Returns the target bidegree and (row, col, sign) arrays.
    """
    rp, rq = (p - 1, q) if g < n else (p, q - 1)
    if min(rp, rq) < 0:
        return None
    tgt = _basis_index(n, rp + len(K), rq + len(L))
    out = []
    for src, (I, J) in enumerate(_basis(n, p, q)):
        gens = I + tuple(n + j for j in J)
        if g in gens:
            m = gens.index(g)
            rest = (I[:m] + I[m + 1:], J) if m < p else (I, J[:m - p] + J[m - p + 1:])
            mi, mj = _merge(K, rest[0]), _merge(L, rest[1])
            if mi is not None and mj is not None:
                out.append((tgt[(mi[1], mj[1])], src, (-1) ** (m + rp * len(L)) * mi[0] * mj[0]))
    return ((rp + len(K), rq + len(L)), *map(np.array, zip(*out))) if out else None


@lru_cache(maxsize=None)
def _conj_table(n, p, q):
    # conj(theta_I ^ thetabar_J) = (-1)^(pq) theta_J ^ thetabar_I
    tgt = _basis_index(n, q, p)
    perm = tuple(tgt[(J, I)] for (I, J) in _basis(n, p, q))
    return (-1) ** (p * q), perm


def _theta_coefficient(n):
    """Coefficient of theta_{1..n}^thetabar_{1..n} inside the unit volume Theta."""
    return (1j) ** n * (-1) ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def _complement(n, p, q):
    """Metric-free pairing of Lambda^{p,q} with Lambda^{n-p,n-q}.

    Monomial i of Lambda^{p,q} wedges to a nonzero top form only with its
    complement (indices missing from I and from J).  Returns the complement
    indices and the units (+-1 or +-i) integral(monomial ^ complement).
    """
    full, tgt = range(n), _basis_index(n, n - p, n - q)
    comp, top = [], []
    for I, J in _basis(n, p, q):
        Ic, Jc = tuple(i for i in full if i not in I), tuple(j for j in full if j not in J)
        comp.append(tgt[(Ic, Jc)])
        top.append(_merge(I, Ic)[0] * _merge(J, Jc)[0] * (-1) ** ((n - p) * q))
    return np.array(comp, dtype=np.intp), np.array(top, dtype=complex) / _theta_coefficient(n)


def conj_block_matrix(n, p, q):
    """Signed permutation M with conj of a (p,q) block vector v being M conj(v) at (q,p)."""
    sign, perm = _conj_table(n, p, q)
    m = np.zeros((dim_pq(n, q, p), dim_pq(n, p, q)))
    for src, dst in enumerate(perm):
        m[dst, src] = sign
    return m


class Form:
    """Invariant complex form stored as bigraded coefficient blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks=None):
        self.n = int(n)
        self.blocks = {}
        if blocks:
            for (p, q), vec in blocks.items():
                self.set_block(p, q, vec)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, I, J, coeff=1.0):
        I, J = tuple(I), tuple(J)
        idx = _basis_index(n, len(I), len(J)).get((I, J))
        if idx is None:
            raise DegreeOutOfRange(f"({I}, {J}) is not an increasing monomial for n={n}")
        vec = np.zeros(dim_pq(n, len(I), len(J)), dtype=complex)
        vec[idx] = coeff
        return cls(n, {(len(I), len(J)): vec})

    @classmethod
    def scalar(cls, n, value):
        return cls(n, {(0, 0): np.array([value], dtype=complex)})

    def set_block(self, p, q, vec):
        d = dim_pq(self.n, p, q)
        if d == 0:
            raise DegreeOutOfRange(f"bidegree ({p}, {q}) empty for n={self.n}")
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != d:
            raise DimensionMismatch(f"block ({p}, {q}) expects length {d}, got {vec.shape[0]}")
        if vec.any():
            self.blocks[(p, q)] = vec.copy()
        else:
            self.blocks.pop((p, q), None)

    def block(self, p, q):
        vec = self.blocks.get((p, q))
        if vec is None:
            return np.zeros(dim_pq(self.n, p, q), dtype=complex)
        return vec.copy()

    def bidegrees(self):
        return sorted(self.blocks)

    def degrees(self):
        return sorted({p + q for p, q in self.blocks})

    def pure_part(self, p, q):
        out = Form(self.n)
        if (p, q) in self.blocks:
            out.set_block(p, q, self.blocks[(p, q)])
        return out

    def max_abs(self):
        if not self.blocks:
            return 0.0
        return max(np.max(np.abs(v)) for v in self.blocks.values())

    def conj(self):
        out = Form(self.n)
        for (p, q), vec in self.blocks.items():
            sign, perm = _conj_table(self.n, p, q)
            new = np.zeros(dim_pq(self.n, q, p), dtype=complex)
            new[list(perm)] = sign * np.conj(vec)
            out.set_block(q, p, new)
        return out

    def is_real(self, tol=1e-12):
        return (self - self.conj()).max_abs() <= tol

    def copy(self):
        return Form(self.n, self.blocks)

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("forms over different coframes")
        out = self.copy()
        for (p, q), vec in other.blocks.items():
            out.set_block(p, q, out.block(p, q) + vec)
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if isinstance(scalar, Form):
            return NotImplemented
        out = Form(self.n)
        for (p, q), vec in self.blocks.items():
            out.set_block(p, q, scalar * vec)
        return out

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def to_entries(self):
        """JSON-friendly list of {p,q,I,J,re,im} with 1-based indices."""
        entries = []
        for (p, q) in sorted(self.blocks):
            vec = self.blocks[(p, q)]
            for idx, (I, J) in enumerate(_basis(self.n, p, q)):
                c = vec[idx]
                if c == 0:
                    continue
                entries.append({
                    "p": p, "q": q,
                    "I": [i + 1 for i in I], "J": [j + 1 for j in J],
                    "re": float(c.real), "im": float(c.imag),
                })
        return entries

    @classmethod
    def from_entries(cls, n, entries):
        out = cls(n)
        acc = {}
        for e in entries:
            I = tuple(int(i) - 1 for i in e["I"])
            J = tuple(int(j) - 1 for j in e["J"])
            key = (len(I), len(J))
            vec = acc.setdefault(key, np.zeros(dim_pq(n, *key), dtype=complex))
            vec[_basis_index(n, *key)[(I, J)]] += complex(e["re"], e.get("im", 0.0))
        for key, vec in acc.items():
            out.set_block(*key, vec)
        return out

    def __repr__(self):
        keys = ", ".join(f"({p},{q})" for p, q in self.bidegrees())
        return f"Form(n={self.n}, blocks=[{keys}])"


def wedge(u, v):
    """Wedge product of two forms, canonically reordered with signs."""
    if u.n != v.n:
        raise DimensionMismatch("forms over different coframes")
    out = Form(u.n)
    acc = {}
    for (p1, q1), a in u.blocks.items():
        for (p2, q2), b in v.blocks.items():
            table = _wedge_table(u.n, p1, q1, p2, q2)
            if not table:
                continue
            key = (p1 + p2, q1 + q2)
            vec = acc.setdefault(key, np.zeros(dim_pq(u.n, *key), dtype=complex))
            for i1, i2, sign, t in table:
                vec[t] += sign * a[i1] * b[i2]
    for key, vec in acc.items():
        out.set_block(*key, vec)
    return out


def wedge_power(u, k):
    """u^k / k! for a form of even degree."""
    out = Form.scalar(u.n, 1.0)
    for _ in range(k):
        out = wedge(out, u)
    return out / math.factorial(k)


def random_form(n, pq_list, rng, real=False):
    """Random form supported on the given bidegrees; real means conj-invariant."""
    out = Form(n)
    for p, q in pq_list:
        d = dim_pq(n, p, q)
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.set_block(p, q, out.block(p, q) + vec)
    if real:
        out = 0.5 * (out + out.conj())
    return out


class ExteriorAlgebra:
    """Wedge, conjugation and the coframe differential for one model.

    The constructor takes the complex dimension and the normalized structure
    terms (i, kind, j, k, coeff) with 1-based indices; d(theta^i) collects
    coeff * theta^j^theta^k ("holo"), theta^j^thetabar^k ("mixed") or
    thetabar^j^thetabar^k ("anti"), and d(thetabar^i) is its conjugate.
    """

    def __init__(self, n, terms):
        if n < 1:
            raise DegreeOutOfRange(f"n={n}")
        self.n = int(n)
        self.terms = tuple(terms)
        d_one = [Form.zero(n) for _ in range(n)]
        for (i, kind, j, k, coeff) in self.terms:
            i0, j0, k0 = i - 1, j - 1, k - 1
            if kind == "holo":
                mono = Form.monomial(n, (j0, k0), (), coeff)
            elif kind == "mixed":
                mono = Form.monomial(n, (j0,), (k0,), coeff)
            else:
                mono = Form.monomial(n, (), (j0, k0), coeff)
            d_one[i0] = d_one[i0] + mono
        # d of the 2n generators: theta^1..theta^n, then their conjugates
        self._d_gen = d_one + [f.conj() for f in d_one]
        self._d_blocks_cache = {}
        self._d_total_cache = {}

    # ----- differential ---------------------------------------------------

    def d_monomial(self, p, q, idx):
        """d of the idx-th monomial of Lambda^{p,q}: one column of d_blocks."""
        return Form(self.n, {tgt: mat[:, idx] for tgt, mat in self.d_blocks(p, q).items()})

    def d_blocks(self, p, q):
        """All matrix blocks of d restricted to Lambda^{p,q}, keyed by target.

        d is the odd derivation sum_g d(gen_g) ^ iota_g over the 2n generators;
        the terms of one entry add up in generator order, the Leibniz order.
        """
        key = (p, q)
        if key not in self._d_blocks_cache:
            n, acc, blocks = self.n, {}, {}
            for g, dgen in enumerate(self._d_gen):
                for (a, b), vec in dgen.blocks.items():
                    for i in np.flatnonzero(vec):
                        table = _derivation_table(n, p, q, g, *_basis(n, a, b)[i])
                        if table is not None:
                            tgt, rows, cols, sign = table
                            acc.setdefault(tgt, []).append((rows, cols, sign * vec[i]))
            for tgt, terms in acc.items():
                mat = np.zeros((dim_pq(n, *tgt), dim_pq(n, p, q)), dtype=complex)
                rows, cols, vals = map(np.concatenate, zip(*terms))
                np.add.at(mat, (rows, cols), vals)
                if np.any(mat):
                    blocks[tgt] = mat
            self._d_blocks_cache[key] = blocks
        return self._d_blocks_cache[key]

    def diff(self, which, key):
        """Matrix of d on total degree key, or of del / dbar (a component of d) on bidegree key."""
        if which == "d":
            return self.d_total(key)
        tgt = neighbor(which, key, 1)
        mat = self.d_blocks(*key).get(tgt)
        if mat is None:
            return np.zeros((dim_pq(self.n, *tgt), dim_pq(self.n, *key)), dtype=complex)
        return mat

    def del_block(self, p, q):
        """Matrix of the (p+1, q) component of d on Lambda^{p,q}."""
        return self.diff("del", (p, q))

    def dbar_block(self, p, q):
        """Matrix of the (p, q+1) component of d on Lambda^{p,q}."""
        return self.diff("dbar", (p, q))

    def bidegrees(self, k):
        """Bidegrees of total degree k, p descending."""
        if k < 0 or k > 2 * self.n:
            raise DegreeOutOfRange(f"degree {k} outside 0..{2 * self.n}")
        return [(p, k - p) for p in range(min(self.n, k), max(0, k - self.n) - 1, -1)]

    def dim_total(self, k):
        """sum_p C(n, p) C(n, k - p) over the bidegrees of degree k, which is C(2n, k)."""
        if k < 0 or k > 2 * self.n:
            raise DegreeOutOfRange(f"degree {k} outside 0..{2 * self.n}")
        return math.comb(2 * self.n, k)

    def offsets(self, k):
        off, pos = {}, 0
        for p, q in self.bidegrees(k):
            off[(p, q)] = pos
            pos += dim_pq(self.n, p, q)
        return off

    def d_total(self, k):
        """Matrix of d from total degree k to k + 1."""
        if k not in self._d_total_cache:
            self._d_total_cache[k] = self.total(self.d_blocks, k, k + 1)
        return self._d_total_cache[k]

    def total(self, op, k, k_out):
        """Matrix of the block map op from total degree k to total degree k_out.

        Blocks of op whose target has another total degree are left out; a
        k_out outside 0..2n gives a matrix with no rows.
        """
        roff = self.offsets(k_out) if 0 <= k_out <= 2 * self.n else {}
        mat = np.zeros((self.dim_total(k_out) if roff else 0, self.dim_total(k)), dtype=complex)
        for pq, c0 in self.offsets(k).items():
            for tgt, blk in op(*pq).items():
                if tgt in roff:
                    r0 = roff[tgt]
                    mat[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] = blk
        return mat

    def apply(self, op, form):
        """The block map op applied to a form, block by block in the form's order."""
        out = Form.zero(self.n)
        for pq, vec in form.blocks.items():
            for tgt, mat in op(*pq).items():
                out = out + self.from_blockvec(tgt, mat @ vec)
        return out

    def layout(self, which, key):
        """Offsets of the bidegree blocks in a coefficient vector of the space at key
        of the complex of which: every bidegree of a total degree for "d", one for del/dbar."""
        return self.offsets(key) if which == "d" else {tuple(key): 0}

    def to_vector(self, form, key, which="d"):
        """Part of a form in the space at key as one concatenated block vector."""
        parts = [form.block(p, q) for p, q in self.layout(which, key)]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)

    def from_vector(self, vec, key, which="d"):
        """The form whose part in the space at key is vec: the inverse of to_vector."""
        out = Form(self.n)
        for (p, q), o in self.layout(which, key).items():
            d = dim_pq(self.n, p, q)
            if d:
                out.set_block(p, q, vec[o:o + d])
        return out

    def d_form(self, form):
        return self.apply(self.d_blocks, form)

    def del_form(self, form):
        return self.apply(lambda p, q: {(p + 1, q): self.del_block(p, q)}, form)

    def dbar_form(self, form):
        return self.apply(lambda p, q: {(p, q + 1): self.dbar_block(p, q)}, form)

    def from_blockvec(self, pq, vec):
        out = Form(self.n)
        if dim_pq(self.n, *pq):
            out.set_block(*pq, vec)
        return out

    # ----- multiplication operators ----------------------------------------

    def wedge_matrix(self, form, p, q):
        """Matrix of (form ^ .) from Lambda^{p,q}; form must be homogeneous."""
        if len(form.blocks) > 1:
            raise DimensionMismatch("wedge_matrix expects a homogeneous form")
        if not form.blocks:
            return np.zeros((0, dim_pq(self.n, p, q)), dtype=complex)
        ((a, b), v), = form.blocks.items()
        rows = dim_pq(self.n, p + a, q + b)
        mat = np.zeros((rows, dim_pq(self.n, p, q)), dtype=complex)
        table = _wedge_arrays(self.n, a, b, p, q)
        if table is not None:
            # each (target, source) cell takes one term: 0 + sign * v[i1], as a loop would
            i1, i2, sign, t = table
            np.add.at(mat, (t, i2), sign * v[i1])
        return mat

    # ----- integration ------------------------------------------------------

    @property
    def theta_coefficient(self):
        return _theta_coefficient(self.n)

    def theta_form(self):
        full = tuple(range(self.n))
        return Form.monomial(self.n, full, full, self.theta_coefficient)

    def integrate(self, form):
        """Integral against the unit mass of Theta (top component over Theta)."""
        top = form.block(self.n, self.n)
        return complex(top[0] / self.theta_coefficient)
