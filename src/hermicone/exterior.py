"""Bigraded exterior algebra of invariant forms over a coframe theta^1..theta^n.

Conventions fixed here and used everywhere else:

* A monomial is theta_I ^ thetabar_J with I, J strictly increasing tuples of
  0-based coframe indices; holomorphic factors always stand left of the
  conjugated ones.
* The basis of Lambda^{p,q} runs over (I, J) in lexicographic order, I major.
* A Form is one complex vector over all 4^n monomials, ordered by total degree,
  then p descending (degree 2 reads (2,0), (1,1), (0,2)), then basis order.
  Each degree k and bidegree (p, q) is a slice of it (_layout): form.part(key)
  reads it and Form.at(n, key, vec) builds the form supported on it.
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


@lru_cache(maxsize=None)
def _layout(n):
    """The one coefficient layout over all 4^n monomials: each degree k and each
    bidegree (p, q) maps to its slice.  Degrees ascend, p descends within a
    degree, and a bidegree keeps its basis order."""
    table, pos = {}, 0
    for k in range(2 * n + 1):
        start = pos
        for p in range(min(n, k), max(0, k - n) - 1, -1):
            table[(p, k - p)] = slice(pos, pos + dim_pq(n, p, k - p))
            pos = table[(p, k - p)].stop
        table[k] = slice(start, pos)
    return table


@lru_cache(maxsize=None)
def _blocks(n):
    """The bidegrees in layout order, their start offsets and each coefficient's block number."""
    lay = _layout(n)
    keys = tuple(key for key in lay if isinstance(key, tuple))
    sizes = [lay[key].stop - lay[key].start for key in keys]
    return keys, np.array([lay[key].start for key in keys]), np.repeat(np.arange(len(keys)), sizes)


@lru_cache(maxsize=256)
def _absent(n, nonzero):
    """Mask of the coefficients outside the blocks flagged in the bytes nonzero."""
    return ~np.frombuffer(nonzero, dtype=bool)[_blocks(n)[2]]


def _slice(n, key):
    try:
        return _layout(n)[key if key.__hash__ else tuple(key)]
    except (KeyError, TypeError):
        raise DegreeOutOfRange(f"no degree or bidegree {key!r} for n={n}") from None


@lru_cache(maxsize=None)
def _slices(n, key):
    """ExteriorAlgebra.slices: {bidegree: slice} within the space at key, shared."""
    lay, start = _layout(n), _slice(n, key).start
    pqs = [pq for pq in _blocks(n)[0] if sum(pq) == key] if isinstance(key, int) else [key]
    return {pq: slice(lay[pq].start - start, lay[pq].stop - start) for pq in pqs}


@lru_cache(maxsize=None)
def _conj_perm(n):
    """Whole-vector conjugation: the target index and sign (+-1.0) of every coefficient."""
    lay = _layout(n)
    perm, sign = np.empty(4 ** n, dtype=np.intp), np.empty(4 ** n)
    for (p, q) in _blocks(n)[0]:
        s, block_perm = _conj_table(n, p, q)
        perm[lay[(p, q)]] = lay[(q, p)].start + np.array(block_perm, dtype=np.intp)
        sign[lay[(p, q)]] = s
    return perm, sign


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
def _wedge_arrays(n, p1, q1, p2, q2):
    """Sparse table for Lambda^{p1,q1} x Lambda^{p2,q2} -> Lambda^{p1+p2,q1+q2}: the
    index arrays i1, i2, sign, target_index in (i1, i2) order, None if empty.

    The sign combines the two merge signs with (-1)^(p2*q1) for moving the
    second holomorphic group across the first antiholomorphic one.
    """
    if p1 + p2 > n or q1 + q2 > n:
        return None
    tgt = _basis_index(n, p1 + p2, q1 + q2)
    cross = (-1) ** (p2 * q1)
    out = []
    for i1, (I1, J1) in enumerate(_basis(n, p1, q1)):
        for i2, (I2, J2) in enumerate(_basis(n, p2, q2)):
            mi, mj = _merge(I1, I2), _merge(J1, J2)
            if mi is not None and mj is not None:
                out.append((i1, i2, mi[0] * mj[0] * cross, tgt[(mi[1], mj[1])]))
    return tuple(np.array(col, dtype=np.intp) for col in zip(*out)) if out else None


@lru_cache(maxsize=None)
def _derivation_table(n, p, q, g, K, L):
    """Entries of theta_K^thetabar_L ^ iota_g on Lambda^{p,q}, None if there are none.

    iota_g removes generator g (theta^g if g < n, else thetabar^(g-n)) from position
    m of (I, J) with sign (-1)^m; the wedge with theta_K^thetabar_L then has the signs
    of _wedge_arrays.  Returns the target bidegree and (row, col, sign) arrays.
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
    m[list(perm), range(len(perm))] = sign
    return m


class Form:
    """Invariant complex form: one read-only coefficient vector in _layout order.

    A block with no nonzero coefficient reads +0 and is left out of bidegrees(); the
    nonzero blocks are found once, when the form is made.
    """

    __slots__ = ("n", "vec", "_nonzero", "_support")

    def __init__(self, n, vec=None):
        """The form with coefficient vector vec, taken over; zero when vec is None."""
        self.n = n = int(n)
        if vec is None:
            vec, nonzero = np.zeros(4 ** n, dtype=complex), np.zeros((n + 1) ** 2, dtype=bool)
        else:
            nonzero = np.logical_or.reduceat(vec, _blocks(n)[1])
            if not all(nonzero.tolist()):
                np.putmask(vec, _absent(n, nonzero.tobytes()), 0)  # zero blocks read +0, no -0
        vec.setflags(write=False)
        self.vec, self._nonzero, self._support = vec, nonzero, None

    @classmethod
    def at(cls, n, key, vec):
        """The form with coefficients vec at a degree k or a bidegree (p, q), zero elsewhere."""
        sl = _slice(n, key)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != sl.stop - sl.start:
            raise DimensionMismatch(f"{key!r} takes {sl.stop - sl.start} numbers, not {vec.size}")
        full = np.zeros(4 ** n, dtype=complex)
        full[sl] = vec
        return cls(n, full)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, I, J, coeff=1.0):
        I, J = tuple(I), tuple(J)
        idx = _basis_index(n, len(I), len(J)).get((I, J))
        if idx is None:
            raise DegreeOutOfRange(f"({I}, {J}) is not an increasing monomial for n={n}")
        vec = np.zeros(4 ** n, dtype=complex)
        vec[_layout(n)[(len(I), len(J))].start + idx] = coeff
        return cls(n, vec)

    @classmethod
    def scalar(cls, n, value):
        return cls.at(n, (0, 0), [value])

    def part(self, key):
        """Coefficients at a degree k or a bidegree (p, q), as a read-only view."""
        return self.vec[_slice(self.n, key)]

    def bidegrees(self):
        """The bidegrees with a nonzero coefficient, in layout order."""
        if self._support is None:
            self._support = tuple(itertools.compress(_blocks(self.n)[0], self._nonzero.tolist()))
        return list(self._support)

    def max_abs(self):
        return np.max(np.abs(self.vec))

    def conj(self):
        if not self.bidegrees():
            return self
        perm, sign = _conj_perm(self.n)
        out = np.empty_like(self.vec)
        out.real[perm], out.imag[perm] = sign * self.vec.real, -sign * self.vec.imag
        return Form(self.n, out)

    def is_real(self, tol=1e-12):
        return (self - self.conj()).max_abs() <= tol

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("forms over different coframes")
        # only the nonzero blocks of other add: a block of self alone keeps its signed zeros
        out = self.vec.copy()
        if int.from_bytes((self._nonzero > other._nonzero).tobytes(), "little"):
            np.add(out, other.vec, out=out, where=other._nonzero[_blocks(self.n)[2]])
        else:
            out += other.vec
        return Form(self.n, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if isinstance(scalar, Form):
            return NotImplemented
        return Form(self.n, scalar * self.vec)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def to_entries(self):
        """JSON-friendly list of {p,q,I,J,re,im} with 1-based indices."""
        entries = []
        for p, q in sorted(self.bidegrees()):
            vec = self.part((p, q))
            for idx in np.flatnonzero(vec):
                I, J = _basis(self.n, p, q)[idx]
                entries.append({"p": p, "q": q, "I": [i + 1 for i in I], "J": [j + 1 for j in J],
                                "re": float(vec[idx].real), "im": float(vec[idx].imag)})
        return entries

    @classmethod
    def from_entries(cls, n, entries):
        out = np.zeros(4 ** n, dtype=complex)
        for e in entries:
            I = tuple(int(i) - 1 for i in e["I"])
            J = tuple(int(j) - 1 for j in e["J"])
            key = (len(I), len(J))
            out[_slice(n, key).start + _basis_index(n, *key)[(I, J)]] += \
                complex(e["re"], e.get("im", 0.0))
        return cls(n, out)

    def __repr__(self):
        keys = ", ".join(f"({p},{q})" for p, q in sorted(self.bidegrees()))
        return f"Form(n={self.n}, blocks=[{keys}])"


def wedge(u, v):
    """Wedge product of two forms, canonically reordered with signs: one np.add.at per
    pair of nonzero blocks, each product formed from real and imaginary parts as the
    complex scalar product is (numpy's array kernel for complex a * b rounds otherwise).
    """
    if u.n != v.n:
        raise DimensionMismatch("forms over different coframes")
    n, lay = u.n, _layout(u.n)
    out = np.zeros(4 ** n, dtype=complex)
    for p1, q1 in u.bidegrees():
        a = u.part((p1, q1))
        for p2, q2 in v.bidegrees():
            table = _wedge_arrays(n, p1, q1, p2, q2)
            if table is None:
                continue
            i1, i2, sign, t = table
            x, y = sign * a[i1], v.part((p2, q2))[i2]
            prod = np.empty(x.shape, dtype=complex)
            re, im = prod.real, prod.imag
            np.subtract(np.multiply(x.real, y.real, out=re), x.imag * y.imag, out=re)
            np.add(np.multiply(x.real, y.imag, out=im), x.imag * y.real, out=im)
            np.add.at(out[lay[(p1 + p2, q1 + q2)]], t, prod)
    return Form(n, out)


def wedge_power(u, k):
    """u^k / k! for a form of even degree."""
    out = Form.scalar(u.n, 1.0)
    for _ in range(k):
        out = wedge(out, u)
    return out / math.factorial(k)


def random_form(n, pq_list, rng, real=False):
    """Random form supported on the given bidegrees; real means conj-invariant."""
    out = np.zeros(4 ** n, dtype=complex)
    for p, q in pq_list:
        d = dim_pq(n, p, q)
        out[_slice(n, (p, q))] += rng.standard_normal(d) + 1j * rng.standard_normal(d)
    out = Form(n, out)
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
            I, J = {"holo": ((j - 1, k - 1), ()), "mixed": ((j - 1,), (k - 1,)),
                    "anti": ((), (j - 1, k - 1))}[kind]
            d_one[i - 1] = d_one[i - 1] + Form.monomial(n, I, J, coeff)
        # d of the 2n generators, theta^1..theta^n then their conjugates, as the
        # terms (g, K, L, coeff) of coeff theta_K^thetabar_L in d(generator g)
        self._d_terms = [(g, *_basis(n, a, b)[i], f.part((a, b))[i])
                         for g, f in enumerate(d_one + [f.conj() for f in d_one])
                         for a, b in f.bidegrees() for i in np.flatnonzero(f.part((a, b)))]
        self._d_blocks_cache = {}
        self._d_total_cache = {}

    # ----- differential ---------------------------------------------------

    def d_monomial(self, p, q, idx):
        """d of the idx-th monomial of Lambda^{p,q}: one column of d_blocks."""
        return self.d_form(Form.at(self.n, (p, q), np.eye(dim_pq(self.n, p, q))[idx]))

    def d_blocks(self, p, q):
        """All matrix blocks of d restricted to Lambda^{p,q}, keyed by target.

        d is the odd derivation sum_g d(gen_g) ^ iota_g over the 2n generators;
        the terms of one entry add up in generator order, the Leibniz order.
        """
        key = (p, q)
        if key not in self._d_blocks_cache:
            n, acc, blocks = self.n, {}, {}
            for g, K, L, coeff in self._d_terms:
                table = _derivation_table(n, p, q, g, K, L)
                if table is not None:
                    tgt, rows, cols, sign = table
                    acc.setdefault(tgt, []).append((rows, cols, sign * coeff))
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
        return np.zeros((dim_pq(self.n, *tgt), dim_pq(self.n, *key)), dtype=complex) \
            if mat is None else mat

    def bidegrees(self, k):
        """Bidegrees of total degree k, p descending."""
        return list(self.slices(k))

    def dim_total(self, k):
        """sum_p C(n, p) C(n, k - p) over the bidegrees of degree k, which is C(2n, k)."""
        sl = _slice(self.n, k)
        return sl.stop - sl.start

    def slices(self, key):
        """The slices of the bidegree blocks inside a coefficient vector of the space
        at a degree k or a bidegree (p, q), read off the layout."""
        return _slices(self.n, int(key) if isinstance(key, (int, np.integer)) else tuple(key))

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
        rows = self.slices(k_out) if 0 <= k_out <= 2 * self.n else {}
        mat = np.zeros((self.dim_total(k_out) if rows else 0, self.dim_total(k)), dtype=complex)
        for pq, cols in self.slices(k).items():
            for tgt, blk in op(*pq).items():
                if tgt in rows:
                    mat[rows[tgt], cols] = blk
        return mat

    def apply(self, op, form):
        """The block map op applied to a form: each nonzero block's nonzero images
        add, in layout order, into the slices of one output vector."""
        lay, out = _layout(self.n), None
        for pq in form.bidegrees():
            vec = form.part(pq)
            for tgt, mat in op(*pq).items():
                if tgt in lay:
                    img = mat @ vec
                    if np.count_nonzero(img):
                        out = np.zeros(4 ** self.n, dtype=complex) if out is None else out
                        out[lay[tgt]] += img
        return Form(self.n, out)

    def d_form(self, form):
        return self.apply(self.d_blocks, form)

    def del_form(self, form):
        return self.apply(lambda p, q: {(p + 1, q): self.diff("del", (p, q))}, form)

    def dbar_form(self, form):
        return self.apply(lambda p, q: {(p, q + 1): self.diff("dbar", (p, q))}, form)

    # ----- multiplication operators ----------------------------------------

    def wedge_matrix(self, form, p, q):
        """Matrix of (form ^ .) from Lambda^{p,q}; form must be homogeneous."""
        support = form.bidegrees()
        if len(support) > 1:
            raise DimensionMismatch("wedge_matrix expects a homogeneous form")
        if not support:
            return np.zeros((0, dim_pq(self.n, p, q)), dtype=complex)
        (a, b), = support
        v = form.part((a, b))
        mat = np.zeros((dim_pq(self.n, p + a, q + b), dim_pq(self.n, p, q)), dtype=complex)
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
        top = form.part((self.n, self.n))
        return complex(top[0] / self.theta_coefficient)
