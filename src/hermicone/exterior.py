"""Bigraded exterior algebra of invariant forms over a coframe theta^1..theta^n.

Conventions fixed here and used everywhere else:

* A monomial is theta_I ^ thetabar_J, holomorphic factors left of the conjugated
  ones; I and J are n-bit masks, bit i for 0-based index i (increasing index
  tuples appear only at the public edge: basis, to_entries, Form.monomial).
* The basis of Lambda^{p,q} runs over (I, J) in lexicographic order, I major.
  _index(n) holds the masks of every coefficient and the position pos[I, J] of
  every mask pair; each table (wedge, d, conj, complement) is whole-array lookups
  in it, signed by the parity of sum_{y in b} popcount(a >> (y + 1)) for sorting
  the indices of a before those of b.
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
* d is stored once per algebra as sparse entries over the layout, d_sparse =
  (rows, cols, values) sorted by column, each summed in Leibniz order onto +0
  and free of zeros.  d_blocks(p, q) densifies one source's blocks from its
  column range on its first request, so a job that reads a few complexes
  builds only their blocks; the model gate reads the entries alone.
* A bigraded operator is a block map op(p, q) -> {target bidegree: matrix}
  (d_blocks is one).  ExteriorAlgebra.apply runs a block map on a form and
  ExteriorAlgebra.total assembles its total-degree matrix; no other module
  places blocks by offset.
* A Form may hold a stack of forms on leading axes, vec of shape (..., 4^n).
  wedge (on its left), apply, Form.wedge_matrix and integrate then act on each
  form of the stack and give it the bits it gets alone; a block map may likewise
  carry matrices stacked on a leading axis.
* The images and kernels of the differentials are metric-free: bases(which, key)
  keeps orthonormal bases of both, decided once per algebra from one SVD, and
  harmonic_dim(which, key), the Lie-algebra cohomology at key, is the kernel
  dimension of that space's Laplacian at every metric.
* Work that depends on one object alone is kept on it by memo: d and its bases on its
  algebra, the matrices of form ^ . and the powers of a form on the form, the
  metric operators on their bundle.  A kept array is read-only.  No key holds
  a Form: an entry would keep the form alive as long as its owner, so work on
  a form and a bundle together (a commutator) is formed again on each call.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, wraps

import numpy as np

from .errors import DegreeOutOfRange, DimensionMismatch, ModelInvalid

# The size budget: the most complex entries (16 bytes each, so 64 MiB) one dense array
# of a job may hold, a matrix, the 4^n coefficient vector of a form, or a stack of
# matrices, one per variation direction.
DENSE_BUDGET = 2 ** 22
# ExteriorAlgebra.bases keeps the singular vectors above this fraction of the largest
RANK_RTOL = 1e-10


def memo(method):
    """Keep method(self, *key) in self._memo, built on the first call with that key.
    An array result is made read-only, as every caller shares it.  A Form key is
    refused (TypeError): its entry would keep the form alive for the owner's life."""
    @wraps(method)
    def kept(self, *key):
        try:
            return self._memo[method, key]
        except KeyError:
            pass
        except AttributeError:
            self._memo = {}
            return kept(self, *key)
        except TypeError:  # a bidegree given as a list or an array is kept as a tuple
            key = tuple(k if k.__hash__ else tuple(k) for k in key)
            hash(key)  # anything deeper stays refused
            return kept(self, *key)
        if any(isinstance(k, Form) for k in key):
            raise TypeError(f"{method.__qualname__} cannot be kept under a Form key")
        out = self._memo[method, key] = method(self, *key)
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        return out
    return kept


@lru_cache(maxsize=None)
def _combos(n, p):
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def _basis(n, p, q):
    return tuple((I, J) for I in _combos(n, p) for J in _combos(n, q))


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
def _index(n):
    """I and J, the masks of every coefficient in layout order, and pos[I, J], the layout
    position of every mask pair.  Subsets of one size run in combinations order, in
    which the bit-reversed masks descend."""
    masks = np.arange(1 << n)
    flipped = sum(((masks >> i) & 1) << (n - 1 - i) for i in range(n))
    ordered = masks[np.argsort(-flipped)]
    subsets = [ordered[np.bitwise_count(ordered) == p] for p in range(n + 1)]
    at = np.concatenate([(subsets[p][:, None] << n | subsets[q]).ravel()
                         for p, q in _blocks(n)[0]])
    pos = np.empty(4 ** n, dtype=np.intp)
    pos[at] = np.arange(4 ** n)
    return at >> n, at & ((1 << n) - 1), pos.reshape(1 << n, 1 << n)


def _merge_sign(n, a, b):
    """(-1)^#{x in a, y in b: y < x} (integer), the sign of sorting the indices of the
    mask a followed by those of the disjoint mask b; a and b may be arrays."""
    y = np.arange(n)[:, None]
    inv = np.sum(np.bitwise_count(a >> (y + 1)) * ((b >> y) & 1), axis=0)
    return 1 - 2 * (inv & 1)


def _position(n, I, J):
    """Layout position of theta_I ^ thetabar_J: the one check that index sequences
    from outside are strictly increasing within 0..n-1."""
    if not all(a < b for idx in (I, J) for a, b in zip([-1, *idx], [*idx, n])):
        raise DegreeOutOfRange(f"({tuple(I)}, {tuple(J)}) is not an increasing monomial "
                               f"for n={n}")
    return _index(n)[2][sum(1 << i for i in I), sum(1 << j for j in J)]


@lru_cache(maxsize=None)
def _conj_perm(n):
    """Whole-vector conjugation: the target index and sign (+-1.0) of every coefficient.
    conj(theta_I ^ thetabar_J) = (-1)^(pq) theta_J ^ thetabar_I."""
    I, J, pos = _index(n)
    return pos[J, I], np.where(np.bitwise_count(I) & np.bitwise_count(J) & 1, -1.0, 1.0)


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
def _wedge_arrays(n, p1, q1, p2, q2):
    """Sparse table for Lambda^{p1,q1} x Lambda^{p2,q2} -> Lambda^{p1+p2,q1+q2}: the
    index arrays i1, i2, sign, target_index in (i1, i2) order, None if empty.

    The sign combines the two merge signs with (-1)^(p2*q1) for moving the
    second holomorphic group across the first antiholomorphic one.
    """
    if p1 + p2 > n or q1 + q2 > n:
        return None
    I, J, pos = _index(n)
    a, b = _slice(n, (p1, q1)), _slice(n, (p2, q2))
    i1, i2 = np.nonzero(((I[a, None] & I[b]) | (J[a, None] & J[b])) == 0)
    if not i1.size:
        return None
    I1, J1, I2, J2 = I[a][i1], J[a][i1], I[b][i2], J[b][i2]
    sign = _merge_sign(n, I1, I2) * _merge_sign(n, J1, J2) * (-1) ** (p2 * q1)
    return i1, i2, sign, pos[I1 | I2, J1 | J2] - _slice(n, (p1 + p2, q1 + q2)).start


@lru_cache(maxsize=None)
def _derivation_table(n, g, K, L):
    """Entries of theta_K^thetabar_L ^ iota_g on the whole algebra (K, L masks): read-only
    layout positions row and col and signs, by column, each column (source monomial)
    holding at most one entry.

    iota_g removes generator g (bit g of the 2n-bit mask I | J << n) from position m
    with sign (-1)^m, the merge sign of g before the rest; the wedge with
    theta_K^thetabar_L then has the signs of _wedge_arrays.
    """
    I, J, pos = _index(n)
    gens = I | J << n
    rest = gens ^ (1 << g)  # the sources holding g whose rest is disjoint from (K, L)
    col = np.flatnonzero((gens >> g & 1 == 1) & (rest & (K | L << n) == 0))
    rest = rest[col]
    I, J = rest & ((1 << n) - 1), rest >> n
    sign = _merge_sign(2 * n, 1 << g, rest) * _merge_sign(n, K, I) * _merge_sign(n, L, J) \
        * np.where(np.bitwise_count(I) * L.bit_count() & 1, -1, 1)
    arrays = pos[I | K, J | L], col, sign
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _conj_table(n, p, q):
    """The sign and the (q,p) indices of conj on the (p,q) block, read off _conj_perm."""
    perm = _conj_perm(n)[0][_slice(n, (p, q))] - _slice(n, (q, p)).start
    perm.setflags(write=False)
    return (-1) ** (p * q), perm


def _theta_coefficient(n):
    """Coefficient of theta_{1..n}^thetabar_{1..n} inside the unit volume Theta."""
    return (1j) ** n * (-1) ** (n * (n - 1) // 2)


@lru_cache(maxsize=None)
def _complement(n, p, q):
    """Metric-free pairing of Lambda^{p,q} with Lambda^{n-p,n-q}: monomial i wedges to a
    nonzero top form only with its complement (the indices missing from I and J), the
    one term of row i of the wedge table.  Returns the complement indices and the units
    (+-1 or +-i) integral(monomial ^ complement)."""
    _, comp, top, _ = _wedge_arrays(n, p, q, n - p, n - q)
    return comp, top.astype(complex) / _theta_coefficient(n)


def conj_block_matrix(n, p, q):
    """Signed permutation M with conj of a (p,q) block vector v being M conj(v) at (q,p)."""
    sign, perm = _conj_table(n, p, q)
    m = np.zeros((dim_pq(n, q, p), dim_pq(n, p, q)))
    m[perm, range(len(perm))] = sign
    return m


class Form:
    """Invariant complex form: one read-only coefficient vector in _layout order, or a
    stack of them on leading axes (vec[i] is form i).

    A block with no nonzero coefficient in any form of the stack reads +0 and is left
    out of bidegrees(); the nonzero blocks are found once, when the form is made.  A
    form of a stack keeps its signed zeros in a block that another form fills.
    """

    __slots__ = ("n", "vec", "_nonzero", "_support", "_memo")

    def __init__(self, n, vec=None):
        """The form (or stack) with coefficient vector(s) vec, taken over and made
        read-only, or, when a block must be zeroed, copied and left as it is; zero when
        vec is None."""
        self.n = n = int(n)
        if vec is None:
            vec, nonzero = np.zeros(4 ** n, dtype=complex), np.zeros((n + 1) ** 2, dtype=bool)
        else:
            # a block of a stack is nonzero where any of its forms fills it; one form
            # keeps the cheapest calls, as a Form is built at every difference probe
            starts = _blocks(n)[1]
            if vec.ndim == 1:
                nonzero = np.logical_or.reduceat(vec, starts)
            else:
                nonzero = np.logical_or.reduceat(vec, starts, axis=-1).reshape(
                    -1, starts.size).any(axis=0)
            if not all(nonzero.tolist()):
                # zero blocks read +0, no -0
                vec = np.where(_absent(n, nonzero.tobytes()), 0j, vec)
        vec.setflags(write=False)
        self.vec, self._nonzero, self._support = vec, nonzero, None

    @classmethod
    def at(cls, n, key, vec):
        """The form with coefficients vec at a degree k or a bidegree (p, q), zero
        elsewhere; rows of vec on leading axes give a stack."""
        sl = _slice(n, key)
        vec = np.asarray(vec, dtype=complex)
        if vec.shape[-1:] != (sl.stop - sl.start,):
            raise DimensionMismatch(f"{key!r} takes rows of {sl.stop - sl.start} numbers, "
                                    f"not an array of shape {vec.shape}")
        full = np.zeros(vec.shape[:-1] + (4 ** n,), dtype=complex)
        full[..., sl] = vec
        return cls(n, full)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, I, J, coeff=1.0):
        vec = np.zeros(4 ** n, dtype=complex)
        vec[_position(n, I, J)] = coeff
        return cls(n, vec)

    @classmethod
    def scalar(cls, n, value):
        return cls.at(n, (0, 0), [value])

    def part(self, key):
        """Coefficients at a degree k or a bidegree (p, q), as a read-only view."""
        return self.vec[..., _slice(self.n, key)]

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
        out.real[..., perm], out.imag[..., perm] = sign * self.vec.real, -sign * self.vec.imag
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

    @memo
    def wedge_matrix(self, p, q):
        """Matrix of (self ^ .) from Lambda^{p,q}; the form must be homogeneous.  A
        stack gives its forms' matrices on its leading axes."""
        support, lead = self.bidegrees(), self.vec.shape[:-1]
        if len(support) > 1:
            raise DimensionMismatch("wedge_matrix expects a homogeneous form")
        if not support:
            return np.zeros(lead + (0, dim_pq(self.n, p, q)), dtype=complex)
        (a, b), = support
        mat = np.zeros(lead + (dim_pq(self.n, p + a, q + b), dim_pq(self.n, p, q)),
                       dtype=complex)
        table = _wedge_arrays(self.n, a, b, p, q)
        if table is not None:
            # each (target, source) cell takes exactly one term, so placing it gives the
            # bits of a sum onto zeros, np.add.at's; + 0.0 turns a -0 into +0 as that sum does
            i1, i2, sign, t = table
            mat.reshape(lead + (-1,))[..., t * dim_pq(self.n, p, q) + i2] = \
                sign * self.part((a, b))[..., i1] + 0.0
        return mat

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
        """The form of a to_entries list; an entry's p and q, when given, must be the
        lengths of its I and J."""
        out = np.zeros(4 ** n, dtype=complex)
        for e in entries:
            I, J = [int(i) - 1 for i in e["I"]], [int(j) - 1 for j in e["J"]]
            if (e.get("p", len(I)), e.get("q", len(J))) != (len(I), len(J)):
                raise DegreeOutOfRange(f"entry {e!r} does not have the bidegree "
                                       f"({len(I)}, {len(J)}) of its indices")
            out[_position(n, I, J)] += complex(e["re"], e.get("im", 0.0))
        return cls(n, out)

    def __repr__(self):
        keys = ", ".join(f"({p},{q})" for p, q in sorted(self.bidegrees()))
        return f"Form(n={self.n}, blocks=[{keys}])"


def wedge(u, v):
    """Wedge product of two forms, canonically reordered with signs: one np.add.at per
    pair of nonzero blocks, each product formed from real and imaginary parts as the
    complex scalar product is (numpy's array kernel for complex a * b rounds otherwise).
    u may be a stack, each of whose forms then wedges with v.
    """
    if u.n != v.n:
        raise DimensionMismatch("forms over different coframes")
    n, lay = u.n, _layout(u.n)
    out = np.zeros(u.vec.shape[:-1] + (4 ** n,), dtype=complex)
    for p1, q1 in u.bidegrees():
        a = u.part((p1, q1))
        for p2, q2 in v.bidegrees():
            table = _wedge_arrays(n, p1, q1, p2, q2)
            if table is None:
                continue
            i1, i2, sign, t = table
            x, y = sign * a.take(i1, axis=-1), v.part((p2, q2))[i2]
            prod = np.empty(x.shape, dtype=complex)
            re, im = prod.real, prod.imag
            np.subtract(np.multiply(x.real, y.real, out=re), x.imag * y.imag, out=re)
            np.add(np.multiply(x.real, y.imag, out=im), x.imag * y.real, out=im)
            # each form's terms add onto its own targets in table order
            np.add.at(out[..., lay[(p1 + p2, q1 + q2)]], (..., t), prod)
    return Form(n, out)


@memo
def _product(u, k):
    """u^k undivided, kept on u: u^(k-1) ^ u, from u^1 = u with -0 read as +0 (the bits
    of 1 ^ u)."""
    if k < 2:
        return Form(u.n, u.vec + 0.0) if k else Form.scalar(u.n, 1.0)
    return wedge(_product(u, k - 1), u)


def wedge_power(u, k):
    """u^k / k! for a form of even degree."""
    return _product(u, k) / math.factorial(k)


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
        # d of the 2n generators, theta^1..theta^n then their conjugates, as the terms
        # (g, K, L, coeff) of coeff theta_K^thetabar_L (K, L masks) in d(generator g)
        vecs = np.stack([f.vec for f in d_one + [f.conj() for f in d_one]])
        g, at = np.nonzero(vecs)
        I, J, _ = _index(n)
        self._d_terms = list(zip(g.tolist(), I[at].tolist(), J[at].tolist(), vecs[g, at]))
        # d is the odd derivation sum_g d(gen_g) ^ iota_g over the 2n generators: the
        # terms of one entry add up onto +0 in generator order, the Leibniz order (the
        # order np.add.at takes them in), and entries summing to 0 are left out
        parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
        for g, K, L, coeff in self._d_terms:
            row, col, sign = _derivation_table(n, g, K, L)
            parts.append((row, col, sign * coeff))
        rows, cols, vals = map(np.concatenate, zip(*parts))
        cells, slot = np.unique(cols * 4 ** n + rows, return_inverse=True)
        sums = np.zeros(cells.size, dtype=complex)
        np.add.at(sums, slot, vals)
        keep = sums != 0
        self.d_sparse = cells[keep] % 4 ** n, cells[keep] // 4 ** n, sums[keep]
        for arr in self.d_sparse:
            arr.setflags(write=False)

    # ----- differential ---------------------------------------------------

    def d_monomial(self, p, q, idx):
        """d of the idx-th monomial of Lambda^{p,q}: one column of d_blocks."""
        return self.d_form(Form.at(self.n, (p, q), np.eye(dim_pq(self.n, p, q))[idx]))

    @memo
    def d_blocks(self, p, q):
        """The dense matrix blocks of d restricted to Lambda^{p,q}, keyed by target, built
        on the first request, read-only: the entries of the source's columns placed into
        one zero matrix over the rows of its targets, each block a slice of it."""
        n, lay, (rows, cols, vals) = self.n, _layout(self.n), self.d_sparse
        src = _slice(n, (p, q))
        lo, hi = cols.searchsorted((src.start, src.stop)).tolist()
        if lo == hi:
            return {}
        keys, _, block = _blocks(n)
        rows = rows[lo:hi]
        # the targets (degree p + q + 1) lie in one span of the layout, whose blocks
        # with no entry are left out
        found = [(keys[b], lay[keys[b]]) for b in np.bincount(block[rows]).nonzero()[0].tolist()]
        top = found[0][1].start
        mat = np.zeros((found[-1][1].stop - top, src.stop - src.start), dtype=complex)
        mat[rows - top, cols[lo:hi] - src.start] = vals[lo:hi]
        mat.setflags(write=False)
        return {tgt: mat[sl.start - top:sl.stop - top] for tgt, sl in found}

    def diff(self, which, key):
        """Matrix of d on total degree key, or of del / dbar (a component of d) on bidegree key."""
        if which == "d":
            return self.d_total(key)
        tgt = neighbor(which, key, 1)
        mat = self.d_blocks(*key).get(tgt)
        return np.zeros((dim_pq(self.n, *tgt), dim_pq(self.n, *key)), dtype=complex) \
            if mat is None else mat

    def dim(self, which, key):
        """Dimension of the space at key in the complex of which; 0 outside it."""
        if which == "d":
            return self.dim_total(key) if 0 <= key <= 2 * self.n else 0
        return dim_pq(self.n, *key)

    @memo
    def bases(self, which, key):
        """(image, kernel): orthonormal bases, as columns, of the image of diff(which, key)
        in the space at neighbor(which, key, 1) and of its kernel in the space at key,
        from one SVD, decided once per algebra, as both hold at every metric.  The image
        takes the singular vectors above RANK_RTOL * sigma_max.  A singular value within
        a factor 100 of the cut refuses the model (ModelInvalid): below the cut rounding
        may decide the count, above it the Green operator would carry 1 / sigma^2."""
        mat = self.diff(which, key) if self.dim(which, key) else \
            np.zeros((self.dim(which, neighbor(which, key, 1)), 0))
        # zero rows and columns add only zero singular values; dropping them makes the
        # n = 6 SVDs ~20x cheaper
        rows, cols = np.any(mat, axis=1), np.any(mat, axis=0)
        u, s, vh = np.linalg.svd(mat[rows][:, cols])
        top = s.max(initial=0.0)
        near = s[(s > RANK_RTOL * top / 100) & (s < RANK_RTOL * top * 100)]
        if near.size:
            raise ModelInvalid(f"{which} on {'degree' if which == 'd' else 'bidegree'} {key} "
                               f"has a singular value {near[0] / top:.3e} times its largest, "
                               f"within a factor 100 of the rank cut {RANK_RTOL:g}")
        rank, zero = int(np.count_nonzero(s > RANK_RTOL * top)), int(np.sum(~cols))
        image = np.zeros((len(rows), rank), dtype=complex)
        image[rows] = u[:, :rank]
        # the unit vectors of the zero columns, then the null right singular vectors
        kernel = np.zeros((len(cols), len(cols) - rank), dtype=complex)
        kernel[~cols, np.arange(zero)] = 1.0
        kernel[cols, zero:] = vh[rank:].conj().T
        for arr in (image, kernel):
            arr.setflags(write=False)
        return image, kernel

    def harmonic_dim(self, which, key):
        """dim ker diff(key) - rank diff(prev), the columns of the two bases: the
        cohomology at key, which is the kernel dimension of the Laplacian there at
        every metric."""
        return self.bases(which, key)[1].shape[1] \
            - self.bases(which, neighbor(which, key, -1))[0].shape[1]

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

    @memo
    def d_total(self, k):
        """Matrix of d from total degree k to k + 1."""
        return self.total(self.d_blocks, k, k + 1)

    def total(self, op, k, k_out):
        """Matrix of the block map op from total degree k to total degree k_out.

        Blocks of op whose target has another total degree are left out; a
        k_out outside 0..2n gives a matrix with no rows.  Blocks stacked on a
        leading axis give the stack of total matrices.
        """
        rows = self.slices(k_out) if 0 <= k_out <= 2 * self.n else {}
        placed = [(rows[tgt], cols, blk) for pq, cols in self.slices(k).items()
                  for tgt, blk in op(*pq).items() if tgt in rows]
        lead = placed[0][2].shape[:-2] if placed else ()
        mat = np.zeros(lead + (self.dim_total(k_out) if rows else 0, self.dim_total(k)),
                       dtype=complex)
        for row, cols, blk in placed:
            mat[..., row, cols] = blk
        return mat

    def apply(self, op, form):
        """The block map op applied to a form: each nonzero block's nonzero images
        add, in layout order, into the slices of one output vector.  A stack, or a
        block map with stacked matrices, gives a stack; a vector of a stack goes
        through its own matrix-vector product (A @ x[..., None]), never one matrix
        product for the whole stack, whose sums round otherwise."""
        lay, lead, out = _layout(self.n), form.vec.shape[:-1], None
        for pq in form.bidegrees():
            vec = form.part(pq)
            for tgt, mat in op(*pq).items():
                if tgt in lay:
                    img = (mat @ vec[..., None])[..., 0] if lead else mat @ vec
                    if np.count_nonzero(img):
                        if out is None:
                            out = np.zeros(img.shape[:-1] + (4 ** self.n,), dtype=complex)
                        out[..., lay[tgt]] += img
        return Form(self.n, np.zeros(form.vec.shape, dtype=complex) if out is None else out)

    def d_form(self, form):
        return self.apply(self.d_blocks, form)

    def del_form(self, form):
        return self.apply(lambda p, q: {(p + 1, q): self.diff("del", (p, q))}, form)

    def dbar_form(self, form):
        return self.apply(lambda p, q: {(p, q + 1): self.diff("dbar", (p, q))}, form)

    # ----- integration ------------------------------------------------------

    @property
    def theta_coefficient(self):
        return _theta_coefficient(self.n)

    def theta_form(self):
        full = tuple(range(self.n))
        return Form.monomial(self.n, full, full, self.theta_coefficient)

    def integrate(self, form):
        """Integral against the unit mass of Theta (top component over Theta); a
        stack gives the array of its forms' integrals."""
        return form.part((self.n, self.n))[..., 0] / self.theta_coefficient
