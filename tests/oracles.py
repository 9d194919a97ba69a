"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: wedge products by permutation
parity over generator sequences, differentials by the Leibniz rule over
those sequences, the exterior index tables by loops over monomial tuples,
minimal-norm torsion by dense weighted least squares with pseudo-inverse
kernel deflation, the projector derivative by the textbook eigenpair
perturbation sum, and the finite-difference battery one row at a time, each
row on its own four stencil bundles.  None of it shares code paths with the
package internals it audits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from hermicone.exterior import Form, _basis, conj_block_matrix, dim_pq
from hermicone.functionals import direction_slice
from hermicone.hodge import harmonic_projector
from hermicone.metric import HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for
from hermicone.variation import (VariationCheck, default_step, laplacian_variation_matrix,
                                 var_codiff_matrix, var_harmonic_projector, var_star_matrix,
                                 var_trace_matrix)


# ----- symbol-sequence exterior algebra -------------------------------------------------
# a generator is an integer: i in [0, n) is theta^(i+1), n + i is thetabar^(i+1)


def _parity_sort(seq):
    """Sorted tuple and permutation parity; None when a generator repeats."""
    seq = list(seq)
    parity = 1
    for a in range(len(seq)):
        for b in range(len(seq) - 1 - a):
            if seq[b] > seq[b + 1]:
                seq[b], seq[b + 1] = seq[b + 1], seq[b]
                parity = -parity
            elif seq[b] == seq[b + 1]:
                return None, 0
    return tuple(seq), parity


def form_to_symbols(form):
    """Map a Form to {sorted generator tuple: coefficient}."""
    n = form.n
    out = {}
    for (p, q) in form.bidegrees():
        vec = form.part((p, q))
        for idx, (I, J) in enumerate(_basis(n, p, q)):
            if vec[idx] == 0:
                continue
            key = tuple(I) + tuple(n + j for j in J)
            out[key] = out.get(key, 0.0) + vec[idx]
    return {k: v for k, v in out.items() if v != 0}


def symbols_to_form(n, table):
    out = Form.zero(n)
    acc = {}
    for key, coeff in table.items():
        I = tuple(g for g in key if g < n)
        J = tuple(g - n for g in key if g >= n)
        pq = (len(I), len(J))
        vec = acc.setdefault(pq, np.zeros(dim_pq(n, *pq), dtype=complex))
        pos = list(_basis(n, *pq)).index((I, J))
        vec[pos] += coeff
    for pq, vec in acc.items():
        out = out + Form.at(n, pq, vec)
    return out


def naive_wedge(u, v):
    """Wedge by concatenation + bubble-sort parity, no sign tables."""
    n = u.n
    table = {}
    for ku, cu in form_to_symbols(u).items():
        for kv, cv in form_to_symbols(v).items():
            key, parity = _parity_sort(ku + kv)
            if key is None:
                continue
            table[key] = table.get(key, 0.0) + parity * cu * cv
    return symbols_to_form(n, table)


def naive_d(model, form):
    """Leibniz differential from the structure terms alone."""
    n = model.n
    d_gen = {g: {} for g in range(2 * n)}
    for t in model.terms:
        lookup = {"holo": (t.j - 1, t.k - 1), "mixed": (t.j - 1, n + t.k - 1),
                  "anti": (n + t.j - 1, n + t.k - 1)}
        pair = lookup[t.kind]
        key, parity = _parity_sort(pair)
        if key is None:
            continue
        tgt = d_gen[t.i - 1]
        tgt[key] = tgt.get(key, 0.0) + parity * t.coeff
        # the conjugate generator picks up the conjugated structure term
        cpair = tuple((g + n) % (2 * n) for g in pair)
        ckey, cparity = _parity_sort(cpair)
        ctgt = d_gen[n + t.i - 1]
        ctgt[ckey] = ctgt.get(ckey, 0.0) + cparity * np.conj(t.coeff)

    table = {}
    for key, coeff in form_to_symbols(form).items():
        for pos, gen in enumerate(key):
            sign = (-1) ** pos
            rest = key[:pos] + key[pos + 1:]
            for dkey, dcoeff in d_gen[gen].items():
                full, parity = _parity_sort(dkey + rest)
                if full is None:
                    continue
                table[full] = table.get(full, 0.0) + sign * parity * coeff * dcoeff
    return symbols_to_form(form.n, table)


# ----- loop references of the exterior index tables ---------------------------------------
# The per-monomial loops over index tuples that exterior's mask tables replaced.  Each
# returns what the table of the same name (with a leading underscore) in exterior
# returned when it was built by these loops.


@lru_cache(maxsize=None)
def loop_merge(a, b):
    """Sign of sorting the concatenation of two increasing index tuples, and the sorted
    tuple; None if they overlap."""
    if set(a) & set(b):
        return None
    inv = sum(1 for x in a for y in b if y < x)
    return (-1) ** inv, tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _basis_index(n, p, q):
    return {mono: i for i, mono in enumerate(_basis(n, p, q))}


def loop_wedge_arrays(n, p1, q1, p2, q2):
    if p1 + p2 > n or q1 + q2 > n:
        return None
    tgt = _basis_index(n, p1 + p2, q1 + q2)
    cross = (-1) ** (p2 * q1)
    out = []
    for i1, (I1, J1) in enumerate(_basis(n, p1, q1)):
        for i2, (I2, J2) in enumerate(_basis(n, p2, q2)):
            mi, mj = loop_merge(I1, I2), loop_merge(J1, J2)
            if mi is not None and mj is not None:
                out.append((i1, i2, mi[0] * mj[0] * cross, tgt[(mi[1], mj[1])]))
    return tuple(np.array(col, dtype=np.intp) for col in zip(*out)) if out else None


def loop_derivation_table(n, p, q, g, K, L):
    """The sources of Lambda^{p,q} in exterior._derivation_table, with K and L index
    tuples: the target bidegree and (row, col, sign) arrays within the two blocks,
    row-major; None if there are none."""
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
            mi, mj = loop_merge(K, rest[0]), loop_merge(L, rest[1])
            if mi is not None and mj is not None:
                out.append((tgt[(mi[1], mj[1])], src,
                            (-1) ** (m + rp * len(L)) * mi[0] * mj[0]))
    if not out:
        return None
    return ((rp + len(K), rq + len(L)), *map(np.array, zip(*sorted(out))))


def loop_conj_table(n, p, q):
    # conj(theta_I ^ thetabar_J) = (-1)^(pq) theta_J ^ thetabar_I
    tgt = _basis_index(n, q, p)
    perm = tuple(tgt[(J, I)] for (I, J) in _basis(n, p, q))
    return (-1) ** (p * q), perm


def loop_complement(n, p, q):
    full, tgt = range(n), _basis_index(n, n - p, n - q)
    comp, top = [], []
    for I, J in _basis(n, p, q):
        Ic, Jc = tuple(i for i in full if i not in I), tuple(j for j in full if j not in J)
        comp.append(tgt[(Ic, Jc)])
        top.append(loop_merge(I, Ic)[0] * loop_merge(J, Jc)[0] * (-1) ** ((n - p) * q))
    theta = (1j) ** n * (-1) ** (n * (n - 1) // 2)
    return np.array(comp, dtype=np.intp), np.array(top, dtype=complex) / theta


# ----- dense minimal-norm least squares --------------------------------------------------


def _sqrt_factor(gram, det):
    """C with C^H C equal to the L2 Gram (pointwise Gram times det H)."""
    g = 0.5 * (gram + gram.conj().T) * det
    w, v = np.linalg.eigh(g)
    if w.min(initial=1.0) <= 0:
        raise ValueError("Gram factor is not positive definite")
    return (v * np.sqrt(w)) @ v.conj().T


def weighted_minnorm(matrix, rhs, gram_src, gram_tgt, det, rcond=1e-10):
    """Minimal-G-norm least squares solution of matrix @ x ~ rhs.

    The pseudo-inverse applied in whitened coordinates performs both the
    projection of rhs onto the image and the deflation of ker(matrix).
    """
    c_src = _sqrt_factor(gram_src, det)
    c_tgt = _sqrt_factor(gram_tgt, det)
    white = c_tgt @ matrix @ np.linalg.inv(c_src)
    y = np.linalg.pinv(white, rcond=rcond) @ (c_tgt @ rhs)
    return np.linalg.inv(c_src) @ y


def oracle_rho(bundle, rcond=1e-10):
    """Independent minimal 2-form solving d(rho) ~ del(omega)."""
    alg = bundle.alg
    b = alg.del_form(bundle.omega).part(3)
    return weighted_minnorm(alg.d_total(2), b, bundle.gram_total(2),
                            bundle.gram_total(3), bundle.det_h, rcond)


def oracle_gamma(bundle, rcond=1e-10):
    """Independent minimal (n-1,n-2)-form solving dbar(Gamma) ~ omega_(n-1)."""
    alg, n = bundle.alg, bundle.n
    b = bundle.omega_power(n - 1).part((n - 1, n - 1))
    return weighted_minnorm(alg.diff("dbar", (n - 1, n - 2)), b,
                            bundle.gram(n - 1, n - 2),
                            bundle.gram(n - 1, n - 1), bundle.det_h, rcond)


# ----- eigenpair perturbation oracle ------------------------------------------------------


def projector_perturbation(spectral, dlap, tol=1e-9):
    """First-order kernel projector change from the eigenpair sum.

    dP = sum over kernel i and non-kernel j of the cross terms
    -(v_i <v_i, dLap v_j> v_j^H G)/lambda_j and the adjoint partner, the
    classical degenerate perturbation formula assembled pair by pair.
    """
    eigs = np.asarray(spectral.eigenvalues, dtype=float)
    thr = tol * max(1.0, float(eigs.max(initial=0.0)))
    ker = np.where(eigs < thr)[0]
    rest = np.where(eigs >= thr)[0]
    g = spectral.gram
    v = spectral.vectors
    out = np.zeros_like(dlap)
    for i in ker:
        vi = v[:, i]
        for j in rest:
            vj = v[:, j]
            coupling = vi.conj() @ (g @ (dlap @ vj))
            out += -np.outer(vi, vj.conj() @ g) * (coupling / eigs[j])
    # adjoint partner: dP must be G-self-adjoint, add the mirrored sum
    mirror = np.zeros_like(dlap)
    for i in ker:
        vi = v[:, i]
        for j in rest:
            vj = v[:, j]
            coupling = vj.conj() @ (g @ (dlap @ vi))
            mirror += -np.outer(vj, vi.conj() @ g) * (coupling / eigs[j])
    return out + mirror


# ----- per-row finite-difference battery ----------------------------------------------------


def loop_fd(func, step):
    """Richardson-extrapolated central difference of func at 0: one value, four calls."""
    d1 = (func(step) - func(-step)) * (0.5 / step)
    d2 = (func(0.5 * step) - func(-0.5 * step)) * (1.0 / step)
    return (4.0 / 3.0) * d2 - (1.0 / 3.0) * d1


def _loop_fd_row(bundle, gamma, step, extract):
    """loop_fd of extract(bundle at omega + t gamma), four fresh bundles for one row."""
    alg, cone = bundle.alg, direction_slice("metric")
    base = cone.datum(bundle.metric.form())
    return loop_fd(lambda t: extract(bundle_for_algebra(
        alg, cone.metric(alg, base + t * gamma), bundle.tol)), step)


def _loop_check(rows, name, detail, got, want, threshold):
    got, want = np.asarray(got), np.asarray(want)

    def amax(x):
        return float(np.max(np.abs(x))) if x.size else 0.0

    rows.append(VariationCheck(name, detail, amax(got), amax(want), amax(got - want),
                               threshold))


def loop_variation_battery(model, seed=0, tuples=20):
    """variation_battery's rows, each FD row differenced on its own four bundles."""
    alg = algebra_for(model)
    n = alg.n
    rows = []
    for idx in range(tuples):
        rng = np.random.default_rng(seed + idx)
        met = random_metric(n, rng)
        b = bundle_for_algebra(alg, met)
        gm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        hm = 0.5 * (gm + gm.conj().T)
        gamma = HermitianMetric(hm).form()
        omega = b.omega
        step = default_step(met)
        p = int(rng.integers(0, n + 1))
        q = int(rng.integers(0, n + 1))
        k = p + q
        tag = f"tuple {idx} (p,q)=({p},{q})"

        def fd(extract):
            return _loop_fd_row(b, gamma, step, extract)

        # every row at the battery's threshold but the two exact oracle rows
        fd_row, oracle_row = 1e-5, 1e-6
        _loop_check(rows, "star", tag, var_star_matrix(b, gamma, p, q),
                    fd(lambda bb: bb.star_block(p, q)), fd_row)
        _loop_check(rows, "trace", tag, var_trace_matrix(b, gamma, p, q),
                    fd(lambda bb: bb.trace_block(p, q)), fd_row)
        comm = b.commutator(gamma, p, q)
        g = b.gram(p, q)
        _loop_check(rows, "gram", tag,
                    g @ (comm - np.trace(b.h_inv @ hm) * np.eye(len(g))),
                    fd(lambda bb: bb.gram(p, q)), fd_row)
        complexes = (("del", (p, q)), ("dbar", (p, q)), ("d", k))
        for which, key in complexes:
            _loop_check(rows, f"{which}_star", tag, var_codiff_matrix(b, gamma, which, key),
                        fd(lambda bb: bb.codiff(which, key)), fd_row)
        for which, key in complexes:
            _loop_check(rows, f"laplacian_{which}", tag,
                        laplacian_variation_matrix(b, gamma, which, key),
                        fd(lambda bb: bb.laplacian(which, key)), fd_row)

        _loop_check(rows, "commutator_selfadjoint", tag, g @ comm, comm.conj().T @ g, fd_row)
        _loop_check(rows, "commutator_omega", tag, b.commutator(omega, p, q),
                    (n - p - q) * np.eye(dim_pq(n, p, q), dtype=complex), fd_row)
        if q >= 1:
            mirrored = conj_block_matrix(n, q - 1, p) \
                @ var_codiff_matrix(b, gamma, "del", (q, p)).conj() @ conj_block_matrix(n, p, q)
            _loop_check(rows, "conjugation_symmetry", tag,
                        var_codiff_matrix(b, gamma, "dbar", (p, q)), mirrored, fd_row)
        _loop_check(rows, "omega_scaling_star", tag, var_star_matrix(b, omega, p, q),
                    (n - k) * b.star_block(p, q), fd_row)
        _loop_check(rows, "omega_scaling_d_star", tag, var_codiff_matrix(b, omega, "d", k),
                    -b.codiff("d", k), fd_row)
        _loop_check(rows, "omega_scaling_laplacian", tag,
                    laplacian_variation_matrix(b, omega, "d", k), -b.laplacian("d", k), fd_row)

        pv = var_harmonic_projector(b, gamma, "d", k)
        fd_proj = fd(lambda bb: harmonic_projector(bb, "d", k))
        _loop_check(rows, "projector", tag, pv.derivative, fd_proj, fd_row)
        dimk = alg.dim(k)
        if dimk:
            v = rng.standard_normal(dimk) + 1j * rng.standard_normal(dimk)
            v0 = v - harmonic_projector(b, "d", k) @ v
            _loop_check(rows, "projector_deflated", tag, pv.image_part @ v0, fd_proj @ v0,
                        fd_row)
            _loop_check(rows, "projector_oracle", tag, pv.image_part @ v0,
                        pv.derivative @ v0, oracle_row)
        pv_omega = var_harmonic_projector(b, omega, "d", k)
        _loop_check(rows, "omega_scaling_projector", tag, pv_omega.derivative,
                    np.zeros_like(pv_omega.derivative), oracle_row)
    return rows
