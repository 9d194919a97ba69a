"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: wedge products by permutation
parity over generator sequences, differentials by the Leibniz rule over
those sequences, minimal-norm torsion by dense weighted least squares
with pseudo-inverse kernel deflation, and the projector derivative by the
textbook eigenpair perturbation sum.  None of it shares code paths with
the package internals it audits.
"""

from __future__ import annotations

import numpy as np

from hermicone.exterior import Form, _basis, dim_pq


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
