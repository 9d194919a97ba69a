"""Stacked variation passes: each direction gets the bits of its own pass.

The oracle below is one-direction code with the stacked pass's formulas: one
variation per form of the stack, wedge matrices summed by np.add.at, total matrices
placed block by block, and the volume coefficient divided as a Python complex.
"""

import itertools
import re

import numpy as np
import pytest

import hermicone.variation as variation
from hermicone.exterior import (Form, _conj_perm, _wedge_arrays, dim_pq, memo, neighbor,
                                random_form, wedge, wedge_power)
from hermicone.functionals import energy, normalization_integral
from hermicone.hodge import TORSIONS, decomposition, green_operator, torsion
from hermicone.metric import DEFAULT_TOL, HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, make_model
from hermicone.optimizer import _Objective, _random_feasible, constraint_basis, descend
from hermicone.variation import Direction, FunctionalVariation, first_variation, make_direction

MODELS = {name: catalog(name) for name in ("torus2", "torus3", "kodaira_thurston", "iwasawa")}
# n = 4, where the volume coefficient divides by n - 1 = 3
MODELS["iwasawa_x_t1"] = make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)])
MODELS["kt_x_t2"] = make_model("kt_x_t2", 4, [(2, "mixed", 1, 1, 0.75)])
# every functional whose cone holds a positive point on the model
CASES = [(name, fn) for name in ("torus2", "torus3") for fn in ("F", "F_tilde", "G", "H")] \
    + [("kodaira_thurston", fn) for fn in ("F", "F_tilde", "H")] \
    + [("kt_x_t2", fn) for fn in ("F", "F_tilde", "H")] \
    + [("iwasawa", "G"), ("iwasawa_x_t1", "G")]


# ----- the one-direction oracle -------------------------------------------------------


def _wedge_matrix_1(alg, form, p, q):
    (a, b), = form.bidegrees()
    v = form.part((a, b))
    mat = np.zeros((dim_pq(alg.n, p + a, q + b), dim_pq(alg.n, p, q)), dtype=complex)
    table = _wedge_arrays(alg.n, a, b, p, q)
    if table is not None:
        i1, i2, sign, t = table
        np.add.at(mat, (t, i2), sign * v[i1])
    return mat


def _total_1(alg, blocks, k):
    dim = alg.dim(k)
    mat = np.zeros((dim, dim), dtype=complex)
    for pq, sl in alg.slices(k).items():
        mat[sl, sl] = blocks(*pq)
    return mat


def _commutator_1(b, gamma, p, q):
    n, alg = b.n, b.alg
    dim = dim_pq(n, p, q)
    out = np.zeros((dim, dim), dtype=complex)
    if p + 1 <= n and q + 1 <= n:
        out += b.trace_block(p + 1, q + 1) @ _wedge_matrix_1(alg, gamma, p, q)
    if p >= 1 and q >= 1:
        out -= _wedge_matrix_1(alg, gamma, p - 1, q - 1) @ b.trace_block(p, q)
    return out


def _on_complex_1(block, b, gamma, which, key):
    if which != "d":
        return block(b, gamma, *key)
    return _total_1(b.alg, lambda p, q: block(b, gamma, p, q), key)


def _metric_direction_of_volume_1(b, direction_form):
    n = b.n
    starred = Form.at(n, (1, 1), b.star(direction_form).part((1, 1)))
    coef = complex(b.trace_contract(starred).part((0, 0))[0])
    return (coef / (n - 1)) * b.omega - starred


def _gram_norm_1(gram, vec):
    return float(np.sqrt(max((vec.conj() @ (gram @ vec)).real, 0.0)))


def _torsion_at_1(b, kind):
    alg = b.alg
    report = torsion(b, kind)
    which, key = TORSIONS[kind].space(b.n)
    prev = neighbor(which, key, -1)
    tors_vec = report.torsion.part(prev)
    gram = b.gram_total(prev)
    det = b.det_h
    dec = decomposition(b, which, key)
    codiff = np.linalg.solve(gram, alg.diff(which, prev).conj().T @ b.gram_total(key))
    green_prev = green_operator(b, which, prev)
    omega_src = report.source.part(key)
    ker_rest, im_rest = omega_src - dec.kernel @ omega_src, omega_src - dec.image @ omega_src
    tors_norm = float(np.sqrt(max(report.norm_sq, 0.0)))
    types = [(p, q, sl, b.gram(p, q)) for (p, q), sl in alg.slices(prev).items()]

    def at(direction):
        if direction.kind == "volume":
            metric_dir = _metric_direction_of_volume_1(b, direction.form)
            src_dir = direction.form
        else:
            metric_dir, src_dir = direction.form, alg.del_form(direction.form)
        src_vec = src_dir.part(key)
        eta = green_prev @ (codiff @ (dec.image @ src_vec))
        comm = _on_complex_1(_commutator_1, b, metric_dir, which, prev)
        terms = {}
        total = 0.0 + 0.0j
        second_full = eta + comm @ tors_vec
        for p, q, sl, g in types:
            first = (tors_vec[sl].conj() @ (g @ eta[sl])) * det
            second = (second_full[sl].conj() @ (g @ tors_vec[sl])) * det
            terms[f"eta_{kind}_{p}{q}"] = float(first.real)
            terms[f"{kind}_eta_comm_{p}{q}"] = float(second.real)
            total += first + second
        comm_key = _on_complex_1(_commutator_1, b, metric_dir, which, key)
        a_vec = dec.image @ (comm_key @ im_rest) - dec.kernel @ (comm_key @ ker_rest)
        lift = green_prev @ (codiff @ a_vec)
        proj_term = 2.0 * tors_norm * (_gram_norm_1(gram, lift) * np.sqrt(det))
        pairing = float(2.0 * (tors_vec.conj() @ (gram @ lift)).real * det)
        terms["projector_term"] = float(proj_term)
        terms["projector_pairing_signed"] = pairing
        terms["projector_source_norm"] = float(
            _gram_norm_1(b.gram_total(key), a_vec) * np.sqrt(det))
        return FunctionalVariation(
            kind="F" if kind == "rho" else "G",
            value=float(total.real + proj_term),
            derivative=float(total.real + pairing),
            terms=terms,
            imag_residual=float(abs(total.imag)),
        )

    return at, report


def _H_at_1(b, gamma_bundle):
    alg, n = b.alg, b.n
    u_bar = b.trace_contract(alg.dbar_form(b.omega))
    del_omega = alg.del_form(b.omega)
    weight = gamma_bundle.omega_power(n - 1)

    def mult_adjoint(eta, form):
        def block(p, q):
            src = (p - 1, q - 1)
            if dim_pq(n, *src) == 0:
                return {src: np.zeros((0, dim_pq(n, p, q)), dtype=complex)}
            mat = _wedge_matrix_1(alg, eta, *src)
            return {src: b.gram_inv(*src) @ (mat.conj().T @ b.gram(p, q))}
        return alg.apply(block, form)

    def at(direction):
        eta = direction.form
        t1_form = b.trace_contract(alg.del_form(eta))
        t1 = 2.0 * (1j * alg.integrate(wedge(wedge(t1_form, u_bar), weight))).real
        t2_form = mult_adjoint(eta, del_omega)
        t2_part = Form.at(n, (1, 0), t2_form.part((1, 0)))
        t2 = 2.0 * (1j * alg.integrate(wedge(wedge(t2_part, u_bar), weight))).real
        return FunctionalVariation(
            kind="H", value=float(t1 - t2), derivative=float(t1 - t2),
            terms={"trace_of_derivative": float(t1), "adjoint_of_direction": float(t2)},
            imag_residual=0.0)

    return at


def _F_tilde_at_1(b, nu, var_f, report):
    alg, n = b.alg, b.n
    f_val = float(report.norm_sq)
    denom = normalization_integral(b, nu)
    nu_pow = wedge_power(nu.form(), n - 1)

    def at(direction):
        base = var_f(direction)
        dir_int = (alg.integrate(wedge(direction.form, nu_pow))).real

        def quotient(d_f):
            return float((d_f - n * (dir_int / denom) * f_val) / denom ** n)

        terms = dict(base.terms)
        terms.update({"unnormalized": base.value, "normalization": float(denom),
                      "direction_integral": float(dir_int)})
        return FunctionalVariation(kind="F_tilde", value=quotient(base.value),
                                   derivative=quotient(base.derivative), terms=terms,
                                   imag_residual=base.imag_residual)

    return at


def _oracle_at(b, functional, nu, weight_bundle):
    kind = energy(functional).torsion
    if kind is None:
        return _H_at_1(b, weight_bundle)
    at, report = _torsion_at_1(b, kind)
    return _F_tilde_at_1(b, nu, at, report) if functional == "F_tilde" else at


# ----- cases ------------------------------------------------------------------------


def _case(name, functional, seed):
    """(bundle, nu, weight bundle, the slice basis as one Direction) at a seeded
    random point of the functional's cone, with seeded random nu and weight metrics."""
    alg = algebra_for(MODELS[name])
    rng = np.random.default_rng(seed)
    spec = energy(functional)
    basis = constraint_basis(alg, spec.slice)
    nu = random_metric(alg.n, rng)
    weight = bundle_for_algebra(alg, random_metric(alg.n, rng))
    obj = _Objective(alg, basis, functional, nu, weight, DEFAULT_TOL, False)
    b = obj.at(_random_feasible(obj, basis, rng))
    return b, nu, weight, obj.directions


def _form_rows(stack):
    """The forms of a stacked Form, one Form each."""
    return [Form(stack.n, vec.copy()) for vec in stack.vec]


def _form_stack(forms):
    """One stacked Form of forms."""
    return Form(forms[0].n, np.stack([f.vec for f in forms]))


def _rows(direction):
    """The forms of a Direction stack, one Direction each."""
    return [Direction(direction.kind, form) for form in _form_rows(direction.form)]


def _stacked(dirs):
    """One Direction stacking the forms of one-form Directions."""
    return Direction(dirs[0].kind, _form_stack([d.form for d in dirs]))


def _bits(var):
    """The bytes of every field of one direction's variation."""
    fields = [var.kind, np.float64(var.derivative).tobytes(), np.float64(var.value).tobytes(),
              np.float64(var.imag_residual).tobytes()]
    return fields + [(k, np.float64(v).tobytes()) for k, v in var.terms.items()]


def _bits_each(var):
    """_bits of each direction of a stack's variation, in stack order."""
    return [_bits(FunctionalVariation(var.kind, var.value[i], var.derivative[i],
                                      {k: v[i] for k, v in var.terms.items()},
                                      var.imag_residual[i]))
            for i in range(len(var.derivative))]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,functional", CASES)
def test_stacked_pass_matches_the_one_direction_code_bit_for_bit(name, functional, seed):
    b, nu, weight, stack = _case(name, functional, seed)
    got = first_variation(b, functional, stack, nu, weight)
    oracle = _oracle_at(b, functional, nu, weight)
    assert _bits_each(got) == [_bits(oracle(d)) for d in _rows(stack)]


@pytest.mark.parametrize("name,functional", [("iwasawa", "G"), ("kodaira_thurston", "F_tilde"),
                                             ("iwasawa_x_t1", "G"),
                                             ("kodaira_thurston", "H")])
def test_a_direction_gets_the_same_bits_in_any_stack(name, functional, monkeypatch):
    b, nu, weight, stack = _case(name, functional, 0)

    def at(dirs):
        return first_variation(b, functional, dirs, nu, weight)

    want = _bits_each(at(stack))
    dirs = _rows(stack)
    assert _bits_each(at(_stacked(dirs[::-1]))) == want[::-1]
    half = len(dirs) // 2
    assert _bits_each(at(_stacked(dirs[:half]))) + _bits_each(at(_stacked(dirs[half:]))) == want
    assert [_bits(at(d)) for d in dirs] == want
    # budgets that admit one and two directions' matrices per chunk
    kind = energy(functional).torsion
    if kind is None:
        side = dim_pq(b.n, 2, 1)
    else:
        which, key = TORSIONS[kind].space(b.n)
        side = max(b.alg.dim(neighbor(which, key, s)) for s in (-1, 0, 1))
    for per_chunk in (1, 2):
        monkeypatch.setattr(variation, "DENSE_BUDGET", per_chunk * side ** 2)
        stack = _stacked(dirs)
        chunked = first_variation(b, functional, stack, nu, weight)
        assert len(stack.chunks(per_chunk)) == -(-len(dirs) // per_chunk)
        assert _bits_each(chunked) == want, per_chunk


@pytest.mark.parametrize("name", ["kodaira_thurston", "iwasawa", "iwasawa_x_t1"])
def test_laplacian_variation_of_a_stack_is_each_directions_bit_for_bit(name):
    # the bundle's laplacian sums a stack of codifferential variations by broadcasting
    alg = algebra_for(MODELS[name])
    rng = np.random.default_rng(6)
    b = bundle_for_algebra(alg, random_metric(alg.n, rng))
    stack = _form_stack([random_form(alg.n, [(1, 1)], rng, real=True) for _ in range(3)])
    keys = [(p, q) for p in range(alg.n + 1) for q in range(alg.n + 1)]
    cases = [("d", k) for k in range(2 * alg.n + 1)] \
        + [(which, pq) for which in ("del", "dbar") for pq in keys]
    for which, key in cases:
        got = variation.laplacian_variation_matrix(b, stack, which, key)
        want = [variation.laplacian_variation_matrix(b, one, which, key)
                for one in _form_rows(stack)]
        assert got.shape == (3,) + want[0].shape, (which, key)
        assert [row.tobytes() for row in got] == [w.tobytes() for w in want], (which, key)


# ----- vetting a stack ----------------------------------------------------------------


def _slice_forms(name, cone):
    """The forms of a cone's slice basis, one Form each: good directions that keep
    its constraint."""
    return _form_rows(constraint_basis(algebra_for(catalog(name)), cone).forms)


def _bad_form(bad):
    """One form that make_direction refuses as a metric direction keeping the
    pluriclosed constraint on Iwasawa, and the refusal's message."""
    if bad == "zero":
        return Form.zero(3), "zero"
    if bad == "non-real":
        return 1j * _slice_forms("iwasawa", "skt")[0], "not real"
    if bad == "off-type":
        return random_form(3, [(2, 1)], np.random.default_rng(0), real=True), r"a \(1,1\) form"
    # i theta^3 ^ thetabar^3 has del dbar equal to -theta^12 ^ thetabar^12
    return HermitianMetric(np.diag([0.0, 0.0, 1.0])).form(), "pluriclosed constraint"


@pytest.mark.parametrize("bad", ["zero", "non-real", "off-type", "constraint"])
def test_a_stack_with_one_bad_form_is_refused(bad):
    alg = algebra_for(catalog("iwasawa"))
    good = _slice_forms("iwasawa", "skt")
    form, message = _bad_form(bad)
    make_direction(alg, _form_stack(good), require="skt")
    with pytest.raises(variation.DirectionNotAdmissible, match=message):
        make_direction(alg, _form_stack(good[:2] + [form] + good[2:]), require="skt")


@pytest.mark.parametrize("bad", ["non-real", "constraint"])
def test_a_refusal_names_the_worst_residual_of_the_stack(bad):
    alg = algebra_for(catalog("iwasawa"))
    good = _slice_forms("iwasawa", "skt")
    form, message = _bad_form(bad)
    small, large = (1.0 + 1e-3j) * good[0] if bad == "non-real" else 0.1 * form, 10.0 * form
    worst = (large - large.conj()).max_abs() if bad == "non-real" else \
        alg.del_form(alg.dbar_form(0.5 * (large + large.conj()))).max_abs()
    # small is refused first in stack order; the message names large, furthest past its bound
    with pytest.raises(variation.DirectionNotAdmissible,
                       match=re.escape(f"{message} (residual {worst:.3e})")):
        make_direction(alg, _form_stack([good[1], small, good[2], large]), require="skt")


def test_an_empty_stack_is_refused():
    # zero requested work is never a pass
    alg = algebra_for(catalog("iwasawa"))
    with pytest.raises(variation.DirectionNotAdmissible, match="zero"):
        make_direction(alg, Form(3, np.zeros((0, 4 ** 3), dtype=complex)), kind="volume")


@pytest.mark.parametrize("name,kind", [("iwasawa", "metric"), ("iwasawa", "volume"),
                                       ("kt_x_t2", "metric"), ("iwasawa_x_t1", "volume")])
def test_a_good_stack_vets_each_form_to_the_bits_it_gets_alone(name, kind):
    alg = algebra_for(MODELS[name])
    n = alg.n
    p = 1 if kind == "metric" else n - 1
    rng = np.random.default_rng(7)
    forms = []
    for _ in range(5):
        # real up to a non-real part well within the tolerance, with signed zeros
        vec = random_form(n, [(p, p)], rng, real=True).vec \
            + 1e-12j * random_form(n, [(p, p)], rng).vec
        zeros = np.flatnonzero(vec)[::4]
        vec[zeros] = vec[_conj_perm(n)[0][zeros]] = complex(-0.0, -0.0)
        forms.append(Form(n, vec))
    stacked = make_direction(alg, _form_stack(forms), kind=kind).form.vec
    for row, form in zip(stacked, forms):
        assert row.tobytes() == make_direction(alg, form, kind=kind).form.vec.tobytes()


# ----- placement --------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_wedge_table_cell_takes_one_term_and_placement_is_add_at(n):
    rng = np.random.default_rng(n)
    for a, b, p, q in itertools.product(range(n + 1), repeat=4):
        table = _wedge_arrays(n, a, b, p, q)
        if table is None:
            continue
        i1, i2, sign, t = table
        cells = t * dim_pq(n, p, q) + i2
        assert np.unique(cells).size == cells.size, (a, b, p, q)
        # signed zeros in both parts, next to ordinary values
        dim = dim_pq(n, a, b)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        if dim > 1:
            v[::3] = complex(-0.0, 0.0)
        v.imag[1::4] = -0.0
        stack = Form.at(n, (a, b), np.stack([v, -v]))
        got = stack.wedge_matrix(p, q)
        for row, vec in zip(got, (v, -v)):
            want = np.zeros((dim_pq(n, p + a, q + b), dim_pq(n, p, q)), dtype=complex)
            np.add.at(want, (t, i2), sign * vec[i1])
            assert row.tobytes() == want.tobytes(), (a, b, p, q)


# ----- work done once -----------------------------------------------------------------


def test_descent_does_its_direction_only_work_once(monkeypatch):
    stacks, integrals = [], []
    build, real_wedge = Form.wedge_matrix.__wrapped__, variation.wedge

    def counting_build(form, p, q):
        if form.vec.ndim > 1:
            stacks.append((p, q))
        return build(form, p, q)

    def counting_wedge(u, v):
        if u.vec.ndim > 1 and u.bidegrees() == [(1, 1)]:
            integrals.append(1)
        return real_wedge(u, v)

    monkeypatch.setattr(Form, "wedge_matrix", memo(counting_build))
    monkeypatch.setattr(variation, "wedge", counting_wedge)
    trace = descend(catalog("kodaira_thurston"), "F_tilde", start="random", seed=8, steps=40,
                    max_step=0.05)
    assert len(trace.records) > 2  # more than one iteration reads the stack
    assert stacks and len(stacks) == len(set(stacks))
    assert len(integrals) == 1
