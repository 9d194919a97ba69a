"""Exterior algebra layer against the symbolic permutation oracle."""

import itertools

import numpy as np
import pytest

from hermicone.exterior import (
    ExteriorAlgebra,
    Form,
    _basis,
    _wedge_arrays,
    conj_block_matrix,
    dim_pq,
    random_form,
    wedge,
    wedge_power,
)
from hermicone.model import algebra_for, catalog, make_model

from .oracles import naive_d, naive_wedge


def _random_pq_form(n, p, q, rng):
    return random_form(n, [(p, q)], rng)


def test_dim_pq_binomials():
    # dim of (p,q) block is C(n,p) * C(n,q)
    assert dim_pq(3, 1, 1) == 9
    assert dim_pq(3, 2, 1) == 9
    assert dim_pq(3, 3, 3) == 1
    assert dim_pq(2, 1, 0) == 2
    assert dim_pq(2, 2, 2) == 1
    assert dim_pq(2, 3, 0) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_wedge_matches_oracle(n):
    rng = np.random.default_rng(7 + n)
    pairs = [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 1)), ((1, 1), (1, 1))]
    for (p1, q1), (p2, q2) in pairs:
        if p1 + p2 > n or q1 + q2 > n:
            continue
        u = _random_pq_form(n, p1, q1, rng)
        v = _random_pq_form(n, p2, q2, rng)
        got = wedge(u, v)
        want = naive_wedge(u, v)
        assert (got - want).max_abs() <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_wedge_graded_anticommutative(n):
    rng = np.random.default_rng(11)
    u = _random_pq_form(n, 1, 0, rng)
    v = _random_pq_form(n, 0, 1, rng)
    assert (wedge(u, v) + wedge(v, u)).max_abs() <= 1e-14
    w = _random_pq_form(n, 1, 1, rng)
    assert (wedge(u, w) - wedge(w, u)).max_abs() <= 1e-14


def test_wedge_associative():
    rng = np.random.default_rng(3)
    n = 3
    u = _random_pq_form(n, 1, 0, rng)
    v = _random_pq_form(n, 0, 1, rng)
    w = _random_pq_form(n, 1, 1, rng)
    left = wedge(wedge(u, v), w)
    right = wedge(u, wedge(v, w))
    assert (left - right).max_abs() <= 1e-13


def test_wedge_power_divides_factorial():
    rng = np.random.default_rng(5)
    n = 3
    u = _random_pq_form(n, 1, 1, rng)
    two = wedge_power(u, 2)
    direct = wedge(u, u) * 0.5
    assert (two - direct).max_abs() <= 1e-13
    assert wedge_power(u, 0).part((0, 0))[0] == 1.0


def test_conj_involution_and_sign():
    rng = np.random.default_rng(9)
    n = 3
    u = _random_pq_form(n, 2, 1, rng)
    back = u.conj().conj()
    assert (back - u).max_abs() == 0.0
    # conj commutes with wedge
    v = _random_pq_form(n, 0, 1, rng)
    lhs = wedge(u, v).conj()
    rhs = wedge(u.conj(), v.conj())
    assert (lhs - rhs).max_abs() <= 1e-13


@pytest.mark.parametrize("pq", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_conj_block_matrix_matches_form_conj(pq):
    p, q = pq
    n = 3
    rng = np.random.default_rng(13)
    u = _random_pq_form(n, p, q, rng)
    m = conj_block_matrix(n, p, q)
    got = m @ np.conj(u.part((p, q)))
    want = u.conj().part((q, p))
    assert np.max(np.abs(got - want)) == 0.0
    # inverse is the reverse-direction matrix
    m_back = conj_block_matrix(n, q, p)
    assert np.max(np.abs(m_back @ m - np.eye(dim_pq(n, p, q)))) == 0.0


@pytest.mark.parametrize("name", ["torus2", "kodaira_thurston", "iwasawa"])
def test_d_matches_oracle(name):
    model = catalog(name)
    alg = algebra_for(model)
    rng = np.random.default_rng(17)
    n = model.n
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        u = _random_pq_form(n, p, q, rng)
        got = alg.d_form(u)
        want = naive_d(model, u)
        assert (got - want).max_abs() <= 1e-13


DERIVATION_MODELS = {
    # Kodaira-Thurston x T^2: d(theta^2) = theta^1 ^ thetabar^1
    "kt_x_torus2": (4, [(2, "mixed", 1, 1, 1.3)]),
    # complex Heisenberg: d(theta^5) = c1 theta^1^theta^2 + c2 theta^3^theta^4
    "heisenberg5": (5, [(5, "holo", 1, 2, 0.7), (5, "holo", 3, 4, -1.9)]),
    # not integrable, but d is still a derivation: every term kind, complex coefficients
    "all_kinds3": (3, [(1, "mixed", 2, 3, 0.3 + 0.2j), (1, "anti", 2, 3, -1.1j),
                       (2, "holo", 1, 3, 1.7 - 0.4j), (3, "mixed", 3, 1, 0.9)]),
}


@pytest.mark.parametrize("name", sorted(DERIVATION_MODELS))
def test_d_total_matches_oracle_on_every_monomial(name):
    model = make_model(name, *DERIVATION_MODELS[name])
    alg = algebra_for(model)
    for k in range(2 * model.n):
        mat = alg.d_total(k)
        for col, unit in enumerate(np.eye(alg.dim_total(k))):
            want = naive_d(model, Form.at(model.n, k, unit)).part(k + 1)
            assert np.max(np.abs(mat[:, col] - want)) <= 1e-14, (k, col)


def test_d_monomial_is_a_column_of_d_blocks():
    alg = algebra_for(make_model("heisenberg5", *DERIVATION_MODELS["heisenberg5"]))
    for idx in range(dim_pq(5, 2, 1)):
        got = alg.d_monomial(2, 1, idx)
        for tgt, mat in alg.d_blocks(2, 1).items():
            assert np.array_equal(got.part(tgt), mat[:, idx])


@pytest.mark.parametrize("name", ["torus2", "torus3", "kodaira_thurston", "iwasawa"])
def test_d_squared_zero_on_random_forms(name):
    model = catalog(name)
    alg = algebra_for(model)
    rng = np.random.default_rng(23)
    for p, q in [(1, 0), (1, 1), (2, 1)]:
        if p > model.n or q > model.n:
            continue
        u = random_form(model.n, [(p, q)], rng)
        assert alg.d_form(alg.d_form(u)).max_abs() <= 1e-13


def test_d_splits_into_del_and_dbar():
    model = catalog("iwasawa")
    alg = algebra_for(model)
    rng = np.random.default_rng(29)
    u = random_form(model.n, [(1, 1)], rng)
    total = alg.d_form(u)
    split = alg.del_form(u) + alg.dbar_form(u)
    assert (total - split).max_abs() <= 1e-14


def test_d_leibniz_rule():
    model = catalog("iwasawa")
    alg = algebra_for(model)
    rng = np.random.default_rng(31)
    u = random_form(model.n, [(1, 0)], rng)
    v = random_form(model.n, [(1, 1)], rng)
    lhs = alg.d_form(wedge(u, v))
    rhs = wedge(alg.d_form(u), v) - wedge(u, alg.d_form(v))
    assert (lhs - rhs).max_abs() <= 1e-13


def test_dbar_conjugates_to_del():
    # conj intertwines the two halves of d
    model = catalog("iwasawa")
    alg = algebra_for(model)
    rng = np.random.default_rng(37)
    u = random_form(model.n, [(1, 1)], rng)
    lhs = alg.dbar_form(u).conj()
    rhs = alg.del_form(u.conj())
    assert (lhs - rhs).max_abs() <= 1e-14


def test_integrate_normalization_and_orientation():
    model = catalog("torus2")
    alg = algebra_for(model)
    n = model.n
    top = Form.monomial(n, tuple(range(n)), tuple(range(n)))
    assert alg.integrate(top * alg.theta_coefficient) == pytest.approx(1.0)
    assert alg.integrate(Form.zero(n)) == 0.0


def test_vector_roundtrip_and_offsets():
    model = catalog("iwasawa")
    alg = algebra_for(model)
    rng = np.random.default_rng(41)
    k = 3
    u = random_form(model.n, [(p, q) for p, q in alg.slices(k)], rng)
    vec = u.part(k)
    assert vec.shape == (alg.dim_total(k),)
    back = Form.at(model.n, k, vec)
    assert (back - u).max_abs() == 0.0
    # blocks ordered by descending holomorphic degree
    assert list(alg.slices(k)) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_entries_roundtrip():
    rng = np.random.default_rng(43)
    u = random_form(3, [(1, 0), (2, 1)], rng)
    entries = u.to_entries()
    back = Form.from_entries(3, entries)
    assert (back - u).max_abs() == 0.0
    assert all(e["p"] + e["q"] in (1, 3) for e in entries)
    assert all(isinstance(e["I"], list) and isinstance(e["J"], list) for e in entries)


def test_real_random_form():
    rng = np.random.default_rng(47)
    u = random_form(3, [(1, 1)], rng, real=True)
    assert u.is_real()
    assert (u.conj() - u).max_abs() <= 1e-15


def test_wedge_matrix_represents_left_wedge():
    model = catalog("kodaira_thurston")
    rng = np.random.default_rng(53)
    a = random_form(model.n, [(1, 1)], rng)
    v = random_form(model.n, [(1, 0)], rng)
    mat = a.wedge_matrix(1, 0)
    got = mat @ v.part((1, 0))
    want = wedge(a, v).part((2, 1))
    assert np.max(np.abs(got - want)) <= 1e-14


def _wedge_matrix_loop(n, form, p, q):
    """Matrix of (form ^ .) on Lambda^{p,q}, one table entry at a time."""
    (a, b), = form.bidegrees()
    v = form.part((a, b))
    mat = np.zeros((dim_pq(n, p + a, q + b), dim_pq(n, p, q)), dtype=complex)
    for i1, i2, sign, t in zip(*(_wedge_arrays(n, a, b, p, q) or ())):
        mat[t, i2] += sign * v[i1]
    return mat


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedge_matrix_bits_match_the_loop(n):
    rng = np.random.default_rng(61 + n)
    for a, b, p, q in itertools.product(range(n + 1), repeat=4):
        d = dim_pq(n, a, b)
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        # signed zeros in both parts; entry 0 stays nonzero so the form keeps its block
        vec.real[1:][rng.random(d - 1) < 0.3] = -0.0
        vec.imag[1:][rng.random(d - 1) < 0.3] = -0.0
        vec.imag[1:][rng.random(d - 1) < 0.2] = 0.0
        form = Form.at(n, (a, b), vec)
        got, want = form.wedge_matrix(p, q), _wedge_matrix_loop(n, form, p, q)
        assert np.array_equal(got, want), (a, b, p, q)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float))), (a, b, p, q)


def _random_support_form(n, rng):
    """A form on a random set of bidegrees, with signed zeros in both parts; a block
    whose entries all become zeros drops out of the support."""
    support = [(p, q) for p in range(n + 1) for q in range(n + 1) if rng.random() < 0.4]
    vec = random_form(n, support, rng).vec.copy()
    vec.real[rng.random(vec.size) < 0.3] = -0.0
    vec.imag[rng.random(vec.size) < 0.3] = -0.0
    vec.imag[rng.random(vec.size) < 0.2] = 0.0
    return Form(n, vec)


def _same_bits(a, b):
    return np.array_equal(a.view(float), b.view(float)) \
        and np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def _wedge_loop(u, v):
    """Wedge of two forms, one table entry at a time, in the order of the blocks."""
    n = u.n
    out = {}
    for p1, q1 in u.bidegrees():
        for p2, q2 in v.bidegrees():
            table = _wedge_arrays(n, p1, q1, p2, q2)
            if table is None:
                continue
            a, b = u.part((p1, q1)), v.part((p2, q2))
            vec = out.setdefault((p1 + p2, q1 + q2), np.zeros(dim_pq(n, p1 + p2, q1 + q2),
                                                             dtype=complex))
            for i1, i2, sign, t in zip(*table):
                vec[t] += sign * a[i1] * b[i2]
    total = Form.zero(n)
    for pq, vec in out.items():
        total = total + Form.at(n, pq, vec)
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedge_bits_match_the_loop(n):
    rng = np.random.default_rng(71 + n)
    for _ in range(8 if n < 5 else 3):
        u, v = _random_support_form(n, rng), _random_support_form(n, rng)
        assert _same_bits(wedge(u, v).vec, _wedge_loop(u, v).vec)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_layout_for_degrees_and_bidegrees(n):
    rng = np.random.default_rng(81 + n)
    alg = ExteriorAlgebra(n, [])
    keys = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for _ in range(6):
        u = _random_support_form(n, rng)
        for k in range(2 * n + 1):
            assert _same_bits(u.part(k), np.concatenate([u.part(pq) for pq in alg.slices(k)]))
            v = rng.standard_normal(alg.dim_total(k)) + 1j * rng.standard_normal(alg.dim_total(k))
            assert _same_bits(Form.at(n, k, v).part(k), v)
        for pq in keys:
            v = rng.standard_normal(dim_pq(n, *pq)) + 1j * rng.standard_normal(dim_pq(n, *pq))
            assert _same_bits(Form.at(n, pq, v).part(pq), v)
        assert sorted(u.bidegrees()) == [pq for pq in keys if np.any(u.part(pq) != 0)]
        # a block with no nonzero coefficient reads +0
        assert not any(np.signbit(u.part(pq).view(float)).any()
                       for pq in keys if pq not in u.bidegrees())
        assert _same_bits(u.conj().conj().vec, u.vec)
        # entries hold no zeros, so signed zeros come back as +0
        assert np.array_equal(Form.from_entries(n, u.to_entries()).vec, u.vec)


def test_layout_orders_degrees_then_holomorphic_degree_descending():
    n = 3
    starts = {pq: Form.at(n, pq, np.ones(dim_pq(n, *pq))).vec.nonzero()[0][0]
              for pq in itertools.product(range(n + 1), repeat=2)}
    order = sorted(starts, key=starts.get)
    assert order == sorted(order, key=lambda pq: (pq[0] + pq[1], -pq[0]))
    assert [_basis(n, 2, 1)[i] for i in range(dim_pq(n, 2, 1))] == list(_basis(n, 2, 1))
