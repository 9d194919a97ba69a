"""Exterior algebra layer against the symbolic permutation oracle."""

import itertools

import numpy as np
import pytest

from hermicone.exterior import (
    ExteriorAlgebra,
    Form,
    _wedge_table,
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
    assert wedge_power(u, 0).block(0, 0)[0] == 1.0


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
    got = m @ np.conj(u.block(p, q))
    want = u.conj().block(q, p)
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
            want = alg.to_vector(naive_d(model, alg.from_vector(unit, k)), k + 1)
            assert np.max(np.abs(mat[:, col] - want)) <= 1e-14, (k, col)


def test_d_monomial_is_a_column_of_d_blocks():
    alg = algebra_for(make_model("heisenberg5", *DERIVATION_MODELS["heisenberg5"]))
    for idx in range(dim_pq(5, 2, 1)):
        got = alg.d_monomial(2, 1, idx)
        for tgt, mat in alg.d_blocks(2, 1).items():
            assert np.array_equal(got.block(*tgt), mat[:, idx])


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
    u = random_form(model.n, [(p, q) for p, q in alg.bidegrees(k)], rng)
    vec = alg.to_vector(u, k)
    assert vec.shape == (alg.dim_total(k),)
    back = alg.from_vector(vec, k)
    assert (back - u).max_abs() == 0.0
    # blocks ordered by descending holomorphic degree
    assert alg.bidegrees(k) == [(3, 0), (2, 1), (1, 2), (0, 3)]


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
    alg = algebra_for(model)
    rng = np.random.default_rng(53)
    a = random_form(model.n, [(1, 1)], rng)
    v = random_form(model.n, [(1, 0)], rng)
    mat = alg.wedge_matrix(a, 1, 0)
    got = mat @ v.block(1, 0)
    want = wedge(a, v).block(2, 1)
    assert np.max(np.abs(got - want)) <= 1e-14


def _wedge_matrix_loop(n, form, p, q):
    """Matrix of (form ^ .) on Lambda^{p,q}, one table entry at a time."""
    ((a, b), v), = form.blocks.items()
    mat = np.zeros((dim_pq(n, p + a, q + b), dim_pq(n, p, q)), dtype=complex)
    for i1, i2, sign, t in _wedge_table(n, a, b, p, q):
        mat[t, i2] += sign * v[i1]
    return mat


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wedge_matrix_bits_match_the_loop(n):
    rng = np.random.default_rng(61 + n)
    alg = ExteriorAlgebra(n, [])
    for a, b, p, q in itertools.product(range(n + 1), repeat=4):
        d = dim_pq(n, a, b)
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        # signed zeros in both parts; entry 0 stays nonzero so the form keeps its block
        vec.real[1:][rng.random(d - 1) < 0.3] = -0.0
        vec.imag[1:][rng.random(d - 1) < 0.3] = -0.0
        vec.imag[1:][rng.random(d - 1) < 0.2] = 0.0
        form = Form(n, {(a, b): vec})
        got, want = alg.wedge_matrix(form, p, q), _wedge_matrix_loop(n, form, p, q)
        assert np.array_equal(got, want), (a, b, p, q)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float))), (a, b, p, q)
