"""A Form with leading axes: each form of a stack gets the bits it gets alone."""

import numpy as np
import pytest

from hermicone.errors import DimensionMismatch
from hermicone.exterior import Form, _layout, random_form, wedge
from hermicone.metric import bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, make_model

MODELS = {2: catalog("kodaira_thurston"), 3: catalog("iwasawa"),
          4: make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)])}


def _with_signed_zeros(form, rng):
    """form with about a tenth of its coefficients set to -0 in one or both parts."""
    vec = form.vec.copy()
    vec.real[rng.random(vec.size) < 0.1] = -0.0
    vec.imag[rng.random(vec.size) < 0.1] = -0.0
    return Form(form.n, vec)


def _stack(forms):
    return Form(forms[0].n, np.stack([f.vec for f in forms]))


def _same(stacked, alone):
    """Row i of stacked has the bytes of alone[i]."""
    assert len(stacked) == len(alone)
    for row, one in zip(stacked, alone):
        assert np.asarray(row).tobytes() == np.asarray(one).tobytes()


def _case(n):
    """A bundle and three seeded forms, each on its own random set of bidegrees, so a
    block one form leaves empty is filled by another."""
    rng = np.random.default_rng(n)
    alg = algebra_for(MODELS[n])
    bundle = bundle_for_algebra(alg, random_metric(n, rng))
    keys = [pq for pq in _layout(n) if isinstance(pq, tuple)]
    forms = [_with_signed_zeros(random_form(n, [pq for pq in keys if rng.random() < 0.5], rng),
                                rng) for _ in range(3)]
    return rng, bundle, keys, forms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_layout_reads_of_a_stack_are_its_forms_reads(n):
    _, _, keys, forms = _case(n)
    stack = _stack(forms)
    assert stack.bidegrees() == [pq for pq in keys if any(pq in f.bidegrees() for f in forms)]
    _same(stack.vec, [f.vec for f in forms])
    # conj negates the +0s of a block one form leaves empty and another fills; that
    # form keeps the -0s there, and taken alone reads +0 again
    _same([Form(n, row.copy()).vec for row in stack.conj().vec], [f.conj().vec for f in forms])
    for key in keys + list(range(2 * n + 1)):
        _same(stack.part(key), [f.part(key) for f in forms])
        _same(Form.at(n, key, stack.part(key)).vec, [Form.at(n, key, f.part(key)).vec
                                                   for f in forms])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operations_on_a_stack_are_its_forms_operations(n):
    rng, bundle, keys, forms = _case(n)
    alg, stack = bundle.alg, _stack(forms)
    right = _with_signed_zeros(random_form(n, keys, rng), rng)
    _same(wedge(stack, right).vec, [wedge(f, right).vec for f in forms])
    for op in (bundle.star, bundle.trace_contract, alg.d_form, alg.del_form, alg.dbar_form):
        _same(op(stack).vec, [op(f).vec for f in forms])
    _same(alg.integrate(stack), [alg.integrate(f) for f in forms])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrices_of_a_homogeneous_stack_are_its_forms_matrices(n):
    rng, bundle, keys, _ = _case(n)
    for a, b in keys:
        forms = [_with_signed_zeros(random_form(n, [(a, b)], rng), rng) for _ in range(3)]
        stack = _stack(forms)
        for p, q in keys:
            _same(stack.wedge_matrix(p, q), [f.wedge_matrix(p, q) for f in forms])
            if a <= 1 and b <= 1:
                _same(bundle.mult_adjoint_block(stack, p, q),
                      [bundle.mult_adjoint_block(f, p, q) for f in forms])


@pytest.mark.parametrize("n,pq", [(3, (1, 1)), (2, (1, 0)), (2, (1, 1))])
def test_two_stacks_wedge_form_by_form(n, pq):
    # row i of the product is form i ^ form i, and a single form on either side wedges
    # with every form of the other; the two stacks of (1,0) forms at n = 2 have the
    # shape of its wedge table, which once broadcast into a wrong form
    rng = np.random.default_rng(11)
    left, right = ([_with_signed_zeros(random_form(n, [pq], rng), rng) for _ in range(size)]
                   for size in (4, 4))
    _same(wedge(_stack(left), _stack(right)).vec, [wedge(u, v).vec for u, v in zip(left, right)])
    _same(wedge(_stack(left[:2]), _stack(right[:2])).vec,
          [wedge(u, v).vec for u, v in zip(left, right[:2])])
    _same(wedge(left[0], _stack(right)).vec, [wedge(left[0], v).vec for v in right])
    _same(wedge(_stack(left), right[0]).vec, [wedge(u, right[0]).vec for u in left])


def test_stacks_on_other_axes_do_not_wedge():
    rng = np.random.default_rng(12)
    forms = [random_form(2, [(1, 0)], rng) for _ in range(4)]
    grid = Form(2, np.stack([f.vec for f in forms]).reshape(2, 2, -1))
    for u, v in ((_stack(forms), _stack(forms[:2])), (_stack(forms[:2]), _stack(forms[:3])),
                 (_stack(forms), grid), (grid, _stack(forms[:2]))):
        with pytest.raises(DimensionMismatch):
            wedge(u, v)


def test_a_stack_resets_only_the_blocks_zero_in_every_form():
    lay = _layout(2)
    rows = np.zeros((2, 16), dtype=complex)
    rows[0, lay[(1, 1)]] = 1.0 + 2.0j
    rows[1, lay[(1, 1)]] = complex(-0.0, -0.0)
    rows[1, lay[(1, 0)]] = 3.0
    rows[:, lay[(2, 2)]] = complex(-0.0, -0.0)
    alone = Form(2, rows[1].copy())
    stack = Form(2, rows)
    # row 1's (1,1) block is zero but row 0 fills it: row 1 keeps its -0s
    assert stack.bidegrees() == [(1, 0), (1, 1)]
    assert np.signbit(stack.part((1, 1))[1].real).all()
    assert np.signbit(stack.part((1, 1))[1].imag).all()
    # (2,2) is zero in every row: it reads +0 and is no bidegree of the stack
    top = stack.part((2, 2))
    assert not np.signbit(top.real).any() and not np.signbit(top.imag).any()
    # the form alone resets its own zero (1,1) block
    assert alone.bidegrees() == [(1, 0)]
    assert not np.signbit(alone.part((1, 1)).real).any()
    assert not stack.vec.flags.writeable


def test_a_form_zeroes_its_absent_blocks_in_a_copy_of_its_input():
    # a row of a read-only stack that leaves (1,0) empty, with -0s there: the form of
    # the row zeroes them in its own array, and the stack keeps them
    lay = _layout(2)
    rows = np.zeros((2, 16), dtype=complex)
    rows[:, lay[(1, 1)]] = 1.0 + 2.0j
    rows[0, lay[(1, 0)]] = complex(-0.0, -0.0)
    rows[1, lay[(1, 0)]] = 3.0
    stack = Form(2, rows)
    row = Form(2, stack.vec[0])
    assert row.bidegrees() == [(1, 1)]
    assert not np.signbit(row.part((1, 0)).real).any()
    assert np.signbit(stack.part((1, 0))[0].real).all()
    assert not row.vec.flags.writeable and not stack.vec.flags.writeable
    # a writable input comes back unchanged and writable
    vec = rows[0].copy()
    before = vec.tobytes()
    form = Form(2, vec)
    assert vec.tobytes() == before and vec.flags.writeable
    assert form.vec is not vec and form.bidegrees() == [(1, 1)]
    assert not np.signbit(form.part((1, 0)).real).any()
