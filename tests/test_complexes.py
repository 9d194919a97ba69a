"""One code path for three complexes, one block map per bigraded operator and one
kernel cut per Laplacian: the generic operators against their written-out
formulas, bit for bit."""

import math

import numpy as np
import pytest
import scipy.linalg

from hermicone import hodge
from hermicone.errors import ModelInvalid
from hermicone.exterior import (ExteriorAlgebra, Form, _basis, _complement, dim_pq, neighbor,
                                random_form, wedge)
from hermicone.functionals import eval_G
from hermicone.hodge import (coimage_projector, green_operator, harmonic_projector,
                             image_projector, potential)
from hermicone.metric import HermitianMetric, OperatorBundle, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, catalog_names, make_model
from hermicone.variation import _on_complex, star_comm_star

from .conftest import kept_keys
from .oracles import loop_merge


def _component(alg, pq, tgt):
    """The block of d from pq to tgt, zero where d has none."""
    mat = alg.d_blocks(*pq).get(tgt)
    if mat is None:
        return np.zeros((dim_pq(alg.n, *tgt), dim_pq(alg.n, *pq)), dtype=complex)
    return mat


# (differential, Gram matrix, s-step neighbor) written out per complex
WRITTEN = {
    "d": (lambda alg, k: alg.d_total(k),
          lambda b, k: b.gram_total(k),
          lambda k, s: k + s),
    "del": (lambda alg, pq: _component(alg, pq, (pq[0] + 1, pq[1])),
            lambda b, pq: b.gram(*pq),
            lambda pq, s: (pq[0] + s, pq[1])),
    "dbar": (lambda alg, pq: _component(alg, pq, (pq[0], pq[1] + 1)),
             lambda b, pq: b.gram(*pq),
             lambda pq, s: (pq[0], pq[1] + s)),
}


def _model(name):
    if name == "iwasawa_x_t1":
        return make_model(name, 4, [(3, "holo", 1, 2, -1.25)])
    if name == "heisenberg5":
        return make_model(name, 5, [(5, "holo", 1, 2, 0.7), (5, "holo", 3, 4, -1.3)])
    if name == "iwasawa_anti":
        # an antiholomorphic term below VALIDATION_TOL: more than two blocks of d land on
        # one bidegree, so the order in which apply adds them shows in the bits
        return make_model(name, 3, [(3, "holo", 1, 2, -1.0), (3, "anti", 1, 2, 1e-13)])
    return catalog(name)


@pytest.fixture(scope="module", params=[
    ("kodaira_thurston", None), ("kodaira_thurston", 1),
    ("iwasawa", None), ("iwasawa", 2),
    ("iwasawa_x_t1", 3),
])
def bundle(request):
    return _bundle(*request.param)


def _bundle(name, seed):
    alg = algebra_for(_model(name))
    metric = HermitianMetric.identity(alg.n) if seed is None \
        else random_metric(alg.n, np.random.default_rng(seed))
    return bundle_for_algebra(alg, metric)


def _keys(which, n):
    if which == "d":
        return list(range(2 * n + 1))
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def _in_range(which, key, n):
    if which == "d":
        return 0 <= key <= 2 * n
    return all(0 <= x <= n for x in key)


def _written_codiff(b, which, key):
    """G_prev^{-1} (diff^H G_key) with the closed-form inverse on a bidegree; on a total
    degree the adjoint of each bidegree block of d, the same formula."""
    diff, gram, step = WRITTEN[which]
    prev = step(key, -1)
    if not _in_range(which, prev, b.n):
        return np.zeros((0, gram(b, key).shape[0]), dtype=complex)
    if which != "d":
        return b.gram_inv(*prev) @ (diff(b.alg, prev).conj().T @ gram(b, key))
    rows, cols = b.alg.slices(prev), b.alg.slices(key)
    out = np.zeros((len(gram(b, prev)), len(gram(b, key))), dtype=complex)
    for pq in cols:
        for src in rows:
            blk = b.alg.d_blocks(*src).get(pq)
            if blk is not None:
                out[rows[src], cols[pq]] = b.gram_inv(*src) @ (blk.conj().T @ b.gram(*pq))
    return out


def _written_solved_codiff(b, which, key):
    """diff^H G_key solved with G_prev: the codifferential of the Green operator and the
    potentials."""
    diff, gram, step = WRITTEN[which]
    prev = step(key, -1)
    if not _in_range(which, prev, b.n):
        return np.zeros((0, gram(b, key).shape[0]), dtype=complex)
    return np.linalg.solve(gram(b, prev), diff(b.alg, prev).conj().T @ gram(b, key))


def _cases(b):
    return [(which, key) for which in WRITTEN for key in _keys(which, b.n)]


def test_neighbor_steps_each_complex():
    assert neighbor("d", 3, -1) == 2
    assert neighbor("del", (1, 2), 1) == (2, 2)
    assert neighbor("dbar", (1, 2), -1) == (1, 1)
    with pytest.raises(ValueError):
        neighbor("dd", 1, 1)


def test_dim_is_zero_outside_the_complex(bundle):
    n, alg = bundle.n, bundle.alg
    assert alg.dim(-1) == alg.dim(2 * n + 1) == 0
    assert alg.dim((n + 1, 0)) == alg.dim((0, -1)) == 0
    assert alg.dim(n) == math.comb(2 * n, n) and alg.dim((1, n)) == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dim_total_sums_the_bidegrees(n):
    alg = ExteriorAlgebra(n, [])
    for k in range(2 * n + 1):
        assert alg.dim(k) == sum(dim_pq(n, p, q) for p, q in alg.slices(k))


def test_diff_is_the_written_differential(bundle):
    for which, key in _cases(bundle):
        got, want = bundle.alg.diff(which, key), WRITTEN[which][0](bundle.alg, key)
        assert got.shape == want.shape and np.array_equal(got, want), (which, key)


def test_codiff_matches_written_adjoint(bundle):
    for which, key in _cases(bundle):
        got, want = bundle.codiff(which, key), _written_codiff(bundle, which, key)
        assert got.shape == want.shape and np.array_equal(got, want), (which, key)


def test_laplacian_matches_written_formula(bundle):
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        prev, nxt = step(key, -1), step(key, 1)
        want = np.zeros((gram(bundle, key).shape[0],) * 2, dtype=complex)
        if _in_range(which, prev, bundle.n):
            want = want + diff(bundle.alg, prev) @ _written_codiff(bundle, which, key)
        if _in_range(which, nxt, bundle.n):
            want = want + _written_codiff(bundle, which, nxt) @ diff(bundle.alg, key)
        assert np.array_equal(bundle.laplacian(which, key), want), (which, key)


def _written_projector(basis, g):
    """B (B^H G B)^-1 B^H G, the G-orthogonal projector onto basis's columns."""
    bg = basis.conj().T @ g
    return basis @ np.linalg.solve(bg @ basis, bg)


def test_projectors_match_written_formulas(bundle):
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        g = gram(bundle, key)
        want_im = _written_projector(bundle.alg.bases(which, step(key, -1))[0], g)
        want_ker = _written_projector(bundle.alg.bases(which, key)[1], g)
        assert np.array_equal(image_projector(bundle, which, key), want_im), (which, key)
        assert np.array_equal(coimage_projector(bundle, which, key),
                              np.eye(len(g)) - want_ker), (which, key)
        assert np.array_equal(harmonic_projector(bundle, which, key),
                              want_ker - want_im), (which, key)


def test_potential_matches_written_formula(bundle):
    rng = np.random.default_rng(11)
    for which, key in _cases(bundle):
        diff, gram, step = WRITTEN[which]
        prev = step(key, -1)
        if not _in_range(which, prev, bundle.n):
            continue
        g = gram(bundle, key)
        src = rng.standard_normal(g.shape[0]) + 1j * rng.standard_normal(g.shape[0])
        sol = potential(bundle, which, key, src)
        proj = image_projector(bundle, which, key) @ src
        pot = green_operator(bundle, which, prev) @ \
            (_written_solved_codiff(bundle, which, key) @ proj)
        eq = diff(bundle.alg, prev) @ pot - proj
        ker = hodge.decomposition(bundle, which, prev).kernel @ pot
        l2 = [float(np.sqrt(max((v.conj() @ (gm @ v)).real * bundle.det_h, 0.0)))
              for v, gm in ((eq, g), (ker, gram(bundle, prev)))]
        assert np.array_equal(sol.projected_source, proj)
        assert np.array_equal(sol.harmonic_component,
                              harmonic_projector(bundle, which, key) @ src)
        assert np.array_equal(sol.potential, pot)
        assert [sol.residual_equation, sol.residual_kernel] == l2


def test_per_complex_names_are_the_generic_operators(bundle):
    # kept as aliases because the benchmark's tracer wraps them by name
    b, n = bundle, bundle.n
    assert b.d_star_total(2) is b.codiff("d", 2)
    assert b.del_star_block(1, 1) is b.codiff("del", (1, 1))
    assert b.dbar_star_block(n, 1) is b.codiff("dbar", (n, 1))
    assert np.array_equal(hodge.image_projector_d(b, 2), image_projector(b, "d", 2))
    assert np.array_equal(hodge.image_projector_d_star(b, 2), coimage_projector(b, "d", 2))
    assert np.array_equal(hodge.image_projector_dbar(b, 1, 1),
                          image_projector(b, "dbar", (1, 1)))
    assert np.array_equal(hodge.image_projector_dbar_star(b, 1, 0),
                          coimage_projector(b, "dbar", (1, 0)))
    src = np.arange(b.alg.dim(2), dtype=complex)
    assert np.array_equal(hodge.d_potential(b, src, 2).potential,
                          potential(b, "d", 2, src).potential)
    src = np.arange(b.alg.dim((1, 1)), dtype=complex)
    assert np.array_equal(hodge.dbar_potential(b, src, (1, 1)).potential,
                          potential(b, "dbar", (1, 1), src).potential)


# ----- the kernel cut: one cached decomposition per Laplacian ------------------------------


@pytest.fixture(scope="module", params=[(name, seed) for name in catalog_names()
                                        for seed in (None, 7)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def catalog_bundle(request):
    return _bundle(*request.param)


def test_harmonic_and_green_match_written_projector_forms(catalog_bundle):
    b = catalog_bundle
    for which, key in _cases(b):
        dec = hodge.decomposition(b, which, key)
        assert dec is hodge.decomposition(b, which, key), (which, key)
        assert abs(np.trace(dec.harmonic) - b.alg.harmonic_dim(which, key)) <= 1e-8, \
            (which, key)
        assert np.array_equal(harmonic_projector(b, which, key), dec.kernel - dec.image)
        # the Laplacian of the solved codifferentials plus its harmonic projector is
        # invertible, with inverse green + harmonic
        green, harmonic = green_operator(b, which, key), dec.harmonic
        lap = b.laplacian(which, key, lambda w, k: _written_solved_codiff(b, w, k))
        want = np.linalg.solve(lap + harmonic, np.eye(len(harmonic))) - harmonic
        assert green is green_operator(b, which, key), (which, key)
        assert np.array_equal(green, want), (which, key)


def test_kernel_cut_is_made_once_per_space(monkeypatch):
    counted, init = [], hodge.Decomposition.__init__

    def counting(dec, bundle, which, key):
        counted.append((which, key))
        init(dec, bundle, which, key)

    monkeypatch.setattr(hodge.Decomposition, "__init__", counting)
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: eighs.append(a) or eigh(*a, **kw))
    b = _bundle("iwasawa", 3)
    eval_G(b)
    eval_G(b)
    # the source (2, 2) and the torsion's space (2, 1), whose kernel projector and
    # Green operator the potential reads; no eigensolver runs
    assert len(counted) == 2 and eighs == []
    assert sorted(kept_keys(b, hodge.decomposition)) == [("dbar", (2, 1)), ("dbar", (2, 2))]
    assert sorted(kept_keys(b, hodge.green_operator)) == [("dbar", (2, 1))]
    # the bases under them are kept on the algebra: a bundle at another metric runs
    # no singular value decomposition
    assert {("dbar", (2, q)) for q in range(3)} <= set(kept_keys(b.alg, ExteriorAlgebra.bases))
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a) or svd(*a, **kw))
    eval_G(_bundle("iwasawa", 4))
    assert svds == []


# Betti numbers of the real nilmanifolds (Nomizu): Kodaira-Thurston and Iwasawa
BETTI = {"kodaira_thurston": [1, 3, 4, 3, 1], "iwasawa": [1, 4, 8, 10, 8, 4, 1]}
# Dolbeault (h^{1,0}, h^{0,1}) (Console-Fino)
HODGE_10_01 = {"kodaira_thurston": (1, 2), "iwasawa": (3, 2), "torus2": (2, 2),
               "torus3": (3, 3)}


@pytest.mark.parametrize("name", catalog_names())
def test_harmonic_dims_are_the_cohomology(name):
    alg = algebra_for(catalog(name))
    n = alg.n
    betti = BETTI.get(name, [math.comb(2 * n, k) for k in range(2 * n + 1)])
    assert [alg.harmonic_dim("d", k) for k in range(2 * n + 1)] == betti
    assert (alg.harmonic_dim("dbar", (1, 0)), alg.harmonic_dim("dbar", (0, 1))) \
        == HODGE_10_01[name]
    if name.startswith("torus"):
        assert all(alg.harmonic_dim(which, (p, q)) == dim_pq(n, p, q)
                   for which in ("del", "dbar") for p in range(n + 1) for q in range(n + 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_dim_eigenvalues_lie_below_the_spectrum(seed):
    # at a random metric, the harmonic_dim smallest eigenvalues are the ones at rounding
    # level and no others: the metric-free count and the spectrum agree
    for name in catalog_names():
        b = _bundle(name, seed)
        for which, key in _cases(b):
            eigs = b.spectral(which, key).eigenvalues
            below = np.count_nonzero(eigs <= 1e-9 * eigs.max(initial=0.0))
            assert below == b.alg.harmonic_dim(which, key), (name, which, key)


# ----- block maps: ExteriorAlgebra.apply / total against the loops they replaced ---------


@pytest.fixture(scope="module", params=[
    (name, seed) for name in (*catalog_names(), "iwasawa_x_t1", "heisenberg5", "iwasawa_anti")
    for seed in (None, 5)
], ids=lambda p: f"{p[0]}-{p[1]}")
def block_bundle(request):
    return _bundle(*request.param)


def _bits(form):
    return [(pq, form.part(pq).tobytes()) for pq in form.bidegrees()]


def _blockwise(alg, form, target, matrix):
    """The per-operator loop: each block to one target, empty targets skipped."""
    out = Form.zero(alg.n)
    for p, q in form.bidegrees():
        tgt = target(p, q)
        if dim_pq(alg.n, *tgt):
            out = out + Form.at(alg.n, tgt, matrix(p, q) @ form.part((p, q)))
    return out


def _space(n, key):
    """The bidegrees of the space at a degree or a bidegree key, p descending; none off
    the algebra."""
    pqs = [key] if isinstance(key, tuple) else [(p, key - p) for p in range(n, -1, -1)]
    return [(p, q) for p, q in pqs if 0 <= p <= n and 0 <= q <= n]


def _offsets(n, key):
    """{bidegree: offset} over the space at key, and its dimension."""
    pqs = _space(n, key)
    ends = np.cumsum([0] + [dim_pq(n, *pq) for pq in pqs]).tolist()
    return dict(zip(pqs, ends)), ends[-1]


def _placed(alg, k, k_out, blocks):
    """The per-operator offset loop: the (target, matrix) pairs of blocks(p, q) from the
    space at k into the space at k_out, each a degree or a bidegree; a stack of blocks
    gives a stack."""
    (roff, rows), (coff, cols) = _offsets(alg.n, k_out), _offsets(alg.n, k)
    found = [(roff[tgt], coff[pq], blk) for pq in coff for tgt, blk in blocks(*pq)
             if tgt in roff]
    mat = np.zeros((found[0][2].shape[:-2] if found else ()) + (rows, cols), dtype=complex)
    for r0, c0, blk in found:
        mat[..., r0:r0 + blk.shape[-2], c0:c0 + blk.shape[-1]] = blk
    return mat


def _filling(n, k, k_out, blocks):
    """The one block of blocks(p, q) that fills the matrix from k to k_out, else None."""
    src, tgt = _space(n, k), _space(n, k_out)
    return dict(blocks(*src[0])).get(tgt[0]) if len(src) == len(tgt) == 1 else None


def _solved_star(b, a, c):
    """The star block as a linear solve against the wedge pairing."""
    n = b.n
    pair = np.zeros((dim_pq(n, c, a), dim_pq(n, a, c)), dtype=complex)
    tgt = {m: i for i, m in enumerate(_basis(n, n - c, n - a))}
    full = tuple(range(n))
    for r, (I, J) in enumerate(_basis(n, c, a)):
        Ic = tuple(sorted(set(full) - set(I)))
        Jc = tuple(sorted(set(full) - set(J)))
        top = loop_merge(I, Ic)[0] * loop_merge(J, Jc)[0] * (-1) ** ((n - c) * a)
        pair[r, tgt[(Ic, Jc)]] = b.alg.integrate(Form.monomial(n, full, full, top))
    g, src = b.gram(c, a), {m: i for i, m in enumerate(_basis(n, c, a))}
    rhs = np.zeros_like(pair)
    for s, (I, J) in enumerate(_basis(n, a, c)):
        rhs[:, s] = (-1) ** (a * c) * g[src[(J, I)], :]
    return np.linalg.solve(pair, b.det_h * rhs)


def _bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def test_form_operators_match_blockwise_loops(block_bundle):
    b, alg, n = block_bundle, block_bundle.alg, block_bundle.n
    rng = np.random.default_rng(3)
    forms = [random_form(n, _bidegrees(n), rng), random_form(n, [(1, 1), (n, 0)], rng, real=True),
             b.omega, Form.zero(n)]
    for form in forms:
        for blocks, got in ((alg.d_blocks, alg.d_form), (b._codiff_blocks, b.d_star)):
            want = Form.zero(n)
            for p, q in form.bidegrees():
                for tgt, blk in blocks(p, q).items():
                    want = want + Form.at(n, tgt, blk @ form.part((p, q)))
            assert _bits(got(form)) == _bits(want), got
        for which, s, got, mat in (("del", 1, alg.del_form, alg.diff),
                                   ("dbar", 1, alg.dbar_form, alg.diff)):
            want = _blockwise(alg, form, lambda p, q: neighbor(which, (p, q), s),
                              lambda p, q: mat(which, (p, q)))
            assert _bits(got(form)) == _bits(want), (which, s)
        assert _bits(b.star(form)) == _bits(_blockwise(
            alg, form, lambda p, q: (n - q, n - p), b.star_block))
        assert _bits(b.trace_contract(form)) == _bits(_blockwise(
            alg, form, lambda p, q: (p - 1, q - 1), b.trace_block))
        for eta in (random_form(n, [(1, 1)], rng), random_form(n, [(0, 1)], rng)):
            (a, c), = eta.bidegrees()
            want = _blockwise(alg, form, lambda p, q: (p - a, q - c),
                              lambda p, q: b.mult_adjoint_block(eta, p, q))
            assert _bits(b.mult_adjoint(eta, form)) == _bits(want)


def test_total_matrices_match_offset_loops(block_bundle):
    b, alg, n = block_bundle, block_bundle.alg, block_bundle.n
    gamma = random_form(n, [(1, 1)], np.random.default_rng(4), real=True)
    for k in range(2 * n + 1):
        want = _placed(alg, k, k + 1, lambda p, q: alg.d_blocks(p, q).items())
        assert alg.d_total(k).tobytes() == want.tobytes(), k
        want = _placed(alg, k, 2 * n - k,
                       lambda p, q: [((n - q, n - p), b.star_block(p, q))])
        assert b.star_total(k).tobytes() == want.tobytes(), k
        want = scipy.linalg.block_diag(*[b.gram(p, q) for p, q in alg.slices(k)])
        assert b.gram_total(k).tobytes() == want.tobytes(), k
        for block in (OperatorBundle.commutator, star_comm_star):
            want = _placed(alg, k, k, lambda p, q: [((p, q), block(b, gamma, p, q))])
            assert _on_complex(block, b, gamma, k).tobytes() == want.tobytes(), (k, block)


def _spaces(which, n):
    """Every key of the complex of which, then each key one step outside it."""
    keys = _keys(which, n)
    outside = dict.fromkeys(neighbor(which, key, s) for key in keys for s in (-1, 1))
    return keys + [key for key in outside if key not in keys]


def _bases_or_refusal(alg, which, key):
    try:
        return [(m.shape, m.tobytes()) for m in alg.bases(which, key)]
    except ModelInvalid as exc:
        return str(exc)


def _check_placement(b):
    """diff, codiff, gram_total and bases on every space and one step outside each
    complex: the offset loop's matrices byte for byte, and where one block fills the
    matrix, total gives that block itself."""
    alg, n = b.alg, b.n
    looped = ExteriorAlgebra(n, alg.terms)  # its bases place the blocks of d by the loop
    looped.total = lambda op, k, k_out: _placed(looped, k, k_out, lambda p, q: op(p, q).items())

    def gram(p, q):
        return {(p, q): b.gram(p, q)}

    for which in WRITTEN:
        for key in _spaces(which, n):
            # codiff broadcasts a placement with no stack axis over the bundle's stack
            cases = ((alg.diff(which, key), alg.d_blocks, neighbor(which, key, 1), ()),
                     (b.codiff(which, key), b._codiff_blocks, neighbor(which, key, -1), b.lead),
                     (b.gram_total(key), gram, key, ()))
            for got, op, k_out, lead in cases:
                want = _placed(alg, key, k_out, lambda p, q: op(p, q).items())
                want = np.broadcast_to(want, lead + want.shape[-2:]) if lead else want
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                    (which, key, k_out)
                fill = _filling(n, key, k_out, lambda p, q: op(p, q).items())
                if fill is not None:
                    assert alg.total(op, key, k_out) is fill, (which, key, k_out)
            assert alg.dim(key) == _offsets(n, key)[1], key
            assert _bases_or_refusal(alg, which, key) == _bases_or_refusal(looped, which, key)


def test_every_space_places_its_blocks_by_its_key(block_bundle):
    _check_placement(block_bundle)


@pytest.mark.parametrize("name", ["kodaira_thurston", "iwasawa_x_t1"])
def test_a_stack_places_its_blocks_by_its_key(name):
    alg = algebra_for(_model(name))
    rng = np.random.default_rng(8)
    h = [HermitianMetric.identity(alg.n).h] + [random_metric(alg.n, rng).h for _ in range(2)]
    b = bundle_for_algebra(alg, HermitianMetric(np.stack(h)))
    assert b.lead == (3,)
    _check_placement(b)


def test_total_times_applies_the_total_matrix(block_bundle):
    # the block products add in another order than the total matrix's, so to rounding
    b, alg, n = block_bundle, block_bundle.alg, block_bundle.n
    rng = np.random.default_rng(6)
    for k in range(2 * n + 1):
        size = (alg.dim(k), 3)
        cols = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for op, k_out, total in ((alg.d_blocks, k + 1, alg.d_total(k)),
                                 (b._codiff_blocks, k - 1, b.codiff("d", k))):
            got, want = alg.total_times(op, k, k_out, cols), total @ cols
            assert got.shape == want.shape, (k, k_out)
            scale = np.abs(total).sum(axis=1, initial=0.0)[:, None] * np.abs(cols).max()
            assert np.all(np.abs(got - want) <= 1e-14 * scale), (k, k_out)


@pytest.mark.parametrize("seed", [None, 5])
def test_d_star_of_a_form_is_the_audited_codifferential(seed):
    # iwasawa_anti's antiholomorphic blocks of d, below VALIDATION_TOL, have adjoints
    # that d_star applies as codiff("d") places them
    b = _bundle("iwasawa_anti", seed)
    rng = np.random.default_rng(7)
    for k in range(1, 2 * b.n + 1):
        v = random_form(b.n, list(b.alg.slices(k)), rng)
        want = b.codiff("d", k) @ v.part(k)
        got = b.d_star(v).part(k - 1)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), k


def test_star_block_equals_the_solved_pairing(block_bundle):
    b = block_bundle
    for a, c in _bidegrees(b.n):
        assert np.array_equal(b.star_block(a, c), _solved_star(b, a, c)), (a, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complement_pairs_each_monomial_with_one_unit(n):
    alg = ExteriorAlgebra(n, [])
    for p, q in _bidegrees(n):
        comp, unit = _complement(n, p, q)
        assert sorted(comp) == list(range(dim_pq(n, n - p, n - q)))
        assert set(unit.tolist()) <= {1, -1, 1j, -1j}
        cbasis = _basis(n, n - p, n - q)
        for (I, J), c, u in zip(_basis(n, p, q), comp, unit):
            top = wedge(Form.monomial(n, I, J), Form.monomial(n, *cbasis[c]))
            assert alg.integrate(top) == u, (p, q, I, J)
