import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from .conftest import kept_keys, non_unimodular_model
from .oracles import loop_derivation_table
from hermicone import exterior as exterior_module
from hermicone import model as model_module
from hermicone.cli import main
from hermicone.errors import (ModelInvalid, ModelNotUnimodular, SchemaError,
                              UnknownCatalogName)
from hermicone.exterior import ExteriorAlgebra, dim_pq
from hermicone.model import (VALIDATION_TOL, algebra_for, catalog, catalog_names,
                             certified_d_squared, make_model,
                             parse_model, require_valid, serialize_model, validate_model)
from hermicone.optimizer import constraint_basis, descend
from hermicone.variation import variation_battery


def test_catalog_names_fixed():
    assert set(catalog_names()) == {"torus2", "torus3", "iwasawa", "kodaira_thurston"}


def test_catalog_models_validate(model):
    report = require_valid(model)
    assert report.integrable
    assert report.unimodular
    assert report.d_squared_max_residual == 0.0


def test_serialize_parse_roundtrip(model):
    text = serialize_model(model)
    again = parse_model(text)
    assert again == model
    assert serialize_model(again) == text


def test_unknown_catalog_name():
    with pytest.raises(UnknownCatalogName):
        catalog("nilpotent_mystery")


@pytest.mark.parametrize("doc", [
    "not json at all",
    json.dumps([1, 2, 3]),
    json.dumps({"name": "x"}),
    json.dumps({"name": 7, "n": 2}),
    json.dumps({"name": "x", "n": 2, "terms": "nope"}),
    json.dumps({"name": "x", "n": 2, "terms": [{"i": 1}]}),
    json.dumps({"name": "x", "n": 2,
                "terms": [{"i": 1, "kind": "holo", "j": 1, "k": 2,
                           "re": True, "im": 0.0}]}),
])
def test_parse_model_schema_errors(doc):
    with pytest.raises(SchemaError):
        parse_model(doc)


@pytest.mark.parametrize("text", ["{", "[" * 100000 + "]" * 100000,
                                  '{"name": "x", "n": ' + "1" * 5000 + "}"],
                         ids=("truncated", "nested", "digits"))
def test_parse_model_refuses_text_json_cannot_read(text):
    # the nesting and digit limits raise RecursionError and ValueError, not JSONDecodeError
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        parse_model(text)


def test_non_unimodular_detected():
    model = non_unimodular_model()
    report = validate_model(model)
    assert report.integrable
    assert report.d_squared_max_residual == 0.0
    assert not report.unimodular
    with pytest.raises(ModelNotUnimodular):
        require_valid(model)


def test_structure_terms_normalized():
    # generator order inside a term is canonicalized with the matching sign
    a = make_model("m", 3, [(3, "holo", 2, 1, 1.0)])
    b = make_model("m", 3, [(3, "holo", 1, 2, -1.0)])
    assert a == b


def test_iwasawa_differential_content():
    alg = algebra_for(catalog("iwasawa"))
    from hermicone.exterior import Form
    d3 = alg.d_form(Form.monomial(3, (2,), (), 1.0))
    # d theta^3 = -theta^1 ^ theta^2 and nothing else
    assert sorted(d3.bidegrees()) == [(2, 0)]
    expected = Form.monomial(3, (0, 1), (), -1.0)
    assert (d3 - expected).max_abs() == 0.0


def _dense_validation(model):
    """Decision and messages of validate_model from the dense total-degree products."""
    alg = algebra_for(model)
    messages = [f"d(theta^{t.i}) keeps an antiholomorphic term "
                f"thetabar^{t.j}^thetabar^{t.k} with |coeff| = {abs(t.coeff):.3e}"
                for t in model.terms if t.kind == "anti"]
    dd_res = 0.0
    for k in range(2 * model.n - 1):
        dd_res = max(dd_res, float(np.max(np.abs(alg.d_total(k + 1) @ alg.d_total(k)))))
    if dd_res > VALIDATION_TOL:
        messages.append(f"d*d has max residual {dd_res:.3e}")
    uni_res = float(np.max(np.abs(alg.d_total(2 * model.n - 1))))
    if uni_res > VALIDATION_TOL:
        messages.append(f"d does not vanish on degree {2 * model.n - 1}: max entry {uni_res:.3e}")
    return dd_res <= VALIDATION_TOL, dd_res, uni_res, messages


def _c_family(c):
    """n = 3 with d theta^3 = theta^1 ^ theta^2 and d theta^1 = c theta^1 ^ theta^3: d*d = c."""
    return make_model(f"c_{c!r}", 3, [(3, "holo", 1, 2, 1.0), (1, "holo", 1, 3, c)])


def _family(family, n, coeffs):
    if family == "iwasawa_x_torus":
        return make_model(f"iw_x_t{n - 3}", n, [(3, "holo", 1, 2, -coeffs[0])])
    if family == "kt_x_torus":
        return make_model(f"kt_x_t{n - 2}", n, [(2, "mixed", 1, 1, coeffs[0])])
    return make_model(f"heisenberg{n}", n,
                      [(n, "holo", 2 * i + 1, 2 * i + 2, c) for i, c in enumerate(coeffs)])


def _seeded_family(family, n, complex_coeffs, seed):
    rng = np.random.default_rng(seed)
    count = (n - 1) // 2 if family == "heisenberg" else 1
    coeffs = rng.uniform(0.5, 2.0, count) * rng.choice((-1.0, 1.0), count)
    if complex_coeffs:
        coeffs = coeffs * np.exp(1j * rng.uniform(0.0, 2 * np.pi, count))
    return _family(family, n, [complex(c) for c in coeffs])


def _two_step(s, seed):
    """n = 4, d theta^3 = c theta^1^theta^2 and d theta^4 = c2 theta^1^thetabar^1 +
    c theta^1^theta^2, whose d*d is exactly 0: c, c2 are s (N(0,1) + i N(0,1))."""
    rng = np.random.default_rng(seed)
    c, c2 = s * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return make_model(f"two_step_{s!r}_{seed}", 4,
                      [(3, "holo", 1, 2, c), (4, "mixed", 1, 1, c2), (4, "holo", 1, 2, c)])


_GATE_MODELS = (
    [pytest.param(lambda name=name: catalog(name), id=name) for name in catalog_names()]
    + [pytest.param(lambda: make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)]),
                    id="corpus-iwasawa_x_t1"),
       pytest.param(lambda: make_model("kt_x_t2", 4, [(2, "mixed", 1, 1, 0.75)]),
                    id="corpus-kt_x_t2"),
       pytest.param(lambda: make_model("heisenberg5", 5, [(5, "holo", 1, 2, 0.7),
                                                          (5, "holo", 3, 4, -1.3)]),
                    id="corpus-heisenberg5"),
       # the d*d products (1e6) cancel exactly, far above VALIDATION_TOL
       pytest.param(lambda: make_model("iwasawa_1e3", 3, [(3, "holo", 1, 2, -1e3)]),
                    id="iwasawa_1e3"),
       # d theta^i = a_i theta^i ^ theta^4: d of theta^123 sums three terms in one cell,
       # whose sum rounds by its order (1 + 6e-17 + 6e-17 is 1, 6e-17 + 6e-17 + 1 is not)
       pytest.param(lambda: make_model("three_terms", 4, [(1, "holo", 1, 4, 1.0),
                                                          (2, "holo", 2, 4, 6e-17),
                                                          (3, "holo", 3, 4, 6e-17)]),
                    id="three-terms-per-cell")]
    + [pytest.param(lambda f=family, n=n, z=z, s=seed: _seeded_family(f, n, z, s),
                    id=f"{family}-n{n}-{'complex' if z else 'real'}")
       for seed, (family, ns) in enumerate([("iwasawa_x_torus", (4, 5, 6)),
                                            ("kt_x_torus", (3, 4, 5, 6)),
                                            ("heisenberg", (3, 5))])
       for n in ns for z in (False, True)]
    + [pytest.param(lambda c=c: _c_family(c), id=f"c={c!r}")
       for c in (1.0, 1e-13, 9.9e-13, 1e-12, 1.01e-12, 1.3e-12, 1j * 1.3e-12)]
)


@pytest.mark.parametrize("build", _GATE_MODELS)
def test_sparse_gate_decides_as_the_dense_residual(build, fresh_caches):
    model = build()
    report = validate_model(model)
    dense_ok, dd_res, uni_res, messages = _dense_validation(model)
    assert certified_d_squared(algebra_for(model))[0] == dense_ok
    assert report.d_squared_vanishes == dense_ok
    assert report.messages == messages
    assert report.unimodularity_residual == uni_res
    # the reported residual is the largest sparse sum; the dense products round the
    # same cancellations to within a few eps of the coefficients' squared scale
    assert report.d_squared_max_residual == certified_d_squared(algebra_for(model))[1]
    scale = max(1.0, float(np.abs(algebra_for(model).d_sparse[2]).max(initial=0.0)) ** 2)
    assert abs(report.d_squared_max_residual - dd_res) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("s", [1.0, 10.0, 100.0, 1000.0, 1e6])
def test_two_step_models_pass_the_gate_at_every_scale(s, fresh_caches):
    # d*d cancels exactly; its rounding grows as eps s^2, past an absolute 1e-12 at s = 100
    for seed in range(20):
        model = _two_step(s, seed)
        report = require_valid(model)
        assert report.d_squared_vanishes and not report.messages, seed
        ok, largest = certified_d_squared(algebra_for(model))
        assert ok and largest <= VALIDATION_TOL * s * s


@pytest.mark.parametrize("c", [-1e20, -1e100])
def test_iwasawa_with_a_huge_coefficient_passes_the_gate(c, fresh_caches):
    assert require_valid(make_model("iwasawa_big", 3, [(3, "holo", 1, 2, c)])).all_passed


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-3, 7)])
def test_a_non_lie_model_is_refused_at_every_scale(scale, tmp_path, capsys, fresh_caches):
    # d theta^3 = s theta^1 ^ theta^2, d theta^1 = s theta^1 ^ theta^3: d*d = s^2 theta^123
    model = make_model("non_lie", 3, [(3, "holo", 1, 2, scale), (1, "holo", 1, 3, scale)])
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    assert main(["eval", "--model", str(path), "--functional", "G"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: d*d has max residual {scale * scale:.3e}")


class _DTotal(np.ndarray):
    """A view of a d_total matrix that records each matrix product with another one,
    the dense d*d; every other operation gives a plain array."""
    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and all(isinstance(x, _DTotal) for x in inputs):
            _DTotal.products.append(tuple(x.shape for x in inputs))

        def plain(arrays):
            return tuple(x.view(np.ndarray) if isinstance(x, _DTotal) else x for x in arrays)
        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


def test_verify_forms_no_dense_d_squared(tmp_path, capsys, monkeypatch, fresh_caches):
    # verify reports the largest sparse sum of certified_d_squared, which tells this
    # model's d*d (2.8e-18) from the dense products' rounding (1.6e-17)
    model = _seeded_family("heisenberg", 3, True, 1)
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    real = ExteriorAlgebra.d_total
    monkeypatch.setattr(ExteriorAlgebra, "d_total", lambda alg, k: real(alg, k).view(_DTotal))
    monkeypatch.setattr(_DTotal, "products", [])
    assert main(["verify", "--model", str(path), "--metrics", "1"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert _DTotal.products == []
    alg = algebra_for(model)
    assert report["validation"]["d_squared_max_residual"] == certified_d_squared(alg)[1] > 0
    alg.d_total(2) @ alg.d_total(1)  # the probe sees a dense d*d product
    assert _DTotal.products == [((20, 15), (15, 6))]


def test_validation_builds_no_total_degree_matrix(tmp_path, capsys, fresh_caches):
    model = make_model("iwasawa_x_t3", 6, [(3, "holo", 1, 2, -1.37)])
    require_valid(model)
    alg = algebra_for(model)
    assert kept_keys(alg, ExteriorAlgebra.d_total) == []
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    assert main(["eval", "--model", str(path), "--functional", "G"]) == 0
    capsys.readouterr()
    assert algebra_for(model) is alg and kept_keys(alg, ExteriorAlgebra.d_total) == []


def _dense_d_blocks(alg, p, q):
    """The dense d blocks on Lambda^{p,q} built as before the sparse store, from the
    loop tables: every derivation entry added onto a zero matrix with np.add.at in
    generator order, all-zero blocks dropped."""
    acc, blocks = {}, {}
    for g, K, L, coeff in alg._d_terms:
        table = loop_derivation_table(alg.n, p, q, g, _indices(K), _indices(L))
        if table is not None:
            tgt, rows, cols, sign = table
            acc.setdefault(tgt, []).append((rows, cols, sign * coeff))
    for tgt, terms in acc.items():
        mat = np.zeros((dim_pq(alg.n, *tgt), dim_pq(alg.n, p, q)), dtype=complex)
        rows, cols, vals = map(np.concatenate, zip(*terms))
        np.add.at(mat, (rows, cols), vals)
        if np.any(mat):
            blocks[tgt] = mat
    return blocks


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.mark.parametrize("build", _GATE_MODELS)
def test_sparse_d_matches_the_dense_build_bit_for_bit(build, fresh_caches):
    alg = algebra_for(build())
    lay = exterior_module._layout(alg.n)
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
    for pq in itertools.product(range(alg.n + 1), repeat=2):
        want = _dense_d_blocks(alg, *pq)
        got = alg.d_blocks(*pq)
        assert sorted(got) == sorted(want)
        for tgt, mat in want.items():
            assert got[tgt].dtype == mat.dtype and got[tgt].tobytes() == mat.tobytes()
            r, c = np.nonzero(mat != 0)
            parts.append((r + lay[tgt].start, c + lay[pq].start, mat[r, c]))
    # the store holds the same entries, sorted by column, then row
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((rows, cols))
    got_rows, got_cols, got_vals = alg.d_sparse
    assert np.array_equal(got_rows, rows[order]) and np.array_equal(got_cols, cols[order])
    assert got_vals.tobytes() == vals[order].tobytes()


def test_eval_g_densifies_only_the_blocks_it_reads(tmp_path, capsys, fresh_caches):
    n = 7
    model = make_model("iwasawa_x_t4", n, [(3, "holo", 1, 2, -1.25)])
    path = tmp_path / "model.json"
    path.write_text(serialize_model(model))
    assert main(["eval", "--model", str(path), "--functional", "G"]) == 0
    capsys.readouterr()
    alg = algebra_for(model)
    # the gate reads d's sparse entries everywhere, but dense blocks only exist where
    # the predicates (d omega, del dbar omega, d omega_(n-1)) and the dbar complex
    # around Gamma's (n-1, n-2) read them: the bases of dbar out of (n-1, n-3..n-1)
    # and the Laplacian on (n-1, n-2)
    predicates = {(1, 1), (1, 2), (n - 1, n - 1)}
    gamma = {(n - 1, q) for q in range(n - 3, n)}
    assert set(kept_keys(alg, ExteriorAlgebra.d_blocks)) == predicates | gamma
    assert len(kept_keys(alg, ExteriorAlgebra.d_blocks)) == 5  # of 64 source bidegrees


def test_eval_g_at_n8_stays_small(tmp_path):
    # a fresh process on one BLAS thread: the dense d blocks of every bidegree
    # (2.3 GB at n = 8) are never built
    path = tmp_path / "model.json"
    path.write_text(serialize_model(make_model("iwasawa_x_t5", 8, [(3, "holo", 1, 2, -1.25)])))
    # VmHWM is the child's own peak: ru_maxrss keeps the high-water mark of the process
    # image that exec replaced, here the test runner's
    child = ("import sys; from hermicone.cli import main; "
             "code = main(['eval', '--model', sys.argv[1], '--functional', 'G', "
             "'--out', sys.argv[2]]); "
             "print(code, *[line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM:')])")
    src = str(Path(model_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", child, str(path), str(tmp_path / "out.json")],
                         capture_output=True, text=True, env=env, check=True)
    code, peak_kb = map(int, run.stdout.split())
    assert code == 0
    assert peak_kb / 1024 < 300


@pytest.mark.parametrize("model", [make_model("bad", 2, [(2, "anti", 1, 2, 1.0)]),
                                   make_model("nonuni", 2, [(2, "mixed", 1, 2, 1.0)])],
                         ids=["antiholomorphic", "d_squared"])
def test_the_python_api_refuses_an_invalid_model(model):
    # the Python entries refuse what build_bundle and the CLI refuse; an algebra is
    # taken as validated by its caller
    calls = (lambda m: descend(m, "F", steps=2), lambda m: constraint_basis(m, "skt"),
             lambda m: variation_battery(m, tuples=1))
    for call in calls:
        with pytest.raises(ModelInvalid):
            call(model)
    assert constraint_basis(algebra_for(model), "skt").dimension >= 0
