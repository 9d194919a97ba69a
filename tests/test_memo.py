"""exterior.memo: one table per object for the work that depends on it alone."""

import ast
import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import hermicone
from hermicone import cli, hodge
from hermicone.exterior import ExteriorAlgebra, Form, memo, random_form
from hermicone.metric import (HermitianMetric, OperatorBundle, bundle_for_algebra, identity_suite,
                              random_metric)
from hermicone.model import algebra_for, catalog, make_model, serialize_model
from hermicone.variation import Direction, first_variation, make_direction

from .conftest import seeded_bundle

SRC = Path(hermicone.__file__).resolve().parent


def test_a_repeated_call_returns_the_kept_object():
    b = seeded_bundle("iwasawa", seed=1)
    gamma = random_form(3, [(1, 1)], np.random.default_rng(1), real=True)
    for call in (lambda: b.gram(1, 1), lambda: b.gram_total(2), lambda: b.star_block(1, 2),
                 lambda: b.trace_block(2, 1), lambda: b.codiff("d", 2),
                 lambda: b.alg.d_total(2), lambda: b.alg.d_blocks(1, 0),
                 lambda: gamma.wedge_matrix(1, 1), lambda: hodge.decomposition(b, "d", 2)):
        assert call() is call()


def test_a_bidegree_given_as_a_list_or_an_array_is_kept_as_its_tuple():
    b = seeded_bundle("iwasawa", seed=1)  # a list as the first key of a fresh table
    kept = b.codiff("dbar", [1, 1])
    assert b.codiff("dbar", np.array([1, 1])) is kept and b.codiff("dbar", (1, 1)) is kept
    proj = hodge.harmonic_projector(b, "dbar", [1, 2])
    assert hodge.harmonic_projector(b, "dbar", (1, 2)) is proj


@pytest.mark.parametrize("get", [
    lambda b: b.gram(1, 1),
    lambda b: b.codiff("dbar", (1, 1)),
    lambda b: b.alg.d_total(1),
    lambda b: b.omega.wedge_matrix(1, 0),
    lambda b: b.alg.d_blocks(1, 0)[(2, 0)],
], ids=["gram", "codiff", "d_total", "wedge_matrix", "d_blocks"])
def test_kept_arrays_are_read_only(get):
    b = seeded_bundle("iwasawa", seed=2)
    mat = get(b)
    assert mat.size
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    with pytest.raises(ValueError):
        mat += 1.0


def _stack(*matrices):
    """The stacked (1,1) forms of Hermitian matrices."""
    return Form(len(matrices[0]), np.stack([HermitianMetric(m).form().vec for m in matrices]))


def test_a_direction_stack_does_not_keep_its_bundle_alive():
    alg = algebra_for(catalog("kodaira_thurston"))
    dirs = make_direction(alg, _stack(np.diag([1.0, 2.0]), np.eye(2)))
    for functional in ("F", "H"):
        bundle = bundle_for_algebra(alg, random_metric(2, np.random.default_rng(3)))
        first_variation(bundle, functional, dirs, weight_bundle=bundle)
        ref = weakref.ref(bundle)
        del bundle
        gc.collect()
        assert ref() is None, functional


def _hand_written_caches(tree):
    """Lines that test membership in, store into or setdefault on an attribute of self
    or bundle, outside the function named memo."""
    def owned(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "bundle"))

    found, skip = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "memo":
            skip.update(id(node) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) and owned(right)
                for op, right in zip(node.ops, node.comparators)):
            found.append(node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                and owned(node.value):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "setdefault" and owned(node.func.value):
            found.append(node.lineno)
    return sorted(found)


def test_the_package_writes_no_cache_of_its_own():
    # a per-object result is kept by exterior.memo, not by a dict on the object
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _hand_written_caches(ast.parse(path.read_text())))}
    assert not found, f"hand-written caches at {found}"


def test_the_guard_sees_a_hand_written_cache():
    tree = ast.parse("def gram(self, p):\n"
                     "    if p not in self._gram:\n"
                     "        self._gram[p] = p\n"
                     "    return bundle._hodge.setdefault(p, p)\n"
                     "def cached(self, key):\n"
                     "    return self.memo[key] if key in self.memo else None\n")
    assert _hand_written_caches(tree) == [2, 3, 4, 6]


def test_a_form_is_no_memo_key():
    # an entry under a Form would keep the form alive as long as the bundle
    b = seeded_bundle("kodaira_thurston", seed=5)
    gamma = random_form(2, [(1, 1)], np.random.default_rng(5), real=True)
    with pytest.raises(TypeError, match="Form key"):
        memo(OperatorBundle.commutator)(b, gamma, 1, 1)
    assert not b._memo


def test_variations_leave_no_entry_on_the_bundle_for_their_directions():
    b = seeded_bundle("kodaira_thurston", seed=5)
    rng = np.random.default_rng(5)

    def vary():
        first_variation(b, "F", make_direction(b.alg, np.diag(rng.uniform(1.0, 2.0, 2))))
        gc.collect()
        return len(b._memo)

    kept = vary()
    assert [vary() for _ in range(20)] == [kept] * 20
    # a stack held across calls keeps its forms alive, and nothing on the bundle
    held = make_direction(b.alg, _stack(np.eye(2)))
    first_variation(b, "F", held)
    gc.collect()
    assert len(b._memo) == kept


def test_a_direction_goes_with_its_variation_call():
    # a one-form direction runs as a stack of one, its own chunk, kept nowhere: no
    # cyclic collection is needed; the bundle's decompositions are built before collection
    # stops.  Directions that earlier tests keep alive are counted before the calls
    b = seeded_bundle("kodaira_thurston", seed=5)
    rng = np.random.default_rng(5)

    def alive():
        return sum(isinstance(obj, Direction) for obj in gc.get_objects())

    first_variation(b, "F", make_direction(b.alg, np.eye(2)))
    gc.collect()
    before = alive()
    gc.disable()
    try:
        for _ in range(20):
            first_variation(b, "F", make_direction(b.alg, np.diag(rng.uniform(1.0, 2.0, 2))))
        after = alive()
    finally:
        gc.enable()
    assert after == before


def test_an_audit_keeps_no_laplacian_spectrum_or_commutator():
    # what verify reads once is formed on each call: the walk keeps each degree's
    # projector factors while it audits that degree, and no audit keeps a Hodge
    # decomposition or a total-degree matrix, or needs a Green operator
    alg = ExteriorAlgebra(5, [(2, "mixed", 1, 1, 1.3)])  # Kodaira-Thurston x T^3
    bundle = bundle_for_algebra(alg, random_metric(5, np.random.default_rng(3)))
    identity_suite(bundle, seed=5)
    cli._three_space_walk(bundle)
    hodge.basis_residuals(alg)
    kept = [(fn.__name__, key) for owner in (bundle, alg) for fn, key in owner._memo]
    names = {name for name, _ in kept}
    assert "bases" in names
    assert not names & {"laplacian", "spectral", "commutator", "green_operator",
                        "decomposition", "gram_total", "d_total"}
    assert not [key for name, key in kept if name == "codiff" and key[0] == "d"]


@pytest.mark.parametrize("n,terms", [
    (4, [(3, "holo", 1, 2, -1.25)]),  # Iwasawa x T^1
    (5, [(2, "mixed", 1, 1, 1.3)]),  # Kodaira-Thurston x T^3
], ids=["iwasawa_x_t1", "kt_x_t3"])
def test_verify_forms_no_total_degree_gram_codiff_d_or_decomposition(
        n, terms, monkeypatch, tmp_path, capsys, fresh_caches):
    def refuse(*args):
        raise AssertionError("verify formed a total-degree matrix or kept decomposition")

    codiff = OperatorBundle.codiff
    monkeypatch.setattr(hodge, "decomposition", refuse)
    monkeypatch.setattr(OperatorBundle, "gram_total", refuse)
    monkeypatch.setattr(ExteriorAlgebra, "d_total", refuse)
    monkeypatch.setattr(OperatorBundle, "codiff", lambda self, which, key: refuse() if
                        which == "d" else codiff(self, which, key))
    path = tmp_path / "model.json"
    path.write_text(serialize_model(make_model(f"verify{n}", n, terms)))
    assert cli.main(["verify", "--model", str(path), "--metrics", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["pass"] is True


def test_a_keyword_call_finds_the_positional_entry():
    b = seeded_bundle("iwasawa", seed=1)
    for kept, named in ((b.gram(1, 1), lambda: b.gram(p=1, q=1)),
                        (b.codiff("d", 2), lambda: b.codiff("d", key=2)),
                        (b.compound(2, True), lambda: b.compound(2, of_h=True)),
                        (hodge.green_operator(b, "d", 2),
                         lambda: hodge.green_operator(b, "d", key=2))):
        assert named() is kept
    with pytest.raises(TypeError, match="unexpected keyword"):
        b.gram(1, 1, r=1)


def kept_arrays(owners):
    """(where, array) for each array the memo tables of owners hold, once each: an entry,
    a tuple, list or dict member, an attribute of a kept object, or a kept Form's vector
    and entries, at any depth."""
    seen = set()

    def entries(owner, where):
        for (fn, key), value in getattr(owner, "_memo", {}).items():
            yield from walk(value, where + (fn.__name__, key))

    def walk(value, where):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield where, value
        elif isinstance(value, Form):
            yield from walk(value.vec, where + ("vec",))
            yield from entries(value, where)
        else:
            members = enumerate(value) if isinstance(value, (tuple, list)) \
                else value.items() if isinstance(value, dict) \
                else vars(value).items() if hasattr(value, "__dict__") else ()
            for name, member in members:
                yield from walk(member, where + (name,))

    for owner in owners:
        yield from entries(owner, (type(owner).__name__,))


def _writable_kept_arrays(owners):
    return [where for where, arr in kept_arrays(owners) if arr.flags.writeable]


def test_every_array_a_job_keeps_is_read_only(monkeypatch, tmp_path, capsys, fresh_caches):
    # every bundle, algebra, form and direction the jobs make is held, and each memo
    # table is walked once all jobs have run
    owners = []
    for cls in (OperatorBundle, ExteriorAlgebra, Form, Direction):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            owners.append(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", recording)
    path = tmp_path / "iwasawa_anti.json"
    path.write_text(serialize_model(make_model(
        "iwasawa_anti", 3, [(3, "holo", 1, 2, -1.0), (3, "anti", 1, 2, 1e-13)])))
    sources = [(["--catalog", name], "G" if name == "iwasawa" else "F")
               for name in ("iwasawa", "kodaira_thurston", "torus2", "torus3")]
    for source, functional in sources + [(["--model", str(path)], "G")]:
        for job in (["eval", "--functional", functional], ["torsion"],
                    ["verify", "--metrics", "2"], ["varcheck", "--tuples", "2"],
                    ["descend", "--functional", functional, "--steps", "3"]):
            assert cli.main(job + source) == 0, (job, source)
    capsys.readouterr()
    kinds = {type(owner) for owner in owners if getattr(owner, "_memo", None)}
    assert kinds == {OperatorBundle, ExteriorAlgebra, Form, Direction}
    assert _writable_kept_arrays(owners) == []
    assert any(fn.__name__ == "_codiff_blocks" for owner in owners
               for fn, _ in getattr(owner, "_memo", {}))


def test_the_walk_finds_a_writable_kept_array():
    b = seeded_bundle("kodaira_thurston", seed=5)
    b.gram(1, 1)
    hidden = np.zeros(2)
    b._memo[OperatorBundle.gram.__wrapped__, (0, 0)] = ({"block": [hidden]},)
    assert _writable_kept_arrays([b]) == [("OperatorBundle", "gram", (0, 0), 0, "block", 0)]
