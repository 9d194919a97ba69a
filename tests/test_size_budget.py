"""The size budget: jobs too large to finish are refused before any algebra is built."""

import argparse
import time
import tracemalloc

import numpy as np
import pytest

from hermicone import cli, exterior, metric
from hermicone.cli import DENSE_BUDGET, EXIT_SCHEMA, dense_side, main
from hermicone.model import algebra_for, make_model, serialize_model, validate_model


def _arrays(obj, seen):
    """Every 2-d array reachable from obj through hermicone objects and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value, seen)
    elif type(obj).__module__.startswith("hermicone") and hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value, seen)


def _largest_side(monkeypatch, tmp_path, model, argv, capsys):
    """The largest side of a matrix the job left in its bundles' and algebra's caches
    or passed to eigh: every matrix it forms is one of them or has their sides."""
    bundles, eigh_sides = [], []
    init, eigh = metric.OperatorBundle.__init__, np.linalg.eigh
    monkeypatch.setattr(metric.OperatorBundle, "__init__",
                        lambda self, *a, **k: init(self, *a, **k) or bundles.append(self))
    # the optimizer's constraint basis calls eigh; no Hodge decomposition does
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *rest, **kw: eigh_sides.append(len(a)) or eigh(a, *rest, **kw))
    path = tmp_path / f"{model.name}.json"
    path.write_text(serialize_model(model))
    validate_model.cache_clear()
    algebra_for.cache_clear()
    try:
        main([argv[0], "--model", str(path), *argv[1:]])
        capsys.readouterr()
        seen = set()
        sides = [max(a.shape) for obj in [*bundles, algebra_for(model)]
                 for a in _arrays(obj, seen)]
    finally:
        validate_model.cache_clear()
        algebra_for.cache_clear()
    return max(sides + eigh_sides)


# (argv, exact, largest n run): exact jobs form a matrix of the estimated side on one
# of the two models; varcheck draws its degrees and descent its directions, so for
# them the estimate is a bound.  verify, varcheck and descend F take seconds each at
# n = 6 and stop at n = 5.
_JOBS = [(["eval", "--functional", f], True, 6) for f in ("F", "Ftilde", "G", "H")] + [
    (["torsion"], True, 6),
    (["verify", "--metrics", "1"], True, 5),
    (["varcheck", "--tuples", "1"], False, 5),
    (["descend", "--functional", "G", "--steps", "1"], False, 6),
    (["descend", "--functional", "F", "--steps", "1"], False, 5),
]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_estimate_matches_the_largest_matrix_formed(n, monkeypatch, tmp_path, capsys):
    # the flat torus reaches every space of the complexes; Kodaira-Thurston x T^(n-2)
    # has a nonzero del dbar omega, so the predicates of eval and torsion densify the
    # (2,2) blocks of d
    torus = make_model(f"torus{n}", n)
    kt = make_model(f"kt_x_t{n - 2}", n, [(2, "mixed", 1, 1, 0.75)])
    for argv, exact, largest_n in _JOBS:
        if n > largest_n:
            continue
        models = (torus, kt) if argv[0] in ("eval", "torsion") else (torus,)
        formed = max(_largest_side(monkeypatch, tmp_path, model, argv, capsys)
                     for model in models)
        functional = argv[2] if argv[1:2] == ["--functional"] else None
        estimate = dense_side(argv[0], n, functional)
        assert formed == estimate if exact else formed <= estimate, (argv, formed, estimate)


def test_verify_holds_one_degree_at_a_time(tmp_path, capsys, fresh_caches):
    # verify keeps no N x N projector, Gram or codifferential: its projector factors
    # live for one degree.  Traced peak over the memory live before the call, caches
    # cleared (the algebra's bases included) after a first run warmed the per-dimension
    # tables: 28.7 MB with the kept dense projectors, 13.3 MB with the factors (numpy
    # 2.4, one BLAS thread); the bound leaves ~35 % headroom over the second
    path = tmp_path / "kt_x_t3.json"
    path.write_text(serialize_model(make_model("kt_x_t3", 5, [(2, "mixed", 1, 1, 1.3)])))
    argv = ["verify", "--model", str(path), "--metrics", "1"]

    def run():
        validate_model.cache_clear()
        algebra_for.cache_clear()
        code = main(argv)
        capsys.readouterr()
        return code

    assert run() == 0
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        assert run() == 0
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2 ** 20, peak / 2 ** 20


def _namespace(subcommand, functional=None):
    return argparse.Namespace(subcommand=subcommand, functional=functional)


def test_budget_admits_every_corpus_and_benchmark_job():
    # the report corpus and the benchmark run every job kind up to n = 6, and eval G
    # at n = 7; eval G at n = 8 is the memory guard's job
    for n in range(2, 7):
        for subcommand, functionals in (("verify", [None]), ("varcheck", [None]),
                                        ("torsion", [None]),
                                        ("eval", ["F", "Ftilde", "G", "H"]),
                                        ("descend", ["F", "Ftilde", "G", "H"])):
            for functional in functionals:
                cli._require_budget(_namespace(subcommand, functional), n)
    for n in (7, 8):
        cli._require_budget(_namespace("eval", "G"), n)


def test_refused_size_exits_schema_before_building_an_algebra(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(exterior.ExteriorAlgebra, "__init__", refuse)
    path = tmp_path / "torus9.json"
    path.write_text(serialize_model(make_model("torus9", 9)))
    start = time.perf_counter()
    code = main(["verify", "--model", str(path)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == EXIT_SCHEMA
    assert err.startswith("error: verify at n = 9 needs a dense 48620 x 48620 matrix")
    assert f"the budget is {DENSE_BUDGET} entries" in err


def test_a_huge_n_is_refused_without_big_numbers(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(serialize_model(make_model("huge", 10 ** 9)))
    start = time.perf_counter()
    code = main(["eval", "--model", str(path), "--functional", "G"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_SCHEMA
    assert "4^1000000000-entry coefficient vector" in capsys.readouterr().err
