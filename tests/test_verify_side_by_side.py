"""verify's identity suite and three-space walk side by side: the same report as in
turn, the gate that picks the path, the error order, and disjoint memo entries."""

import json
import threading

import numpy as np
import pytest

from hermicone import cli
from hermicone.errors import DimensionMismatch, ToleranceFailure
from hermicone.exterior import ExteriorAlgebra
from hermicone.metric import bundle_for_algebra, identity_suite, random_metric

# (n, terms): n = 5 members of two highdim families (Kodaira-Thurston x T^3, complex
# Heisenberg) and Iwasawa x T^1 (n = 4)
MODELS = {
    "kt_x_t3": (5, [(2, "mixed", 1, 1, 1.3)]),
    "heisenberg5": (5, [(5, "holo", 1, 2, 0.7), (5, "holo", 3, 4, -1.3)]),
    "iwasawa_x_t1": (4, [(3, "holo", 1, 2, -1.25)]),
}


def model_file(tmp_path, name):
    n, terms = MODELS[name]
    doc = {"name": name, "n": n,
           "terms": [{"i": i, "kind": kind, "j": j, "k": k, "re": c, "im": 0.0}
                     for (i, kind, j, k, c) in terms]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def verify(capsys, *source):
    code = cli.main(["verify", *source, "--metrics", "1", "--seed", "5"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def suite_threads(monkeypatch):
    """The threads identity_suite ran on, one per metric."""
    seen, suite = [], cli.identity_suite

    def spy(bundle, seed):
        seen.append(threading.current_thread())
        return suite(bundle, seed=seed)

    monkeypatch.setattr(cli, "identity_suite", spy)
    return seen


@pytest.mark.parametrize("name", ["kt_x_t3", "heisenberg5"])
def test_side_by_side_prints_the_report_of_the_sequential_path(name, tmp_path, capsys,
                                                               monkeypatch, suite_threads):
    path = model_file(tmp_path, name)
    reports = {}
    for side_by_side in (False, True):
        monkeypatch.setattr(cli, "_side_by_side", lambda n, on=side_by_side: on)
        reports[side_by_side] = verify(capsys, "--model", path)
    assert reports[True] == reports[False]
    assert reports[True][0] == cli.EXIT_OK
    main = threading.main_thread()
    assert [t is main for t in suite_threads] == [True, True, False, False]


def test_the_gate_needs_n_at_least_5_and_two_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    assert [cli._side_by_side(n) for n in (1, 3, 4, 5, 6)] == [False] * 3 + [True] * 2
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    assert not cli._side_by_side(5)


@pytest.mark.parametrize("source", ["iwasawa", "iwasawa_x_t1"])
def test_n_up_to_4_takes_the_sequential_path(source, tmp_path, capsys, monkeypatch,
                                             suite_threads):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    args = ("--catalog", source) if source == "iwasawa" else \
        ("--model", model_file(tmp_path, source))
    code, _, err = verify(capsys, *args)
    assert code == cli.EXIT_OK, err
    assert suite_threads == [threading.main_thread()] * 2


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("side_by_side", [False, True])
def test_the_suite_error_surfaces_before_the_walk_error(side_by_side, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_side_by_side", lambda n: side_by_side)
    monkeypatch.setattr(cli, "three_space_residuals", _raise(ToleranceFailure("walk failed")))
    code, out, err = verify(capsys, "--catalog", "iwasawa")
    assert (code, out) == (cli.EXIT_TOLERANCE, "")
    assert "walk failed" in err
    monkeypatch.setattr(cli, "identity_suite", _raise(DimensionMismatch("suite failed")))
    code, out, err = verify(capsys, "--catalog", "iwasawa")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert "suite failed" in err and "walk failed" not in err


def _added(obj, before):
    return set(getattr(obj, "_memo", {})) - before


def test_suite_and_walk_build_disjoint_entries_after_the_shared_ones():
    # a memo entry both sides built lazily would be built twice, or raced for
    n, terms = MODELS["kt_x_t3"]
    metric = random_metric(n, np.random.default_rng(3))
    added = []
    for audit in (lambda b: identity_suite(b, seed=5), cli._three_space_walk):
        alg = ExteriorAlgebra(n, terms)
        bundle = bundle_for_algebra(alg, metric)
        cli._shared_entries(bundle)
        before = (set(bundle._memo), set(alg._memo))
        audit(bundle)
        added.append((_added(bundle, before[0]), _added(alg, before[1])))
    (suite_bundle, suite_alg), (walk_bundle, walk_alg) = added
    assert suite_bundle and walk_bundle
    assert not suite_bundle & walk_bundle
    assert not suite_alg & walk_alg
