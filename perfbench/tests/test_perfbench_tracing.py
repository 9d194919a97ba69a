"""Tracing wrappers: one count per call, every binding patched, originals restored."""

import sys
import time
import types

import pytest

import run
import tracing


@pytest.fixture
def fake_package():
    """fakepkg.core defines leaf and outer; fakepkg.user imports both by name."""
    core = types.ModuleType("fakepkg.core")

    def leaf(x):
        time.sleep(0.001)
        return x + 1

    def outer(x):
        return core.leaf(x) + core.leaf(x)

    core.leaf, core.outer = leaf, outer
    user = types.ModuleType("fakepkg.user")
    user.leaf, user.outer = leaf, outer
    pkg = types.ModuleType("fakepkg")
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user, leaf, outer
    for name in mods:
        sys.modules.pop(name, None)


def _tracer():
    targets = (("pkg.leaf", "fakepkg.core", "leaf"), ("pkg.outer", "fakepkg.core", "outer"))
    return tracing.Tracer(targets, package="fakepkg")


def test_each_call_counted_once_at_every_binding(fake_package):
    core, user, leaf, outer = fake_package
    tracer = _tracer()
    tracer.install()
    try:
        assert core.leaf is not leaf and user.leaf is core.leaf
        user.leaf(1)
        core.leaf(1)
        user.outer(1)
    finally:
        tracer.restore()
    assert tracer.calls["pkg.leaf"] == 4
    assert tracer.calls["pkg.outer"] == 1
    assert len(tracer.spans) == 5
    outer_span = next(s for s in tracer.spans if s[2] == "pkg.outer")
    children = [s for s in tracer.spans if s[1] == outer_span[0]]
    assert [s[2] for s in children] == ["pkg.leaf", "pkg.leaf"]


def test_restore_puts_back_the_originals(fake_package):
    core, user, leaf, outer = fake_package
    tracer = _tracer()
    tracer.install()
    tracer.restore()
    assert core.leaf is leaf and user.leaf is leaf
    assert core.outer is outer and user.outer is outer
    user.leaf(1)
    assert tracer.calls["pkg.leaf"] == 0


def test_self_times_add_up_to_at_most_the_traced_wall(fake_package):
    core, user, leaf, outer = fake_package
    tracer = _tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for _ in range(5):
            user.outer(1)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    total_self = sum(tracer.self_s.values())
    assert 0 < total_self <= wall
    # outer's self time excludes the leaf calls it made
    assert tracer.self_s["pkg.outer"] < tracer.self_s["pkg.leaf"]
    assert tracer.outer_s["pkg.outer"] >= tracer.self_s["pkg.outer"] + tracer.self_s["pkg.leaf"] - 1e-9


def test_exception_still_closes_the_span(fake_package):
    core, user, leaf, outer = fake_package
    tracer = _tracer()
    tracer.install()
    try:
        with pytest.raises(TypeError):
            user.leaf("x")
        user.leaf(1)
    finally:
        tracer.restore()
    assert tracer.calls["pkg.leaf"] == 2 and not tracer._stack


def test_hermicone_targets_wrap_and_restore():
    cli, _ = run.import_program()
    import hermicone.exterior
    import hermicone.functionals
    import hermicone.metric

    wedge = hermicone.exterior.wedge
    gram = hermicone.metric.OperatorBundle.gram
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hermicone.functionals.wedge is hermicone.exterior.wedge is not wedge
        start = time.perf_counter()
        code, *_ = run.run_job(cli, ["eval", "--catalog", "kodaira_thurston",
                                     "--functional", "Ftilde"])
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    assert code == 0
    assert hermicone.exterior.wedge is wedge and hermicone.functionals.wedge is wedge
    assert hermicone.metric.OperatorBundle.gram is gram
    assert tracer.calls["cli.main"] == 1
    assert tracer.outer_calls["functionals.eval"] == 1
    assert tracer.calls["functionals.eval"] == 2  # eval_F_tilde calls eval_F
    assert tracer.calls["metric.gram"] > 0 and tracer.calls["exterior.wedge"] > 0
    assert sum(tracer.self_s.values()) <= wall
    metrics = tracing.layer_metrics(tracer, passes=1, overhead_s=0.0)
    assert metrics["functionals.evals"] == (1, "count")
