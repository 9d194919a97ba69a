"""The benchmark's tracer binds package names by string: every one must still exist.

perfbench/tracing.py's TARGETS name the functions and methods it wraps, each by
module and attribute.  A change that deletes or renames one of them breaks
`perfbench/run.py --trace 1` alone; this test installs the real TARGETS on the
package and restores them, so such a change fails here too.  The tracer is read
from its source and executed in a fresh module: nothing under perfbench/ is
imported or written.
"""

import importlib
import types
from pathlib import Path

import hermicone  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("hermicone_tracing_under_test")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def _bound(module_name, attr):
    """The object a target names: a module attribute, or a method in its class dict."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def test_every_traced_name_is_installed_and_restored():
    tracing = _tracing()
    targets = tracing.TARGETS
    assert targets and {mod for _, mod, _ in targets} >= {
        "hermicone.cli", "hermicone.metric", "hermicone.hodge", "hermicone.optimizer"}
    before = [_bound(mod, attr) for _, mod, attr in targets]
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        wrapped = [_bound(mod, attr) for _, mod, attr in targets]
    finally:
        tracer.restore()
    assert all(now is not was for now, was in zip(wrapped, before))
    assert all(_bound(mod, attr) is was for (_, mod, attr), was in zip(targets, before))
