"""The package namespace: no exported name hides a submodule."""

import importlib
import pkgutil

import hermicone


def test_no_exported_name_shadows_a_submodule():
    # an export named after a submodule (say a function `variation`) would make
    # `hermicone.variation` the function, and patches of the module miss it
    names = [info.name for info in pkgutil.iter_modules(hermicone.__path__)]
    assert "variation" in names
    for name in names:
        module = importlib.import_module(f"hermicone.{name}")
        assert getattr(hermicone, name) is module, name
