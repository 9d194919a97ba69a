"""The package namespace: no exported name hides a submodule, and no module imports a
name it does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import hermicone


def test_no_exported_name_shadows_a_submodule():
    # an export named after a submodule (say a function `variation`) would make
    # `hermicone.variation` the function, and patches of the module miss it
    names = [info.name for info in pkgutil.iter_modules(hermicone.__path__)]
    assert "variation" in names
    for name in names:
        module = importlib.import_module(f"hermicone.{name}")
        assert getattr(hermicone, name) is module, name


def _unused_imports(path):
    """The names path's imports bind and its code never reads; in __init__.py a name
    without a leading underscore is an export, and counts as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        read |= {name for name in bound if not name.startswith("_")}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(hermicone.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    assert {path.name: _unused_imports(path) for path in paths} == \
        {path.name: [] for path in paths}


def test_the_unused_import_check_finds_what_it_looks_for(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "import numpy as np\nfrom .x import a, b as c\n\n"
                      "def f(v: a) -> None:\n    return np.abs(v)\n")
    assert _unused_imports(module) == [(2, "os"), (4, "c")]
    init = tmp_path / "__init__.py"
    init.write_text("import sys as _sys\nfrom .mod import f\n")
    assert _unused_imports(init) == [(1, "_sys")]
