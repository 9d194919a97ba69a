"""The package namespace: no exported name hides a submodule, no module imports a name
it does not use, and no function takes a parameter it does not read."""

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


def _unused_parameters(path):
    """(line, function, parameter) for each parameter of a def or a lambda in path that
    its body never reads, self and cls excepted.  A lambda given to Cone(...) is exempt:
    its signature is the field's."""
    tree = ast.parse(path.read_text())
    fields = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "Cone"
              for arg in [*node.args, *(kw.value for kw in node.keywords)]}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                or id(node) in fields:
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        args = node.args
        found += [(node.lineno, getattr(node, "name", "lambda"), arg.arg)
                  for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg,
                              args.kwarg)
                  if arg is not None and arg.arg not in read | {"self", "cls"}]
    return sorted(found)


def test_no_function_takes_a_parameter_it_does_not_read():
    paths = sorted(Path(hermicone.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    assert {path.name: _unused_parameters(path) for path in paths} == \
        {path.name: [] for path in paths}


def test_the_unused_parameter_check_finds_what_it_looks_for(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("class A:\n    def f(self, which, key):\n        return key\n\n"
                      "    @classmethod\n    def g(cls, *args, **named):\n"
                      "        return args\n\n"
                      "def h(a, b, *, c):\n    def inner():\n        return a + c\n"
                      "    b = 1\n    return inner\n\n"
                      "F = (lambda n: 1, Cone(lambda n: 1, space=lambda n: 2))\n")
    assert _unused_parameters(module) == [(2, "f", "which"), (6, "g", "named"),
                                          (9, "h", "b"), (15, "lambda", "n")]
