"""The package imports only the standard library, numpy and itself, and
exports every name its __init__ imports."""

import ast
import pathlib
import sys

import gravinst

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gravinst"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gravinst"}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_is_numpy_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {
        (path.name, name)
        for path in files
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name not in ALLOWED
    }
    assert not foreign, sorted(foreign)


def test_all_resolves_and_lists_every_imported_name():
    # a name dropped from a module must leave __all__ too, and a name
    # imported into the package must be exported
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert [name for name in gravinst.__all__ if not hasattr(gravinst, name)] == []
    assert sorted(imported - set(gravinst.__all__)) == []
