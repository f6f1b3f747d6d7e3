"""Every public name the package lists or re-exports exists, so deleting a
function cannot leave a dangling export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sparsevmf

MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsevmf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sparsevmf.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(sparsevmf.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"sparsevmf.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(sparsevmf, name) is getattr(module, name)
