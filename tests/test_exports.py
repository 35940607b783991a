"""Every exported name resolves.

Each ``fluidsea.*`` module's ``__all__`` and every name the package's
``__init__`` imports must exist, so a deletion that leaves a stale export
fails here rather than at a user's ``from fluidsea.x import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fluidsea

MODULES = sorted(m.name for m in pkgutil.iter_modules(fluidsea.__path__, "fluidsea."))


def test_modules_found():
    assert "fluidsea.controllers" in MODULES and "fluidsea.sysid" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    # read from the source, so each name is looked up in the module it comes from
    tree = ast.parse(Path(fluidsea.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(f"fluidsea.{module}"), name)]
    assert not missing, f"fluidsea/__init__.py imports missing names: {missing}"
