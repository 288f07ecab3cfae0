"""The export lists: a removed or renamed name cannot stay behind in an ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import dnem


def test_every_export_exists_and_the_package_exports_what_it_imports():
    modules = [dnem] + [
        importlib.import_module(f"dnem.{info.name}") for info in pkgutil.iter_modules(dnem.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []

    tree = ast.parse(Path(dnem.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(set(dnem.__all__)) == len(dnem.__all__)
    assert set(dnem.__all__) == set(imported) | {"__version__"}
