"""The export lists: a removed or renamed name cannot stay behind in an ``__all__``,
and no name that the benchmark's tracer or workloads bind can go."""

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import dnem
from dnem.curves import AggregateResponseCurve

ROOT = Path(__file__).resolve().parents[1]


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


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded from its path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_binds_exists():
    tracer = _perfbench_module("tracer")
    missing = [
        f"{module}.{attr}"
        for module, attr in tracer.FUNCTIONS.values()
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [
        f"AggregateResponseCurve.{method}"
        for method in tracer.METHODS.values()
        if method not in AggregateResponseCurve.__dict__
    ]
    assert missing == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(_perfbench_module("workloads").WORKLOADS) == sorted(w["name"] for w in declared)
