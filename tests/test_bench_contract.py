"""The benchmark's tracer wraps protomem functions by name, and its
lifecycle calls them as `<module>.<name>`; a refactor that renames or moves
one of them would silently drop its spans from traced runs, or break the
benchmark while every other test passes. Both files are read from their
source, without importing or editing them."""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"
LIFECYCLE = BENCHMARKS / "lifecycle.py"


def traced_names() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/tracer.py defines no TRACED table")


def test_every_traced_name_resolves():
    table = traced_names()
    assert table
    for layer, names in table.items():
        module = importlib.import_module(f"protomem.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                # the tracer patches methods in the class __dict__
                assert meth in vars(getattr(module, cls_name)), name
            else:
                assert callable(getattr(module, name)), f"{layer}.{name}"


def protomem_attributes(path) -> set:
    """Every (module, name) that `path` reads as `<module>.<name>` from a
    module it imports with `from protomem import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "protomem"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_lifecycle_name_resolves():
    names = protomem_attributes(LIFECYCLE)
    assert ("offline", "init_fcc") in names and ("memory", "QuantSpec") in names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"protomem.{module}"), name)
    ]
    assert not missing, missing


def test_rebuilt_at_bits_is_patchable():
    from protomem.memory import ExplicitMemory

    assert "rebuilt_at_bits" in ExplicitMemory.__dict__
