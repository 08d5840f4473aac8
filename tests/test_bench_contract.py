"""The benchmark's tracer wraps protomem functions by name; a refactor that
renames or moves one of them would silently drop its spans from traced runs.
The tracer's table is read from its source, without importing or editing it."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


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


def test_rebuilt_at_bits_is_patchable():
    from protomem.memory import ExplicitMemory

    assert "rebuilt_at_bits" in ExplicitMemory.__dict__
