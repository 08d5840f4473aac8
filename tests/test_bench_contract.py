"""The benchmark's tracer wraps protomem functions by name, and its
lifecycle calls them as `<module>.<name>(...)`; a refactor that renames or
moves one of them, or renames a parameter the lifecycle passes by keyword,
would silently drop its spans from traced runs, or break the benchmark
while every other test passes. Both files are read from their source,
without importing or editing them. The lifecycle also learns on deep
copies of the base memories every round, which the last test checks."""

import ast
import copy
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

from helpers import ConcatRows, held_nbytes, learn_class_oracles, make_points_dataset
from protomem import backbone, memory, offline, online

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


def protomem_modules(tree) -> set:
    """The names a parsed file binds with `from protomem import ...`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "protomem"
        for alias in node.names
    }


def protomem_attributes(path) -> set:
    """Every (module, name) that `path` reads as `<module>.<name>` from a
    module it imports with `from protomem import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = protomem_modules(tree)
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def protomem_calls(path) -> list:
    """Every `<module>.<name>(...)` call in `path` on such a module, as
    (line, module, name, positional argument nodes, keyword names)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = protomem_modules(tree)
    return [
        (node.lineno, node.func.value.id, node.func.attr, node.args,
         [kw.arg for kw in node.keywords])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in modules
    ]


def test_every_lifecycle_name_resolves():
    names = protomem_attributes(LIFECYCLE)
    assert ("offline", "init_fcc") in names and ("memory", "QuantSpec") in names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"protomem.{module}"), name)
    ]
    assert not missing, missing


def test_every_lifecycle_call_binds_to_its_signature():
    calls = protomem_calls(LIFECYCLE)
    assert any(
        (module, name) == ("offline", "pretrain") and "batch_size" in keywords
        for _, module, name, _, keywords in calls
    )
    unbound = []
    for line, module, name, args, keywords in calls:
        where = f"lifecycle.py:{line} {module}.{name}"
        # a starred or ** argument hides what it passes
        assert not any(isinstance(a, ast.Starred) for a in args), where
        assert None not in keywords, where
        signature = inspect.signature(getattr(importlib.import_module(f"protomem.{module}"), name))
        try:
            signature.bind(*args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert not unbound, unbound


def protocol_report_reads(path) -> set:
    """Every attribute that `path` reads, in the function that binds it,
    off a name bound to a `harness.run_protocol(...)` result."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "harness" in protomem_modules(tree)
    reads = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        reports = {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "harness.run_protocol"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        reads |= {
            node.attr
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in reports
        }
    return reads


def test_every_report_field_the_lifecycle_reads_exists():
    from protomem.harness import SessionReport

    reads = protocol_report_reads(LIFECYCLE)
    assert "session_accuracies" in reads
    missing = reads - {field.name for field in fields(SessionReport)}
    assert not missing, sorted(missing)


def test_rebuilt_at_bits_is_patchable():
    from protomem.memory import ExplicitMemory

    assert "rebuilt_at_bits" in ExplicitMemory.__dict__


def lifecycle_deepcopies() -> set:
    """The source of every argument that lifecycle.py hands `copy.deepcopy`."""
    tree = ast.parse(LIFECYCLE.read_text(encoding="utf-8"))
    return {
        ast.unparse(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "copy.deepcopy"
    }


def test_deep_copied_base_memories_learn_alone_and_hold_each_row_once():
    # Every round learns on deep copies of the learned base memories. A copy
    # that wrote into its source's buffers would change the next round's
    # base; one that kept a view beside the buffer it views would hold rows
    # twice and raise peak_rss_mb.
    assert {"trained.base_em", "trained.base_am"} <= lifecycle_deepcopies()
    params = backbone.init_model([8, 6, 4], seed=0)
    quant = memory.QuantSpec(prototype_bits=3)
    base_em, base_am = offline.build_base_em(params, make_points_dataset(6, 5, dim=8), quant)
    copies = [(copy.deepcopy(base_em), copy.deepcopy(base_am)) for _ in range(2)]
    for mem in [base_em, base_am, *(m for pair in copies for m in pair)]:
        stored = sum(array.nbytes for array in ConcatRows.of(mem).arrays.values())
        assert held_nbytes(mem) <= 2 * stored
    pairs = [(base_em, base_am), *copies]
    oracles = [(ConcatRows.of(em), ConcatRows.of(am)) for em, am in pairs]
    rng = np.random.default_rng(4)
    for cid in range(100, 106):
        who = cid % len(pairs)
        samples = rng.standard_normal((5, 8))
        online.learn_class(*pairs[who], params, samples, cid)
        learn_class_oracles(*oracles[who], quant, params, samples, cid)
        for (em, am), (em_rows, am_rows) in zip(pairs, oracles):
            em_rows.assert_holds(em)
            am_rows.assert_holds(am)
