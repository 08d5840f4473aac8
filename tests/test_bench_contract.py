"""The benchmark's tracer wraps protomem functions by name, and its
lifecycle calls them as `<module>.<name>(...)`; a refactor that renames or
moves one of them, or renames a parameter the lifecycle passes by keyword,
would silently drop its spans from traced runs, or break the benchmark
while every other test passes. Both files are read from their source,
and neither is edited. The lifecycle also learns on deep copies of the
base memories every round, which a test checks, and the last test runs
the set-up and one round of two shrunken workloads."""

import ast
import copy
import importlib
import inspect
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import ConcatRows, held_nbytes, learn_class_oracle, make_points_dataset
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
    # twice and raise peak_rss_mb. The base is built as `lifecycle` builds
    # it, which keeps no class means: `base_am` is None.
    assert {"trained.base_em", "trained.base_am"} <= lifecycle_deepcopies()
    params = backbone.init_model([8, 6, 4], seed=0)
    quant = memory.QuantSpec(prototype_bits=3)
    base_em, base_am = offline.build_base_em(params, make_points_dataset(6, 5, dim=8), quant)
    assert base_am is None
    mems = [base_em, *(copy.deepcopy(base_em) for _ in range(2))]
    for mem in mems:
        stored = sum(array.nbytes for array in ConcatRows.of(mem).arrays.values())
        assert held_nbytes(mem) <= 2 * stored
    oracles = [ConcatRows.of(mem) for mem in mems]
    rng = np.random.default_rng(4)
    for cid in range(100, 106):
        who = cid % len(mems)
        samples = rng.standard_normal((5, 8))
        online.learn_class(mems[who], base_am, params, samples, cid)
        learn_class_oracle(oracles[who], quant, params, samples, cid)
        for mem, rows in zip(mems, oracles):
            rows.assert_holds(mem)


@pytest.mark.parametrize("workload", ["online_sessions", "offline_train"])
def test_a_small_lifecycle_round_keeps_its_checks(monkeypatch, tmp_path, workload):
    # the set-up and one round of a workload, shrunk to a few milliseconds
    # of work: the base memories it deep-copies keep no class means
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under benchmarks/
    lifecycle = importlib.import_module("lifecycle")
    spec = replace(
        lifecycle.WORKLOADS[workload], classes=6, per_class=9, grid=4, max_shift=0,
        base_classes=3, ways=1, shots=2, sessions=2, per_class_cap=6, test_per_class=2,
        hidden=(8, 6, 4), pretrain_epochs=1, meta_iterations=1, meta_samples=2,
    )
    rec = lifecycle.Samples()
    state = lifecycle.setup(spec, 3, rec)
    out = lifecycle.run_round(spec, state, 3, tmp_path / "em.ofem", rec)
    assert out["snapshot_roundtrip"] and out["learn_replays_agree"]
    assert len(out["session_accs"]) == spec.sessions + 1
    assert len(rec.raw["learn_class_ms"]) == lifecycle.LEARN_SAMPLES_PER_ROUND
    if not spec.train_in_round:
        assert state.trained.base_am is None
