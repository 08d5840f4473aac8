"""The demos are documentation that runs. Demo 01 takes well under a second,
so every test run executes it; demos 02-04 train models for 10-17 s each and
write their outputs into the working directory, so they are run by hand;
every call they make to a protomem name is bound to its signature here
instead, without running them."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_01_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_prototype_memory_basics.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "minimal shift: 9" in done.stdout


def protomem_imports(tree) -> dict:
    """Each name a parsed file binds with `from protomem[.module] import ...`."""
    return {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "protomem"
        for alias in node.names
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_every_demo_call_binds_to_its_signature(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imported = protomem_imports(tree)
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in imported
    ]
    assert calls
    unbound = []
    for call in calls:
        where = f"{demo.name}:{call.lineno} {call.func.id}"
        keywords = [kw.arg for kw in call.keywords]
        # a starred or ** argument hides what it passes
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert None not in keywords, where
        try:
            inspect.signature(imported[call.func.id]).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert not unbound, unbound
