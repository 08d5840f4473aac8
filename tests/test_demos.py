"""The demos are documentation that runs. Demo 01 takes well under a second,
so every test run executes it; demos 02-04 train models for 10-17 s each and
write their outputs into the working directory, so they are run by hand."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_01_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_prototype_memory_basics.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "minimal shift: 9" in done.stdout
