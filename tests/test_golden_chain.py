"""Every file that the TINY command chain writes, at seeds 7 and 2024, has
the sha256 that golden_tiny_chain.json records for this platform.

The chain is `pretrain`, `metalearn`, `protocol` with and without
finetuning, `sweep`, a four-row `ablate`, two chained `learn-class` runs
and `classify`. The hashes are keyed by `platform_id` from
benchmarks/run.py, because numpy's vector kernels may sum in another order
on another CPU or numpy build; on a platform with no entry the test is
skipped and the skip names the id. A change that is meant to alter an
artifact re-records the file:

    PYTHONPATH=src python tests/test_golden_chain.py --record
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import TINY
from protomem import cli
from protomem.config import ENV_SEED

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_tiny_chain.json"
BENCH_RUN = HERE.parent / "benchmarks" / "run.py"
SEEDS = (7, 2024)


def platform_id() -> str:
    """benchmarks/run.py's `platform_id`, imported without leaving bytecode
    under benchmarks/."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.platform_id()


def run_chain(out: Path, seed: int) -> dict:
    """Run the chain into `out` and return {file name: sha256} of every
    file it wrote."""

    def run(command, **keys):
        argv = [f"{k}={v}" for k, v in {**TINY, "seed": seed, **keys}.items()]
        assert cli.main([command, *argv]) == 0, f"{command} {keys}"

    meta = out / "meta.ofsc"
    run("pretrain", params_out=out / "params.ofsc", history_out=out / "history.csv")
    run("metalearn", params_in=out / "params.ofsc", params_out=meta,
        history_out=out / "meta_history.csv")
    run("protocol", params_in=meta, report_out=out / "report.csv")
    run("protocol", params_in=meta, finetune="true", report_out=out / "report_ft.csv")
    run("sweep", params_in=meta, sweep_out=out / "sweep.csv")
    run("ablate", ablate_rows="none;AG,OR;AG,OR,MM;AG,OR,MM,FT",
        ablation_out=out / "ablation.csv")
    run("learn-class", params_in=meta, class_id=4, em_out=out / "one.ofem")
    run("learn-class", params_in=meta, class_id=5, em_in=out / "one.ofem",
        em_out=out / "two.ofem")
    run("classify", params_in=meta, em_in=out / "two.ofem", predictions_out=out / "pred.csv")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_golden(tmp_path, monkeypatch, seed):
    monkeypatch.delenv(ENV_SEED, raising=False)
    pid = platform_id()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(pid)
    if golden is None:
        pytest.skip(f"{GOLDEN.name} holds no hashes for platform_id {pid}")
    assert run_chain(tmp_path, seed) == golden[str(seed)]


def record():
    """Run the chain at every seed and store its hashes under this
    platform's id, keeping the entries of other platforms."""
    os.environ.pop(ENV_SEED, None)
    table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    hashes = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as out:
            hashes[str(seed)] = run_chain(Path(out), seed)
    table[platform_id()] = hashes
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, hashes.values()))} hashes -> {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
