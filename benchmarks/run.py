"""protomem benchmark: one device lifecycle per workload, end to end or traced.

    python3 benchmarks/run.py --workload offline_train --seed 7 --seconds 28 --trace 0
    python3 benchmarks/run.py --workload all

Run it from the root of a checkout; it imports protomem from `src/` there and
writes only under `bench_results/` and `.bench_work/`. With `--trace 0` the
last line of standard output is a JSON object with the end-to-end metrics,
with `--trace 1` one with the per-layer metrics. A single process with one
closed-loop client does all the work: each call starts when the previous one
has returned, and no extra threads are started.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("offline_train", "online_sessions", "wide_memory")
# set-ups per run: at least SETUP_REPEATS, and more until they took SETUP_MIN_S
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
REFERENCE_FILE = HERE / "references.json"

# name, unit, better; percentiles carry their sample count in the result file
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("train_s", "s", "lower"),
    ("final_session_acc", "fraction", "higher"),
    ("avg_session_acc", "fraction", "higher"),
    ("learn_class_ms_p50", "ms", "lower"),
    ("learn_class_ms_p90", "ms", "lower"),
    ("query_us_p50", "us", "lower"),
    ("query_us_p99", "us", "lower"),
    ("classify_us_p50", "us", "lower"),
    ("classify_us_p99", "us", "lower"),
    ("sweep_s", "s", "lower"),
    ("snapshot_ms", "ms", "lower"),
    ("snapshot_bytes", "B", "lower"),
    ("sweep_acc_mean", "fraction", "higher"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-references", action="store_true",
        help="store this run's outputs as the reference for its workload and seed",
    )
    return ap.parse_args(argv)


def import_protomem():
    """Put the checkout's own `src/` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "protomem" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'protomem'} not found; run from a protomem checkout")
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    import protomem

    if Path(protomem.__file__).resolve().parent != (src / "protomem").resolve():
        sys.exit(f"error: imported protomem from {protomem.__file__}, not from {src}")


# ------------------------------------------------------------------ environment


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3])


def _cpuinfo(key: str) -> str:
    prefix = key + "\t"
    return next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith(prefix) or line.startswith(key + " ")),
        "",
    )


def platform_id() -> str:
    """Outputs are bit-reproducible on one platform; numpy's vector kernels
    may sum in another order on another CPU or numpy build."""
    import hashlib

    import numpy as np

    key = "|".join(
        (np.__version__, platform.python_version(), platform.machine(), _cpuinfo("flags"))
    )
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": _cpuinfo("model name") or platform.processor(),
        "platform_id": platform_id(),
        "loadavg_start": loadavg(),
    }


# ------------------------------------------------------------------ checks


class Checks:
    """Named output checks; a failed check fails the operations it covers."""

    def __init__(self):
        self.failed_names = []
        self.passed = 0

    def expect(self, name: str, ok: bool) -> bool:
        if ok:
            self.passed += 1
        elif name not in self.failed_names:
            self.failed_names.append(name)
        return ok


def load_references() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


def record_reference(workload: str, seed: int, platform_key: str, out: dict):
    refs = load_references()
    refs.setdefault(workload, {})[str(seed)] = {"platform_id": platform_key, "outputs": out}
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def round_checks(checks, out, first, reference, traced) -> bool:
    ok = checks.expect("snapshot_roundtrip", out["snapshot_roundtrip"])
    ok &= checks.expect("learn_replays_agree", out["learn_replays_agree"])
    if "protocol_accs" in out:
        ok &= checks.expect("protocol_matches_replay", out["protocol_accs"] == out["session_accs"])
    if first is not None:
        ok &= checks.expect("trace_transparent" if traced else "rounds_agree", out == first)
    if reference is not None:
        for key in sorted(reference):
            ok &= checks.expect(f"reference.{key}", out.get(key) == reference[key])
    return ok


# ------------------------------------------------------------------ metrics


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(samples: dict, out: dict, ok_frac: float) -> dict:
    """End-to-end metrics from one run's timing samples and first-round outputs."""
    accs = out.get("protocol_accs", out["session_accs"])
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
        "train_s": statistics.median(samples["train_s"]),
        "final_session_acc": accs[-1],
        "avg_session_acc": sum(accs) / len(accs),
        "learn_class_ms_p50": percentile(samples["learn_class_ms"], 50),
        "learn_class_ms_p90": percentile(samples["learn_class_ms"], 90),
        "query_us_p50": percentile(samples["query_us"], 50),
        "query_us_p99": percentile(samples["query_us"], 99),
        "classify_us_p50": percentile(samples["classify_us"], 50),
        "classify_us_p99": percentile(samples["classify_us"], 99),
        "sweep_s": statistics.median(samples["sweep_s"]),
        "snapshot_ms": statistics.median(samples["snapshot_ms"]),
        "snapshot_bytes": out["snapshot_bytes"],
        "sweep_acc_mean": sum(p[2] for p in out["sweep"]) / len(out["sweep"]),
    }


def sample_counts(samples: dict) -> dict:
    """The number of samples behind each timing metric."""
    counts = {}
    for name, _, _ in END_TO_END:
        source = re.sub(r"_p\d+$", "", name)
        if source in samples:
            counts[name] = len(samples[source])
    return counts


# ------------------------------------------------------------------ one workload


@dataclass
class Measured:
    rounds: int = 0
    setups: int = 0
    attempted: int = 0
    failed: int = 0
    first: dict | None = None  # outputs of the first completed round
    walls: dict = field(default_factory=dict)  # (unit kind, traced) -> rescaled seconds


def measure(args, spec, reference, checks, tracer, rec, snapshot_path) -> Measured:
    """Set up and run rounds for `args.seconds`. With a tracer, every second
    set-up and every second round is traced."""
    import lifecycle
    from protomem.errors import ProtomemError

    m = Measured()
    setup_shas = set()

    def timed_unit(kind, traced, fn):
        """Run `fn` as one set-up or round, framed by probes; returns
        (result, seconds without the probes, scale from every probe in
        and around the unit)."""
        mark = rec.mark()
        burst = rec.burst_s(kind)
        rec.probe("row", burst)
        inner = rec.probe_s
        if traced:
            tracer.begin_unit(kind)
            tracer.install()
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0 - (rec.probe_s - inner)
            if traced:
                tracer.uninstall()
            rec.probe("row", burst)
            rec.last_s[kind] = wall
            scale = rec.unit_scale(mark, wall)
            if traced:
                tracer.end_unit(wall, scale)
            m.walls.setdefault((kind, traced), []).append(wall * scale)
        return result, wall, scale

    def run_setup():
        traced = tracer is not None and m.setups % 2 == 1
        state, wall, scale = timed_unit(
            "setup", traced, lambda: lifecycle.setup(spec, args.seed, rec)
        )
        rec.add("setup_s", wall, scale)
        m.setups += 1
        setup_shas.add(state.params_sha)
        return state

    state = run_setup()
    start = perf_counter()
    while True:
        traced = tracer is not None and m.rounds % 2 == 1
        before = rec.operations
        try:
            out, _, _ = timed_unit(
                "round", traced,
                lambda: lifecycle.run_round(spec, state, args.seed, snapshot_path, rec),
            )
        except ProtomemError as exc:
            checks.expect(f"raised.{type(exc).__name__}", False)
            out = None
        ops = rec.operations - before + (out is None)
        m.attempted += ops
        if out is None or not round_checks(checks, out, m.first, reference, traced):
            m.failed += ops
        if m.first is None:
            m.first = out
        m.rounds += 1
        if perf_counter() - start >= args.seconds and (tracer is None or m.rounds >= 2):
            break
        # The set-up repeats run between the first rounds, so that a slow
        # stretch of a shared host does not hit all of them at once.
        if m.setups < SETUP_REPEATS:
            run_setup()
    while m.setups < SETUP_REPEATS or sum(rec.raw["setup_s"]) < SETUP_MIN_S:
        run_setup()
    m.attempted += m.setups
    if not checks.expect("setup_repeats_agree", len(setup_shas) == 1):
        m.failed += m.setups
    return m


def per_layer(workload, spec, tracer, m: Measured, checks, result) -> dict:
    """Per-layer metrics of a traced run; adds the self-time ranking to `result`."""
    from tracer import COUNTS, dominant_check

    red = tracer.reduce(spec.dims, spec.pretrain_epochs, spec.meta_iterations)
    overhead = (
        statistics.median(m.walls[("round", True)]) / statistics.median(m.walls[("round", False)])
        - 1.0
    )
    ratio = m.first["snapshot_bytes"] / m.first["snapshot_packed_bytes"]
    values = red.metrics(ratio, overhead)
    counts = red.round_counts()
    m.attempted += 1
    m.failed += not checks.expect("trace_counts_repeat", all(c == counts[0] for c in counts))
    ranking = red.self_time_ranking()
    result["dominant_layer"] = dominant_check(workload, ranking)
    result["self_time_ranking"] = ranking[:12]
    result["counts"] = {name: values[name] for name in COUNTS}
    return values


def run_workload(args) -> int:
    import lifecycle
    from tracer import PER_LAYER, Tracer

    workload, trace = args.workload, bool(args.trace)
    spec = lifecycle.WORKLOADS[workload]
    env = environment()
    stored = load_references().get(workload, {}).get(str(args.seed))
    if stored is None:
        reference, reference_state = None, "none"
    elif stored["platform_id"] != env["platform_id"]:
        reference, reference_state = None, f"recorded on platform {stored['platform_id']}, not compared"
    else:
        reference, reference_state = stored["outputs"], "stored"
    checks = Checks()
    tracer = Tracer() if trace else None
    rec = lifecycle.Samples()
    workdir = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        m = measure(args, spec, reference, checks, tracer, rec, workdir / "memory.ofem")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if m.first is None:
        print("error: no round completed", file=sys.stderr)
        return 1
    if args.record_references:
        record_reference(workload, args.seed, env["platform_id"], m.first)

    result = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "rounds": m.rounds,
        "reference": reference_state,
        "environment": env,
        "outputs": m.first,
    }
    if trace:
        values = per_layer(workload, spec, tracer, m, checks, result)
        units = {name: unit for name, unit, _ in PER_LAYER}
        samples = {}
    else:
        ok_frac = (m.attempted - m.failed) / m.attempted
        values = end_to_end(rec.scaled, m.first, ok_frac)
        samples = sample_counts(rec.scaled)
        result["as_measured"] = end_to_end(rec.raw, m.first, ok_frac)
        units = {name: unit for name, unit, _ in END_TO_END}
    env["loadavg_end"] = loadavg()
    env["probe_ms"] = {
        shape: {q: percentile(times, q) for q in (10, 50, 90)}
        for shape, times in rec.probes_ms.items()
    }
    result["checks"] = {"passed": checks.passed, "failed": checks.failed_names}
    result["samples"] = samples
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}

    out_dir = ROOT / "bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload}-seed{args.seed}-trace{int(trace)}"
    if trace:
        tracer.dump(f"{stem}.spans.npz")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {workload} seed={args.seed} rounds={m.rounds} reference={reference_state}")
    print(f"# environment {json.dumps(env)}")
    for name, unit in units.items():
        n = samples.get(name)
        print(f"{workload:16s} {name:42s} {values[name]:>16.6g} {unit:8s}" + (f" n={n}" if n else ""))
    print(f"# checks passed={checks.passed} failed={checks.failed_names or 'none'}")
    if trace:
        dom = result["dominant_layer"]
        print(
            f"# dominant layer {'ok' if dom['ok'] else 'NOT'}: {'+'.join(dom['chosen'])} "
            f"{dom['chosen_self_s']:.3f}s vs {dom['largest_other']} {dom['largest_other_self_s']:.3f}s"
        )
    print(f"# result file {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # one thread: numpy's BLAS would otherwise start a pool of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_protomem()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
