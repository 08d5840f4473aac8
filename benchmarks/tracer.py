"""Span tracer: wrappers around protomem's public functions, and the
reduction of their spans to the per-layer metrics.

Each wrapper is installed in every protomem module namespace that holds the
original function, so calls between layers (`backbone` calling `matmul`) are
traced as well as the benchmark's own calls. A span records its name, start,
end, parent span and unit (one set-up or one round of the run). Spans are
kept in flat arrays in memory and written out once, at the end of the run.
Self time is a span's duration minus the durations of its child spans.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# Each protomem module is a layer; cli, config and errors are on no timed path.
TRACED = {
    "numerics": ("matmul", "cossim"),
    "backbone": ("forward_backbone", "forward_fcr", "backward", "sgd_step"),
    "losses": ("ortho_loss", "softmax_ce_batch", "multi_margin_loss", "mixup", "cutmix"),
    "offline": ("pretrain", "metalearn", "build_base_em"),
    "online": ("learn_class",),
    "memory": (
        "quantize_feature", "classify", "precision_sweep", "save_em", "load_em",
        "ExplicitMemory.rebuilt_at_bits",
    ),
    "harness": ("run_protocol", "extract_features", "make_blob_dataset"),
    "data": ("split_fscil",),
}


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


# Work recorded on a span, from the call's positional arguments.
WORK = {
    "backbone.forward_backbone": lambda args: _rows(args[1]),
    "backbone.forward_fcr": lambda args: _rows(args[1]),
    "online.learn_class": lambda args: _rows(args[3]),
    "memory.classify": lambda args: len(args[0]),
}

FORWARD = ("backbone.forward_backbone", "backbone.forward_fcr")

# name, unit, better
PER_LAYER = [
    ("numerics.matmul.calls", "count", "lower"),
    ("numerics.matmul.self_s", "s", "lower"),
    ("numerics.matmul.share", "fraction", "lower"),
    ("numerics.matmul.flops", "flop", "lower"),
    ("numerics.matmul.bytes", "B", "lower"),
    *[
        (f"backbone.layer{i}.{kind}", "s", "lower")
        for i in range(3)
        for kind in ("fwd_s", "wgrad_s", "igrad_s")
    ],
    *[
        (f"backbone.{fn}.{stat}", unit, "lower")
        for fn in ("forward_backbone", "forward_fcr")
        for stat, unit in (("calls", "count"), ("rows", "count"), ("self_s", "s"))
    ],
    ("backbone.backward.self_s", "s", "lower"),
    ("backbone.sgd_step.self_s", "s", "lower"),
    *[
        (f"losses.{fn}.{stat}", unit, "lower")
        for fn in ("ortho_loss", "softmax_ce_batch", "multi_margin_loss")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("losses.mixup.calls", "count", "lower"),
    ("losses.cutmix.calls", "count", "lower"),
    ("offline.pretrain.s", "s", "lower"),
    ("offline.pretrain.epoch_ms", "ms", "lower"),
    ("offline.pretrain.self_s", "s", "lower"),
    ("offline.metalearn.s", "s", "lower"),
    ("offline.metalearn.iter_ms", "ms", "lower"),
    ("offline.metalearn.self_s", "s", "lower"),
    ("online.learn_class.calls", "count", "lower"),
    ("online.learn_class.self_s", "s", "lower"),
    ("online.learn_class.shots", "count", "lower"),
    ("online.learn_class.forward_rows_per_shot", "ratio", "lower"),
    ("memory.classify.calls", "count", "lower"),
    ("memory.classify.self_s", "s", "lower"),
    ("memory.classify.protos_scored", "count", "lower"),
    ("numerics.cossim.calls", "count", "lower"),
    ("numerics.cossim.self_s", "s", "lower"),
    ("memory.quantize_feature.calls", "count", "lower"),
    ("memory.quantize_feature.self_s", "s", "lower"),
    ("memory.rebuilt_at_bits.self_s", "s", "lower"),
    ("memory.precision_sweep.self_s", "s", "lower"),
    ("memory.save_em.s", "s", "lower"),
    ("memory.load_em.s", "s", "lower"),
    ("memory.snapshot.bytes_per_packed_byte", "ratio", "lower"),
    ("harness.run_protocol.s", "s", "lower"),
    ("harness.extract_features.s", "s", "lower"),
    ("harness.make_blob_dataset.s", "s", "lower"),
    ("data.split_fscil.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# Per-layer counts; they must repeat exactly between traced runs and rounds.
COUNTS = tuple(
    name for name, unit, _ in PER_LAYER
    if name.endswith((".calls", ".rows", ".shots", ".flops", ".protos_scored"))
    or name == "numerics.matmul.bytes"
)

# The layer (group of spans, by self time) each workload was chosen to stress.
CHOSEN = {
    "offline_train": ("numerics.matmul@forward", "numerics.matmul@backward", "numerics.matmul@other"),
    "online_sessions": (*FORWARD, "numerics.matmul@forward"),
    "wide_memory": ("memory.classify", "numerics.cossim"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.mm = array("q")  # matmul operand shapes: span, m, k, n
        self.units = []  # (kind, wall seconds, host-speed scale) per traced set-up or round
        self._stack = [-1]
        self._unit = -1
        self._patches = []

    # ------------------------------------------------------------ recording

    def _wrap(self, qualname, fn):
        nid = self._ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        name, parent, unit, work = self.name, self.parent, self.unit, self.work
        start, end, stack, mm = self.start, self.end, self._stack, self.mm
        payload = WORK.get(qualname)
        is_matmul = qualname == "numerics.matmul"

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            unit.append(self._unit)
            if is_matmul:
                (m, k), n = np.shape(args[0]), np.shape(args[1])[1]
                mm.extend((idx, m, k, n))
                work.append(m * k * n)
            else:
                work.append(payload(args) if payload is not None and args else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Swap every traced function for its wrapper, in each protomem
        module that holds it and, for methods, on the class."""
        modules = [m for n, m in sys.modules.items() if n == "protomem" or n.startswith("protomem.")]
        for layer, fns in TRACED.items():
            owner = sys.modules[f"protomem.{layer}"]
            for fn_name in fns:
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{meth}", original))
                    continue
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    if mod.__dict__.get(fn_name) is original:
                        self._patches.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def begin_unit(self, kind: str):
        self._unit = len(self.units)
        self.units.append((kind, 0.0, 1.0))

    def end_unit(self, wall_s: float, scale: float):
        """Close the unit; its times are reported multiplied by `scale`."""
        self.units[self._unit] = (self.units[self._unit][0], wall_s, scale)
        self._unit = -1

    # ------------------------------------------------------------ reduction

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "matmul_shapes": np.frombuffer(self.mm, dtype=np.int64).reshape(-1, 4),
            "unit_kind": np.array([k for k, _, _ in self.units]),
            "unit_wall_s": np.array([w for _, w, _ in self.units]),
            "unit_scale": np.array([s for _, _, s in self.units]),
        }

    def dump(self, path):
        np.savez_compressed(path, **self.arrays())

    def reduce(self, layer_dims, epochs: int, iterations: int) -> "Reduction":
        return Reduction(self.arrays(), layer_dims, epochs, iterations)


class Reduction:
    """Per-unit sums over spans, turned into per-cycle values: the median
    over traced set-ups plus the median over traced rounds. Times are
    rescaled by each unit's host-speed scale, as the end-to-end times are."""

    def __init__(self, a, layer_dims, epochs, iterations):
        self.epochs = epochs
        self.iterations = iterations
        names = list(a["names"])
        n_units = len(a["unit_kind"])
        self.kinds = a["unit_kind"]
        scale = a["unit_scale"]
        self.walls = a["unit_wall_s"] * scale
        name, parent, unit = a["name"], a["parent"], a["unit"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child

        # Relabel matmul spans by the kind of their parent, and by the dense
        # layer whose weight their operand shapes match.
        labels = list(names)
        label = name.copy()

        def label_id(text):
            if text not in labels:
                labels.append(text)
            return labels.index(text)

        shapes = [(i, o) for i, o in zip(layer_dims, layer_dims[1:])]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        fwd_ids = [names.index(f) for f in FORWARD if f in names]
        bwd_id = names.index("backbone.backward") if "backbone.backward" in names else -2
        layer_of = np.full(len(dur), "", dtype=object)
        for span, m, k, n in a["matmul_shapes"]:
            p = parent_name[span]
            if p in fwd_ids:
                where = "forward"
                hit = [f"layer{l}.fwd_s" for l, s in enumerate(shapes) if (k, n) == s]
            elif p == bwd_id:
                where = "backward"
                hit = [f"layer{l}.igrad_s" for l, (i, o) in enumerate(shapes) if (k, n) == (o, i)]
                hit = hit or [f"layer{l}.wgrad_s" for l, s in enumerate(shapes) if (m, n) == s]
            else:
                where, hit = "other", []
            label[span] = label_id(f"numerics.matmul@{where}")
            if hit:
                layer_of[span] = "backbone." + hit[0]
        for tag in set(layer_of) - {""}:
            label_id(tag)

        def per_unit(values, keys, n_keys):
            flat = unit.astype(np.int64) * n_keys + keys
            return np.bincount(flat, weights=values, minlength=n_units * n_keys).reshape(
                n_units, n_keys
            )

        n = len(labels)
        self.labels = labels
        self.calls = per_unit(np.ones(len(dur)), name, n)
        self.total = per_unit(dur, name, n) * scale[:, None]
        self.self_t = per_unit(self_t, name, n) * scale[:, None]
        self.work = per_unit(a["work"].astype(np.float64), name, n)
        self.split_self = per_unit(self_t, label, n) * scale[:, None]
        tags = np.array([labels.index(t) if t else 0 for t in layer_of], dtype=np.int64)
        tagged = layer_of != ""
        self.layer_s = per_unit(np.where(tagged, dur, 0.0), tags, n) * scale[:, None]
        mm = a["matmul_shapes"]
        m, k, nn = (mm[:, j].astype(np.float64) for j in (1, 2, 3))
        mm_unit = unit[mm[:, 0]] if len(mm) else np.zeros(0, dtype=np.int32)
        self.mm_bytes = np.bincount(mm_unit, weights=8.0 * (m * k + k * nn + m * nn), minlength=n_units)
        # forward rows taken inside learn_class, per unit
        lc = names.index("online.learn_class") if "online.learn_class" in names else -2
        in_lc = has_parent & (parent_name == lc) & np.isin(name, fwd_ids[:1])
        self.lc_rows = np.bincount(unit[in_lc], weights=a["work"][in_lc].astype(np.float64), minlength=n_units)

    def cycle(self, per_unit_values) -> float:
        """Median over traced set-ups plus median over traced rounds."""
        v = np.asarray(per_unit_values, dtype=np.float64)
        total = 0.0
        for kind in ("setup", "round"):
            sel = self.kinds == kind
            if sel.any():
                total += float(np.median(v[sel]))
        return total

    def _col(self, table, label):
        if label not in self.labels:
            return 0.0
        return self.cycle(table[:, self.labels.index(label)])

    def metrics(self, snapshot_ratio: float, overhead_frac: float) -> dict:
        wall = self.cycle(self.walls)
        c = functools.partial(self._col, self.calls)
        s = functools.partial(self._col, self.self_t)
        tot = functools.partial(self._col, self.total)
        w = functools.partial(self._col, self.work)
        shots = w("online.learn_class")
        out = {
            "numerics.matmul.calls": c("numerics.matmul"),
            "numerics.matmul.self_s": s("numerics.matmul"),
            "numerics.matmul.share": s("numerics.matmul") / wall if wall else 0.0,
            "numerics.matmul.flops": 2.0 * w("numerics.matmul"),
            "numerics.matmul.bytes": self.cycle(self.mm_bytes),
            "backbone.backward.self_s": s("backbone.backward"),
            "backbone.sgd_step.self_s": s("backbone.sgd_step"),
            "losses.mixup.calls": c("losses.mixup"),
            "losses.cutmix.calls": c("losses.cutmix"),
            "offline.pretrain.s": tot("offline.pretrain"),
            "offline.pretrain.epoch_ms": tot("offline.pretrain") / self.epochs * 1e3,
            "offline.pretrain.self_s": s("offline.pretrain"),
            "offline.metalearn.s": tot("offline.metalearn"),
            "offline.metalearn.iter_ms": tot("offline.metalearn") / self.iterations * 1e3,
            "offline.metalearn.self_s": s("offline.metalearn"),
            "online.learn_class.calls": c("online.learn_class"),
            "online.learn_class.self_s": s("online.learn_class"),
            "online.learn_class.shots": shots,
            "online.learn_class.forward_rows_per_shot": self.cycle(self.lc_rows) / shots if shots else 0.0,
            "memory.classify.calls": c("memory.classify"),
            "memory.classify.self_s": s("memory.classify"),
            "memory.classify.protos_scored": w("memory.classify"),
            "numerics.cossim.calls": c("numerics.cossim"),
            "numerics.cossim.self_s": s("numerics.cossim"),
            "memory.quantize_feature.calls": c("memory.quantize_feature"),
            "memory.quantize_feature.self_s": s("memory.quantize_feature"),
            "memory.rebuilt_at_bits.self_s": s("memory.rebuilt_at_bits"),
            "memory.precision_sweep.self_s": s("memory.precision_sweep"),
            "memory.save_em.s": tot("memory.save_em"),
            "memory.load_em.s": tot("memory.load_em"),
            "memory.snapshot.bytes_per_packed_byte": snapshot_ratio,
            "harness.run_protocol.s": tot("harness.run_protocol"),
            "harness.extract_features.s": tot("harness.extract_features"),
            "harness.make_blob_dataset.s": tot("harness.make_blob_dataset"),
            "data.split_fscil.s": tot("data.split_fscil"),
            "trace.wall_s": wall,
            "trace.overhead_frac": overhead_frac,
        }
        for i in range(3):
            for kind in ("fwd_s", "wgrad_s", "igrad_s"):
                out[f"backbone.layer{i}.{kind}"] = self._col(self.layer_s, f"backbone.layer{i}.{kind}")
        for fn in ("forward_backbone", "forward_fcr"):
            out[f"backbone.{fn}.calls"] = c(f"backbone.{fn}")
            out[f"backbone.{fn}.rows"] = w(f"backbone.{fn}")
            out[f"backbone.{fn}.self_s"] = s(f"backbone.{fn}")
        for fn in ("ortho_loss", "softmax_ce_batch", "multi_margin_loss"):
            out[f"losses.{fn}.calls"] = c(f"losses.{fn}")
            out[f"losses.{fn}.self_s"] = s(f"losses.{fn}")
        return out

    def self_time_ranking(self) -> list:
        """(group, self seconds per cycle), largest first; matmul is split by
        the kind of its parent span."""
        rows = []
        for label in self.labels:
            if label == "numerics.matmul" or label.startswith("backbone.layer"):
                continue
            rows.append((label, self._col(self.split_self, label)))
        return sorted(rows, key=lambda r: -r[1])

    def round_counts(self) -> list:
        """Per traced round, the calls and work of every traced function."""
        sel = np.flatnonzero(self.kinds == "round")
        return [(self.calls[u].tolist(), self.work[u].tolist()) for u in sel]


def dominant_check(workload: str, ranking: list) -> dict:
    """Whether the group the workload was chosen for has the largest self time."""
    chosen = CHOSEN[workload]
    chosen_s = sum(s for label, s in ranking if label in chosen)
    others = [(label, s) for label, s in ranking if label not in chosen]
    top_other = max(others, key=lambda r: r[1]) if others else ("", 0.0)
    return {
        "chosen": list(chosen),
        "chosen_self_s": chosen_s,
        "largest_other": top_other[0],
        "largest_other_self_s": top_other[1],
        "ok": chosen_s > top_other[1],
    }
