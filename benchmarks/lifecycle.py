"""One device lifecycle, as every workload runs it.

Offline training, a base memory, incremental sessions in which each class is
learned with `learn_class`, each test query is answered one at a time
(forward, then `classify`) and the memory is stored and read back, and at
the end a precision sweep.
The workloads differ only in their inputs and in their training schedule, so
each of them reports every end-to-end metric; the sizes decide which layer
dominates.

Every call into protomem goes through a module attribute
(`memory.classify(...)`, never a name imported from it), so that the
tracer's wrappers see the benchmark's own calls as well as the calls between
layers.
"""

import copy
import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from protomem import backbone, data, harness, losses, memory, offline, online

SWEEP_BITS = (8, 7, 6, 5, 4, 3, 2, 1)
SNAPSHOT_BITS = 3


@dataclass(frozen=True)
class Spec:
    """Inputs and schedule of one workload; the seed comes from the command line."""

    classes: int
    per_class: int
    grid: int
    max_shift: int  # blob jitter, in pixels
    noise: float  # blob pixel noise
    base_classes: int
    ways: int
    shots: int
    sessions: int
    per_class_cap: int
    test_per_class: int
    hidden: tuple  # layer widths after the input, the last is d_p
    prototype_bits: int | None  # None keeps QuantSpec's full-width default
    pretrain_epochs: int
    meta_iterations: int
    meta_samples: int
    train_in_round: bool  # True: train + run_protocol in every round; False: in set-up

    @property
    def dims(self) -> list:
        return [self.grid * self.grid, *self.hidden]

    def quant(self):
        return memory.QuantSpec(prototype_bits=self.prototype_bits)


# The desk stream of the README (18 classes, 10 base, 2-way 5-shot) and the
# paper's CIFAR-100 layout (60 base classes, 8 sessions of 5-way 5-shot) at
# d_p = 256 and 3-bit prototypes, the paper's footprint example. The latter's
# blobs have no shift jitter: with 100 classes on an 8 x 8 grid, one-pixel shifts
# left a barely trained extractor at about 0.2 accuracy, which moved by a
# quarter from one seed to the next; without them it is about 0.95.
DESK = dict(
    classes=18, per_class=70, grid=16, max_shift=1, noise=0.05, base_classes=10, ways=2,
    shots=5, sessions=4, per_class_cap=50, test_per_class=20, hidden=(96, 48, 32),
    prototype_bits=None, meta_samples=5,
)
WORKLOADS = {
    "offline_train": Spec(**DESK, pretrain_epochs=5, meta_iterations=25, train_in_round=True),
    "online_sessions": Spec(**DESK, pretrain_epochs=2, meta_iterations=10, train_in_round=False),
    "wide_memory": Spec(
        classes=100, per_class=7, grid=8, max_shift=0, noise=0.1, base_classes=60, ways=5,
        shots=5, sessions=8, per_class_cap=5, test_per_class=2, hidden=(384, 256),
        prototype_bits=SNAPSHOT_BITS, meta_samples=4, pretrain_epochs=1, meta_iterations=2,
        train_in_round=False,
    ),
}


@dataclass
class Trained:
    params: object
    base_em: object
    base_am: object
    test_features: np.ndarray


@dataclass
class State:
    stream: object
    init: object  # untrained model; rounds of train_in_round workloads start from it
    trained: Trained | None
    params_sha: str


# A fixed loop of small numpy updates, shaped like the rank-1 steps of
# `matmul`, runs right before and right after every timed call. A shared
# virtual host switches between full and about half speed every few tens of
# milliseconds, and for longer stretches too. Each time is therefore
# rescaled by the probe's nominal time over its mean time around the call:
# it reads as wall time at the host's full speed. Work on single rows and
# work on batches do not slow alike (on a shared 2-vCPU Xeon host a slow
# phase slowed training by about the square root of what it did to
# single-row updates), so there is one probe of each shape: (rows, steps,
# nominal ms at full speed).
# A call that spans many switches (training, a sweep width, a set-up) is
# framed by probe bursts on each side, as long as BURST_SHARE of its
# previous duration (at most BURST_MAX_S).
PROBES = {
    "row": (1, 50, 0.085),  # queries, learn_class, snapshots, sweeps
    "batch": (32, 30, 0.18),  # pretrain and metalearn
}
BURST_SHARE = 0.1
BURST_MAX_S = 0.1
# A sample of a short call (a query, a learn_class, a snapshot round trip)
# is the faster, once rescaled, of BEST_OF runs of that call on equal
# state. When the host switches speed about as often as such a call lasts,
# the probes around one run misjudge its speed, and the p99 of single runs
# rose by a third over that of a steady host; the faster of two rose by
# less than a tenth.
BEST_OF = 2
# samples per stage of the save_em + load_em round trip
SNAPSHOT_SAMPLES = 2
# learn_class samples per round, at least: copies of the base memory that
# only learn sit beside the replayed one, BEST_OF memories per sample, so
# that a desk round of 8 classes gives 40 samples and a run of three rounds
# has the 100 that p90 needs
LEARN_SAMPLES_PER_ROUND = 40


class Probe:
    def __init__(self, rows: int, steps: int, nominal_ms: float):
        self.steps, self.nominal_ms = steps, nominal_ms
        self.out, self.tmp = np.zeros((rows, 96)), np.empty((rows, 96))
        self.a, self.b = np.ones((rows, 1)), np.ones((1, 96))

    def __call__(self) -> float:
        """One run of the probe loop, in ms."""
        t0 = perf_counter()
        for _ in range(self.steps):
            np.multiply(self.a, self.b, out=self.tmp)
            np.add(self.out, self.tmp, out=self.out)
        return (perf_counter() - t0) * 1e3


class Samples:
    """Per-operation timings of a run, as measured and rescaled to the
    host's full speed, plus the count of operations attempted."""

    def __init__(self):
        self.raw = {}
        self.scaled = {}
        self.probes = {name: Probe(*shape) for name, shape in PROBES.items()}
        self.probes_ms = {name: [] for name in PROBES}
        self.probe_s = 0.0  # wall time spent probing, left out of enclosing timings
        self.framed_s = [0.0, 0.0]  # raw and rescaled seconds of every framed call
        self.last_s = {}  # latest duration of each kind of framed call
        self.operations = 0

    def probe(self, shape: str = "row", burst_s: float = 0.0):
        """One probe, then more until `burst_s` have passed."""
        t0 = perf_counter()
        probe, times = self.probes[shape], self.probes_ms[shape]
        times.append(probe())
        while perf_counter() - t0 < burst_s:
            times.append(probe())
        self.probe_s += perf_counter() - t0

    def burst_s(self, kind) -> float:
        return min(BURST_MAX_S, BURST_SHARE * self.last_s.get(kind, 0.0))

    def mark(self) -> tuple:
        return {k: len(v) for k, v in self.probes_ms.items()}, self.probe_s, tuple(self.framed_s)

    def scale_since(self, mark, shape: str = "row") -> float:
        """Nominal over mean time of the `shape` probes taken since `mark`."""
        times = self.probes_ms[shape][mark[0][shape]:]
        return self.probes[shape].nominal_ms * len(times) / sum(times)

    def timed(self, fn, kind=None, shape: str = "row"):
        """Run `fn` between `shape` probes; a call of a named `kind` between
        bursts. Returns its result, its seconds without the probes run
        inside it, and the host-speed scale."""
        mark = self.mark()
        burst = self.burst_s(kind)
        self.probe(shape, burst)
        inner = self.probe_s
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0 - (self.probe_s - inner)
        self.probe(shape, burst)
        if kind is not None:
            self.last_s[kind] = elapsed
        scale = self.scale_since(mark, shape)
        self.framed_s[0] += elapsed
        self.framed_s[1] += elapsed * scale
        return result, elapsed, scale

    def unit_scale(self, mark, wall: float) -> float:
        """Scale of a set-up or round of `wall` seconds begun at `mark`: the
        framed calls inside it keep their own scales, the rest takes the
        row probes' scale."""
        framed, framed_scaled = (now - then for now, then in zip(self.framed_s, mark[2]))
        rest = max(wall - framed, 0.0)
        return (rest * self.scale_since(mark) + framed_scaled) / (rest + framed)

    def add(self, name: str, raw: float, scale: float):
        self.raw.setdefault(name, []).append(raw)
        self.scaled.setdefault(name, []).append(raw * scale)


def fastest(runs: list) -> tuple:
    """The (result, seconds, scale) of `timed` runs that is fastest once rescaled."""
    return min(runs, key=lambda run: run[1] * run[2])


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def train(spec: Spec, stream, init, seed: int, rec: Samples):
    """Pretrain then metalearn a copy of `init`; records `train_s`."""
    params = copy.deepcopy(init)
    fcc = offline.init_fcc(spec.base_classes, params.d_p, seed + 1)
    loss_cfg = losses.PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.4)
    meta_cfg = offline.MetaConfig(
        meta_samples=spec.meta_samples, iterations=spec.meta_iterations, lr=0.01, query_batch=64
    )
    _, pre_s, pre_scale = rec.timed(lambda: offline.pretrain(
        params, fcc, stream.base, loss_cfg,
        epochs=spec.pretrain_epochs, lr=0.002, seed=seed, batch_size=32,
    ), kind="pretrain", shape="batch")
    _, meta_s, meta_scale = rec.timed(
        lambda: offline.metalearn(params, stream.base, meta_cfg, seed=seed + 2),
        kind="metalearn", shape="batch",
    )
    train_s = pre_s + meta_s
    rec.add("train_s", train_s, (pre_s * pre_scale + meta_s * meta_scale) / train_s)
    return params


def deploy(spec: Spec, stream, params) -> Trained:
    base_em, base_am = offline.build_base_em(params, stream.base, spec.quant())
    return Trained(params, base_em, base_am, harness.extract_features(params, stream.test))


def setup(spec: Spec, seed: int, rec: Samples) -> State:
    """Generate the stream from the seed and build the untrained model; a
    workload that trains outside its rounds also trains and deploys here."""
    dataset = harness.make_blob_dataset(
        spec.classes, spec.per_class, grid=spec.grid, seed=seed,
        noise=spec.noise, max_shift=spec.max_shift,
    )
    stream = data.split_fscil(
        dataset, base_classes=spec.base_classes, ways=spec.ways, shots=spec.shots,
        per_class_cap=spec.per_class_cap, test_per_class=spec.test_per_class,
        seed=seed, sessions=spec.sessions,
    )
    init = backbone.init_model(spec.dims, split_point=len(spec.dims) - 2, seed=seed)
    if spec.train_in_round:
        return State(stream, init, None, _params_sha(init))
    params = train(spec, stream, init, seed, rec)
    return State(stream, init, deploy(spec, stream, params), _params_sha(params))


def _params_sha(params) -> str:
    return sha256(backbone.params_checksum(params))


def run_round(spec: Spec, state: State, seed: int, snapshot_path, rec: Samples) -> dict:
    """One lifecycle round; appends timings to `rec` and returns the outputs
    that the checks compare (hashes, accuracies, sweep points)."""
    stream = state.stream
    out = {}
    if spec.train_in_round:
        params = train(spec, stream, state.init, seed, rec)
        report = harness.run_protocol(params, stream, spec.quant())
        rec.operations += 2
        out["protocol_accs"] = report.session_accuracies
        trained = deploy(spec, stream, params)
        out["params_sha"] = _params_sha(params)
    else:
        trained = state.trained
        out["params_sha"] = state.params_sha
    params = trained.params
    learned = sum(len(session.class_ids()) for session in stream.sessions)
    memories = [
        (copy.deepcopy(trained.base_em), copy.deepcopy(trained.base_am))
        for _ in range(-(-LEARN_SAMPLES_PER_ROUND // learned) * BEST_OF)
    ]
    em = memories[0][0]

    preds, accs, roundtrips = [], [], []
    def query(x):
        theta_p = backbone.forward_fcr(params, backbone.forward_backbone(params, x))
        t1 = perf_counter()
        pred, _ = memory.classify(em, theta_p)
        return pred, perf_counter() - t1

    for t in range(len(stream.sessions) + 1):
        if t > 0:
            session = stream.sessions[t - 1]
            for cid in session.class_ids():
                shots = session.inputs[session.indices_of(cid)]
                for first in range(0, len(memories), BEST_OF):
                    _, elapsed, scale = fastest([
                        rec.timed(lambda: online.learn_class(em_i, am_i, params, shots, cid))
                        for em_i, am_i in memories[first:first + BEST_OF]
                    ])
                    rec.add("learn_class_ms", elapsed * 1e3, scale)
                    rec.operations += BEST_OF
        seen = stream.test.subset_by_classes(stream.classes_through(t))
        hits = 0
        for x, label in zip(seen.inputs, seen.labels):
            runs = [rec.timed(lambda: query(x)) for _ in range(BEST_OF)]
            (pred, _), elapsed, scale = fastest(runs)
            rec.add("query_us", elapsed * 1e6, scale)
            classify_s, scale = min(
                ((classify_s, scale) for (_, classify_s), _, scale in runs),
                key=lambda run: run[0] * run[1],
            )
            rec.add("classify_us", classify_s * 1e6, scale)
            rec.operations += BEST_OF
            preds.append(pred)
            hits += int(pred == label)
        accs.append(hits / len(seen))
        snapshot = persist(em, snapshot_path, rec)
        roundtrips.append(snapshot.pop("snapshot_roundtrip"))
    out["session_accs"] = accs
    out["learn_replays_agree"] = all(
        em_i.class_ids() == em.class_ids() and all(
            np.array_equal(em_i.get(c).quantized, em.get(c).quantized) for c in em.class_ids()
        )
        for em_i, _ in memories[1:]
    )
    out["pred_sha"] = sha256(np.asarray(preds, dtype="<i8").tobytes())
    out.update(snapshot, snapshot_roundtrip=all(roundtrips))

    # One width per call gives the same points as one call over all widths,
    # and each call is short enough to be rescaled by the probes around it.
    points, sweep_s, sweep_scaled = [], 0.0, 0.0
    for bits in SWEEP_BITS:
        point, elapsed, scale = rec.timed(
            lambda: memory.precision_sweep(
                em, trained.test_features, stream.test.labels, (bits,)
            ),
            kind=f"sweep{bits}",
        )
        points += point
        sweep_s += elapsed
        sweep_scaled += elapsed * scale
    rec.add("sweep_s", sweep_s, sweep_scaled / sweep_s)
    rec.operations += 1
    out["sweep"] = [[p.bits, p.memory_bytes, p.accuracy] for p in points]
    return out


def persist(em, path, rec: Samples) -> dict:
    """Store the memory at 3 bits and read it back, as a device does after
    each session; only the `save_em` + `load_em` round trips are timed."""
    stored = em.rebuilt_at_bits(SNAPSHOT_BITS)

    def roundtrip():
        memory.save_em(stored, path)
        return memory.load_em(path)

    for _ in range(SNAPSHOT_SAMPLES):
        back, elapsed, scale = fastest([rec.timed(roundtrip) for _ in range(BEST_OF)])
        rec.add("snapshot_ms", elapsed * 1e3, scale)
        rec.operations += BEST_OF
    with open(path, "rb") as fh:
        blob = fh.read()
    return {
        "snapshot_sha": sha256(blob),
        "snapshot_bytes": len(blob),
        "snapshot_packed_bytes": memory.em_memory_bytes(len(stored), stored.d_p, SNAPSHOT_BITS),
        "snapshot_roundtrip": back.class_ids() == stored.class_ids() and all(
            np.array_equal(back.get(c).quantized, stored.get(c).quantized)
            for c in stored.class_ids()
        ),
    }
