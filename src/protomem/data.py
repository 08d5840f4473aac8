"""Dataset containers, file ingestion (the one binary framing of every
protomem file, and the dataset readers), and the session-stream split."""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassIdRangeError,
    InsufficientClassesError,
    InsufficientSamplesError,
    MalformedFileError,
    SettingValueError,
    ShapeMismatchError,
)
from .numerics import check_finite

DATASET_MAGIC = b"OFDS"
DATASET_VERSION = 1
_DTYPES = ("<f4", "<f8", "u1")  # by the header's dtype code: f32, f64, u8 image

CIFAR_RECORD_BYTES = 2 + 3 * 32 * 32  # coarse label, fine label, pixels


@dataclass
class LabeledDataset:
    inputs: np.ndarray  # (N, dim) float64
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ShapeMismatchError("inputs must be a (N, dim) matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.inputs.shape[0]:
            raise ShapeMismatchError("labels must align with input rows")
        if self.labels.size and self.labels.min() < 0:
            raise ClassIdRangeError("labels must be nonnegative")
        check_finite(self.inputs, "dataset inputs")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def class_ids(self) -> list:
        return sorted(set(self.labels.tolist()))

    def indices_of(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)

    def take(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.inputs[idx], self.labels[idx])

    def subset_by_classes(self, class_ids) -> "LabeledDataset":
        mask = np.isin(self.labels, [int(c) for c in class_ids])
        return LabeledDataset(self.inputs[mask], self.labels[mask])


@dataclass
class SessionStream:
    """Base session plus T disjoint incremental sessions and a shared test set."""

    base: LabeledDataset
    sessions: list
    ways: int
    shots: int
    test: LabeledDataset

    def classes_through(self, t: int) -> list:
        """Union of class ids seen up to and including session t (0 = base)."""
        ids = list(self.base.class_ids())
        for s in self.sessions[:t]:
            ids.extend(s.class_ids())
        return sorted(ids)


def write_frame(path, magic, version, head_fmt, head, *payload):
    """The one binary writer: the 4-byte `magic`, `version` as u32, `head`
    packed by the little-endian struct format `head_fmt`, then `payload`."""
    with open(path, "wb") as fh:
        fh.writelines([magic, struct.pack("<I" + head_fmt, version, *head), *payload])


def read_frame(path, magic, version, head_fmt):
    """The one binary reader: reads a `write_frame` file once and checks its
    magic and version. Returns (header fields, file bytes, payload offset)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fmt = "<4sI" + head_fmt
    start = struct.calcsize(fmt)
    if len(blob) < start or blob[:4] != magic:
        raise MalformedFileError(f"{path}: bad magic")
    _, got, *head = struct.unpack_from(fmt, blob)
    if got != version:
        raise MalformedFileError(f"{path}: unsupported version {got}")
    return head, blob, start


def check_end(path, blob, end):
    """The one length check: the payload the header promises must end the file at `end`."""
    if len(blob) < end:
        raise MalformedFileError(f"{path}: payload shorter than header promises")
    if len(blob) > end:
        raise MalformedFileError(f"{path}: {len(blob) - end} bytes past the payload")


def save_dataset(ds: LabeledDataset, path, dtype: str = "f64"):
    codes = {"f32": 0, "f64": 1, "u8": 2}
    if dtype not in codes:
        raise ValueError(f"unsupported dtype {dtype!r}")
    if np.any(ds.labels >= 2**32):
        raise ClassIdRangeError("labels must lie in [0, 2**32) to fit the u32 label field")
    code = codes[dtype]
    x = np.clip(np.rint(ds.inputs * 255.0), 0, 255) if dtype == "u8" else ds.inputs
    inputs, labels = x.astype(_DTYPES[code]).tobytes(), ds.labels.astype("<u4").tobytes()
    head = (len(ds), ds.input_dim, code)
    write_frame(path, DATASET_MAGIC, DATASET_VERSION, "IIB", head, inputs, labels)


def _load_binary_dataset(path) -> LabeledDataset:
    (count, dim, code), blob, off = read_frame(path, DATASET_MAGIC, DATASET_VERSION, "IIB")
    if code >= len(_DTYPES):
        raise MalformedFileError(f"{path}: unknown dtype code {code}")
    if dim == 0:
        raise MalformedFileError(f"{path}: zero feature dimension")
    dtype = np.dtype(_DTYPES[code])
    labels_at = off + count * dim * dtype.itemsize
    check_end(path, blob, labels_at + count * 4)
    x = np.frombuffer(blob, dtype=dtype, count=count * dim, offset=off).astype(np.float64)
    if dtype == np.uint8:
        x /= 255.0
    y = np.frombuffer(blob, dtype="<u4", count=count, offset=labels_at).astype(np.int64)
    return LabeledDataset(x.reshape(count, dim), y)


def _load_csv_dataset(path) -> LabeledDataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header, *lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8 text") from exc
    cols = header.strip().split(",")
    if not cols or cols[0] != "label":
        raise MalformedFileError(f"{path}: CSV header must start with 'label'")
    dim = len(cols) - 1
    if dim == 0:
        raise MalformedFileError(f"{path}: CSV header names no feature column")
    xs, ys = [], []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise MalformedFileError(f"{path}:{lineno}: wrong field count")
        try:
            ys.append(int(parts[0]))
            xs.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise MalformedFileError(f"{path}:{lineno}: {exc}") from exc
    if not xs:
        return LabeledDataset(np.zeros((0, dim)), np.zeros(0, dtype=np.int64))
    return LabeledDataset(np.array(xs), np.array(ys, dtype=np.int64))


def load_dataset(path, format: str = "auto") -> LabeledDataset:
    """Read a dataset file in one of DATASET_FORMATS: "raw-binary", "csv"
    or "cifar"; "auto" reads a path ending in .csv as CSV and any other
    path as raw-binary."""
    if format == "auto":
        format = "csv" if str(path).endswith(".csv") else "raw-binary"
    if format not in _READERS:
        raise SettingValueError(f"unknown dataset format {format!r}")
    return _READERS[format](path)


def load_cifar_batch(path) -> LabeledDataset:
    """Parse a CIFAR100 binary batch: per record a coarse label byte, a
    fine label byte, then 3072 pixel bytes. Fine labels are kept and
    pixels scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % CIFAR_RECORD_BYTES != 0:
        raise MalformedFileError(
            f"{path}: {len(blob)} bytes is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n = len(blob) // CIFAR_RECORD_BYTES
    if n == 0:
        return LabeledDataset(np.zeros((0, 3072)), np.zeros(0, dtype=np.int64))
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = raw[:, 1].astype(np.int64)
    pixels = raw[:, 2:].astype(np.float64) / 255.0
    return LabeledDataset(pixels, labels)


_READERS = {"raw-binary": _load_binary_dataset, "csv": _load_csv_dataset, "cifar": load_cifar_batch}
DATASET_FORMATS = ("auto", *_READERS)  # the names `load_dataset` reads


def split_fscil(
    dataset: LabeledDataset,
    base_classes: int,
    ways: int,
    shots: int,
    per_class_cap: int,
    test_per_class: int,
    seed: int,
    sessions: int | None = None,
) -> SessionStream:
    """Deterministic seeded split into base + N-way S-shot sessions + test.

    Classes are sorted by id; the base takes the first `base_classes`,
    sessions take consecutive blocks of `ways`. Within a class, sample
    selection is a seeded shuffle: test_per_class rows go to the test
    set, then per_class_cap (base) or shots (incremental) to training.
    When `sessions` is None every remaining full block of classes forms
    a session; leftover classes are dropped entirely.
    """
    if ways < 1 or shots < 1 or base_classes < 1 or per_class_cap < 1:
        raise SettingValueError("base_classes, ways, shots and per_class_cap must be positive")
    if test_per_class < 0:
        raise SettingValueError(f"test_per_class must be >= 0, got {test_per_class}")
    classes = dataset.class_ids()
    if sessions is None:
        sessions = (len(classes) - base_classes) // ways
        if sessions < 0:
            raise InsufficientClassesError(
                f"{len(classes)} classes cannot cover a {base_classes}-class base"
            )
    needed = base_classes + sessions * ways
    if needed > len(classes):
        raise InsufficientClassesError(
            f"need {needed} classes ({base_classes} base + {sessions}x{ways}-way), "
            f"dataset has {len(classes)}"
        )
    rng = np.random.default_rng(seed)
    train_idx: dict[int, np.ndarray] = {}
    test_idx = []
    used = classes[:needed]
    for rank, cid in enumerate(used):
        pool = dataset.indices_of(cid)
        want_train = per_class_cap if rank < base_classes else shots
        if len(pool) < test_per_class + want_train:
            raise InsufficientSamplesError(
                f"class {cid} has {len(pool)} samples, needs {test_per_class + want_train}"
            )
        order = rng.permutation(len(pool))
        shuffled = pool[order]
        test_idx.extend(shuffled[:test_per_class].tolist())
        train_idx[cid] = shuffled[test_per_class : test_per_class + want_train]
    base_rows = np.concatenate([train_idx[c] for c in used[:base_classes]])
    base = dataset.take(base_rows)
    session_sets = []
    for t in range(sessions):
        block = used[base_classes + t * ways : base_classes + (t + 1) * ways]
        rows = np.concatenate([train_idx[c] for c in block])
        session_sets.append(dataset.take(rows))
    test = dataset.take(np.array(sorted(test_idx), dtype=np.int64))
    return SessionStream(base, session_sets, ways, shots, test)
