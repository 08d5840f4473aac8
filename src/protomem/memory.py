"""Explicit memory: integer class prototypes, right-shift precision
reduction, bipolarization, and nearest-prototype cosine classification.

Prototypes accumulate quantized features as exact integer sums. The mean
never has to be materialized: cosine similarity is scale-invariant, so
dividing by the shot count (or shifting right) changes no decision.
"""

import math
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateClassError,
    EmptyMemoryError,
    FormatVersionMismatchError,
    OverflowAfterShiftError,
    SettingValueError,
    ShapeMismatchError,
    ZeroNormError,
)
from .numerics import ZERO_NORM_FLOOR, as_vector, check_finite, row_norms

EM_MAGIC = b"OFEM"
ACTMEM_MAGIC = b"OFAM"
SNAPSHOT_VERSION = 1

_POWERS_OF_TWO = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass
class QuantSpec:
    """Bit-width policy for feature quantization and prototype storage.

    accum_bits must leave headroom for max_shots additions of
    feature_bits-wide values; prototype_bits is the storage width that
    `reduce_rows` brings each accumulator to (accum_bits means no
    reduction).
    """

    feature_bits: int = 8
    accum_bits: int = 32
    prototype_bits: int | None = None
    max_shots: int = 256

    def __post_init__(self):
        if self.prototype_bits is None:
            self.prototype_bits = self.accum_bits
        if not 2 <= self.feature_bits <= 32:
            raise SettingValueError("feature_bits must be in [2, 32]")
        if not 1 <= self.prototype_bits <= self.accum_bits:
            raise SettingValueError("prototype_bits must be in [1, accum_bits]")
        if self.accum_bits > 64:
            raise SettingValueError("accum_bits beyond 64 is not representable")
        if self.max_shots < 1:
            raise SettingValueError("max_shots must be >= 1")
        headroom = self.feature_bits + math.ceil(math.log2(self.max_shots))
        if self.accum_bits < headroom:
            raise SettingValueError(
                f"accum_bits {self.accum_bits} < feature_bits + log2(max_shots) = {headroom}"
            )


class QuantizedFeature(NamedTuple):
    values: np.ndarray  # int64
    scale: float
    degenerate: bool


def quantize_feature(theta_p, feature_bits: int) -> QuantizedFeature:
    """Symmetric per-vector quantization to signed feature_bits integers.

    s = max|x| / (2^(b-1) - 1); q = clamp(round(x / s)). An all-zero
    vector cannot define a scale: it quantizes to zeros with scale 1 and
    the degenerate flag set.
    """
    x = check_finite(as_vector(theta_p), "feature vector")
    qmax = (1 << (feature_bits - 1)) - 1
    peak = float(np.abs(x).max())
    if peak == 0.0:
        return QuantizedFeature(np.zeros(x.size, dtype=np.int64), 1.0, True)
    scale = peak / qmax
    q = np.clip(np.rint(x / scale), -(qmax + 1), qmax).astype(np.int64)
    return QuantizedFeature(q, scale, False)


class Prototype(NamedTuple):
    """Read view of one stored class (`ExplicitMemory.get`): the exact
    integer sum of its quantized features and the reduced values that
    classification scores."""

    class_id: int
    accum: np.ndarray  # int64 sum of quantized features
    count: int
    quantized: np.ndarray  # int64 values fitting in prototype_bits
    scale_shift: int

    def mean_vector(self) -> np.ndarray:
        """Full-precision class mean of the quantized features."""
        return self.accum.astype(np.float64) / self.count


def bipolarize(x) -> np.ndarray:
    """Map entries to {-1, +1} by sign, with 0 mapped to +1."""
    arr = np.asarray(x)
    return np.where(arr >= 0, 1, -1).astype(np.int64)


def reduce_rows(accum, bits: int):
    """The memory's one precision-reduction rule, for a (C, d_p) stack of
    accumulators: 1-bit storage is the sign vector; wider storage is each
    row's minimal arithmetic right shift into the signed range,
    bit_length(max|row|) - (bits - 1) (cosine scoring is per-prototype
    scale-invariant). Returns (reduced, shifts)."""
    accum = np.asarray(accum, dtype=np.int64)
    if bits == 1:
        return bipolarize(accum), np.zeros(len(accum), dtype=np.int64)
    # unsigned, so that |-2**63| is 2**63 rather than wrapping to -2**63
    magnitude = np.abs(accum).view(np.uint64).max(axis=1, initial=0)
    bit_length = _POWERS_OF_TWO.searchsorted(magnitude, side="right")
    # every int64 fits 64-bit storage as it is
    shifts = np.maximum(bit_length - (bits - 1), 0) if bits < 64 else np.zeros_like(bit_length)
    return accum >> shifts[:, None], shifts


class ExplicitMemory:
    """The classifier's entire state, one row per class in insertion
    order: class ids, shot counts, right shifts, and (C, d_p) int64
    matrices of exact accumulators and of the reduced values that
    classification scores. Learning (`add_accumulated`) and `load_em`
    are the only writers; `get` returns a read-only view of one row."""

    def __init__(self, d_p: int, quant: QuantSpec | None = None):
        if d_p < 1:
            raise ShapeMismatchError("d_p must be positive")
        self.d_p = d_p
        self.quant = quant if quant is not None else QuantSpec()
        self.ids = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.shifts = np.zeros(0, dtype=np.int64)
        self.accum = np.zeros((0, d_p), dtype=np.int64)
        self.reduced = np.zeros((0, d_p), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.ids.tolist()

    def class_ids(self) -> list:
        return self.ids.tolist()

    def get(self, class_id: int) -> Prototype:
        """Read-only view of one stored class."""
        if class_id not in self:
            raise KeyError(class_id)
        i = self.class_ids().index(class_id)
        accum, reduced = self.accum[i], self.reduced[i]
        accum.flags.writeable = reduced.flags.writeable = False
        return Prototype(int(self.ids[i]), accum, int(self.counts[i]), reduced, int(self.shifts[i]))

    def _extend(self, ids, counts, shifts, accum, reduced):
        """Append checked rows: the one write path (`add_accumulated`, `load_em`)."""
        ids = np.asarray(ids, dtype=np.int64)
        both = self.ids.tolist() + ids.tolist()
        if len(set(both)) < len(both):
            clash = next(c for i, c in enumerate(both) if c in both[:i])
            raise DuplicateClassError(f"class {clash} already stored")
        if accum.shape[1] != self.d_p:
            raise ShapeMismatchError(f"prototype dim {accum.shape[1]} != memory d_p {self.d_p}")
        if min(np.asarray(counts).tolist(), default=1) < 1:
            raise ValueError("a usable prototype needs count >= 1")
        self.ids = np.concatenate([self.ids, ids])
        self.counts = np.concatenate([self.counts, counts])
        self.shifts = np.concatenate([self.shifts, shifts])
        self.accum = np.concatenate([self.accum, accum])
        self.reduced = np.concatenate([self.reduced, reduced])

    def add_accumulated(self, class_id: int, accum, count: int):
        """Store a class from its exact sum, reduced by `reduce_rows`."""
        accum = np.asarray(accum, dtype=np.int64).reshape(1, -1)
        reduced, shifts = reduce_rows(accum, self.quant.prototype_bits)
        self._extend([class_id], [count], shifts, accum, reduced)

    def rebuilt_at_bits(self, bits: int) -> "ExplicitMemory":
        """New memory with every prototype reduced to `bits` storage by
        `reduce_rows`; ids, counts and accumulators are shared."""
        out = ExplicitMemory(self.d_p, replace(self.quant, prototype_bits=bits))
        out.ids, out.counts, out.accum = self.ids, self.counts, self.accum
        out.reduced, out.shifts = reduce_rows(self.accum, bits)
        return out


def classify_batch(em: ExplicitMemory, features):
    """Nearest-prototype cosine scoring of N queries at once, the one
    scoring path: (N,) predictions and (N, C) scores, columns ordered like
    em.class_ids(), each bitwise equal to numerics.cossim of query and
    reduced prototype. Ties break toward the smallest class id; a degenerate
    all-zero prototype scores 0.0 rather than poisoning the argmax.
    """
    if len(em) == 0:
        raise EmptyMemoryError("explicit memory holds no prototypes")
    q = check_finite(features, "query features")
    if q.ndim != 2 or q.shape[1] != em.d_p:
        raise ShapeMismatchError(f"query shape {q.shape} does not match memory d_p {em.d_p}")
    q_norm = row_norms(q)
    if np.any(q_norm < ZERO_NORM_FLOOR):
        raise ZeroNormError("query feature has near-zero norm")
    protos = em.reduced.astype(np.float64)
    p_norm = row_norms(protos)
    dots = np.matmul(q[:, None, None, :], protos[:, :, None])[..., 0, 0]  # see row_norms
    scores = np.divide(
        dots, q_norm[:, None] * p_norm, out=np.zeros(dots.shape), where=p_norm >= ZERO_NORM_FLOOR
    )
    np.clip(scores, -1.0, 1.0, out=scores)
    best = scores.max(axis=1, keepdims=True)
    preds = np.where(scores == best, em.ids, np.iinfo(np.int64).max).min(axis=1)
    return preds, scores


def classify(em: ExplicitMemory, theta_p):
    """Nearest-prototype prediction for one query: the one-row case of
    `classify_batch`. Returns (class_id, scores)."""
    preds, scores = classify_batch(em, as_vector(theta_p)[None, :])
    return int(preds[0]), scores[0]


def em_memory_bytes(num_classes: int, d_p: int, bits: int) -> int:
    """Footprint of the prototype store at packed bit accounting."""
    return math.ceil(num_classes * d_p * bits / 8)


class SweepPoint(NamedTuple):
    bits: int
    memory_bytes: int
    accuracy: float


def precision_sweep(em: ExplicitMemory, features, labels, bits_list) -> list:
    """Accuracy/footprint trade-off across prototype bit widths.

    features: (N, d_p) query features; labels: their class ids. For each
    width the memory is rebuilt at that precision and evaluated.
    """
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    if feats.ndim != 2 or feats.shape[0] != labs.shape[0]:
        raise ShapeMismatchError("features and labels disagree")
    if feats.shape[0] == 0:
        raise ShapeMismatchError("empty evaluation set")
    points = []
    for bits in bits_list:
        preds, _ = classify_batch(em.rebuilt_at_bits(bits), feats)
        accuracy = int(np.count_nonzero(preds == labs)) / len(labs)
        points.append(SweepPoint(bits, em_memory_bytes(len(em), em.d_p, bits), accuracy))
    return points


def _int_bytes(bits: int) -> int:
    return (bits + 7) // 8


def save_em(em: ExplicitMemory, path):
    """Snapshot of the reduced-precision store (accumulators are runtime
    state and are not persisted). The header's shift is the largest
    per-prototype shift."""
    width = _int_bytes(em.quant.prototype_bits)
    limit = 1 << (8 * width - 1)
    if len(em) and (int(em.reduced.min()) < -limit or int(em.reduced.max()) >= limit):
        raise OverflowAfterShiftError(f"reduced values exceed {width}-byte storage")
    # little-endian two's complement truncated to `width` bytes per entry
    payload = em.reduced.astype("<i8").view(np.uint8).reshape(len(em), em.d_p, 8)[..., :width]
    head = np.column_stack([em.ids, em.counts]).astype("<u4").view(np.uint8)
    shift = int(em.shifts.max(initial=0))
    with open(path, "wb") as fh:
        fh.write(EM_MAGIC)
        fh.write(
            struct.pack("<IIIII", SNAPSHOT_VERSION, len(em), em.d_p, em.quant.prototype_bits, shift)
        )
        fh.write(np.concatenate([head, payload.reshape(len(em), em.d_p * width)], axis=1).tobytes())


def load_em(path) -> ExplicitMemory:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != EM_MAGIC:
        raise FormatVersionMismatchError(f"{path}: bad magic")
    version, n, d_p, bits, shift = struct.unpack_from("<IIIII", blob, 4)
    if version != SNAPSHOT_VERSION or not 1 <= bits <= 64:
        raise FormatVersionMismatchError(f"{path}: unsupported version {version} or {bits} bits")
    width = _int_bytes(bits)
    record = 8 + d_p * width
    if 24 + n * record > len(blob):
        raise FormatVersionMismatchError(f"{path}: truncated payload")
    spec = QuantSpec(accum_bits=max(bits, QuantSpec.accum_bits), prototype_bits=bits)
    em = ExplicitMemory(d_p, spec)
    rows = np.frombuffer(blob, dtype=np.uint8, count=n * record, offset=24).reshape(n, record)
    head = rows[:, :8].copy().view("<u4").astype(np.int64)
    # entries fill the top bytes of int64s; shifting back down sign-extends
    full = np.zeros((n, d_p, 8), dtype=np.uint8)
    full[..., 8 - width :] = rows[:, 8:].reshape(n, d_p, width)
    vals = full.view("<i8").reshape(n, d_p).astype(np.int64) >> (8 * (8 - width))
    em._extend(head[:, 0], head[:, 1], np.full(n, shift, dtype=np.int64), vals, vals.copy())
    return em
