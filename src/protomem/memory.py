"""Explicit memory: integer class prototypes, right-shift precision
reduction, bipolarization, and nearest-prototype cosine classification.

Prototypes accumulate quantized features as exact integer sums. The mean
never has to be materialized: cosine similarity is scale-invariant, so
dividing by the shot count (or shifting right) changes no decision.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import check_end, read_frame, write_frame
from .errors import (
    ClassIdRangeError,
    DuplicateClassError,
    EmptyMemoryError,
    EmptySampleSetError,
    MalformedFileError,
    NonFiniteValueError,
    OverflowAfterShiftError,
    SettingValueError,
    ShapeMismatchError,
    ZeroNormError,
)
from .numerics import ZERO_NORM_FLOOR, as_matrix, as_vector, check_finite, row_norms, rowdot

EM_MAGIC = b"OFEM"
SNAPSHOT_VERSION = 1

_HALF_DBL_MAX = np.finfo(np.float64).max / 2
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


def quantize_rows(theta, feature_bits: int) -> np.ndarray:
    """Symmetric per-row quantization of an (N, d) stack to (N, d) signed
    feature_bits integers (int64).

    For each row, s = max|x| / (2^(b-1) - 1) and q = clamp(round(x / s)),
    elementwise, so every row is bitwise what it would be alone. An all-zero
    row cannot define a scale: it quantizes to zeros.
    """
    x = as_matrix(theta)
    # NaN and inf propagate into a row's peak
    peak = check_finite(np.abs(x).max(axis=1), "feature rows")
    qmax = (1 << (feature_bits - 1)) - 1
    scale = np.where(peak == 0.0, 1.0, peak / qmax)
    q = np.rint(x / scale[:, None])
    # np.clip(q, -(qmax + 1), qmax) in place, without its per-call dispatch
    np.minimum(np.maximum(q, -(qmax + 1), out=q), qmax, out=q)
    return q.astype(np.int64)


def quantize_feature(theta_p, feature_bits: int) -> np.ndarray:
    """One vector's `quantize_rows`: its (d,) values."""
    return quantize_rows(as_vector(theta_p)[None, :], feature_bits)[0]


class Prototype(NamedTuple):
    """Read view of one stored class (`ExplicitMemory.get`): the exact
    integer sum of its quantized features and the reduced values that
    classification scores."""

    class_id: int
    accum: np.ndarray  # int64 sum of quantized features
    count: int
    quantized: np.ndarray  # int64 values fitting in prototype_bits
    scale_shift: int


def bipolarize(x) -> np.ndarray:
    """Map entries to {-1, +1} by sign, with 0 mapped to +1."""
    arr = np.asarray(x)
    return np.where(arr >= 0, 1, -1).astype(np.int64)


def reduce_rows(accum, bits: int):
    """The memory's one precision-reduction rule, for a (C, d_p) stack of
    accumulators: 1-bit storage is the sign vector; wider storage is each
    row's minimal arithmetic right shift into the signed range,
    bit_length(max|row|) - (bits - 1) (cosine scoring is per-prototype
    scale-invariant). Returns (reduced, shifts); at 64 bits `reduced` is
    `accum` itself."""
    accum = np.asarray(accum, dtype=np.int64)
    if bits == 1:
        return bipolarize(accum), np.zeros(len(accum), dtype=np.int64)
    if bits == 64:  # every int64 fits 64-bit storage as it is
        return accum, np.zeros(len(accum), dtype=np.int64)
    # unsigned, so that |-2**63| is 2**63 rather than wrapping to -2**63
    magnitude = np.abs(accum).view(np.uint64).max(axis=1, initial=0)
    bit_length = _POWERS_OF_TWO.searchsorted(magnitude, side="right")
    shifts = np.maximum(bit_length - (bits - 1), 0)
    return accum >> shifts[:, None], shifts


def aligned_copy(a) -> np.ndarray:
    """A float64 copy of `a` that starts on a 64-byte boundary, so that no
    wide load of a row of a multiple of 8 entries spans two cache lines."""
    buf = np.empty(np.size(a) + 8)
    out = np.ndarray(np.shape(a), np.float64, buf, -buf.ctypes.data % 64)
    out[...] = a
    return out


class ScoringView(NamedTuple):
    """An `ExplicitMemory`'s scoring inputs, derived from `reduced` and `ids`."""

    protos: np.ndarray  # (C, d_p) float64 copy of reduced
    norms: np.ndarray  # (C,) row_norms of protos
    by_id: np.ndarray  # (C,) column order that sorts the class ids


class ExplicitMemory:
    """The classifier's entire state, one row per class in insertion
    order: class ids, shot counts, right shifts, and (C, d_p) int64
    matrices of exact accumulators and of the reduced values that
    classification scores. Learning (`add_accumulated`), `load_em` and
    `rebuilt_at_bits` are the only writers of `reduced`; nothing outside
    the memory writes it, and `get` returns a read-only view of one row.

    Each stored array is exactly (C, ...) and views the filled rows of a
    buffer with spare rows (`_reserve`), so an append writes only its own
    rows, and a full buffer is replaced by one of twice the rows. A memory
    writes only into spare rows of buffers that it allocated (`_bufs`), and
    a written row never changes: a memory that shares another's arrays
    (`rebuilt_at_bits`) or a row view handed out earlier reads the same
    values after any append. A pickle holds the filled rows alone, and a
    copy or an unpickled memory puts them in buffers of its own.

    `scoring_view()` is derived state: `reduced` as float64, its row norms
    and the id order, built on the first scoring after a change and
    dropped by every append."""

    def __init__(self, d_p: int, quant: QuantSpec | None = None):
        if d_p < 1:
            raise ShapeMismatchError("d_p must be positive")
        self.ids = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.shifts = np.zeros(0, dtype=np.int64)
        self.accum = np.zeros((0, d_p), dtype=np.int64)
        self.reduced = np.zeros((0, d_p), dtype=np.int64)
        self._bufs = dict.fromkeys(["ids", "counts", "shifts", "accum", "reduced"])
        self.d_p = d_p
        self.quant = quant if quant is not None else QuantSpec()
        self._scoring = None

    def __getstate__(self):
        # the scoring view is derived: a copy or pickle rebuilds it on use
        return {**vars(self), "_bufs": dict.fromkeys(self._bufs), "_scoring": None}

    def __setstate__(self, state):
        vars(self).update(state)
        if len(self):
            self._reserve(len(self) + 1)

    def _reserve(self, rows: int):
        """Room for `rows` rows in a buffer of this memory's own for each
        stored array: a buffer too small for them, or none, is replaced by
        one of max(2·C, rows) rows that holds the C filled rows."""
        n = len(self)
        for name, buf in self._bufs.items():
            if buf is None or len(buf) < rows:
                filled = getattr(self, name)
                buf = np.empty((max(2 * n, rows), *filled.shape[1:]), filled.dtype)
                buf[:n] = filled
                self._bufs[name] = buf
                setattr(self, name, buf[:n])

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, class_id: int) -> bool:
        return self._rows_of(class_id).size > 0

    def class_ids(self) -> list:
        return self.ids.tolist()

    def _rows_of(self, class_id) -> np.ndarray:
        """Indices of the rows that store `class_id`: one at most, and none
        for a value that no int64 id equals."""
        return (self.ids == class_id).nonzero()[0]

    def _append(self, ids, counts, **rows):
        """Append rows once every row invariant holds, else write nothing:
        ids are new, distinct and fit the snapshots' u32 id field, counts
        are >= 1 and fit their u32 count field, and each named array keeps
        its row width. Rows appended to an empty memory are kept as given,
        so every caller hands in arrays that nothing else holds."""
        given = np.asarray(ids).tolist()
        if any(not 0 <= c < 2**32 for c in given):
            raise ClassIdRangeError(f"class ids {given} must lie in [0, 2**32)")
        new = np.array(given, dtype=np.int64)
        # stored ids are distinct: a clash is a repeated new id or a stored one
        if len(set(given)) < len(given) or np.count_nonzero(self.ids == new[:, None]):
            both = self.ids.tolist() + given
            clash = next(c for i, c in enumerate(both) if c in both[:i])
            raise DuplicateClassError(f"class {clash} already stored")
        shots = np.asarray(counts).tolist()
        if min(shots, default=1) < 1:
            raise EmptySampleSetError("a stored class needs a shot count >= 1")
        if max(shots, default=0) >= 2**32:
            raise ClassIdRangeError(f"shot counts {shots} must lie below 2**32")
        for name, block in rows.items():
            width = getattr(self, name).shape[1:]
            if block.shape[1:] != width:
                raise ShapeMismatchError(f"{name} rows of shape {block.shape[1:]} != {width}")
        n, k = len(self), len(given)
        rows.update(ids=new, counts=np.array(shots, dtype=np.int64))
        self._scoring = None
        if n == 0:  # an empty memory holds no buffer
            vars(self).update(rows)
            return
        # `_reserve` replaces every buffer at once, so the ids buffer's room is all of theirs
        ids_buf = self._bufs["ids"]
        if ids_buf is None or len(ids_buf) < n + k:
            self._reserve(n + k)
        for name, block in rows.items():
            buf = self._bufs[name]
            buf[n : n + k] = block
            setattr(self, name, buf[: n + k])

    def scoring_view(self) -> ScoringView:
        """What `classify_batch` reads, read-only and kept until the memory
        next changes."""
        if self._scoring is None:
            protos = aligned_copy(self.reduced)
            view = ScoringView(protos, row_norms(protos), np.argsort(self.ids, kind="stable"))
            for array in view:
                array.flags.writeable = False
            self._scoring = view
        return self._scoring

    def get(self, class_id: int) -> Prototype:
        """Read-only view of one stored class; KeyError for any other id."""
        rows = self._rows_of(class_id)
        if not rows.size:
            raise KeyError(class_id)
        i = int(rows[0])
        accum, reduced = self.accum[i], self.reduced[i]
        accum.flags.writeable = reduced.flags.writeable = False
        return Prototype(int(self.ids[i]), accum, int(self.counts[i]), reduced, int(self.shifts[i]))

    def add_accumulated(self, class_id: int, accum, count: int):
        """Store a class from its exact sum, reduced by `reduce_rows`."""
        accum = np.asarray(accum, dtype=np.int64).reshape(1, -1)
        if not len(self):  # an empty memory keeps the rows it is given
            accum = accum.copy()
        reduced, shifts = reduce_rows(accum, self.quant.prototype_bits)
        self._append([class_id], [count], shifts=shifts, accum=accum, reduced=reduced)

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
    em.class_ids(). For every query whose squared norm is finite, each score
    is bitwise equal to numerics.cossim of query and reduced prototype; a
    query whose squared norm could overflow is first scaled down by a power
    of two. Ties break toward the smallest class id; a degenerate all-zero
    prototype scores 0.0 rather than poisoning the argmax.
    """
    if len(em) == 0:
        raise EmptyMemoryError("explicit memory holds no prototypes")
    q = np.asarray(features, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != em.d_p:
        raise ShapeMismatchError(f"query shape {q.shape} does not match memory d_p {em.d_p}")
    # NaN and inf propagate into the peak; below `limit` no row's d_p
    # squares can sum past DBL_MAX / 2
    top = np.abs(q).max(initial=0.0)
    limit = math.sqrt(_HALF_DBL_MAX / em.d_p)
    if not top <= limit:
        if not math.isfinite(top):
            raise NonFiniteValueError("query features contains non-finite entries")
        # cosine ignores scale: divide each row peaking above `limit` by a
        # power of two of its peak, exact barring entries 2**1000 below it
        big = np.abs(q).max(axis=1) > limit
        _, peak_exp = np.frexp(np.abs(q[big]).max(axis=1))
        q = q.copy()
        q[big] = np.ldexp(q[big], -peak_exp[:, None])
    q_norm = row_norms(q)
    if q_norm.min(initial=np.inf) < ZERO_NORM_FLOOR:
        raise ZeroNormError("query feature has near-zero norm")
    protos, p_norm, by_id = em.scoring_view()
    dots = rowdot(q[:, None, :], protos)
    scores = np.divide(
        dots, q_norm[:, None] * p_norm, out=np.zeros(dots.shape), where=p_norm >= ZERO_NORM_FLOOR
    )
    # np.clip(scores, -1.0, 1.0) without its per-call dispatch
    np.minimum(np.maximum(scores, -1.0, out=scores), 1.0, out=scores)
    # argmax takes the first maximum, so in id order the smallest tied id
    preds = em.ids[by_id[scores[:, by_id].argmax(axis=1)]]
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


_EM_HEAD = "IIII"  # class count, entries per class, entry bits, right shift


def _unstorable(vals: np.ndarray, bits: int, shift: int) -> str | None:
    """Why (C, d) reduced `vals` and a header `shift` are not what
    `reduce_rows` gives at `bits`, or None. The one range check of `save_em`
    and `load_em`, so that every file `save_em` writes loads."""
    # signs are +-1 at 1 bit; wider entries lie in the signed range
    lo, hi = (-1, 1) if bits == 1 else (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    if vals.size and (vals.min() < lo or vals.max() > hi or bits == 1 and not vals.all()):
        return f"an entry lies outside the {bits}-bit range"
    max_shift = 0 if bits in (1, 64) else 65 - bits
    if shift > max_shift:
        return f"shift {shift} above {bits}-bit storage's {max_shift}"
    return None


def save_em(em: ExplicitMemory, path):
    """Snapshot of the reduced-precision store (accumulators are runtime
    state and are not persisted): `write_frame`'s header (`_EM_HEAD`), whose
    shift is the largest per-prototype shift, then per class its id and
    count (u32 each) and its entries, each the low `_int_bytes(bits)` bytes
    of its little-endian int64. Refuses, writing nothing, what `load_em`
    would refuse: a memory whose `quant` was changed after it learned can
    hold values outside its `prototype_bits` range."""
    bits, shift = em.quant.prototype_bits, int(em.shifts.max(initial=0))
    problem = _unstorable(em.reduced, bits, shift)
    if problem:
        raise OverflowAfterShiftError(f"cannot store at {bits} bits: {problem}")
    n, d = em.reduced.shape
    width = _int_bytes(bits)
    entries = em.reduced.astype("<i8").view(np.uint8).reshape(n, d, 8)[..., :width]
    head = np.column_stack([em.ids, em.counts]).astype("<u4").view(np.uint8)
    payload = np.concatenate([head, entries.reshape(n, d * width)], axis=1).tobytes()
    write_frame(path, EM_MAGIC, SNAPSHOT_VERSION, _EM_HEAD, (n, d, bits, shift), payload)


def load_em(path) -> ExplicitMemory:
    """Inverse of save_em. Refuses a width outside 1 to 64 bits, 0 entries
    per class, entries outside the signed `bits` range ({-1, +1} at 1 bit),
    a shift above the largest that `reduce_rows` gives at that width, and a
    repeated id or a shot count of 0, which no memory holds."""
    (n, d_p, bits, shift), blob, off = read_frame(path, EM_MAGIC, SNAPSHOT_VERSION, _EM_HEAD)
    if not 1 <= bits <= 64:
        raise MalformedFileError(f"{path}: unsupported entry width of {bits} bits")
    if d_p == 0:
        raise MalformedFileError(f"{path}: 0 entries per class")
    width = _int_bytes(bits)
    record = 8 + d_p * width
    check_end(path, blob, off + n * record)
    rows = np.frombuffer(blob, dtype=np.uint8, count=n * record, offset=off).reshape(n, record)
    ids, counts = rows[:, :8].copy().view("<u4").astype(np.int64).T
    # each entry's bytes are the top of the little-endian word that ends
    # where the entry ends (the bytes before it lie in the same record), so
    # an arithmetic shift drops the rest and extends the sign
    if n:
        words = np.ndarray((n, d_p), "<i8", blob, off + width, (record, width))
    else:  # no word of an empty payload lies inside the blob
        words = np.zeros((0, d_p), dtype=np.int64)
    vals = words >> (64 - 8 * width)
    problem = _unstorable(vals, bits, shift)
    if problem:
        raise MalformedFileError(f"{path}: {problem}")
    spec = QuantSpec(accum_bits=max(bits, QuantSpec.accum_bits), prototype_bits=bits)
    em = ExplicitMemory(d_p, spec)
    try:
        # no stored row is ever written again, so one array serves as both
        em._append(ids, counts, shifts=np.full(n, shift), accum=vals, reduced=vals)
    except (DuplicateClassError, EmptySampleSetError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from None
    return em
