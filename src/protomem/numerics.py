"""Deterministic dense linear algebra and elementwise primitives.

All math runs in float64. Reductions that feed bit-reproducibility
contracts (matmul) accumulate in a fixed row-major, left-to-right order;
BLAS-backed kernels are avoided there because their blocked summation is
not bitwise equal to the naive triple loop. `rowdot` and `matvecs` are
the only code in the package that hands floats to BLAS.
"""

import math

import numpy as np

from .errors import NonFiniteValueError, ShapeMismatchError, ZeroNormError

ZERO_NORM_FLOOR = 1e-12
# elements of the (kc, h, n) product stack a batched matmul builds per block
# of an h-row tile, which bounds its scratch to about one such block whatever
# the operands' size
_ROW_CHUNK = 2**16
# live columns a block of a batched matmul holds at least: its output rows
# split into tiles of about _ROW_CHUNK // (_KC * n) rows
_KC = 16


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeMismatchError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    return v


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeMismatchError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    return m


def check_finite(x, what: str = "array") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NonFiniteValueError(f"{what} contains non-finite entries")
    return arr


def cossim(a, b) -> float:
    """Cosine similarity a.b / (|a||b|), clamped to [-1, 1].

    Raises ZeroNormError when either norm is below 1e-12; a zero feature
    carries no direction and must not be classified silently.
    """
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cossim dims differ: {a.shape[0]} vs {b.shape[0]}")
    na = math.sqrt(rowdot(a, a))
    nb = math.sqrt(rowdot(b, b))
    if na < ZERO_NORM_FLOOR or nb < ZERO_NORM_FLOOR:
        raise ZeroNormError(f"vector norm below {ZERO_NORM_FLOOR}")
    return min(1.0, max(-1.0, float(rowdot(a, b)) / (na * nb)))


def rowdot(x, y) -> np.ndarray:
    """One dot product per pair of rows: sum(x[..., i] * y[..., i]) over
    the last axis, leading axes broadcast. numpy runs each 1 x d by d x 1
    product of the stack through the same BLAS dot kernel as np.dot on two
    vectors, so every value is bitwise np.dot of its pair, whatever the
    batch; x @ y.T would sum in gemm's blocks instead."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def matvecs(mats, vecs) -> np.ndarray:
    """One matrix-vector product per vector, mats[..., :, :] @ vecs[..., :]
    with leading axes broadcast: each is bitwise np.matmul(M, v) of its
    pair, one BLAS gemv, whatever the batch."""
    return np.matmul(mats, vecs[..., :, None])[..., 0]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Per-row sqrt(rowdot(row, row)), bitwise equal to np.linalg.norm(row)."""
    return np.sqrt(rowdot(x, x))


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def matmul(a, b) -> np.ndarray:
    """Matrix product with left-to-right accumulation over the shared axis.

    Every output element is summed in index order, so the result is
    bitwise equal to the naive triple loop on any shape, unlike BLAS gemm.
    One rule picks between two paths that keep that order:

    - Every product with m > 1 is a stacked reduce on row tiles. out[r]
      depends only on a[r], so the rows split into ceil(m / h0) tiles,
      h0 = _ROW_CHUNK // (_KC * n), whose heights differ by at most one row,
      and with h0 < 3 into m // 2 tiles of 2 or 3 rows. With h the tallest
      tile's height, a block holds kc = _ROW_CHUNK // (h * n) live columns:
      at least _KC whenever h <= h0, as it is for every h0 >= 3, and never
      fewer than one. Each block of a tile is one stacked reduce: stack[0]
      holds the tile of `out`, stack[1:] the (kc, h, n) products
      a[rows, i, None] * b[i] of a contraction-free np.einsum, and
      np.add.reduce over axis 0 of the C-contiguous stack adds them in index
      order into `out`: 0.0 + t_0 + t_1 + ... . The einsum writes each
      product as 0.0 + a*b, which differs from a*b only in turning -0.0 into
      +0.0, and that sign never reaches a sum that starts at +0.0 (see
      below). A one-row tile with n == 1 would make a (kc + 1, 1, 1) stack,
      one contiguous vector, which numpy sums pairwise; hence no tile holds
      one row. The stack holds one block of about _ROW_CHUNK elements
      whatever the operands' size. _ROW_CHUNK = 2**16 came from a sweep over
      every shape the benchmark workloads multiply, weighted by call count,
      before tiling: their batched matmul time was 0.74, 1.28 and 2.01 s
      (offline_train, online_sessions, wide_memory) with a per-row reduce,
      0.52, 0.95 and 2.01 s at 2**15, 0.47, 0.85 and 1.87 s at 2**16 (2
      vCPUs, numpy 2.4.6). _KC = 16 came from a sweep over the same shapes
      with m > 1: 0.78, 0.80 and 1.66 s untiled, 0.74, 0.76 and 1.41 s at
      _KC = 4, 0.73, 0.75 and 1.35 s at 8, 0.69, 0.71 and 1.28 s at 16,
      0.69, 0.71 and 1.26 s at 32, and 0.71, 0.73 and 1.33 s at 64; 16 is
      the smallest within 2% of the best in that sitting and in a second
      one.
    - One-row products (m == 1) run one rank-1 update per live column,
      left to right: a's live values are read once as Python floats, and
      each one times its row b[i] goes into one 1-D temporary
      (np.multiply(s, b[i])), which is added into out's only row. No
      column is sliced out of `a` or `b` per step. Against slicing
      a[:, i, None] and b[i, None, :] for every column, this cut a one-row
      forward from 418 to 297 us on the 256-96-48-32 model and from 468 to
      360 us on the 64-384-256 one (medians of 15 interleaved sets of 100
      queries), and online_sessions query_us_p50 from 666 to 482 us (seed
      7) and from 642 to 476 us (seed 2024), medians of five 28 s runs
      each (2 vCPUs, numpy 2.4.6). A one-row stacked reduce with blocks of
      about 64 KiB is faster still: it cut query_us_p50 from 676 to 184 us
      in a 28 s seed-7 run. But 24 rounds fit the window instead of 11, and
      peak_rss_mb rose from 51.0 to 58.5 MB (+14.8%), past the benchmark's
      10% bound: its process grows about 0.5 MB per round with the samples
      the harness keeps. So that path waits for a benchmark whose footprint
      does not grow with its round count (ROADMAP item 1(a)).

    Only the live columns of `a` are visited: those with a nonzero or NaN
    entry, plus any whose row b[i] holds a non-finite value (0 * inf is
    NaN). Skipping the rest is exact: such a column adds only ±0 to every
    output, `out` starts at +0.0 and never becomes -0.0 (x + y is -0.0
    only when both are), and x + ±0 == x for every other x. ReLU inputs
    are about half exact zeros, so a one-row forward skips many steps.
    """
    a = as_matrix(a)
    b = np.ascontiguousarray(as_matrix(b))  # rows b[i] read contiguously
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    live = a.any(axis=0)  # NaN counts as nonzero
    cols = live.nonzero()[0]
    if len(cols) < k:
        dead = ~live
        live[dead] = ~np.isfinite(b[dead]).all(axis=1)
        cols = live.nonzero()[0]
    out = np.zeros((m, n))
    if m == 1:
        o, tmp = out[0], np.empty(n)
        for s, i in zip(a[0, cols].tolist(), cols.tolist()):
            np.multiply(s, b[i], out=tmp)
            np.add(o, tmp, out=o)
        return out
    k_live = len(cols)
    h0 = _ROW_CHUNK // (_KC * n)
    tiles = -(-m // h0) if h0 > 2 else m // 2
    h = -(-m // tiles)  # the tallest tile; the others are h or h - 1 rows
    kc = max(1, _ROW_CHUNK // (h * n))
    depth = min(kc, k_live) + 1
    scratch = np.empty((depth, h, n))
    at = a.T
    for t in range(tiles):
        r0, r1 = t * m // tiles, (t + 1) * m // tiles
        o, tile_buf = out[r0:r1], scratch
        if r1 - r0 < h:  # the head of the scratch, as one C-contiguous stack
            tile_buf = scratch.reshape(-1)[: depth * o.size].reshape(depth, r1 - r0, n)
        for lo in range(0, k_live, kc):
            hi = min(lo + kc, k_live)
            sel = slice(lo, hi) if k_live == k else cols[lo:hi]
            stack = tile_buf[: hi - lo + 1]
            stack[0] = o
            np.einsum("ir,ij->irj", at[sel, r0:r1], b[sel], out=stack[1:])
            np.add.reduce(stack, axis=0, out=o)
    return out
