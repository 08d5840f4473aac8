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
# elements of b a batched matmul gathers and multiplies per block, which
# bounds its scratch to two such blocks whatever the operands' size
_ROW_CHUNK = 2**15


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
    Two paths keep that order:

    - A batch (m > 1, n > 1, fewer rows than live columns) reduces each
      output row once per block of up to _ROW_CHUNK elements of b. The
      block holds out[r] in its first row and a[r, i] * b[i] below it,
      and np.add.reduce over axis 0 of a C-contiguous block with n >= 2
      columns adds its rows in index order: 0.0 + t_0 + t_1 + ... .
    - Every other shape runs one rank-1 update per live column. With
      n == 1 a block is one contiguous column, which numpy sums pairwise,
      not left to right. With m >= live columns (the weight gradients)
      the row loop makes more calls than the rank-1 loop. One-row
      products (m == 1) would also be faster as one reduce (`1 <`
      dropped below): online_sessions query_us_p50 679 -> 162 us (28 s
      seed-7 runs, 2 vCPUs, numpy 2.4.6). But the benchmark keeps every
      timing, twice the rounds fit its window, and peak_rss_mb rose past
      its 10% bound (55.0 -> 58.1 MB; wide_memory 54.7 -> 58.5), so they
      move once that memory stops growing with the round count. Several
      output rows per block ran (32, 48, 32) in 85 us instead of 255 but
      gave no end-to-end gain (learn_class_ms_p50 0.45-0.48 ms vs
      0.40-0.49). ROADMAP item 1(b) has every run.

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
    k_live = len(cols)
    if n > 1 and 1 < m < k_live:
        kc = max(1, min(k_live, _ROW_CHUNK // n))
        buf = np.empty((kc + 1, n))
        for lo in range(0, k_live, kc):
            sel = slice(lo, lo + kc) if k_live == k else cols[lo : lo + kc]
            b_chunk = b[sel]
            c = len(b_chunk)
            for r in range(m):
                buf[0] = out[r]
                np.multiply(a[r, sel, None], b_chunk, out=buf[1 : c + 1])
                np.add.reduce(buf[: c + 1], axis=0, out=out[r])
        return out
    tmp = np.empty((m, n))
    for i in cols.tolist():
        np.multiply(a[:, i, None], b[i, None, :], out=tmp)
        np.add(out, tmp, out=out)
    return out

