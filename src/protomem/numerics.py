"""Deterministic dense linear algebra and elementwise primitives.

All math runs in float64. Reductions that feed bit-reproducibility
contracts (matmul) accumulate in a fixed row-major, left-to-right order;
BLAS-backed kernels are avoided there because their blocked summation is
not bitwise equal to the naive triple loop.
"""

import numpy as np

from .errors import NonFiniteValueError, ShapeMismatchError, ZeroNormError

ZERO_NORM_FLOOR = 1e-12


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
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_FLOOR or nb < ZERO_NORM_FLOOR:
        raise ZeroNormError(f"vector norm below {ZERO_NORM_FLOOR}")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Per-row sqrt(dot(row, row)), bitwise equal to np.linalg.norm(row):
    numpy runs each 1 x d by d x 1 product of a stack through the same dot
    kernel as np.dot on two vectors, where x @ x.T would sum in BLAS blocks."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def matmul(a, b) -> np.ndarray:
    """Matrix product with left-to-right accumulation over the shared axis.

    Decomposed into rank-1 updates so every output element is summed in
    index order; the result is bitwise equal to the naive triple loop on
    any shape, unlike BLAS gemm.

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
    tmp = np.empty((m, n))
    for i in cols.tolist():
        np.multiply(a[:, i, None], b[i, None, :], out=tmp)
        np.add(out, tmp, out=out)
    return out

