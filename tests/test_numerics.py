import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import assert_same_bits, central_diff, naive_matmul, rank1_matmul, rel_err
from protomem import numerics
from protomem.errors import ShapeMismatchError, ZeroNormError
from protomem.losses import softmax_ce_batch
from protomem.numerics import cossim, matmul, matvecs, relu, rowdot

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestCossim:
    def test_identical_unit_vectors(self):
        assert cossim([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cossim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reference_value(self):
        # dot = 32, |a| = sqrt(14), |b| = sqrt(77)
        expected = 32.0 / math.sqrt(14.0 * 77.0)
        assert cossim([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)
        assert cossim([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318, abs=1e-6)

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            cossim([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroNormError):
            cossim([1.0, 0.0], [1e-13, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cossim([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-100, 100)),
        st.floats(1e-3, 1e3),
    )
    def test_positive_scaling_gives_one(self, a, c):
        if np.linalg.norm(a) < 1e-6:
            return
        assert abs(cossim(a, c * a) - 1.0) <= 1e-12

    @given(
        hnp.arrays(np.float64, 7, elements=finite_floats),
        hnp.arrays(np.float64, 7, elements=finite_floats),
    )
    def test_symmetry_exact(self, a, b):
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        assert cossim(a, b) == cossim(b, a)

    def test_range_clamped(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            assert -1.0 <= cossim(a, b) <= 1.0


class TestRelu:
    def test_basic(self):
        np.testing.assert_array_equal(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_zero_fixed_point(self):
        z = np.zeros(8)
        np.testing.assert_array_equal(relu(z), z)

    def test_mixed(self):
        np.testing.assert_array_equal(relu([0.3, -0.7]), [0.3, 0.0])


LAYOUTS = pytest.mark.parametrize(
    "layout",
    [
        # backward passes transposed views: a_in.T @ g and g @ W.T
        lambda x: np.ascontiguousarray(x.T).T,
        np.asfortranarray,
        lambda x: np.repeat(x, 2, axis=1)[:, ::2],
        lambda x: np.vstack([x, x, x])[len(x) : 2 * len(x)],
    ],
    ids=["transposed-view", "fortran", "strided", "row-slice"],
)


ZERO_CASES = [
    "pos-zero-cols", "neg-zero-cols", "mixed-sign-zero-cols", "all-zero", "nan-in-a", "inf-in-b",
    "nan-in-b",
]


def _zero_column_case(case, m, k, n, rng):
    """(a, b) whose all-zero columns of a the rank-1 loop may skip."""
    a = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
    b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
    cols = [0, k // 2, k - 1]
    if case == "pos-zero-cols":
        a[:, cols] = 0.0
    elif case == "neg-zero-cols":
        a[:, cols] = -0.0
    elif case == "mixed-sign-zero-cols":
        a[:, cols] = np.where(np.arange(m) % 2, -0.0, 0.0)[:, None]
    elif case == "all-zero":
        a[:] = np.where(rng.random((m, k)) < 0.5, -0.0, 0.0)
    elif case == "nan-in-a":
        a[:, cols] = 0.0
        a[m // 2, k // 2] = np.nan
    elif case in ("inf-in-b", "nan-in-b"):
        a[:, cols] = -0.0 if case == "inf-in-b" else 0.0
        bad = [np.inf, -np.inf] if case == "inf-in-b" else [np.nan]
        b[k // 2, ::2] = bad[0]
        b[k // 2, 1::2] = bad[-1]
    return a, b



# every (m, k, n) the benchmark workloads multiply, on seeds 7 and 2024: the
# desk network (256-96-48-32, 10-class head) and wide_memory's (64-384-256,
# 60-class head), through pretraining, metalearning, learn_class and queries
WORKLOAD_SHAPES = {
    "forward": [
        (1, 256, 96), (1, 96, 48), (1, 48, 32), (1, 64, 384), (1, 384, 256),
        (5, 256, 96), (5, 96, 48), (5, 48, 32), (5, 64, 384), (5, 384, 256),
        (12, 64, 384), (12, 384, 256), (12, 256, 60),
        (20, 256, 96), (20, 96, 48), (20, 48, 32), (20, 32, 10),
        (32, 256, 96), (32, 96, 48), (32, 48, 32), (32, 32, 10),
        (32, 64, 384), (32, 384, 256), (32, 256, 60),
        (50, 256, 96), (50, 96, 48), (50, 48, 32),
        (60, 64, 384), (60, 384, 256),
        (64, 256, 96), (64, 96, 48), (64, 48, 32),
        (200, 64, 384), (200, 384, 256), (240, 64, 384), (240, 384, 256),
        (360, 256, 96), (360, 96, 48), (360, 48, 32),
    ],
    "weight-gradient": [
        (256, 20, 96), (256, 32, 96), (256, 64, 96), (96, 20, 48), (96, 32, 48),
        (96, 64, 48), (48, 20, 32), (48, 32, 32), (48, 64, 32), (32, 20, 10),
        (32, 32, 10), (64, 12, 384), (64, 32, 384), (64, 60, 384), (384, 12, 256),
        (384, 32, 256), (384, 60, 256), (256, 12, 60), (256, 32, 60),
    ],
    "input-gradient": [
        (20, 10, 32), (20, 32, 48), (20, 48, 96), (32, 10, 32), (32, 32, 48),
        (32, 48, 96), (64, 32, 48), (64, 48, 96), (12, 60, 256), (12, 256, 384),
        (32, 60, 256), (32, 256, 384), (60, 256, 384),
    ],
    "ortho-loss": [
        (20, 32, 20), (20, 20, 32), (32, 32, 32), (12, 256, 12), (12, 12, 256),
        (32, 256, 32), (32, 32, 256),
    ],
}


def _path_edge_shapes():
    """n == 1, and 2 * m * n just below, at and just above _ROW_CHUNK, where
    a one-tile block would hold fewer than two live columns."""
    half = numerics._ROW_CHUNK // 2
    return [
        (2, 300, 1), (5, 256, 1), (64, 48, 1), (360, 96, 1),
        (2, 40, half // 2 - 1), (2, 40, half // 2), (2, 40, half // 2 + 1),
        (127, 40, 256), (128, 40, half // 128), (129, 40, 256),
    ]


def _tile_shapes():
    """Products split into row tiles: tiles of h = _ROW_CHUNK // (_KC * n)
    rows and ragged ones beside them, 2 * m * n above _ROW_CHUNK, n == 1,
    outputs too wide for a tile of h >= 2 rows, and a block of one column."""
    h = numerics._ROW_CHUNK // (numerics._KC * 256)
    tall = numerics._ROW_CHUNK // numerics._KC + 1
    wide = numerics._ROW_CHUNK // 2 + 1
    return [
        (h, 40, 256), (h + 1, 40, 256), (2 * h + 1, 40, 256), (2 * h + 2, 40, 256),
        (300, 30, 300), (3, 50, 1), (tall, 6, 1), (2 * tall + 1, 6, 1),
        (3, 6, 3000), (5, 6, 3000), (2, 5, wide), (5, 4, wide),
    ]


class _ReduceSpy:
    """np.add as `numerics` sees it, recording the shape and C-contiguity of
    each stack that np.add.reduce sums."""

    def __init__(self):
        self.stacks = []

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def reduce(self, stack, *args, **kwargs):
        self.stacks.append((stack.shape, stack.flags.c_contiguous))
        return np.add.reduce(stack, *args, **kwargs)


class _NumpySpy:
    """numpy as `numerics` sees it, counting the rank-1 loop's products and
    keeping the two factors of each."""

    def __init__(self):
        self.add, self.multiplies, self.factors = _ReduceSpy(), 0, []

    def multiply(self, *args, **kwargs):
        self.multiplies += 1
        self.factors.append(args[:2])
        return np.multiply(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def numpy_spy(monkeypatch):
    spy = _NumpySpy()
    monkeypatch.setattr(numerics, "np", spy)
    return spy


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), m), m)

    def test_row_times_column(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out, [[11.0]])

    def test_matches_triple_loop_bitwise(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(matmul(a, b), naive_matmul(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31))
    def test_triple_loop_equality_all_shapes(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)) * 10
        b = rng.standard_normal((k, n)) * 10
        np.testing.assert_array_equal(matmul(a, b), naive_matmul(a, b))

    @LAYOUTS
    # m * n = 1 is one long dot product: a kernel that reduces a stack of
    # rank-1 products over its first axis would sum it as one contiguous
    # vector, in numpy's pairwise blocks of 8, instead of left to right
    @pytest.mark.parametrize(
        "m,k,n",
        [
            (1, 7, 1), (5, 9, 3), (16, 12, 8), (1, 8, 1), (1, 9, 1), (1, 1000, 1),
            # one-row products stay on the rank-1 loop; m >= 2 takes the
            # stacked reduce, with n in {1, 2} and m on either side of k
            (1, 9, 2), (2, 9, 1), (2, 9, 2), (8, 9, 2), (9, 9, 2), (10, 9, 2),
        ],
    )
    def test_triple_loop_equality_any_layout(self, layout, m, k, n):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
        b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
        want = naive_matmul(a, b)
        la, lb = layout(a), layout(b)
        np.testing.assert_array_equal(la, a)
        np.testing.assert_array_equal(lb, b)
        np.testing.assert_array_equal(matmul(la, lb), want)
        np.testing.assert_array_equal(matmul(la, b), want)
        np.testing.assert_array_equal(matmul(a, lb), want)

    @LAYOUTS
    @pytest.mark.parametrize("case", ZERO_CASES)
    # k = 12 leaves 9 live columns (10 with a NaN in a or a non-finite row
    # of b), so m = 8..11 has fewer, as many and more rows than live columns
    @pytest.mark.parametrize(
        "m,k,n",
        [
            (1, 7, 1), (5, 9, 3), (16, 12, 8), (1, 1000, 1),
            (1, 12, 2), (2, 12, 1), (2, 12, 2), (8, 12, 2), (9, 12, 2), (10, 12, 2), (11, 12, 2),
        ],
    )
    def test_zero_columns_keep_triple_loop_bits(self, layout, case, m, k, n):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a, b = _zero_column_case(case, m, k, n, rng)
        with np.errstate(invalid="ignore"):  # 0 * inf
            want = naive_matmul(a, b)
        if case in ("inf-in-b", "nan-in-b"):
            assert np.isnan(want).any()  # 0 * inf and 0 * NaN reach the sum
        elif case != "nan-in-a":
            assert not np.isnan(want).any()
        la, lb = layout(a), layout(b)
        assert_same_bits(la, a)
        assert_same_bits(lb, b)
        with np.errstate(invalid="ignore"):
            assert_same_bits(matmul(la, lb), want)
            assert_same_bits(matmul(la, b), want)
            assert_same_bits(matmul(a, lb), want)

    @pytest.mark.parametrize("per_block", [2, 7, 64])
    @pytest.mark.parametrize("case", ["dense", "pos-zero-cols", "inf-in-b", "nan-in-b"])
    @pytest.mark.parametrize("m,k,n", [(2, 100, 2), (3, 100, 5), (4, 70, 3)])
    def test_row_reduce_blocks_keep_triple_loop_bits(self, monkeypatch, per_block, case, m, k, n):
        # a small block size makes every product span many blocks of
        # `per_block` columns, each starting from the running sum of the
        # ones before it; 2 is the fewest the stacked reduce takes
        monkeypatch.setattr(numerics, "_ROW_CHUNK", per_block * m * n)
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        if case == "dense":
            a = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
            b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
        else:
            a, b = _zero_column_case(case, m, k, n, rng)
        with np.errstate(invalid="ignore"):
            assert_same_bits(matmul(a, b), naive_matmul(a, b))
            assert_same_bits(matmul(np.asfortranarray(a), np.asfortranarray(b)), naive_matmul(a, b))

    def test_many_default_blocks_keep_triple_loop_bits(self):
        # a 2 x 2 output makes blocks of _ROW_CHUNK // 4 = 2**14 rows of b:
        # 45,000 columns with every fifth zero (one of them live through an
        # inf in b) leave 36,001 live ones, three blocks
        k = 45_000
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, k)) * 10.0 ** rng.uniform(-3, 3, (2, k))
        b = rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(-3, 3, (k, 2))
        a[:, ::5] = 0.0
        b[5, 0] = np.inf
        live = np.count_nonzero(a.any(axis=0)) + 1
        assert live > 2 * (numerics._ROW_CHUNK // (2 * 2))
        with np.errstate(invalid="ignore"):
            assert_same_bits(matmul(a, b), naive_matmul(a, b))

    @pytest.mark.parametrize(
        "m,k,n,blocks,zero_every_third",
        [
            # a 2 MiB right operand: the kernel may hold the output and about
            # two blocks of 2**16 elements (1.05 MB in all), never a copy of
            # an operand; a _ROW_CHUNK of 2**17 fails here
            (8, 4096, 64, 2, False), (8, 4096, 64, 2, True),
            # a 786 kB output: one block, with the tile's running sum and the
            # live rows it gathers beside it (under a quarter block); the
            # rank-1 loop's (m, n) product and an untiled stack fail here
            (384, 32, 256, 1.25, False), (384, 32, 256, 1.25, True),
        ],
        ids=["False", "True", "wide-output-False", "wide-output-True"],
    )
    def test_scratch_stays_bounded(self, m, k, n, blocks, zero_every_third):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        if zero_every_third:
            a[:, ::3] = 0.0
        tracemalloc.start()
        try:
            matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (m * n + blocks * 2**16)

    @pytest.mark.parametrize(
        "layout", [np.ascontiguousarray, lambda x: np.ascontiguousarray(x.T).T],
        ids=["c-order", "transposed-view"],
    )
    @pytest.mark.parametrize("case", ["dense", *ZERO_CASES])
    @pytest.mark.parametrize("m,k,n", _tile_shapes())
    def test_row_tiles_keep_rank1_bits(self, layout, case, m, k, n):
        # dead columns are found over the whole product, so a column live in
        # one tile (a NaN in row m // 2) or through a non-finite row of b is
        # live in every tile
        rng = np.random.default_rng(m * 1_000_000 + k * 1000 + n)
        if case == "dense":
            a = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
            b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
        else:
            a, b = _zero_column_case(case, m, k, n, rng)
        with np.errstate(invalid="ignore"):
            want = rank1_matmul(a, b)
            assert_same_bits(matmul(layout(a), layout(b)), want)

    @pytest.mark.parametrize(
        "m,k,n", _tile_shapes() + [(2, 9, 1), (5, 256, 96), (240, 384, 256), (384, 32, 256)]
    )
    def test_every_product_of_two_rows_or_more_is_stacked(self, numpy_spy, m, k, n):
        rng = np.random.default_rng(m + k + n)
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        assert_same_bits(matmul(a, b), rank1_matmul(a, b))
        assert numpy_spy.multiplies == 0  # the rank-1 loop never ran
        shapes = [shape for shape, _ in numpy_spy.add.stacks]
        assert shapes and all(contiguous for _, contiguous in numpy_spy.add.stacks)
        assert min(rows for _, rows, _ in shapes) >= 2
        if 2 * numerics._KC * n <= numerics._ROW_CHUNK:
            assert max(depth for depth, _, _ in shapes) - 1 >= min(numerics._KC, k)

    def test_one_row_products_run_the_rank1_loop(self, numpy_spy):
        a, b = np.array([[1.0, 0.0, 3.0]]), np.arange(6.0).reshape(3, 2)
        assert_same_bits(matmul(a, b), naive_matmul(a, b))
        assert numpy_spy.multiplies == 2 and numpy_spy.add.stacks == []

    @pytest.mark.parametrize("case", ["relu", "nan-in-a", "inf-in-dead-row"])
    @pytest.mark.parametrize("m,k,n", WORKLOAD_SHAPES["forward"][:5])
    def test_one_row_workload_shapes_keep_triple_loop_bits(self, case, m, k, n):
        # a query's forward: about half the entries +0.0, a few -0.0, read as
        # a strided row (x[None, ::2]) against a C-order and a transposed b
        rng = np.random.default_rng(k * 1000 + n)
        x = rng.standard_normal(2 * k) * 10.0 ** rng.uniform(-3, 3, 2 * k)
        x[::2] = relu(x[::2])
        zeros = np.flatnonzero(x[::2] == 0.0)
        x[2 * zeros[:3]] = -0.0
        b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
        if case == "nan-in-a":
            x[2 * zeros[-1]] = np.nan
        elif case == "inf-in-dead-row":
            b[zeros[-1], n // 2] = np.inf
        a = x[None, ::2]
        assert len(zeros) > k // 3
        nan_cols = {"relu": [], "nan-in-a": range(n), "inf-in-dead-row": [n // 2]}[case]
        with np.errstate(invalid="ignore"):  # 0 * inf
            want = naive_matmul(a, b)
            np.testing.assert_array_equal(np.flatnonzero(np.isnan(want[0])), list(nan_cols))
            assert_same_bits(matmul(a, b), want)
            assert_same_bits(matmul(a, np.ascontiguousarray(b.T).T), want)

    def test_one_row_loop_visits_live_rows_in_order(self, numpy_spy):
        # live: nonzero columns 1, 4 and 6, the NaN in column 5, and column 3
        # only through the inf in its row of b
        a = np.array([[0.0, 2.0, -0.0, 0.0, -5.0, np.nan, 0.5, 0.0]])
        b = np.arange(24.0).reshape(8, 3)
        b[3, 1] = np.inf
        with np.errstate(invalid="ignore"):
            assert_same_bits(matmul(a, b), naive_matmul(a, b))
        rows = [(row.ctypes.data - b.ctypes.data) // b.strides[0] for _, row in numpy_spy.factors]
        assert rows == [1, 3, 4, 5, 6]
        for (s, row), i in zip(numpy_spy.factors, rows):
            assert_same_bits(s, a[0, i])  # a's value is the first factor
            assert row.shape == (3,) and np.shares_memory(row, b)
            assert_same_bits(row, b[i])

    def test_a_one_row_tile_would_sum_pairwise(self):
        # why every tile holds two rows or more: numpy sums a C-contiguous
        # (c + 1, 1, 1) stack as one vector, in pairwise blocks, while it
        # adds the slices of a (c + 1, 2, 1) stack in index order
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64) * 10.0 ** rng.uniform(-3, 3, 64)
        acc = 0.0
        for x in v.tolist():
            acc += x
        assert np.add.reduce(v.reshape(-1, 1, 1), axis=0)[0, 0] != acc
        assert_same_bits(np.add.reduce(np.repeat(v, 2).reshape(-1, 2, 1), axis=0), [[acc], [acc]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 24), st.integers(1, 6), st.integers(0, 2**31))
    def test_relu_inputs_match_triple_loop_bits(self, m, k, n, seed):
        # relu zeroes about half the entries, so m <= 4 leaves zero columns
        rng = np.random.default_rng(seed)
        a = relu(rng.standard_normal((m, k)))
        b = rng.standard_normal((k, n)) * 10
        assert_same_bits(matmul(a, b), naive_matmul(a, b))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 12), st.integers(1, 6),
        st.sampled_from(["dense", *ZERO_CASES]), st.integers(0, 2**31),
    )
    def test_rank1_oracle_is_the_triple_loop(self, m, k, n, case, seed):
        a, b = _zero_column_case(case, m, k, n, np.random.default_rng(seed))
        with np.errstate(invalid="ignore"):
            assert_same_bits(rank1_matmul(a, b), naive_matmul(a, b))

    @pytest.mark.parametrize("zeros", ["dense", "relu"])
    @pytest.mark.parametrize(
        "m,k,n", sorted(set(sum(WORKLOAD_SHAPES.values(), []))) + _path_edge_shapes()
    )
    def test_workload_shapes_keep_rank1_bits(self, m, k, n, zeros):
        rng = np.random.default_rng(m * 1_000_000 + k * 1000 + n)
        a = rng.standard_normal((m, k)) * 10.0 ** rng.uniform(-3, 3, (m, k))
        b = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n))
        if zeros == "relu":
            # about half the entries exact zeros, and every seventh unit dead
            a = relu(a)
            a[:, ::7] = 0.0
        want = rank1_matmul(a, b)
        assert_same_bits(matmul(a, b), want)
        # the backward passes hand in transposed views
        transposed = lambda x: np.ascontiguousarray(x.T).T  # noqa: E731
        assert_same_bits(matmul(transposed(a), transposed(b)), want)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.ones((0, 3)), np.ones((3, 2)))


def _layout_case(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


class TestRowdotMatvecs:
    """The two BLAS calls of the package, bitwise those of one pair at a time."""

    @LAYOUTS
    @pytest.mark.parametrize("n,d", [(1, 1), (6, 1), (1, 9), (5, 7), (3, 96), (4, 257)])
    def test_rowdot_is_np_dot_of_each_pair(self, layout, n, d):
        x, y = _layout_case((n, d), n * 1000 + d), _layout_case((n, d), n * 1000 + d + 1)
        for lx, ly in [(layout(x), layout(y)), (layout(x), y), (x, layout(y))]:
            assert_same_bits(lx, x)
            assert_same_bits(ly, y)
            got = rowdot(lx, ly)
            assert got.shape == (n,)
            assert_same_bits(got, np.array([np.dot(a, b) for a, b in zip(lx, ly)]))

    @LAYOUTS
    @pytest.mark.parametrize("n,c,d", [(1, 1, 1), (3, 4, 1), (2, 5, 96), (7, 3, 257)])
    def test_rowdot_broadcasts_leading_axes(self, layout, n, c, d):
        # queries against prototypes: every query row meets every prototype row
        q, p = layout(_layout_case((n, d), c * d)), layout(_layout_case((c, d), n * d))
        got = rowdot(q[:, None, :], p)
        assert got.shape == (n, c)
        assert_same_bits(got, np.array([[np.dot(a, b) for b in p] for a in q]))
        assert_same_bits(rowdot(q[0], p[0]), np.dot(q[0], p[0]))

    @LAYOUTS
    @pytest.mark.parametrize("n,r,d", [(1, 1, 1), (4, 3, 1), (3, 1, 8), (2, 5, 96), (5, 7, 257)])
    def test_matvecs_is_np_matmul_of_each_vector(self, layout, n, r, d):
        m, v = layout(_layout_case((r, d), n + r + d)), layout(_layout_case((n, d), n * r * d))
        got = matvecs(m, v)
        assert got.shape == (n, r)
        assert_same_bits(got, np.array([np.matmul(m, b) for b in v]))
        # one matrix per vector, C-ordered or transposed views of a stack
        stack = _layout_case((n, d, r), r * d)
        for mats in (np.ascontiguousarray(stack.swapaxes(-1, -2)), stack.swapaxes(-1, -2)):
            got = matvecs(mats, v)
            assert got.shape == (n, r)
            assert_same_bits(got, np.array([np.matmul(a, b) for a, b in zip(mats, v)]))


SRC = Path(numerics.__file__).parent
# numpy functions that hand float products to BLAS, or may on some version
_BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "vecdot", "matvec"}


def _dotted(node):
    """'np.linalg.norm' for that attribute chain, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = "np" if node.id == "numpy" else node.id
    return ".".join([root, *reversed(parts)])


def _products_only(call) -> bool:
    """An np.einsum whose literal subscripts sum over no index and that
    passes no `optimize`: it multiplies elementwise and hands no reduction
    to BLAS or to anything else."""
    if not call.args or any(k.arg in ("optimize", None) for k in call.keywords):
        return False
    spec = call.args[0]
    if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
        return False
    inputs, arrow, output = spec.value.replace(" ", "").partition("->")
    return bool(arrow) and "." not in spec.value and set(inputs) - {","} <= set(output)


def blas_uses(source: str, allowed=()):
    """(line, what) of each float product a module hands to BLAS, outside
    its top-level functions named in `allowed`."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in allowed:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = _dotted(node.func) or f"(...).{node.func.attr}"
                np_call = name.startswith("np.") and name[3:] in _BLAS_CALLS
                np_call = np_call and not (name == "np.einsum" and _products_only(node))
                whole_norm = name == "np.linalg.norm" and len(node.args) < 3 and not any(
                    k.arg == "axis" for k in node.keywords
                )
                if np_call or whole_norm or node.func.attr == "dot":
                    found.append((node.lineno, name))
    return found


class TestBlasBoundary:
    """numerics.rowdot and numerics.matvecs are the one place that hands
    floats to BLAS, so a kernel swap there reaches every caller."""

    def test_guard_sees_every_form(self):
        source = "\n".join([
            "import numpy as np",
            "np.dot(a, b)",
            "a @ b",
            "a @= b",
            "np.linalg.norm(a)",
            "np.linalg.norm(a, axis=1)",
            "x.dot(y)",
            "numpy.einsum('i,i', a, b)",
            "np.einsum('ir,ij->rj', a, b)",
            "np.einsum('ir,ij->irj', a, b, optimize=True)",
            "np.einsum('ir,ij->irj', a, b, **kw)",
            "np.einsum(spec, a, b)",
            "np.einsum('ir,ij->irj', a, b, out=c)",
            "np.linalg.norm(a, 2, 1)",
            "np.matvec(m, v)",
            "a[0].dot(b)",
            "def rowdot(x, y):",
            "    return np.matmul(x, y)",
        ])
        flagged = [2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 15, 16, 18]
        assert [line for line, _ in blas_uses(source)] == flagged
        assert [line for line, _ in blas_uses(source, allowed={"rowdot"})][-1] == 16

    @pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
    def test_only_the_numerics_primitives_reach_blas(self, module):
        allowed = {"rowdot", "matvecs"} if module == "numerics.py" else ()
        uses = blas_uses((SRC / module).read_text(encoding="utf-8"), allowed)
        assert [f"{module}:{line}: {what}" for line, what in uses] == []


class TestSoftmaxCE:
    def test_uniform_two_class(self):
        loss, _ = softmax_ce_batch([0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        # closed form: log(1 + exp(-20))
        loss, _ = softmax_ce_batch([10.0, -10.0], 0)
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-9)
        assert loss == pytest.approx(2.06e-9, rel=0.01)

    def test_extreme_logits_stable(self):
        loss, grad = softmax_ce_batch([1000.0, -1000.0], 1)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))

    def test_soft_target(self):
        t = np.array([0.25, 0.75])
        loss, grad = softmax_ce_batch([0.3, -0.2], t)
        z = np.array([0.3, -0.2])
        p = np.exp(z) / np.exp(z).sum()
        assert loss == pytest.approx(float(-(t * np.log(p)).sum()), abs=1e-12)
        np.testing.assert_allclose(grad, p - t, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 10))
            z = rng.standard_normal(dim) * 3
            target = int(rng.integers(0, dim))
            _, grad = softmax_ce_batch(z, target)
            num = central_diff(lambda v: softmax_ce_batch(v, target)[0], z)
            worst = max(worst, rel_err(grad, num))
        assert worst < 1e-6

    def test_bad_index(self):
        with pytest.raises(ShapeMismatchError):
            softmax_ce_batch([0.0, 0.0], 5)
