import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import central_diff, naive_matmul, rel_err
from protomem.errors import ShapeMismatchError, ZeroNormError
from protomem.losses import softmax_ce_batch
from protomem.numerics import cossim, matmul, relu

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


def assert_same_bits(got, want):
    """Equal bit patterns (so -0.0 != +0.0), NaN wherever `want` is NaN."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    got_bits = np.ascontiguousarray(got).view(np.int64)
    want_bits = np.ascontiguousarray(want).view(np.int64)
    np.testing.assert_array_equal(got_bits[~nan], want_bits[~nan])


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
        "m,k,n", [(1, 7, 1), (5, 9, 3), (16, 12, 8), (1, 8, 1), (1, 9, 1), (1, 1000, 1)]
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
    @pytest.mark.parametrize(
        "case",
        [
            "pos-zero-cols",
            "neg-zero-cols",
            "mixed-sign-zero-cols",
            "all-zero",
            "nan-in-a",
            "inf-in-b",
            "nan-in-b",
        ],
    )
    @pytest.mark.parametrize("m,k,n", [(1, 7, 1), (5, 9, 3), (16, 12, 8), (1, 1000, 1)])
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 24), st.integers(1, 6), st.integers(0, 2**31))
    def test_relu_inputs_match_triple_loop_bits(self, m, k, n, seed):
        # relu zeroes about half the entries, so m <= 4 leaves zero columns
        rng = np.random.default_rng(seed)
        a = relu(rng.standard_normal((m, k)))
        b = rng.standard_normal((k, n)) * 10
        assert_same_bits(matmul(a, b), naive_matmul(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.ones((0, 3)), np.ones((3, 2)))


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
