import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    central_diff,
    mixup_per_row,
    multi_margin_loss_row,
    rel_err,
    softmax_ce,
    softmax_ce_rows,
)
from protomem.errors import ShapeMismatchError, ZeroNormError
from protomem.losses import (
    PretrainLossConfig,
    cutmix,
    mixup,
    multi_margin_loss,
    ortho_loss,
    pretrain_loss,
    sample_augmentation,
    softmax_ce_batch,
)
from protomem.offline import MetaConfig


class TestOrthoLoss:
    def test_orthonormal_rows_zero(self):
        loss, grad = ortho_loss(np.eye(4)[:3])
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_two_identical_unit_rows(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _ = ortho_loss(rows)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10):
            b, d = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            x = rng.standard_normal((b, d)) + 0.1
            _, grad = ortho_loss(x)
            numeric = central_diff(
                lambda flat: ortho_loss(flat.reshape(b, d))[0], x.ravel()
            ).reshape(b, d)
            worst = max(worst, rel_err(grad, numeric))
        assert worst < 1e-5

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        base, _ = ortho_loss(x)
        y = x.copy()
        y[2] *= 37.5
        scaled, _ = ortho_loss(y)
        assert abs(scaled - base) / base < 1e-10

    def test_zero_iff_pairwise_orthogonal(self):
        # orthogonal but not unit norm: loss still 0 after normalization
        rows = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, 0.5]])
        loss, _ = ortho_loss(rows)
        assert loss <= 1e-10
        # non-orthogonal pair: strictly positive
        rows[1, 0] = 1.0
        loss2, _ = ortho_loss(rows)
        assert loss2 > 1e-10

    def test_zero_norm_row(self):
        with pytest.raises(ZeroNormError):
            ortho_loss(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_single_row_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ortho_loss(np.array([[1.0, 0.0]]))


class TestPretrainLoss:
    def test_lambda_zero_equals_ce(self):
        cfg = PretrainLossConfig(lambda_ortho=0.0)
        logits = np.array([0.2, -0.4, 1.0])
        theta = np.array([[1.0, 2.0]])
        loss, grad_logits, grad_theta, _ = pretrain_loss(logits, 2, theta, cfg)
        ce, ce_grad = softmax_ce(logits, 2)
        assert loss == ce
        np.testing.assert_array_equal(grad_logits, ce_grad)
        assert not grad_theta.any()

    def test_orthonormal_batch_equals_ce(self):
        cfg = PretrainLossConfig(lambda_ortho=0.5)
        logits = np.array([[0.2, -0.4], [0.1, 0.9]])
        theta = np.eye(3)[:2]
        loss, _, _, _ = pretrain_loss(logits, np.array([0, 1]), theta, cfg)
        ce, _ = softmax_ce_batch(logits, np.array([0, 1]))
        assert loss == pytest.approx(ce, abs=1e-15)

    def test_lambda_linearity(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((3, 4))
        theta = rng.standard_normal((3, 5))
        targets = np.array([0, 1, 3])
        l1, _, _, _ = pretrain_loss(logits, targets, theta, PretrainLossConfig(lambda_ortho=1.0))
        l2, _, _, _ = pretrain_loss(logits, targets, theta, PretrainLossConfig(lambda_ortho=2.0))
        ol, _ = ortho_loss(theta)
        assert abs((l2 - l1) - ol) < 1e-12


    def test_terms_compose_the_loss(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4))
        theta = rng.standard_normal((3, 5))
        targets = np.array([2, 0, 3])
        cfg = PretrainLossConfig(lambda_ortho=0.3)
        loss, grad_logits, grad_theta, (ce, ortho) = pretrain_loss(logits, targets, theta, cfg)
        want_ce, want_grad = softmax_ce_batch(logits, targets)
        want_ortho, want_ortho_grad = ortho_loss(theta)
        assert (ce, ortho, loss) == (want_ce, want_ortho, want_ce + 0.3 * want_ortho)
        np.testing.assert_array_equal(grad_logits, want_grad)
        np.testing.assert_array_equal(grad_theta, 0.3 * want_ortho_grad)

    def test_one_row_batch_skips_the_penalty(self):
        # one unit row has Gram matrix [1]: nothing to penalize
        cfg = PretrainLossConfig(lambda_ortho=0.5)
        logits = np.array([[0.2, -0.4, 1.0]])
        loss, _, grad_theta, (ce, ortho) = pretrain_loss(logits, [2], np.array([[1.0, 2.0]]), cfg)
        assert loss == ce == softmax_ce(logits[0], 2)[0]
        assert ortho == 0.0 and not grad_theta.any()

    def test_penalty_rejects_vector_theta(self):
        cfg = PretrainLossConfig(lambda_ortho=0.5)
        with pytest.raises(ShapeMismatchError):
            pretrain_loss(np.array([[0.2, -0.4, 1.0]]), [2], np.array([1.0, 2.0]), cfg)


class TestMultiMargin:
    def test_all_margins_satisfied(self):
        loss, grad = multi_margin_loss([1.0, 0.0, 0.0], 0, 0.1)
        assert loss == 0.0
        assert not grad.any()

    def test_reference_value(self):
        loss, _ = multi_margin_loss([0.5, 0.5], 0, 0.1)
        assert loss == pytest.approx(0.005, abs=1e-15)

    def test_gradient_away_from_kinks(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        checked = 0
        while checked < 20:
            dim = int(rng.integers(2, 8))
            l = rng.uniform(0, 1, dim)
            gt = int(rng.integers(0, dim))
            margins = 0.1 - l[gt] + np.delete(l, gt)
            if np.any(np.abs(margins) < 1e-3):
                continue
            checked += 1
            _, grad = multi_margin_loss(l, gt, 0.1)
            numeric = central_diff(lambda v: multi_margin_loss(v, gt, 0.1)[0], l)
            worst = max(worst, rel_err(grad, numeric))
        assert worst < 1e-5

    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=8),
        st.floats(-5, 5),
        st.integers(0, 7),
    )
    def test_constant_shift_invariance(self, scores, shift, gt):
        gt = gt % len(scores)
        l = np.array(scores)
        a, _ = multi_margin_loss(l, gt, 0.1)
        b, _ = multi_margin_loss(l + shift, gt, 0.1)
        assert abs(a - b) < 1e-12

    def test_subgradient_zero_at_kink(self):
        # l_i exactly at the margin boundary contributes nothing
        loss, grad = multi_margin_loss([0.5, 0.4], 0, 0.1)
        assert loss == 0.0
        assert not grad.any()


class TestMixup:
    def test_forced_lambda_one(self):
        rng = np.random.default_rng(0)
        x, y = mixup([0.0, 2.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0], 1.0, rng, lam=1.0)
        np.testing.assert_array_equal(x, [0.0, 2.0])
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_midpoint(self):
        rng = np.random.default_rng(0)
        x, _ = mixup([0.0, 2.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0], 1.0, rng, lam=0.5)
        np.testing.assert_array_equal(x, [1.0, 1.0])

    def test_one_hot_labels_stay_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            _, y = mixup([1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.7, rng)
            assert y.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(y >= 0)


class TestCutmix:
    def test_empty_patch(self):
        rng = np.random.default_rng(0)
        x1 = np.arange(16.0)
        x2 = -np.arange(16.0)
        x, y = cutmix(x1, x2, [1.0, 0.0], [0.0, 1.0], 1.0, rng, (4, 4), patch=(0, 0, 0, 0))
        np.testing.assert_array_equal(x, x1)
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_full_patch(self):
        rng = np.random.default_rng(0)
        x1 = np.arange(16.0)
        x2 = -np.arange(16.0)
        x, y = cutmix(x1, x2, [1.0, 0.0], [0.0, 1.0], 1.0, rng, (4, 4), patch=(0, 4, 0, 4))
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, [0.0, 1.0])

    def test_label_weight_equals_area_fraction(self):
        rng = np.random.default_rng(0)
        x1 = np.zeros(16)
        x2 = np.ones(16)
        x, y = cutmix(x1, x2, [1.0, 0.0], [0.0, 1.0], 1.0, rng, (4, 4), patch=(1, 3, 0, 3))
        frac = (3 - 1) * (3 - 0) / 16
        assert y[1] == frac
        assert x.sum() == (3 - 1) * (3 - 0)

    def test_multichannel_patch(self):
        rng = np.random.default_rng(0)
        x1 = np.zeros(2 * 4)  # 2 channels of 2x2
        x2 = np.ones(2 * 4)
        x, _ = cutmix(x1, x2, [1.0, 0.0], [0.0, 1.0], 1.0, rng, (2, 2), patch=(0, 1, 0, 1))
        assert x.reshape(2, 2, 2)[:, 0, 0].tolist() == [1.0, 1.0]

    def test_bad_grid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatchError):
            cutmix(np.zeros(10), np.ones(10), [1.0], [0.0], 1.0, rng, (3, 3))

    def test_random_patch_seeded(self):
        a = cutmix(np.zeros(16), np.ones(16), [1.0, 0.0], [0.0, 1.0], 1.0,
                   np.random.default_rng(5), (4, 4))
        b = cutmix(np.zeros(16), np.ones(16), [1.0, 0.0], [0.0, 1.0], 1.0,
                   np.random.default_rng(5), (4, 4))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestSampleAugmentation:
    def test_probability_zero(self):
        rng = np.random.default_rng(0)
        cfg = PretrainLossConfig(mix_probability=0.0)
        assert all(sample_augmentation(cfg, rng) == "none" for _ in range(200))

    def test_probability_one(self):
        rng = np.random.default_rng(0)
        cfg = PretrainLossConfig(mix_probability=1.0)
        assert all(sample_augmentation(cfg, rng) != "none" for _ in range(200))

    def test_default_frequency(self):
        rng = np.random.default_rng(123)
        cfg = PretrainLossConfig()
        n = 100_000
        draws = [sample_augmentation(cfg, rng) for _ in range(n)]
        aug = sum(1 for d in draws if d != "none")
        assert abs(aug / n - 0.4) < 0.01
        # within the augmented mass, mixup and cutmix split evenly
        mix = sum(1 for d in draws if d == "mixup")
        assert abs(mix / aug - 0.5) < 0.02

    def test_never_both(self):
        rng = np.random.default_rng(1)
        cfg = PretrainLossConfig(mix_probability=0.7)
        assert set(sample_augmentation(cfg, rng) for _ in range(500)) <= {
            "none",
            "mixup",
            "cutmix",
        }


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            PretrainLossConfig(mix_probability=1.5)

    def test_bad_margin(self):
        # the margin setting belongs to metalearning; pretraining has none
        with pytest.raises(ValueError):
            MetaConfig(margin=0.0)

    @settings(max_examples=20)
    @given(st.floats(0, 1), st.floats(0.001, 10))
    def test_valid_ranges_accepted(self, p, alpha):
        cfg = PretrainLossConfig(mix_probability=p, mix_alpha=alpha)
        assert 0 <= cfg.mix_probability <= 1


class TestBatchedEqualsPerRow:
    """The batched losses and mixup give the bits of one call per row."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.booleans(), st.integers(0, 2**31))
    def test_softmax_ce_batch(self, b, c, soft, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((b, c)) * 10.0 ** rng.uniform(-3, 3, (b, c))
        targets = rng.dirichlet(np.ones(c), size=b) if soft else rng.integers(0, c, b)
        loss, grad = softmax_ce_batch(logits, targets)
        want_loss, want_grad = softmax_ce_rows(logits, targets)
        np.testing.assert_array_equal(loss, want_loss)
        np.testing.assert_array_equal(grad, want_grad)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.booleans(), st.integers(0, 2**31))
    def test_softmax_ce_batch_one_row(self, c, soft, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(c) * 10.0 ** rng.uniform(-3, 3, c)
        target = rng.dirichlet(np.ones(c)) if soft else int(rng.integers(0, c))
        loss, grad = softmax_ce_batch(logits, target)
        want_loss, want_grad = softmax_ce(logits, target)
        # a width-1 row scores -0.0 alone and 0.0 as a sum: == holds, bits differ
        assert loss == want_loss
        assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()

    def test_softmax_ce_batch_one_index_for_every_row(self):
        logits = np.random.default_rng(2).standard_normal((5, 9))
        loss, grad = softmax_ce_batch(logits, 4)
        want_loss, want_grad = softmax_ce_rows(logits, 4)
        np.testing.assert_array_equal(loss, want_loss)
        np.testing.assert_array_equal(grad, want_grad)

    def test_softmax_ce_batch_rejects_bad_targets(self):
        logits = np.zeros((3, 4))
        for bad in (4, [0, 1], [0, 1, -1], np.zeros((3, 5))):
            with pytest.raises(ShapeMismatchError):
                softmax_ce_batch(logits, bad)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(2, 16), st.integers(0, 2**31))
    def test_multi_margin_loss(self, b, c, seed):
        rng = np.random.default_rng(seed)
        # a few repeated values make tied scores and hinges exactly at the kink
        scores = np.where(
            rng.random((b, c)) < 0.3, rng.choice([0.0, 0.2, 0.5], (b, c)), rng.random((b, c))
        )
        gts = rng.integers(0, c, b)
        margin = float(rng.choice([0.1, 0.3, 1.5]))
        loss, grad = multi_margin_loss(scores, gts, margin)
        want_loss = 0.0
        for i in range(b):
            row_loss, row_grad = multi_margin_loss_row(scores[i], int(gts[i]), margin)
            want_loss += row_loss
            np.testing.assert_array_equal(grad[i], row_grad)
        np.testing.assert_array_equal(loss, want_loss)

    def test_multi_margin_loss_rejects_misaligned_indices(self):
        with pytest.raises(ShapeMismatchError):
            multi_margin_loss(np.zeros((3, 4)), [0, 1], 0.1)
        with pytest.raises(ShapeMismatchError):
            multi_margin_loss(np.zeros((2, 4)), [0, 4], 0.1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**31))
    def test_mixup(self, b, d, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, d)) * 10.0 ** rng.uniform(-3, 3, (b, d))
        targets = rng.dirichlet(np.ones(k), size=b)
        partner = rng.permutation(b)
        alpha = float(rng.uniform(0.2, 2.0))
        batched, per_row = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got_x, got_t = mixup(x, x[partner], targets, targets[partner], alpha, batched)
        want_x, want_t = mixup_per_row(x, targets, partner, alpha, per_row)
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_t, want_t)
        # both consumed the same stretch of the stream
        np.testing.assert_array_equal(batched.random(4), per_row.random(4))

    def test_mixup_rejects_misaligned_labels(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatchError):
            mixup(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((2, 4)), np.zeros((2, 4)), 1.0, rng)
