import copy

import numpy as np
import pytest

from helpers import (
    central_diff,
    flatten_params,
    make_points_dataset,
    meta_score,
    metalearn_per_query,
    param_grad_flat,
    pretrain_hand_head,
    query_step_per_row,
    rel_err,
    scores_and_grad_row,
    set_params_from_flat,
)
from protomem import offline
from protomem.backbone import (
    DenseLayer,
    GradientTape,
    ModelParams,
    backward,
    forward_backbone,
    forward_fcr,
    init_model,
    params_checksum,
)
from protomem.errors import (
    InsufficientSamplesError,
    NumericFailureError,
    SettingValueError,
    ShapeMismatchError,
)
from protomem.losses import PretrainLossConfig
from protomem.memory import ActivationMemory, QuantSpec, classify, quantize_feature
from protomem.numerics import relu
from protomem.offline import (
    MetaConfig,
    build_base_em,
    init_fcc,
    metalearn,
    pretrain,
)


def identity_net(dim):
    layers = [DenseLayer(np.eye(dim), np.zeros(dim)), DenseLayer(np.eye(dim), np.zeros(dim))]
    return ModelParams(layers)


def toy_problem(seed=0, classes=3, per_class=40):
    ds = make_points_dataset(classes, per_class, dim=2, separation=6.0, seed=seed)
    params = init_model([2, 16, 8], seed=seed)
    fcc = init_fcc(classes, 8, seed + 1)
    return ds, params, fcc


class TestFccHead:
    def test_rejects_wide_head(self):
        with pytest.raises(ShapeMismatchError):
            init_fcc(8, 8, 0)

    def test_forward_shape(self):
        fcc = init_fcc(3, 8, 0)
        out = forward_fcr(fcc, np.ones((5, 8)))
        assert out.shape == (5, 3)

    def test_one_identity_layer_over_the_transposed_glorot_draw(self):
        fcc = init_fcc(3, 8, 5)
        limit = np.sqrt(6.0 / 11)
        draw = np.random.default_rng(5).uniform(-limit, limit, size=(3, 8))
        assert len(fcc.layers) == 1 and fcc.layers[0].activation == "identity"
        assert fcc.layers[0].weight.tobytes() == draw.T.tobytes()
        assert fcc.layers[0].bias.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("mix_probability", [0.0, 1.0])
    def test_tape_head_equals_hand_written_head(self, mix_probability):
        # 33 rows in batches of 32 end in a one-row batch; with every batch
        # interpolated, seed 23 draws both mixup and cutmix
        ds = make_points_dataset(3, 11, dim=4, seed=21)
        params = init_model([4, 16, 8], seed=21)
        fcc = init_fcc(3, 8, 22)
        oracle = copy.deepcopy(params)
        weight = fcc.layers[0].weight.T.copy()
        bias = fcc.layers[0].bias.copy()
        cfg = PretrainLossConfig(lambda_ortho=0.1, mix_probability=mix_probability)
        run = dict(epochs=6, lr=0.01, seed=23, batch_size=32, grid=(2, 2))
        _, _, history = pretrain(params, fcc, ds, cfg, **run)
        want = pretrain_hand_head(oracle, weight, bias, ds, cfg, **run)
        np.testing.assert_array_equal(history, want)
        np.testing.assert_array_equal(flatten_params(params), flatten_params(oracle))
        np.testing.assert_array_equal(fcc.layers[0].weight, weight.T)
        np.testing.assert_array_equal(fcc.layers[0].bias, bias)
        assert params_checksum(params) == params_checksum(oracle)


class TestPretrain:
    def test_separable_toy_reaches_full_accuracy(self):
        ds, params, fcc = toy_problem(1)
        cfg = PretrainLossConfig(lambda_ortho=0.0, mix_probability=0.0)
        _, _, history = pretrain(params, fcc, ds, cfg, epochs=200, lr=0.002, seed=1, batch_size=32)
        assert history[-1][3] == 1.0

    def test_loss_mostly_non_increasing(self):
        ds, params, fcc = toy_problem(2)
        cfg = PretrainLossConfig(lambda_ortho=0.0, mix_probability=0.0)
        _, _, history = pretrain(params, fcc, ds, cfg, epochs=60, lr=0.001, seed=2, batch_size=64)
        ce = [row[1] for row in history]
        upticks = sum(1 for a, b in zip(ce, ce[1:]) if b > a)
        assert upticks / (len(ce) - 1) <= 0.05

    def test_same_seed_bitwise_identical(self):
        ds, params_a, fcc_a = toy_problem(3)
        _, params_b, fcc_b = toy_problem(3)
        cfg = PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.4)
        params_b = copy.deepcopy(params_a)
        fcc_b = copy.deepcopy(fcc_a)
        # mixup only: 2-D inputs are not a square grid, so pin the grid
        pretrain(params_a, fcc_a, ds, cfg, epochs=5, lr=0.002, seed=9, batch_size=16, grid=(1, 2))
        pretrain(params_b, fcc_b, ds, cfg, epochs=5, lr=0.002, seed=9, batch_size=16, grid=(1, 2))
        assert params_checksum(params_a) == params_checksum(params_b)
        assert params_checksum(fcc_a) == params_checksum(fcc_b)

    def test_history_records_components(self):
        ds, params, fcc = toy_problem(4)
        cfg = PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.0)
        _, _, history = pretrain(params, fcc, ds, cfg, epochs=3, lr=0.002, seed=4, batch_size=32)
        assert len(history) == 3
        for epoch, ce, ortho, acc in history:
            assert ce >= 0 and ortho >= 0 and 0 <= acc <= 1

    def test_divergence_raises_numeric_failure(self):
        ds, params, fcc = toy_problem(5)
        cfg = PretrainLossConfig(lambda_ortho=0.0, mix_probability=0.0)
        with np.errstate(all="ignore"), pytest.raises(NumericFailureError):
            pretrain(params, fcc, ds, cfg, epochs=50, lr=1e6, seed=5, batch_size=32)

    def test_one_row_final_batch_with_ortho_penalty(self):
        ds, params, fcc = toy_problem(7, classes=3, per_class=11)  # 33 rows: 32 + 1
        cfg = PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.0)
        _, _, history = pretrain(params, fcc, ds, cfg, epochs=2, lr=0.002, seed=7, batch_size=32)
        assert len(history) == 2
        assert all(np.isfinite(row[2]) for row in history)

    def test_rejects_empty_batches(self):
        ds, params, fcc = toy_problem(6)
        with pytest.raises(SettingValueError):
            pretrain(params, fcc, ds, PretrainLossConfig(), epochs=1, lr=0.01, seed=0, batch_size=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("grid", [None, (3, 1)], ids=["inferred", "explicit"])
    def test_cutmix_grid_refused_before_any_update(self, grid, seed):
        # 10 is not square and 3x1 does not tile it; batches that draw no
        # cutmix must not train before the grid is refused
        ds = make_points_dataset(3, 20, dim=10, seed=seed)
        params = init_model([10, 16, 8], seed=seed)
        fcc = init_fcc(3, 8, seed + 1)
        before = params_checksum(params), params_checksum(fcc)
        cfg = PretrainLossConfig(mix_probability=0.4)
        with pytest.raises(SettingValueError, match="mix_probability") as err:
            pretrain(params, fcc, ds, cfg, epochs=3, lr=0.01, seed=seed, batch_size=4, grid=grid)
        assert "grid" in str(err.value)
        assert (params_checksum(params), params_checksum(fcc)) == before

    @pytest.mark.parametrize("mix_probability,grid", [(0.0, None), (1.0, (5, 1))])
    def test_non_square_input_trains_without_cutmix_or_with_a_tiling_grid(
        self, mix_probability, grid
    ):
        ds = make_points_dataset(3, 20, dim=10, seed=1)
        params = init_model([10, 16, 8], seed=1)
        fcc = init_fcc(3, 8, 2)
        before = params_checksum(params)
        cfg = PretrainLossConfig(mix_probability=mix_probability)
        _, _, history = pretrain(
            params, fcc, ds, cfg, epochs=2, lr=0.01, seed=1, batch_size=4, grid=grid
        )
        assert len(history) == 2 and params_checksum(params) != before

    def test_class_count_mismatch(self):
        ds, params, _ = toy_problem(6)
        fcc = init_fcc(5, 8, 0)
        cfg = PretrainLossConfig()
        with pytest.raises(ShapeMismatchError):
            pretrain(params, fcc, ds, cfg, epochs=1, lr=0.01, seed=0, batch_size=32)


class TestMetaScore:
    def test_orthonormal_prototypes(self):
        params = identity_net(4)
        protos = np.eye(4)
        scores = meta_score(params, np.eye(4)[1], protos)
        np.testing.assert_allclose(scores, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_negative_correlation_clamped(self):
        params = identity_net(3)
        protos = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        scores = meta_score(params, np.array([1.0, 0.0, 0.0]), protos)
        assert scores[0] == 0.0

    def test_chain_gradient_matches_fd(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        checked = 0
        while checked < 10:
            params = init_model([5, 4, 3], seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal(5)
            protos = rng.standard_normal((4, 3))
            gt = int(rng.integers(0, 4))

            cfg = MetaConfig(margin=0.1)

            tape = GradientTape()
            theta = forward_fcr(params, forward_backbone(params, x[None], tape), tape)
            if np.linalg.norm(theta) < 1e-3:  # dead-relu feature, FD ill-posed
                continue
            scores = meta_score(params, x, protos)
            cos_raw = protos @ theta[0] / (
                np.linalg.norm(protos, axis=1) * np.linalg.norm(theta)
            )
            margins = 0.1 - scores[gt] + np.delete(scores, gt)
            if np.any(np.abs(cos_raw) < 1e-3) or np.any(np.abs(margins) < 1e-3):
                continue
            checked += 1
            # the query step metalearn trains with, on a one-query batch
            _, _, upstream = offline._query_step(theta, protos, np.array([gt]), cfg)
            backward(params, tape, upstream)
            analytic = param_grad_flat(tape, params)

            flat0 = flatten_params(params)

            def loss_at(flat):
                set_params_from_flat(params, flat)
                th = forward_fcr(params, forward_backbone(params, x[None]))
                return offline._query_step(th, protos, np.array([gt]), cfg)[0]

            numeric = central_diff(loss_at, flat0)
            set_params_from_flat(params, flat0)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-4


class TestMetalearn:
    def perfect_instance(self):
        # two classes pinned to orthogonal axes: every margin is satisfied
        params = identity_net(2)
        inputs = np.array([[1.0, 0.0]] * 6 + [[0.0, 1.0]] * 6)
        labels = np.array([0] * 6 + [1] * 6)
        from protomem.data import LabeledDataset

        return params, LabeledDataset(inputs, labels)

    def test_satisfied_margins_mean_zero_update(self):
        params, ds = self.perfect_instance()
        checksum = params_checksum(params)
        cfg = MetaConfig(meta_samples=2, iterations=3, lr=0.1, query_batch=4)
        _, history = metalearn(params, ds, cfg, seed=0)
        assert all(row[1] == 0.0 for row in history)
        assert params_checksum(params) == checksum

    def test_accuracy_does_not_regress(self):
        ds, params, fcc = toy_problem(7, classes=3, per_class=30)
        cfg = PretrainLossConfig(lambda_ortho=0.0, mix_probability=0.0)
        pretrain(params, fcc, ds, cfg, epochs=40, lr=0.002, seed=7, batch_size=32)

        def em_accuracy(p):
            em, _ = build_base_em(p, ds, QuantSpec())
            feats = forward_fcr(p, forward_backbone(p, ds.inputs))
            hits = sum(
                int(classify(em, f)[0] == l) for f, l in zip(feats, ds.labels)
            )
            return hits / len(ds)

        before = em_accuracy(params)
        meta = MetaConfig(meta_samples=5, iterations=60, lr=0.01, query_batch=32)
        metalearn(params, ds, meta, seed=7)
        after = em_accuracy(params)
        assert after >= before - 0.01

    def test_same_seed_identical_history(self):
        ds, params, _ = toy_problem(8)
        twin = copy.deepcopy(params)
        cfg = MetaConfig(meta_samples=3, iterations=5, lr=0.02, query_batch=16)
        _, h1 = metalearn(params, ds, cfg, seed=11)
        _, h2 = metalearn(twin, ds, cfg, seed=11)
        assert h1 == h2
        assert params_checksum(params) == params_checksum(twin)

    def test_insufficient_meta_samples(self):
        ds, params, _ = toy_problem(9, per_class=3)
        cfg = MetaConfig(meta_samples=10, iterations=1, lr=0.01)
        with pytest.raises(InsufficientSamplesError):
            metalearn(params, ds, cfg, seed=0)

    def test_ce_objective_runs(self):
        ds, params, _ = toy_problem(10)
        cfg = MetaConfig(meta_samples=3, iterations=3, lr=0.01, query_batch=8, objective="ce")
        _, history = metalearn(params, ds, cfg, seed=1)
        assert len(history) == 3

    @pytest.mark.parametrize("objective", ["mm", "ce"])
    def test_one_taped_forward_backward_and_step_per_iteration(self, monkeypatch, objective):
        # prototypes are constants for the gradient: the meta-sample forward
        # keeps no tape, and the query tape alone is backpropagated and stepped
        ds, params, _ = toy_problem(14)
        calls = []
        real_forward, real_backward, real_step = (
            offline.forward_backbone, offline.backward, offline.sgd_step,
        )

        def forward(p, x, tape=None):
            calls.append(("forward", tape))
            return real_forward(p, x, tape)

        def backward_(p, tape, upstream):
            calls.append(("backward", tape))
            return real_backward(p, tape, upstream)

        def step(p, tape, lr):
            calls.append(("step", tape))
            return real_step(p, tape, lr)

        monkeypatch.setattr(offline, "forward_backbone", forward)
        monkeypatch.setattr(offline, "backward", backward_)
        monkeypatch.setattr(offline, "sgd_step", step)
        cfg = MetaConfig(meta_samples=3, iterations=3, lr=0.02, query_batch=16, objective=objective)
        metalearn(params, ds, cfg, seed=5)
        assert len(calls) == 4 * cfg.iterations
        for it in range(cfg.iterations):
            (meta, meta_tape), (query, tape), (back, back_tape), (upd, upd_tape) = (
                calls[4 * it : 4 * it + 4]
            )
            assert (meta, query, back, upd) == ("forward", "forward", "backward", "step")
            assert meta_tape is None and tape is not None
            assert back_tape is tape and upd_tape is tape

    def test_shapes_preserved(self):
        ds, params, _ = toy_problem(13)
        dims = [(l.weight.shape, l.bias.shape) for l in params.layers]
        cfg = MetaConfig(meta_samples=3, iterations=2, lr=0.01, query_batch=8)
        metalearn(params, ds, cfg, seed=3)
        assert [(l.weight.shape, l.bias.shape) for l in params.layers] == dims


class TestBuildBaseEm:
    def test_one_prototype_per_class(self):
        ds, params, _ = toy_problem(14, classes=4)
        em, am = build_base_em(params, ds, QuantSpec(), ActivationMemory(params.d_a))
        assert em.class_ids() == ds.class_ids()
        assert am.class_ids() == ds.class_ids()

    def test_no_activation_memory_unless_one_is_given(self):
        ds, params, _ = toy_problem(14, classes=4)
        kept, _ = build_base_em(params, ds, QuantSpec(), ActivationMemory(params.d_a))
        em, am = build_base_em(params, ds, QuantSpec())
        assert am is None
        assert em.accum.tobytes() == kept.accum.tobytes()
        assert em.reduced.tobytes() == kept.reduced.tobytes()

    def test_prototype_equals_class_mean_oracle(self):
        ds, params, _ = toy_problem(15)
        em, _ = build_base_em(params, ds, QuantSpec())
        for cid in ds.class_ids():
            rows = ds.indices_of(cid)
            feats = forward_fcr(params, forward_backbone(params, ds.inputs[rows]))
            qs = np.stack([quantize_feature(f, 8).values for f in feats])
            np.testing.assert_array_equal(
                em.get(cid).mean_vector(), qs.astype(np.float64).mean(axis=0)
            )

    def test_em_accuracy_close_to_fcc(self):
        ds, params, fcc = toy_problem(16)
        cfg = PretrainLossConfig(lambda_ortho=0.0, mix_probability=0.0)
        pretrain(params, fcc, ds, cfg, epochs=80, lr=0.002, seed=16, batch_size=32)
        feats = forward_fcr(params, forward_backbone(params, ds.inputs))
        fcc_hits = sum(
            int(ds.class_ids()[int(np.argmax(forward_fcr(fcc, f)))] == l)
            for f, l in zip(feats, ds.labels)
        )
        em, _ = build_base_em(params, ds, QuantSpec())
        em_hits = sum(int(classify(em, f)[0] == l) for f, l in zip(feats, ds.labels))
        assert em_hits >= 0.9 * fcc_hits


class TestBatchedQueryStep:
    """Metalearning scores its query batch at once, with each query's terms
    bitwise those of the one-query-at-a-time loop."""

    def episode(self, seed=21, classes=12, d=6, queries=50):
        rng = np.random.default_rng(seed)
        protos = rng.standard_normal((classes, d))
        protos[5] = protos[2]  # duplicate prototypes: tied scores
        theta_q = rng.standard_normal((queries, d))
        theta_q[7] = theta_q[3]
        theta_q[9] = 2.5 * protos[4]
        theta_q[10] = -protos[0]
        gts = rng.integers(0, classes, queries)
        gts[11] = 2
        theta_q[11] = protos[5]  # the ground truth ties with another class
        return theta_q, protos, gts

    @pytest.mark.parametrize("objective", ["mm", "ce"])
    @pytest.mark.parametrize("chunk", [1 << 15, 7 * 12 * 6, 1])
    def test_equals_per_query_loop(self, monkeypatch, objective, chunk):
        monkeypatch.setattr(offline, "_JACOBIAN_CHUNK", chunk)
        theta_q, protos, gts = self.episode()
        cfg = MetaConfig(margin=1.5, objective=objective)
        loss, hits, upstream = offline._query_step(theta_q, protos, gts, cfg)
        want = query_step_per_row(theta_q, protos, gts, cfg)
        np.testing.assert_array_equal([loss, hits], want[:2])
        np.testing.assert_array_equal(upstream, want[2])

    def test_episode_has_ties_and_long_margin_sums(self):
        theta_q, protos, gts = self.episode()
        scores = relu(offline._cosines(theta_q, protos)[0])
        rows = np.arange(len(gts))
        active = (1.5 - scores[rows, gts][:, None] + scores > 0).sum(axis=1) - 1
        assert active.max() >= 8  # numpy sums 8 or more terms in pairwise blocks
        assert np.any((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1)

    def test_jacobian_rows_equal_single_queries(self):
        theta_q, protos, _ = self.episode()
        cos, *unit = offline._cosines(theta_q, protos)
        scores = relu(cos)
        dtheta = offline._score_jacobians(cos, *unit)
        for i, theta in enumerate(theta_q):
            want_scores, want_dtheta = scores_and_grad_row(theta, protos)
            np.testing.assert_array_equal(scores[i], want_scores)
            np.testing.assert_array_equal(dtheta[i], want_dtheta)

    @pytest.mark.parametrize("objective", ["mm", "ce"])
    def test_metalearn_equals_per_query_loop(self, objective):
        ds = make_points_dataset(12, 12, dim=4, separation=1.0, seed=3)
        params = init_model([4, 16, 8], seed=3)
        twin = copy.deepcopy(params)
        cfg = MetaConfig(
            meta_samples=3, iterations=2, lr=0.05, margin=0.5, query_batch=40,
            objective=objective,
        )
        _, history = metalearn(params, ds, cfg, seed=4)
        _, want_history = metalearn_per_query(twin, ds, cfg, seed=4)
        np.testing.assert_array_equal(history, want_history)
        for layer, want in zip(params.layers, twin.layers):
            np.testing.assert_array_equal(layer.weight, want.weight)
            np.testing.assert_array_equal(layer.bias, want.bias)
