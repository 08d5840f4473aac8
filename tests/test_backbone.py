import struct

import numpy as np
import pytest

from helpers import central_diff, flatten_params, param_grad_flat, rel_err, set_params_from_flat
from protomem.backbone import (
    DenseLayer,
    GradientTape,
    ModelParams,
    backward,
    forward_backbone,
    forward_fcr,
    init_model,
    load_params,
    params_checksum,
    save_params,
    sgd_step,
)
from protomem.errors import (
    LayerWidthError,
    MalformedFileError,
    NoForwardRecordedError,
    ShapeMismatchError,
)
from protomem.numerics import matmul


def tiny_net(seed=0):
    return init_model([6, 5, 4, 3], seed=seed)


def python_forward(params, x):
    """Independent straight-line oracle with the same accumulation order."""
    a = [float(v) for v in x]
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        w, b = layer.weight, layer.bias
        out = []
        for j in range(w.shape[1]):
            acc = 0.0
            for i in range(w.shape[0]):
                acc += a[i] * w[i, j]
            acc = acc + b[j]
            out.append(max(acc, 0.0) if idx < last else acc)
        a = out
    return np.array(a)


class TestForward:
    def test_identity_single_layer(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        params = ModelParams([layer])
        np.testing.assert_array_equal(forward_fcr(params, [1.0, 2.0]), [1.0, 2.0])

    def test_zero_weights_give_bias(self):
        layer = DenseLayer(np.zeros((3, 2)), np.array([0.5, -1.5]))
        params = ModelParams([layer])
        np.testing.assert_array_equal(forward_fcr(params, [9.0, 9.0, 9.0]), [0.5, -1.5])

    def test_matches_straight_line_oracle(self):
        params = tiny_net(3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        got = forward_fcr(params, forward_backbone(params, x))
        np.testing.assert_array_equal(got, python_forward(params, x))

    def test_identity_projection(self):
        # d_a == d_p only in this constructed test
        layers = [
            DenseLayer(np.eye(3), np.zeros(3)),
            DenseLayer(np.eye(3), np.zeros(3)),
        ]
        params = ModelParams(layers)
        theta_a = np.array([0.5, 1.5, 2.5])
        np.testing.assert_array_equal(forward_fcr(params, theta_a), theta_a)

    def test_projection_zero_weights_give_bias(self):
        layers = [
            DenseLayer(np.eye(3), np.zeros(3)),
            DenseLayer(np.zeros((3, 2)), np.array([1.0, 2.0])),
        ]
        params = ModelParams(layers)
        np.testing.assert_array_equal(forward_fcr(params, [5.0, 5.0, 5.0]), [1.0, 2.0])

    def test_deterministic(self):
        params = tiny_net(9)
        x = np.linspace(-1, 1, 6)
        a = forward_fcr(params, forward_backbone(params, x))
        b = forward_fcr(params, forward_backbone(params, x))
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        params = tiny_net()
        with pytest.raises(ShapeMismatchError):
            forward_backbone(params, np.ones(4))

    def test_forward_counter_counts_rows(self):
        params = tiny_net()
        assert params.forward_calls == 0
        forward_backbone(params, np.ones(6))
        assert params.forward_calls == 1
        forward_backbone(params, np.ones((5, 6)))
        assert params.forward_calls == 6

    def test_batch_rows_equal_one_row_forwards(self):
        # matmul skips the all-zero columns of its left operand, and a batch
        # and each of its rows skip different columns; the query-at-a-time
        # replay must still match the batched protocol bit for bit
        params = init_model([12, 10, 8, 4], seed=3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 12))
        x[rng.random(x.shape) < 0.4] = 0.0
        x[:, [2, 7]] = 0.0  # dead in the batch as well
        x[4] = 0.0
        hidden = forward_backbone(params, x)
        # single rows skip dead units that the batch must visit
        assert (hidden == 0.0).any() and not (hidden == 0.0).all(axis=0).any()
        batch = forward_fcr(params, hidden)
        for r in range(len(x)):
            one = forward_fcr(params, forward_backbone(params, x[r]))
            np.testing.assert_array_equal(one.view(np.int64), batch[r].view(np.int64))


class TestBackward:
    def test_single_layer_sum_loss(self):
        # L = sum(out) for out = x @ W + b: dL/dW[i, j] = x[i]
        layer = DenseLayer(np.zeros((3, 2)), np.zeros(2))
        params = ModelParams([layer])
        x = np.array([1.0, -2.0, 3.0])
        tape = GradientTape()
        forward_fcr(params, x, tape)
        backward(params, tape, np.ones(2))
        np.testing.assert_array_equal(tape.grad_w[0], np.outer(x, np.ones(2)))
        np.testing.assert_array_equal(tape.grad_b[0], np.ones(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for seed in range(5):
            params = tiny_net(seed)
            x = rng.standard_normal(6)
            target = rng.standard_normal(3)

            def loss_at(flat):
                set_params_from_flat(params, flat)
                out = forward_fcr(params, forward_backbone(params, x))
                return float(((out - target) ** 2).sum())

            flat0 = flatten_params(params)
            tape = GradientTape()
            out = forward_fcr(params, forward_backbone(params, x, tape), tape)
            backward(params, tape, 2.0 * (out - target))
            analytic = param_grad_flat(tape, params)
            numeric = central_diff(loss_at, flat0)
            set_params_from_flat(params, flat0)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-4

    def test_frozen_backbone_keeps_buffers_zero(self):
        params = tiny_net(2)
        before = params_checksum(params)
        x = np.ones(6)
        tape = GradientTape()
        forward_fcr(params, forward_backbone(params, x), tape)
        backward(params, tape, np.ones(3))
        # a tape holds gradients only for the layers it recorded
        for idx in range(len(params.layers) - 1):
            assert idx not in tape.grad_w
            assert idx not in tape.grad_b
        sgd_step(params, tape, 0.5)
        # projection moved, extractor bitwise identical
        assert params_checksum(params) != before
        fresh = tiny_net(2)
        for idx in range(len(params.layers) - 1):
            np.testing.assert_array_equal(params.layers[idx].weight, fresh.layers[idx].weight)

    def test_second_backward_replaces_gradients(self):
        params = tiny_net(3)
        tape = GradientTape()
        out = forward_fcr(params, forward_backbone(params, np.ones((2, 6)), tape), tape)
        backward(params, tape, out)
        once = param_grad_flat(tape, params)
        backward(params, tape, out)
        np.testing.assert_array_equal(param_grad_flat(tape, params), once)

    def test_requires_forward(self):
        params = tiny_net()
        with pytest.raises(NoForwardRecordedError):
            backward(params, GradientTape(), np.ones(3))

    def test_backward_forms_no_input_gradient(self, monkeypatch):
        # one weight-gradient product per recorded layer, and one carry
        # through each weight but the lowest recorded layer's
        import protomem.backbone as bb

        calls = []

        def counting_matmul(a, b):
            calls.append((np.shape(a), np.shape(b)))
            return matmul(a, b)

        monkeypatch.setattr(bb, "matmul", counting_matmul)
        params = tiny_net(10)
        layers = len(params.layers)
        tape = GradientTape()
        out = forward_fcr(params, forward_backbone(params, np.ones((2, 6)), tape), tape)
        calls.clear()
        backward(params, tape, out)
        assert len(calls) == layers + (layers - 1)
        tape = GradientTape()
        out = forward_fcr(params, forward_backbone(params, np.ones((2, 6))), tape)
        calls.clear()
        backward(params, tape, out)
        assert len(calls) == 1  # the projection's weight gradient only


class TestCompositeLossGradients:
    def test_pretrain_objective_through_all_parameters(self):
        # the chain `pretrain` trains: extractor -> projection -> the
        # `init_fcc` head on its own tape -> `pretrain_loss`, with the head's
        # input gradient taken through its weight and passed down as
        # `pretrain` does; finite differences over every weight and bias of
        # the model and the head, 20 configurations
        from protomem.losses import PretrainLossConfig, pretrain_loss
        from protomem.offline import init_fcc

        rng = np.random.default_rng(77)
        cfg = PretrainLossConfig(lambda_ortho=0.2)
        worst = 0.0
        done = 0
        trial = 0
        while done < 20:
            trial += 1
            params = init_model([4, 4, 3], seed=trial)
            fcc = init_fcc(2, 3, seed=trial)
            fcc.layers[0].bias[:] = rng.standard_normal(2) * 0.5
            x = rng.standard_normal((3, 4))
            targets = np.eye(2)[rng.integers(0, 2, 3)]
            probe = forward_fcr(params, forward_backbone(params, x))
            if np.linalg.norm(probe, axis=1).min() < 1e-3:  # dead-relu row
                continue
            done += 1

            tape = GradientTape()
            theta = forward_fcr(params, forward_backbone(params, x, tape), tape)
            head_tape = GradientTape()
            logits = forward_fcr(fcc, theta, head_tape)
            _, grad_logits, grad_theta, _ = pretrain_loss(logits, targets, theta, cfg)
            backward(fcc, head_tape, grad_logits)
            grad_head = matmul(grad_logits, fcc.layers[0].weight.T)
            backward(params, tape, grad_head + grad_theta)
            analytic = np.concatenate(
                [param_grad_flat(tape, params), param_grad_flat(head_tape, fcc)]
            )

            flat_model, flat_head = flatten_params(params), flatten_params(fcc)
            cut = flat_model.size

            def loss_at(flat):
                set_params_from_flat(params, flat[:cut])
                set_params_from_flat(fcc, flat[cut:])
                theta = forward_fcr(params, forward_backbone(params, x))
                return pretrain_loss(forward_fcr(fcc, theta), targets, theta, cfg)[0]

            numeric = central_diff(loss_at, np.concatenate([flat_model, flat_head]))
            set_params_from_flat(params, flat_model)
            set_params_from_flat(fcc, flat_head)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-4


class TestSgdStep:
    def test_lr_zero_keeps_params_bitwise(self):
        params = tiny_net(4)
        before = params_checksum(params)
        tape = GradientTape()
        forward_backbone(params, np.ones(6), tape)
        backward(params, tape, np.ones(4))
        sgd_step(params, tape, 0.0)
        assert params_checksum(params) == before

    def test_one_step_exact(self):
        layer = DenseLayer(np.full((2, 2), 0.5), np.zeros(2))
        params = ModelParams([layer])
        tape = GradientTape()
        forward_fcr(params, [1.0, 1.0], tape)
        backward(params, tape, np.array([1.0, 2.0]))
        g = tape.grad_w[0].copy()
        sgd_step(params, tape, 0.1)
        np.testing.assert_array_equal(params.layers[0].weight, np.full((2, 2), 0.5) - 0.1 * g)

    def test_quadratic_converges(self):
        # minimize (out - 3)^2 over a single 1x1 layer
        layer = DenseLayer(np.array([[0.0]]), np.zeros(1))
        params = ModelParams([layer])
        for _ in range(1000):
            tape = GradientTape()
            out = forward_fcr(params, [1.0], tape)
            backward(params, tape, 2.0 * (out - 3.0))
            sgd_step(params, tape, 0.1)
        final = forward_fcr(params, [1.0])[0]
        assert abs(final - 3.0) < 1e-6

    def test_requires_grads(self):
        params = tiny_net()
        with pytest.raises(NoForwardRecordedError):
            sgd_step(params, GradientTape(), 0.1)


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        params = tiny_net(8)
        path = tmp_path / "net.ofsc"
        save_params(params, path)
        loaded = load_params(path)
        assert params_checksum(loaded) == params_checksum(params)
        assert loaded.d_a == params.d_a

    @pytest.mark.parametrize("shape", ["init_model", "init_fcc"])
    def test_every_built_shape_round_trips(self, tmp_path, shape):
        from protomem.offline import init_fcc

        params = init_model([8, 6, 5, 4], seed=0) if shape == "init_model" else init_fcc(3, 8, 1)
        rng = np.random.default_rng(2)
        for layer in params.layers:
            layer.bias[:] = rng.standard_normal(layer.bias.shape)
        path = tmp_path / "net.ofsc"
        save_params(params, path)
        loaded = load_params(path)
        for got, want in zip(loaded.layers, params.layers, strict=True):
            assert got.weight.tobytes() == want.weight.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
        assert (loaded.d_a, loaded.d_p) == (params.d_a, params.d_p)
        # the layer table's activation byte: relu (1) below the projection, none (0) at it
        table = path.read_bytes()[12 : 12 + 9 * len(params.layers)]
        assert list(table[8::9]) == [1] * (len(params.layers) - 1) + [0]

    def test_truncated_file(self, tmp_path):
        params = tiny_net(8)
        path = tmp_path / "net.ofsc"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(MalformedFileError):
            load_params(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "net.ofsc"
        save_params(tiny_net(8), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(MalformedFileError, match="4 bytes past the payload"):
            load_params(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "net.ofsc"
        params = tiny_net(8)
        save_params(params, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError):
            load_params(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "net.ofsc"
        params = tiny_net(8)
        save_params(params, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError):
            load_params(path)

    @pytest.mark.parametrize("what,layers", [
        ("0 layers", []),
        ("do not chain", [(2, 3), (4, 1)]),
        ("a layer of width 0", [(3, 0), (0, 2)]),
    ], ids=["no-layers", "unchained", "zero-width"])
    def test_layers_no_model_has_are_malformed(self, tmp_path, what, layers):
        # a model has at least one layer, each of nonzero width and taking
        # the width the one before it gives
        table = b"".join(struct.pack("<IIB", rows, cols, 0) for rows, cols in layers)
        weights = bytes(8 * sum((rows + 1) * cols for rows, cols in layers))
        path = tmp_path / "net.ofsc"
        path.write_bytes(b"OFSC" + struct.pack("<II", 1, len(layers)) + table + weights)
        with pytest.raises(MalformedFileError, match=what):
            load_params(path)


class TestInit:
    def test_seeded_init_reproducible(self):
        a = init_model([6, 5, 4, 3], seed=42)
        b = init_model([6, 5, 4, 3], seed=42)
        assert params_checksum(a) == params_checksum(b)

    def test_glorot_bounds(self):
        params = init_model([100, 50, 20], seed=0)
        w = params.layers[0].weight
        limit = np.sqrt(6.0 / 150.0)
        assert np.all(np.abs(w) <= limit)

    def test_rejects_non_reducing_projection(self):
        with pytest.raises(ShapeMismatchError):
            init_model([6, 4, 8], seed=0)

    @pytest.mark.parametrize("dims", [[6, 0, 4, 3], [6, 4, 0], [0, 4, 3]])
    def test_rejects_zero_width(self, dims):
        with pytest.raises(LayerWidthError):
            init_model(dims, seed=0)

    def test_split_point_only_at_the_projection(self):
        dims = [8, 6, 5, 4]
        kept = init_model(dims, seed=0, split_point=2)
        assert params_checksum(kept) == params_checksum(init_model(dims, seed=0))
        for split in (0, 1, 3):
            with pytest.raises(LayerWidthError):
                init_model(dims, seed=0, split_point=split)
        with pytest.raises(TypeError):  # an old positional split is not taken as the seed
            init_model(dims, 2, 7)

    def test_dims(self):
        params = tiny_net()
        assert params.d_a == 4 and params.d_p == 3
