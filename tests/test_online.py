import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    central_diff,
    cosine_target_grad,
    finetune_fcr_per_row,
    rel_err,
    subbatch_plan,
)
from protomem.backbone import (
    GradientTape,
    backward,
    forward_backbone,
    forward_fcr,
    init_model,
    params_checksum,
)
from protomem.errors import (
    DuplicateClassError,
    EmptySampleSetError,
    MisalignedMemoriesError,
    ShapeMismatchError,
)
from protomem.memory import (
    ExplicitMemory,
    QuantSpec,
    bipolarize,
    classify,
    quantize_feature,
)
from protomem.numerics import cossim
from protomem.online import (
    FinetuneConfig,
    _cosine_target_grads,
    finetune_fcr,
    learn_class,
)


def net(seed=0):
    return init_model([8, 6, 4], seed=seed)


def fresh_memories(params):
    return ExplicitMemory(params.d_p, QuantSpec()), {}


class TestLearnClass:
    def test_single_shot_equals_quantized_feature(self):
        params = net(1)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        learn_class(em, means, params, [x], class_id=3)
        theta_p = forward_fcr(params, forward_backbone(params, x))
        expected = quantize_feature(theta_p, em.quant.feature_bits)
        np.testing.assert_array_equal(em.get(3).accum, expected)
        np.testing.assert_array_equal(em.get(3).quantized, expected)
        assert em.get(3).count == 1

    def test_identical_shots_keep_direction(self):
        params = net(2)
        em, means = fresh_memories(params)
        x = np.linspace(-1, 1, 8)
        learn_class(em, means, params, np.tile(x, (5, 1)), class_id=0)
        single = quantize_feature(forward_fcr(params, forward_backbone(params, x)), 8)
        proto = em.get(0)
        np.testing.assert_array_equal(proto.accum, 5 * single)
        assert cossim(proto.accum / proto.count, single.astype(float)) == pytest.approx(1.0)

    def test_matches_two_pass_mean_oracle(self):
        params = net(3)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((5, 8))
        learn_class(em, means, params, samples, class_id=1)
        # two-pass oracle: quantize every feature, then take the mean
        qs = [
            quantize_feature(forward_fcr(params, forward_backbone(params, s)), 8)
            for s in samples
        ]
        oracle_mean = np.stack(qs).astype(np.float64).mean(axis=0)
        proto = em.get(1)
        np.testing.assert_array_equal(proto.accum / proto.count, oracle_mean)
        np.testing.assert_array_equal(em.get(1).accum, np.stack(qs).sum(axis=0))

    def test_single_pass_counter(self):
        params = net(4)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(6)
        before = params.forward_calls
        learn_class(em, means, params, rng.standard_normal((7, 8)), class_id=0)
        assert params.forward_calls - before == 7

    def test_weights_untouched(self):
        params = net(5)
        em, means = fresh_memories(params)
        checksum = params_checksum(params)
        learn_class(em, means, params, np.random.default_rng(0).standard_normal((4, 8)), 0)
        assert params_checksum(params) == checksum

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_learning_at_bits_equals_full_memory_rebuilt(self, bits):
        # one reduction rule: storing at b bits while learning gives the
        # same prototypes, shifts and decisions as reducing afterwards
        params = net(12)
        rng = np.random.default_rng(bits)
        full, means_full = fresh_memories(params)
        narrow = ExplicitMemory(params.d_p, QuantSpec(prototype_bits=bits))
        means_narrow = {}
        for cid in (4, 0, 2):
            shots = rng.standard_normal((5, 8)) + rng.standard_normal(8)
            learn_class(full, means_full, params, shots, cid)
            learn_class(narrow, means_narrow, params, shots, cid)
        rebuilt = full.rebuilt_at_bits(bits)
        assert narrow.class_ids() == rebuilt.class_ids() == [4, 0, 2]
        for cid in (4, 0, 2):
            got, want = narrow.get(cid), rebuilt.get(cid)
            np.testing.assert_array_equal(got.accum, full.get(cid).accum)
            np.testing.assert_array_equal(got.quantized, want.quantized)
            assert got.scale_shift == want.scale_shift
        queries = forward_fcr(params, forward_backbone(params, rng.standard_normal((6, 8))))
        for q in queries:
            assert classify(narrow, q)[0] == classify(rebuilt, q)[0]

    @pytest.mark.parametrize("bits", [None, 3, 1])
    def test_no_activation_memory_leaves_the_same_explicit_memory(self, bits):
        # past the first appends, so that both memories outgrow their buffers
        params = net(13)
        rng = np.random.default_rng(13)
        kept = ExplicitMemory(params.d_p, QuantSpec(prototype_bits=bits))
        alone = ExplicitMemory(params.d_p, QuantSpec(prototype_bits=bits))
        means = {}
        for cid in (7, 0, 3, 12, 5):
            shots = rng.standard_normal((4, 8)) + rng.standard_normal(8)
            assert learn_class(kept, means, params, shots, cid)[1] is means
            assert learn_class(alone, None, params, shots, cid) == (alone, None)
        for name in ("ids", "counts", "shifts", "accum", "reduced"):
            got, want = getattr(alone, name), getattr(kept, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert list(means) == kept.class_ids()

    def test_no_activation_memory_keeps_every_check(self):
        params = net(6)
        em = ExplicitMemory(params.d_p)
        learn_class(em, None, params, np.ones((1, 8)), 2)
        with pytest.raises(DuplicateClassError):
            learn_class(em, None, params, np.ones((1, 8)), 2)
        with pytest.raises(EmptySampleSetError):
            learn_class(em, None, params, np.zeros((0, 8)), 3)
        with pytest.raises(ShapeMismatchError):
            learn_class(ExplicitMemory(params.d_p + 1), None, params, np.ones((1, 8)), 0)
        assert em.class_ids() == [2]

    def test_duplicate_class(self):
        params = net(6)
        em, means = fresh_memories(params)
        x = np.ones((1, 8))
        learn_class(em, means, params, x, 2)
        with pytest.raises(DuplicateClassError):
            learn_class(em, means, params, x, 2)

    def test_class_in_means_writes_neither(self):
        # class means from another run already hold class 2
        params = net(6)
        em, means = fresh_memories(params)
        means[2] = np.ones(params.d_a)
        with pytest.raises(DuplicateClassError):
            learn_class(em, means, params, np.ones((5, 8)), 2)
        assert len(em) == 0 and list(means) == [2] and means[2].tolist() == [1.0] * params.d_a

    @pytest.mark.parametrize("d_p", [1, 3])
    def test_projection_width_mismatch_writes_neither(self, d_p):
        # a one-wide projection once broadcast into every entry of the class
        params = init_model([8, 6, d_p], seed=6)
        em, means = ExplicitMemory(4), {}
        with pytest.raises(ShapeMismatchError):
            learn_class(em, means, params, np.ones((2, 8)), 0)
        assert len(em) == len(means) == 0 and params.forward_calls == 0

    def test_empty_sample_set(self):
        params = net(7)
        em, means = fresh_memories(params)
        with pytest.raises(EmptySampleSetError):
            learn_class(em, means, params, np.zeros((0, 8)), 0)

    def test_means_are_the_forward_mean_bit_for_bit(self):
        params = net(8)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(1)
        shots = {4: rng.standard_normal((6, 8)), 0: rng.standard_normal((1, 8)),
                 9: rng.standard_normal((5, 8)) * 1e3}
        for cid, samples in shots.items():
            learn_class(em, means, params, samples, cid)
        assert list(means) == em.class_ids() == [4, 0, 9]
        for cid, samples in shots.items():
            want = forward_backbone(params, samples).sum(axis=0) / len(samples)
            assert (means[cid].dtype, means[cid].tobytes()) == (want.dtype, want.tobytes())
        # a class already in the dict but not in this memory is refused too
        other = ExplicitMemory(params.d_p)
        learn_class(other, None, params, np.ones((2, 8)), 1)
        before = {n: getattr(other, n).tobytes() for n in ("ids", "counts", "accum", "reduced")}
        with pytest.raises(DuplicateClassError):
            learn_class(other, means, params, shots[9], 9)
        assert {n: getattr(other, n).tobytes() for n in before} == before
        assert sorted(means) == [0, 4, 9]

    def test_get_of_unknown_class(self):
        params = net(8)
        em, means = fresh_memories(params)
        learn_class(em, means, params, np.ones((2, 8)), 4)
        with pytest.raises(KeyError):
            em.get(5)

    def test_training_samples_classified_back(self):
        params = net(9)
        em = ExplicitMemory(params.d_p)
        rng = np.random.default_rng(2)
        sets = {c: rng.standard_normal((5, 8)) + 3 * rng.standard_normal(8) for c in range(4)}
        for c, samples in sets.items():
            learn_class(em, None, params, samples, c)
        # shots classify back to their class at least as often as the
        # full-precision oracle (brute-force cosine against class means)
        means = {c: em.get(c).accum / em.get(c).count for c in em.class_ids()}

        def oracle_pred(feat):
            return max(
                means,
                key=lambda c: float(means[c] @ feat)
                / (np.linalg.norm(means[c]) * np.linalg.norm(feat)),
            )

        hits = oracle_hits = total = 0
        for c, samples in sets.items():
            for s in samples:
                feat = forward_fcr(params, forward_backbone(params, s))
                pred, _ = classify(em, feat)
                hits += int(pred == c)
                oracle_hits += int(oracle_pred(feat) == c)
                total += 1
        assert hits >= oracle_hits
        assert oracle_hits / total > 0.8


class TestSubbatchPlan:
    def test_even_groups(self):
        assert subbatch_plan(6, 2) == [[0, 1], [2, 3], [4, 5]]

    def test_single_group(self):
        assert subbatch_plan(3, 10) == [[0, 1, 2]]

    def test_last_group_smaller(self):
        assert subbatch_plan(5, 2) == [[0, 1], [2, 3], [4]]

    @settings(max_examples=100)
    @given(st.integers(1, 200), st.integers(1, 50))
    def test_partition_property(self, n, size):
        plan = subbatch_plan(n, size)
        flat = [i for group in plan for i in group]
        assert sorted(flat) == list(range(n))
        assert len(flat) == len(set(flat))
        assert all(len(g) <= size for g in plan)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            subbatch_plan(4, 0)


class TestFinetune:
    def setup_state(self, seed=0):
        params = net(seed)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(seed + 100)
        for c in range(6):
            learn_class(em, means, params, rng.standard_normal((5, 8)) + c * 0.3, c)
        return params, em, means

    def test_lr_zero_keeps_weights_bitwise(self):
        params, em, means = self.setup_state(1)
        checksum = params_checksum(params)
        finetune_fcr(params, means, em, FinetuneConfig(epochs=3, sub_batch=2, lr=0.0))
        assert params_checksum(params) == checksum

    def test_backbone_and_memory_untouched(self):
        params, em, means = self.setup_state(2)
        frozen = [params.layers[i].weight.copy() for i in range(len(params.layers) - 1)]
        protos_before = {c: em.get(c).quantized.copy() for c in em.class_ids()}
        finetune_fcr(params, means, em, FinetuneConfig(epochs=5, sub_batch=3, lr=0.05))
        for i, w in enumerate(frozen):
            np.testing.assert_array_equal(params.layers[i].weight, w)
        for c, q in protos_before.items():
            np.testing.assert_array_equal(em.get(c).quantized, q)

    def test_single_class_alignment_improves_monotonically(self):
        params = net(11)
        em, means = fresh_memories(params)
        rng = np.random.default_rng(42)
        learn_class(em, means, params, rng.standard_normal((5, 8)), 0)
        target = bipolarize(em.get(0).quantized).astype(np.float64)

        def alignment():
            return cossim(forward_fcr(params, means[0]), target)

        values = [alignment()]
        for _ in range(10):
            finetune_fcr(params, means, em, FinetuneConfig(epochs=1, sub_batch=1, lr=0.05))
            values.append(alignment())
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_cosine_objective_gradient(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10):
            y = rng.standard_normal(6)
            t = bipolarize(rng.standard_normal(6)).astype(np.float64)
            _, grad = _cosine_target_grads(y[None], t[None])
            numeric = central_diff(lambda v: _cosine_target_grads(v[None], t[None])[0][0], y)
            worst = max(worst, rel_err(grad, numeric))
        assert worst < 1e-6

    def test_fcr_weight_gradient_matches_fd(self):
        # full chain: projection weights -> cosine objective
        params, em, means = self.setup_state(4)
        ids = sorted(em.class_ids())
        inputs = np.stack([means[c] for c in ids])
        targets = np.stack(
            [bipolarize(em.get(c).quantized).astype(np.float64) for c in ids]
        )
        layer = params.layers[-1]
        flat0 = layer.weight.ravel().copy()

        def loss_at(flat):
            layer.weight[...] = flat.reshape(layer.weight.shape)
            return _cosine_target_grads(forward_fcr(params, inputs), targets)[0].sum()

        tape = GradientTape()
        _, upstream = _cosine_target_grads(forward_fcr(params, inputs, tape), targets)
        backward(params, tape, upstream)
        analytic = tape.grad_w[len(params.layers) - 1].ravel().copy()
        numeric = central_diff(loss_at, flat0)
        layer.weight[...] = flat0.reshape(layer.weight.shape)
        assert rel_err(analytic, numeric) < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**31))
    def test_cosine_rows_bitwise_equal_per_row_oracle(self, b, d, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((b, d)) * 10.0 ** rng.uniform(-3, 3, (b, d))
        t = np.where(rng.standard_normal((b, d)) >= 0, 1.0, -1.0)
        losses, grads = _cosine_target_grads(y, t)
        for j in range(b):
            want_loss, want_grad = cosine_target_grad(y[j], t[j])
            assert losses[j] == want_loss
            assert grads[j].tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("sub_batch", [1, 3, 4, 7])
    def test_batched_equals_per_row_oracle(self, sub_batch):
        params, em, means = self.setup_state(8)
        oracle = copy.deepcopy(params)
        cfg = FinetuneConfig(epochs=4, sub_batch=sub_batch, lr=0.05)
        assert finetune_fcr(params, means, em, cfg) == finetune_fcr_per_row(oracle, means, em, cfg)
        assert params_checksum(params) == params_checksum(oracle)

    def test_results_are_pinned(self):
        # the loss history and the trained projection, recorded when the
        # class means were still running sums in a memory of their own
        params, em, means = self.setup_state(3)
        history = finetune_fcr(params, means, em, FinetuneConfig(epochs=5, sub_batch=4, lr=0.05))
        assert history == [
            0.7322664147636346, 0.4861406441750785, 0.4382386291270083,
            0.42226889420177494, 0.40925713542403075,
        ]
        assert hashlib.sha256(params_checksum(params)).hexdigest() == (
            "34c5e30113af2eeb2c627c59e9e9cf89400a74197ec9ad6581907799372c5852"
        )

    def test_misaligned_memories(self):
        params, em, means = self.setup_state(5)
        means[99] = np.ones(params.d_a)
        with pytest.raises(MisalignedMemoriesError):
            finetune_fcr(params, means, em, FinetuneConfig(epochs=1, sub_batch=2, lr=0.1))

    @pytest.mark.parametrize("shape", [(7,), (5,), (1, 6)])
    def test_mean_width_mismatch_updates_nothing(self, shape):
        # a mean that is not d_a = 6 wide, even in the last sub-batch
        params, em, means = self.setup_state(5)
        means[5] = np.ones(shape)
        checksum = params_checksum(params)
        with pytest.raises(ShapeMismatchError):
            finetune_fcr(params, means, em, FinetuneConfig(epochs=2, sub_batch=2, lr=0.1))
        assert params_checksum(params) == checksum

    def test_loss_history_length(self):
        params, em, means = self.setup_state(6)
        history = finetune_fcr(params, means, em, FinetuneConfig(epochs=7, sub_batch=2, lr=0.01))
        assert len(history) == 7
