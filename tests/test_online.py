import copy
import hashlib
import struct

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
    MalformedFileError,
    MisalignedMemoriesError,
    ShapeMismatchError,
)
from protomem.memory import (
    ActivationMemory,
    ExplicitMemory,
    QuantSpec,
    bipolarize,
    classify,
    load_actmem,
    quantize_feature,
    save_actmem,
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
    return ExplicitMemory(params.d_p, QuantSpec()), ActivationMemory(params.d_a)


class TestLearnClass:
    def test_single_shot_equals_quantized_feature(self):
        params = net(1)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        learn_class(em, am, params, [x], class_id=3)
        theta_p = forward_fcr(params, forward_backbone(params, x))
        expected = quantize_feature(theta_p, em.quant.feature_bits).values
        np.testing.assert_array_equal(em.get(3).accum, expected)
        np.testing.assert_array_equal(em.get(3).quantized, expected)
        assert em.get(3).count == 1

    def test_identical_shots_keep_direction(self):
        params = net(2)
        em, am = fresh_memories(params)
        x = np.linspace(-1, 1, 8)
        learn_class(em, am, params, np.tile(x, (5, 1)), class_id=0)
        single = quantize_feature(
            forward_fcr(params, forward_backbone(params, x)), 8
        ).values
        proto = em.get(0)
        np.testing.assert_array_equal(proto.accum, 5 * single)
        assert cossim(proto.mean_vector(), single.astype(float)) == pytest.approx(1.0)

    def test_matches_two_pass_mean_oracle(self):
        params = net(3)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((5, 8))
        learn_class(em, am, params, samples, class_id=1)
        # two-pass oracle: quantize every feature, then take the mean
        qs = [
            quantize_feature(forward_fcr(params, forward_backbone(params, s)), 8).values
            for s in samples
        ]
        oracle_mean = np.stack(qs).astype(np.float64).mean(axis=0)
        np.testing.assert_array_equal(em.get(1).mean_vector(), oracle_mean)
        np.testing.assert_array_equal(em.get(1).accum, np.stack(qs).sum(axis=0))

    def test_single_pass_counter(self):
        params = net(4)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(6)
        before = params.forward_calls
        learn_class(em, am, params, rng.standard_normal((7, 8)), class_id=0)
        assert params.forward_calls - before == 7

    def test_weights_untouched(self):
        params = net(5)
        em, am = fresh_memories(params)
        checksum = params_checksum(params)
        learn_class(em, am, params, np.random.default_rng(0).standard_normal((4, 8)), 0)
        assert params_checksum(params) == checksum

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_learning_at_bits_equals_full_memory_rebuilt(self, bits):
        # one reduction rule: storing at b bits while learning gives the
        # same prototypes, shifts and decisions as reducing afterwards
        params = net(12)
        rng = np.random.default_rng(bits)
        full, am_full = fresh_memories(params)
        narrow = ExplicitMemory(params.d_p, QuantSpec(prototype_bits=bits))
        am_narrow = ActivationMemory(params.d_a)
        for cid in (4, 0, 2):
            shots = rng.standard_normal((5, 8)) + rng.standard_normal(8)
            learn_class(full, am_full, params, shots, cid)
            learn_class(narrow, am_narrow, params, shots, cid)
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
        am = ActivationMemory(params.d_a)
        for cid in (7, 0, 3, 12, 5):
            shots = rng.standard_normal((4, 8)) + rng.standard_normal(8)
            assert learn_class(kept, am, params, shots, cid)[1] is am
            assert learn_class(alone, None, params, shots, cid) == (alone, None)
        for name in ("ids", "counts", "shifts", "accum", "reduced"):
            got, want = getattr(alone, name), getattr(kept, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert am.class_ids() == kept.class_ids()

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
        em, am = fresh_memories(params)
        x = np.ones((1, 8))
        learn_class(em, am, params, x, 2)
        with pytest.raises(DuplicateClassError):
            learn_class(em, am, params, x, 2)

    def test_class_in_activation_memory_writes_neither(self):
        # an activation memory from another run already holds class 2
        params = net(6)
        em, am = fresh_memories(params)
        am.add_batch(2, np.ones((2, params.d_a)))
        with pytest.raises(DuplicateClassError):
            learn_class(em, am, params, np.ones((5, 8)), 2)
        assert len(em) == 0 and am.counts.tolist() == [2]

    def test_activation_width_mismatch_writes_neither(self):
        params = net(6)
        em, am = ExplicitMemory(params.d_p), ActivationMemory(params.d_a + 1)
        with pytest.raises(ShapeMismatchError):
            learn_class(em, am, params, np.ones((2, 8)), 0)
        assert len(em) == len(am) == 0

    @pytest.mark.parametrize("d_p", [1, 3])
    def test_projection_width_mismatch_writes_neither(self, d_p):
        # a one-wide projection once broadcast into every entry of the class
        params = init_model([8, 6, d_p], seed=6)
        em, am = ExplicitMemory(4), ActivationMemory(params.d_a)
        with pytest.raises(ShapeMismatchError):
            learn_class(em, am, params, np.ones((2, 8)), 0)
        assert len(em) == len(am) == 0 and params.forward_calls == 0

    def test_empty_sample_set(self):
        params = net(7)
        em, am = fresh_memories(params)
        with pytest.raises(EmptySampleSetError):
            learn_class(em, am, params, np.zeros((0, 8)), 0)

    def test_activation_memory_mean(self):
        params = net(8)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((6, 8))
        learn_class(em, am, params, samples, 4)
        thetas = forward_backbone(params, samples)
        np.testing.assert_allclose(am.mean(4), thetas.mean(axis=0), atol=1e-12)

    def test_activation_memory_mean_of_unknown_class(self):
        params = net(8)
        em, am = fresh_memories(params)
        learn_class(em, am, params, np.ones((2, 8)), 4)
        with pytest.raises(KeyError):
            am.mean(5)
        with pytest.raises(KeyError):
            em.get(5)

    def test_training_samples_classified_back(self):
        params = net(9)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(2)
        sets = {c: rng.standard_normal((5, 8)) + 3 * rng.standard_normal(8) for c in range(4)}
        for c, samples in sets.items():
            learn_class(em, am, params, samples, c)
        # shots classify back to their class at least as often as the
        # full-precision oracle (brute-force cosine against class means)
        means = {c: em.get(c).mean_vector() for c in em.class_ids()}

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
        em, am = fresh_memories(params)
        rng = np.random.default_rng(seed + 100)
        for c in range(6):
            learn_class(em, am, params, rng.standard_normal((5, 8)) + c * 0.3, c)
        return params, em, am

    def test_lr_zero_keeps_weights_bitwise(self):
        params, em, am = self.setup_state(1)
        checksum = params_checksum(params)
        finetune_fcr(params, am, em, FinetuneConfig(epochs=3, sub_batch=2, lr=0.0))
        assert params_checksum(params) == checksum

    def test_backbone_and_memory_untouched(self):
        params, em, am = self.setup_state(2)
        frozen = [params.layers[i].weight.copy() for i in range(len(params.layers) - 1)]
        protos_before = {c: em.get(c).quantized.copy() for c in em.class_ids()}
        finetune_fcr(params, am, em, FinetuneConfig(epochs=5, sub_batch=3, lr=0.05))
        for i, w in enumerate(frozen):
            np.testing.assert_array_equal(params.layers[i].weight, w)
        for c, q in protos_before.items():
            np.testing.assert_array_equal(em.get(c).quantized, q)

    def test_single_class_alignment_improves_monotonically(self):
        params = net(11)
        em, am = fresh_memories(params)
        rng = np.random.default_rng(42)
        learn_class(em, am, params, rng.standard_normal((5, 8)), 0)
        target = bipolarize(em.get(0).quantized).astype(np.float64)

        def alignment():
            return cossim(forward_fcr(params, am.mean(0)), target)

        values = [alignment()]
        for _ in range(10):
            finetune_fcr(params, am, em, FinetuneConfig(epochs=1, sub_batch=1, lr=0.05))
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
        params, em, am = self.setup_state(4)
        ids = sorted(em.class_ids())
        inputs = np.stack([am.mean(c) for c in ids])
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
        params, em, am = self.setup_state(8)
        oracle = copy.deepcopy(params)
        cfg = FinetuneConfig(epochs=4, sub_batch=sub_batch, lr=0.05)
        assert finetune_fcr(params, am, em, cfg) == finetune_fcr_per_row(oracle, am, em, cfg)
        assert params_checksum(params) == params_checksum(oracle)

    def test_results_are_pinned(self):
        # the loss history and the trained projection, recorded before the
        # activation memory became optional
        params, em, am = self.setup_state(3)
        history = finetune_fcr(params, am, em, FinetuneConfig(epochs=5, sub_batch=4, lr=0.05))
        assert history == [
            0.7322664147636346, 0.4861406441750785, 0.4382386291270083,
            0.42226889420177494, 0.40925713542403075,
        ]
        assert hashlib.sha256(params_checksum(params)).hexdigest() == (
            "34c5e30113af2eeb2c627c59e9e9cf89400a74197ec9ad6581907799372c5852"
        )

    def test_misaligned_memories(self):
        params, em, am = self.setup_state(5)
        am.add_batch(99, np.ones(params.d_a))
        with pytest.raises(MisalignedMemoriesError):
            finetune_fcr(params, am, em, FinetuneConfig(epochs=1, sub_batch=2, lr=0.1))

    def test_loss_history_length(self):
        params, em, am = self.setup_state(6)
        history = finetune_fcr(params, am, em, FinetuneConfig(epochs=7, sub_batch=2, lr=0.01))
        assert len(history) == 7


class TestActivationMemorySnapshot:
    def test_round_trip(self, tmp_path):
        am = ActivationMemory(5)
        rng = np.random.default_rng(12)
        am.add_batch(3, rng.standard_normal((4, 5)))
        am.add_batch(8, rng.standard_normal((2, 5)))
        path = tmp_path / "mem.ofam"
        save_actmem(am, path)
        back = load_actmem(path)
        assert back.class_ids() == am.class_ids()
        for c in am.class_ids():
            np.testing.assert_array_equal(back.mean(c), am.mean(c))
        assert back.counts.tolist() == am.counts.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 2**31)),
            max_size=5,
            unique_by=lambda c: c[0],
        ),
    )
    def test_round_trip_any_ids_widths_and_shots(self, tmp_path_factory, d_a, classes):
        am = ActivationMemory(d_a)
        for cid, shots, seed in classes:
            am.add_batch(cid, np.random.default_rng(seed).standard_normal((shots, d_a)))
        path = tmp_path_factory.mktemp("ofam") / "mem.ofam"
        save_actmem(am, path)
        back = load_actmem(path)
        assert back.d_a == d_a and back.class_ids() == am.class_ids()
        for c in am.class_ids():
            np.testing.assert_array_equal(back.mean(c), am.mean(c))
        save_actmem(back, path.with_suffix(".again"))
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()

    def test_bytes_per_entry_and_header(self, tmp_path):
        # header: magic, version, count, d_a, 64 bits, shift 0; per class:
        # id, shot count, then each running sum as a little-endian float64
        am = ActivationMemory(2)
        am.add_batch(9, [[0.5, -1.0], [1.5, 2.0]])
        am.add_batch(4, [-0.25, 3.0])
        path = tmp_path / "w.ofam"
        save_actmem(am, path)
        blob = path.read_bytes()
        assert blob[:4] == b"OFAM"
        assert np.frombuffer(blob[4:24], "<u4").tolist() == [1, 2, 2, 64, 0]
        assert blob[24:] == (
            struct.pack("<II2d", 9, 2, 2.0, 1.0) + struct.pack("<II2d", 4, 1, -0.25, 3.0)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ofam"
        path.write_bytes(b"HUH?" + bytes(24))
        with pytest.raises(MalformedFileError):
            load_actmem(path)

    @pytest.mark.parametrize("shift,value", [(7, 1.0), (0, np.nan), (0, np.inf), (0, -np.inf)],
                             ids=["shift_7", "nan_sum", "inf_sum", "minus_inf_sum"])
    def test_load_refuses_a_shift_or_sum_save_cannot_write(self, tmp_path, shift, value):
        # save_actmem writes shift 0 and the running sums of finite activations
        path = tmp_path / "x.ofam"
        head = struct.pack("<IIIII", 1, 1, 2, 64, shift)
        path.write_bytes(b"OFAM" + head + struct.pack("<II2d", 3, 1, value, 0.5))
        with pytest.raises(MalformedFileError):
            load_actmem(path)
