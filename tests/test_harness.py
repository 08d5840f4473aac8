import copy
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    base_scores_per_stage,
    ortho_strength_sweep,
    protocol_stage_features,
    run_protocol_per_stage,
)
from protomem import harness
from protomem.backbone import forward_backbone, forward_fcr, init_model, params_checksum
from protomem.data import SessionStream, split_fscil
from protomem.errors import (
    ConflictingFlagsError,
    InsufficientSamplesError,
    NumericFailureError,
    SettingValueError,
)
from protomem.harness import (
    TrainRecipe,
    ablation_matrix,
    extract_features,
    forgetting_metrics,
    make_blob_dataset,
    run_protocol,
    train_pipeline,
    validate_stream,
)
from protomem.memory import ActivationMemory, QuantSpec, classify
from protomem.offline import MetaConfig, build_base_em, metalearn
from protomem.online import FinetuneConfig


def desk_stream(seed=0, classes=9, base=5, ways=2, shots=3, sessions=2):
    ds = make_blob_dataset(classes, 20, grid=8, seed=seed)
    return split_fscil(
        ds, base, ways, shots, per_class_cap=12, test_per_class=5,
        seed=seed, sessions=sessions,
    )


def desk_params(stream, seed=0):
    return init_model([stream.base.input_dim, 24, 16, 8], seed=seed)


def test_extracted_features_start_on_a_64_byte_boundary():
    # classify_batch scores a batch that starts mid cache line about 17%
    # slower, and the sweep and the CLI score these features
    stream = desk_stream()
    params = desk_params(stream)
    for rows in (1, 2, 3, len(stream.test)):
        test = stream.test.take(range(rows))
        feats = extract_features(params, test)
        assert feats.ctypes.data % 64 == 0
        want = forward_fcr(params, forward_backbone(params, test.inputs))
        assert feats.tobytes() == want.tobytes()


class TestValidateStream:
    def test_well_formed(self):
        assert validate_stream(desk_stream()) == []

    def test_duplicated_class_named(self):
        stream = desk_stream()
        bad = SessionStream(
            stream.base,
            [stream.sessions[0], stream.sessions[0]],
            stream.ways,
            stream.shots,
            stream.test,
        )
        violations = validate_stream(bad)
        assert violations
        dup_id = stream.sessions[0].class_ids()[0]
        assert any(f"class {dup_id}" in v for v in violations)

    def test_wrong_shot_count(self):
        stream = desk_stream()
        s0 = stream.sessions[0]
        trimmed = s0.take(np.arange(len(s0) - 1))  # drop one sample
        bad = SessionStream(stream.base, [trimmed, stream.sessions[1]],
                            stream.ways, stream.shots, stream.test)
        assert any("expected 3" in v for v in validate_stream(bad))

    def test_wrong_way_count(self):
        stream = desk_stream()
        s0 = stream.sessions[0]
        one_class = s0.subset_by_classes(s0.class_ids()[:1])
        bad = SessionStream(stream.base, [one_class], stream.ways, stream.shots, stream.test)
        assert any("classes, expected 2" in v for v in validate_stream(bad))

    def test_missing_test_coverage(self):
        stream = desk_stream()
        test_wo_base = stream.test.subset_by_classes(
            [c for c in stream.test.class_ids() if c != 0]
        )
        bad = SessionStream(stream.base, stream.sessions, stream.ways, stream.shots, test_wo_base)
        assert any("class 0 has no test samples" in v for v in validate_stream(bad))


def without_test_rows(stream):
    return replace(stream, test=stream.test.subset_by_classes([]))


def must_not_run(*_args, **_kwargs):
    raise AssertionError("ran before the bad input was refused")


SMALL_FT = FinetuneConfig(epochs=3, sub_batch=2, lr=0.05)


class TestRunProtocol:
    def test_empty_test_set_refused_before_the_memory_is_built(self, monkeypatch):
        stream = without_test_rows(desk_stream())
        monkeypatch.setattr(harness, "build_base_em", must_not_run)
        with pytest.raises(SettingValueError, match="test set is empty.*test_per_class"):
            run_protocol(desk_params(stream), stream, QuantSpec())

    def test_test_set_without_base_rows_refused_before_the_memory_is_built(self, monkeypatch):
        stream = desk_stream()
        novel = [c for c in stream.test.class_ids() if c not in stream.base.class_ids()]
        stream = replace(stream, test=stream.test.subset_by_classes(novel))
        monkeypatch.setattr(harness, "build_base_em", must_not_run)
        base_ids = str(stream.base.class_ids())
        with pytest.raises(InsufficientSamplesError, match=re.escape(base_ids)):
            run_protocol(desk_params(stream), stream, QuantSpec())

    @pytest.mark.parametrize("kind,ft_cfg", [
        ("plain", None), ("finetune", SMALL_FT), ("zero sessions", None),
    ])
    def test_matches_the_per_stage_oracle(self, kind, ft_cfg):
        stream = desk_stream(13)
        if kind == "zero sessions":
            stream = replace(stream, sessions=[])
        params, twin = desk_params(stream, 13), desk_params(stream, 13)
        got = run_protocol(params, stream, QuantSpec(), ft_cfg)
        want = run_protocol_per_stage(twin, stream, QuantSpec(), ft_cfg)
        assert got == want
        assert params_checksum(params) == params_checksum(twin)

    @pytest.mark.parametrize("ft_cfg,built", [(None, 0), (SMALL_FT, 1)])
    def test_activation_memory_is_built_only_to_finetune(self, monkeypatch, ft_cfg, built):
        made = []
        init = ActivationMemory.__init__

        def spy(self, d_a):
            made.append(d_a)
            init(self, d_a)

        monkeypatch.setattr(ActivationMemory, "__init__", spy)
        stream = desk_stream(15)
        params = desk_params(stream, 15)
        run_protocol(params, stream, QuantSpec(), ft_cfg)
        assert made == [params.d_a] * built

    @pytest.mark.parametrize("finetune", [False, True])
    def test_extracts_each_row_once(self, finetune):
        stream = desk_stream(14)
        params = desk_params(stream, 14)
        run_protocol(params, stream, QuantSpec(), SMALL_FT if finetune else None)
        rows = len(stream.base) + sum(len(s) for s in stream.sessions)
        assert params.forward_calls == rows + len(stream.test)

    def test_zero_sessions(self):
        stream = desk_stream()
        solo = SessionStream(stream.base, [], stream.ways, stream.shots, stream.test)
        params = desk_params(stream)
        report = run_protocol(params, solo, QuantSpec())
        assert len(report.session_accuracies) == 1
        assert report.average == report.session_accuracies[0]

    def test_report_average_is_mean(self):
        stream = desk_stream()
        params = desk_params(stream)
        report = run_protocol(params, stream, QuantSpec())
        assert abs(report.average - np.mean(report.session_accuracies)) < 1e-12

    def test_coverage_audit(self, monkeypatch):
        # each stage scores exactly the test rows of the classes seen so far
        stream = desk_stream()
        params = desk_params(stream)
        staged = protocol_stage_features(monkeypatch, params, stream, QuantSpec())
        assert len(staged) == 1 + len(stream.sessions)
        for t, feats in enumerate(staged):
            subset = stream.test.subset_by_classes(stream.classes_through(t))
            assert feats.tobytes() == extract_features(params, subset).tobytes()

    def test_base_scores_bitwise_stable_across_sessions(self):
        stream = desk_stream(3)
        params = desk_params(stream, 3)
        feats = extract_features(params, stream.test.take(range(4)))
        first, *later = base_scores_per_stage(params, stream, QuantSpec(), feats)
        assert len(later) == len(stream.sessions)
        for scores in later:
            assert scores.tobytes() == first.tobytes()

    def test_base_scores_bitwise_stable_with_3_bit_prototypes(self):
        # new classes are reduced to 3 bits as they arrive; the base rows
        # they join must still score the same
        stream = desk_stream(3)
        params = desk_params(stream, 3)
        feats = extract_features(params, stream.test.take(range(4)))
        quant = QuantSpec(prototype_bits=3)
        first, *later = base_scores_per_stage(params, stream, quant, feats)
        assert len(later) == len(stream.sessions)
        for scores in later:
            assert scores.tobytes() == first.tobytes()

    def test_finetune_changes_projection(self):
        stream = desk_stream(4)
        params = desk_params(stream, 4)
        twin = copy.deepcopy(params)
        run_protocol(params, stream, QuantSpec())
        checksum_plain = params_checksum(params)
        run_protocol(twin, stream, QuantSpec(), finetune=SMALL_FT)
        assert params_checksum(twin) != checksum_plain
        # extractor still frozen even with finetuning
        fresh = desk_params(stream, 4)
        for i in range(len(twin.layers) - 1):
            np.testing.assert_array_equal(twin.layers[i].weight, fresh.layers[i].weight)

    def test_disabled_learning_control(self):
        # control: base memory only; novel classes score zero, base unchanged
        stream = desk_stream(5)
        params = desk_params(stream, 5)
        em, _ = build_base_em(params, stream.base, QuantSpec())
        base_ids = set(stream.base.class_ids())
        feats = extract_features(params, stream.test)
        novel_hits = base_hits = base_total = 0
        for row, lab in zip(feats, stream.test.labels):
            pred, _ = classify(em, row)
            if int(lab) in base_ids:
                base_hits += int(pred == lab)
                base_total += 1
            else:
                novel_hits += int(pred == lab)
        assert novel_hits == 0
        full_report = run_protocol(params, stream, QuantSpec())
        assert full_report.session_accuracies[0] == base_hits / base_total

    def test_rerun_bitwise_reproducible(self):
        stream = desk_stream(6)
        a = run_protocol(desk_params(stream, 6), stream, QuantSpec())
        b = run_protocol(desk_params(stream, 6), stream, QuantSpec())
        assert a.session_accuracies == b.session_accuracies
        assert a.average == b.average


class TestForgetting:
    def test_no_sessions_no_drop(self):
        stream = desk_stream()
        solo = SessionStream(stream.base, [], stream.ways, stream.shots, stream.test)
        report = run_protocol(desk_params(stream), solo, QuantSpec())
        drops = forgetting_metrics(report.base_class_accuracies)
        assert drops == [0.0]

    def test_frozen_scores_attribute_drop_to_competition(self):
        stream = desk_stream(7)
        params = desk_params(stream, 7)
        report = run_protocol(params, stream, QuantSpec())
        drops = forgetting_metrics(report.base_class_accuracies)
        assert drops[0] == 0.0
        # base-class scores never move, so any drop can only come from new
        # prototypes winning the argmax
        feats = extract_features(params, stream.test.take(range(3)))
        first, *later = base_scores_per_stage(params, stream, QuantSpec(), feats)
        for scores in later:
            assert scores.tobytes() == first.tobytes()

    def test_adversarial_duplicate_prototypes_cause_drop(self):
        stream = desk_stream(8)
        params = desk_params(stream, 8)
        em, _ = build_base_em(params, stream.base, QuantSpec())
        base_ids = stream.base.class_ids()
        base_test = stream.test.subset_by_classes(base_ids)
        feats = extract_features(params, base_test)

        def base_accuracy():
            hits = sum(int(classify(em, f)[0] == l) for f, l in zip(feats, base_test.labels))
            return hits / len(base_test)

        before = base_accuracy()
        # adversary: near-duplicates of every base prototype under new ids
        rng = np.random.default_rng(0)
        for i, cid in enumerate(base_ids):
            src = em.get(cid)
            jitter = rng.integers(-2, 3, size=src.accum.shape)
            em.add_accumulated(1000 + i, src.accum + jitter, src.count)
        after = base_accuracy()
        assert before - after > 0


class TestAblation:
    def recipe(self):
        return TrainRecipe(
            hidden=(24, 16), d_p=8, pretrain_epochs=4, pretrain_lr=0.01,
            batch_size=32, meta=MetaConfig(iterations=4, query_batch=16),
            finetune=FinetuneConfig(epochs=2), seed=3,
        )

    def test_pretraining_that_diverges_is_refused(self):
        # at pretrain_lr=0.05 the per-sample CE runs 6.44, 2.05e3, 3.91e8
        # and 1.99e9 while train accuracy stays at chance; the recipe's rate
        # converges
        stream = desk_stream(12, classes=7, base=5, ways=1, sessions=1)
        with pytest.raises(NumericFailureError, match="diverged: epoch 1 mean CE 2.05e"):
            harness.pretrain_model(stream.base, replace(self.recipe(), pretrain_lr=0.05))
        _, history = harness.pretrain_model(stream.base, self.recipe())
        ce = [row[1] for row in history]
        assert ce[-1] < ce[0]

    def test_flag_rows_differ_only_in_augmentation(self):
        # without OR both rows pretrain with no orthogonality term; AG
        # keeps the recipe's augmentation rate
        stream = desk_stream(9, classes=7, base=5, ways=1, sessions=2)
        recipe = self.recipe()
        rows = ablation_matrix(stream, [set(), {"AG"}], recipe)
        assert [label for label, _ in rows] == ["none", "AG"]
        for (flags, mix), (_, report) in zip([(set(), 0.0), ({"AG"}, 0.4)], rows):
            params, again = train_pipeline(stream, recipe, flags)
            loss = replace(recipe.loss, lambda_ortho=0.0, mix_probability=mix)
            want, _ = harness.pretrain_model(stream.base, replace(recipe, loss=loss))
            assert params_checksum(params) == params_checksum(want)
            assert again == report

    @pytest.mark.parametrize("row,label", [
        ([], "none"),
        (["FT"], "FT"),
        (["OR", "AG"], "AG+OR"),
        (["MM", "AG", "AG"], "AG+MM"),
        (("OR", "FT", "CE", "AG"), "AG+CE+FT+OR"),
    ], ids=["empty", "one", "unsorted", "repeated", "four"])
    def test_row_label_joins_the_sorted_flags(self, monkeypatch, row, label):
        stream = desk_stream(10, classes=7, base=5, ways=1, sessions=2)
        seen = []
        monkeypatch.setattr(
            harness, "train_pipeline", lambda s, r, flags: seen.append(flags) or (None, "report")
        )
        assert ablation_matrix(stream, [row], self.recipe()) == [(label, "report")]
        assert seen == [set(row)]

    def test_metalearn_model_seeds_two_past_the_recipe(self):
        stream = desk_stream(12, classes=7, base=5, ways=1, sessions=1)
        recipe = self.recipe()
        params = desk_params(stream, 12)
        twin, other = copy.deepcopy(params), copy.deepcopy(params)
        got, history = harness.metalearn_model(params, stream.base, recipe)
        _, want = metalearn(twin, stream.base, recipe.meta, seed=recipe.seed + 2)
        metalearn(other, stream.base, recipe.meta, seed=recipe.seed)
        assert got is params and history == want
        assert params_checksum(params) == params_checksum(twin)
        assert params_checksum(params) != params_checksum(other)

    def test_empty_test_set_refused_before_training(self, monkeypatch):
        stream = without_test_rows(desk_stream(9, classes=7, base=5, ways=1, sessions=2))
        monkeypatch.setattr(harness, "pretrain_model", must_not_run)
        with pytest.raises(SettingValueError, match="test set is empty.*test_per_class"):
            ablation_matrix(stream, [set(), {"FT"}], self.recipe())
        with pytest.raises(SettingValueError, match="test set is empty.*test_per_class"):
            train_pipeline(stream, self.recipe(), {"FT"})

    def test_test_set_without_base_rows_refused_before_training(self, monkeypatch):
        stream = desk_stream(9, classes=7, base=5, ways=1, sessions=2)
        novel = [c for c in stream.test.class_ids() if c not in stream.base.class_ids()]
        stream = replace(stream, test=stream.test.subset_by_classes(novel))
        monkeypatch.setattr(harness, "pretrain_model", must_not_run)
        base_ids = re.escape(str(stream.base.class_ids()))
        with pytest.raises(InsufficientSamplesError, match=base_ids):
            ablation_matrix(stream, [set(), {"FT"}], self.recipe())
        with pytest.raises(InsufficientSamplesError, match=base_ids):
            train_pipeline(stream, self.recipe(), {"MM"})

    def test_conflicting_flags(self):
        stream = desk_stream(10, classes=7, base=5, ways=1, sessions=2)
        with pytest.raises(ConflictingFlagsError):
            train_pipeline(stream, self.recipe(), {"MM", "CE"})

    def test_unknown_flag(self):
        stream = desk_stream(10, classes=7, base=5, ways=1, sessions=2)
        with pytest.raises(ConflictingFlagsError):
            train_pipeline(stream, self.recipe(), {"XX"})

    @pytest.mark.parametrize("bad", [{"XX"}, {"MM", "CE"}], ids=["unknown", "MM+CE"])
    def test_every_row_checked_before_the_first_trains(self, monkeypatch, bad):
        stream = desk_stream(10, classes=7, base=5, ways=1, sessions=2)
        calls = []
        real = harness.pretrain_model
        monkeypatch.setattr(harness, "pretrain_model", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ConflictingFlagsError):
            ablation_matrix(stream, [{"AG"}, bad], self.recipe())
        assert calls == []

    def test_row_uses_recipe_quantization(self):
        stream = desk_stream(10, classes=7, base=5, ways=1, sessions=1)
        recipe = replace(self.recipe(), quant=QuantSpec(feature_bits=6, prototype_bits=4))
        params, report = train_pipeline(stream, recipe, set())
        assert report == run_protocol(params, stream, recipe.quant)
        assert report != run_protocol(params, stream, QuantSpec())

    def test_ce_row_produces_report(self):
        stream = desk_stream(11, classes=7, base=5, ways=1, sessions=2)
        rows = ablation_matrix(stream, [{"AG", "OR", "CE"}], self.recipe())
        label, report = rows[0]
        assert label == "AG+CE+OR"
        assert len(report.session_accuracies) == 3
        assert all(0 <= a <= 1 for a in report.session_accuracies)


class TestOrthoStrengthSweep:
    def test_rows_and_monotone_pressure(self):
        stream = desk_stream(12, classes=7, base=5, ways=1, sessions=2)
        recipe = TrainRecipe(hidden=(24, 16), d_p=8, pretrain_epochs=6,
                             batch_size=16, seed=4)
        rows = ortho_strength_sweep(stream, recipe, strengths=(0.0, 0.1))
        assert [r[0] for r in rows] == [0.0, 0.1]
        for _, acc, off in rows:
            assert 0 <= acc <= 1 and 0 <= off <= 1
        # stronger pressure, lower held-out off-diagonal Gram mass
        assert rows[1][2] < rows[0][2]


class TestSyntheticData:
    def test_blob_dataset_shape_and_range(self):
        ds = make_blob_dataset(5, 7, grid=8, seed=1)
        assert len(ds) == 35
        assert ds.input_dim == 64
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_blob_dataset_seeded(self):
        a = make_blob_dataset(4, 5, grid=8, seed=2)
        b = make_blob_dataset(4, 5, grid=8, seed=2)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        c = make_blob_dataset(4, 5, grid=8, seed=3)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_blobs_are_learnable(self):
        # nearest-class-mean in pixel space should beat chance comfortably
        # at the desk-default resolution
        ds = make_blob_dataset(6, 30, grid=16, seed=4)
        means = {c: ds.inputs[ds.indices_of(c)].mean(axis=0) for c in ds.class_ids()}
        hits = 0
        for row, lab in zip(ds.inputs, ds.labels):
            best = min(means, key=lambda c: float(((row - means[c]) ** 2).sum()))
            hits += int(best == lab)
        assert hits / len(ds) > 0.9
