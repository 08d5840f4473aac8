import copy
import itertools
import math
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ConcatRows, assert_same_bits, held_nbytes, learn_class_oracles
from protomem import memory
from protomem.backbone import forward_backbone, forward_fcr, init_model
from protomem.errors import (
    ClassIdRangeError,
    DuplicateClassError,
    EmptyMemoryError,
    EmptySampleSetError,
    MalformedFileError,
    NonFiniteValueError,
    OverflowAfterShiftError,
    ShapeMismatchError,
    ZeroNormError,
)
from protomem.memory import (
    ActivationMemory,
    ExplicitMemory,
    QuantSpec,
    bipolarize,
    classify,
    classify_batch,
    em_memory_bytes,
    load_actmem,
    load_em,
    precision_sweep,
    quantize_feature,
    quantize_rows,
    reduce_rows,
    save_actmem,
    save_em,
)
from protomem.numerics import cossim
from protomem.online import learn_class


def shift_for(values, bits):
    """The right shift that `reduce_rows` gives one accumulator."""
    return int(reduce_rows(np.array([values], dtype=np.int64), bits)[1][0])


def brute_force_argmax(query, id_vectors):
    """Independent cosine oracle on full-precision accumulators."""
    best_id, best = None, -np.inf
    for cid, vec in id_vectors:
        v = np.asarray(vec, dtype=np.float64)
        s = float(v @ query) / (np.linalg.norm(v) * np.linalg.norm(query))
        if s > best:
            best, best_id = s, cid
    return best_id


class TestQuantizeFeature:
    def test_extremes_map_to_range_ends(self):
        q = quantize_feature([1.0, -1.0], 8)
        np.testing.assert_array_equal(q.values, [127, -127])
        assert q.scale == pytest.approx(1.0 / 127.0)
        assert not q.degenerate

    def test_zero_vector_flagged(self):
        q = quantize_feature([0.0, 0.0, 0.0], 8)
        np.testing.assert_array_equal(q.values, 0)
        assert q.scale == 1.0
        assert q.degenerate

    def test_reconstruction_error_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dim = int(rng.integers(1, 32))
            x = rng.standard_normal(dim) * rng.uniform(0.01, 100)
            q = quantize_feature(x, 8)
            recon = q.values * q.scale
            assert np.all(np.abs(recon - x) <= q.scale / 2 + 1e-12)

    def test_values_fit_bit_width(self):
        rng = np.random.default_rng(3)
        for bits in (2, 4, 8, 16):
            lim = (1 << (bits - 1)) - 1
            for _ in range(50):
                x = rng.standard_normal(16) * 10
                q = quantize_feature(x, bits)
                assert q.values.max() <= lim and q.values.min() >= -lim - 1


class TestQuantizeRows:
    """`quantize_rows` is the per-row loop of `quantize_feature`, batched."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 32),
        st.integers(1, 24),
        st.lists(
            st.one_of(
                st.sampled_from(["zero", "negative_peak", np.nan, np.inf, -np.inf]),
                st.floats(1e-6, 1e6),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_row_quantize_feature(self, bits, d, kinds, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for kind in kinds:
            if kind == "zero":
                row = np.zeros(d)  # degenerate: no scale
            elif kind == "negative_peak":
                row = rng.standard_normal(d)
                row[rng.integers(d)] = -2.0 * np.abs(row).max() - 1.0
            elif not np.isfinite(kind):
                row = rng.standard_normal(d)
                row[rng.integers(d)] = kind
            else:
                row = rng.standard_normal(d) * kind
            rows.append(row)
        if not np.all(np.isfinite(rows)):
            with pytest.raises(NonFiniteValueError):
                quantize_rows(np.stack(rows), bits)
            bad = next(row for row in rows if not np.all(np.isfinite(row)))
            with pytest.raises(NonFiniteValueError):
                quantize_feature(bad, bits)
            return
        got = quantize_rows(np.stack(rows), bits)
        assert got.values.dtype == np.int64 and got.values.shape == (len(rows), d)
        for i, row in enumerate(rows):
            one = quantize_feature(row, bits)
            assert got.values[i].tolist() == one.values.tolist()
            assert got.scale[i] == one.scale
            assert bool(got.degenerate[i]) == one.degenerate

    def test_peak_on_a_negative_entry_reaches_the_range_end(self):
        q = quantize_rows([[-4.0, 1.0, 2.0], [0.0, -0.0, 0.0]], 4)
        assert q.values.tolist() == [[-7, 2, 4], [0, 0, 0]]
        assert q.scale.tolist() == [4.0 / 7.0, 1.0]
        assert q.degenerate.tolist() == [False, True]

    def test_learn_class_refuses_a_non_finite_shot_writing_neither_memory(self):
        params = init_model([8, 6, 4], seed=0)
        em, am = ExplicitMemory(params.d_p), ActivationMemory(params.d_a)
        shots = np.ones((5, 8))
        shots[3, 0] = np.nan
        with pytest.raises(NonFiniteValueError):
            learn_class(em, am, params, shots, 0)
        assert len(em) == len(am) == 0


class TestChooseShift:
    """The shift rule of `reduce_rows`."""

    def test_paper_vector_17bit_to_8bit(self):
        assert shift_for([65535, -100, 3], 8) == 9

    def test_already_fits(self):
        assert shift_for([3, -2, 1], 8) == 0

    def test_minimal_and_fitting_exhaustive(self):
        limit8 = (1 << 7) - 1
        for peak in list(range(0, 4096, 7)) + [2**20, 2**20 - 1, 65535, 65536]:
            s = shift_for([peak, -1, 0], 8)
            assert (peak >> s) <= limit8
            if s > 0:
                assert (peak >> (s - 1)) > limit8

    @given(st.integers(0, 2**40), st.integers(2, 20))
    def test_invariant_random(self, peak, bits):
        s = shift_for([peak], bits)
        lim = (1 << (bits - 1)) - 1
        assert (peak >> s) <= lim
        assert s == 0 or (peak >> (s - 1)) > lim


class TestReducePrecision:
    """Storing a class through `add_accumulated`, which reduces by `reduce_rows`."""

    def test_identity_when_wide(self):
        em = ExplicitMemory(3, QuantSpec(prototype_bits=16))
        em.add_accumulated(0, [100, -50, 3], 1)
        np.testing.assert_array_equal(em.get(0).quantized, [100, -50, 3])
        assert em.get(0).scale_shift == 0

    def test_negative_rounds_toward_minus_inf(self):
        em = ExplicitMemory(3, QuantSpec(prototype_bits=8))
        em.add_accumulated(0, [-1, -1000, 65535], 1)
        assert em.get(0).scale_shift == 9
        np.testing.assert_array_equal(em.get(0).quantized, [-1, -2, 127])

    def test_preserves_accumulator(self):
        em = ExplicitMemory(3, QuantSpec(prototype_bits=8))
        em.add_accumulated(0, [512, -512, 7], 4)
        proto = em.get(0)
        assert proto.scale_shift == 3
        np.testing.assert_array_equal(proto.quantized, [64, -64, 0])
        np.testing.assert_array_equal(proto.accum, [512, -512, 7])
        assert proto.count == 4

    def test_view_is_read_only(self):
        em = ExplicitMemory(2, QuantSpec())
        em.add_accumulated(0, [5, -6], 1)
        with pytest.raises(ValueError):
            em.get(0).accum[0] = 1
        with pytest.raises(ValueError):
            em.get(0).quantized[0] = 1
        assert em.accum.tolist() == em.reduced.tolist() == [[5, -6]]

    def test_decision_agreement_at_8_bits(self):
        # 50 classes x 200 queries: at least 99% of argmax decisions match
        # the full-precision classifier after reduction to 8 bits
        rng = np.random.default_rng(2024)
        d_p = 32
        em = ExplicitMemory(d_p, QuantSpec())
        for cid in range(50):
            accum = rng.integers(-60000, 60000, size=d_p, dtype=np.int64)
            em.add_accumulated(cid, accum, 5)
        em8 = em.rebuilt_at_bits(8)
        agree = 0
        for _ in range(200):
            q = rng.standard_normal(d_p)
            full, _ = classify(em, q)
            red, _ = classify(em8, q)
            agree += int(full == red)
        assert agree / 200 >= 0.99


class TestBipolarize:
    def test_signs_with_zero_positive(self):
        np.testing.assert_array_equal(bipolarize([0.5, -2.0, 0.0]), [1, -1, 1])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        once = bipolarize(x)
        np.testing.assert_array_equal(bipolarize(once), once)

    def test_positive_alignment(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(16)
            if np.any(np.abs(x) < 1e-9):
                continue
            b = bipolarize(x).astype(np.float64)
            assert float(b @ x) > 0


class TestClassify:
    def em_two_axes(self):
        em = ExplicitMemory(2, QuantSpec())
        em.add_accumulated(0, [1, 0], 1)
        em.add_accumulated(1, [0, 1], 1)
        return em

    def test_axis_query(self):
        cid, scores = classify(self.em_two_axes(), [1.0, 0.0])
        assert cid == 0
        np.testing.assert_allclose(scores, [1.0, 0.0], atol=1e-15)

    def test_tie_breaks_to_smallest_id(self):
        cid, scores = classify(self.em_two_axes(), [1.0, 1.0])
        assert cid == 0
        assert scores[0] == scores[1]

    def test_empty_memory(self):
        with pytest.raises(EmptyMemoryError):
            classify(ExplicitMemory(2, QuantSpec()), [1.0, 0.0])

    def test_zero_query(self):
        with pytest.raises(ZeroNormError):
            classify(self.em_two_axes(), [0.0, 0.0])

    def test_duplicate_class_rejected(self):
        em = self.em_two_axes()
        with pytest.raises(DuplicateClassError):
            em.add_accumulated(0, [1, 1], 1)

    def test_matches_brute_force_at_full_precision(self):
        rng = np.random.default_rng(99)
        d_p = 24
        em = ExplicitMemory(d_p, QuantSpec())
        vectors = []
        for cid in range(10):
            accum = rng.integers(-30000, 30000, size=d_p, dtype=np.int64)
            em.add_accumulated(cid, accum, 3)
            vectors.append((cid, accum))
        for _ in range(100):
            q = rng.standard_normal(d_p)
            got, _ = classify(em, q)
            assert got == brute_force_argmax(q, vectors)

    def test_scale_invariant_query(self):
        em = self.em_two_axes()
        q = np.array([0.3, 0.7])
        cid1, s1 = classify(em, q)
        cid2, s2 = classify(em, 1000.0 * q)
        assert cid1 == cid2
        np.testing.assert_allclose(s1, s2, atol=1e-12)


class TestClassifyBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.sampled_from([1, 2, 7, 32, 96, 256, 257]),
        st.integers(1, 32),
        st.integers(0, 2**32 - 1),
    )
    def test_scores_bitwise_equal_cossim_reference(self, n_classes, d_p, bits, seed):
        rng = np.random.default_rng(seed)
        em = ExplicitMemory(d_p, QuantSpec())
        ids = rng.permutation(1000)[:n_classes]  # inserted out of order
        for cid in ids:
            accum = rng.integers(-(2**20), 2**20, size=d_p, dtype=np.int64)
            draw = rng.random()
            if draw < 0.15:
                accum[:] = 0
            elif draw < 0.4 and len(em):
                accum = em.accum[rng.integers(len(em))].copy()  # forces ties
            em.add_accumulated(int(cid), accum, 1)
        em_b = em.rebuilt_at_bits(bits)
        queries = rng.standard_normal((9, d_p)) * rng.uniform(1e-3, 1e3)
        preds, scores = classify_batch(em_b, queries)
        assert scores.shape == (9, n_classes)
        for q, pred, row in zip(queries, preds, scores):
            ref = [
                cossim(q, p) if np.any(p) else 0.0
                for p in em_b.reduced.astype(np.float64)
            ]
            assert row.tolist() == ref
            best = max(ref)
            assert pred == min(c for c, s in zip(em_b.class_ids(), ref) if s == best)

    def test_tie_goes_to_smallest_id_not_first_column(self):
        em = ExplicitMemory(2, QuantSpec())
        em.add_accumulated(9, [3, 4], 1)
        em.add_accumulated(4, [3, 4], 1)
        em.add_accumulated(1, [0, 0], 1)
        preds, scores = classify_batch(em, [[3.0, 4.0], [-1.0, 0.0]])
        assert preds.tolist() == [4, 1]  # a zero prototype's 0.0 beats negatives
        assert scores[1].tolist() == [-0.6, -0.6, 0.0]

    def test_classify_is_the_one_row_case(self):
        rng = np.random.default_rng(12)
        em = ExplicitMemory(16, QuantSpec())
        for cid in (7, 3, 11):
            em.add_accumulated(cid, rng.integers(-99, 99, size=16), 1)
        queries = rng.standard_normal((5, 16))
        preds, scores = classify_batch(em, queries)
        for q, pred, row in zip(queries, preds, scores):
            cid, one = classify(em, q)
            assert cid == pred
            assert one.tolist() == row.tolist()

    def test_query_whose_squared_norm_overflows(self):
        # 1e300**2 overflows: unscaled, the norm is inf and every score 0.0
        em = ExplicitMemory(4, QuantSpec())
        em.add_accumulated(3, [1, 2, 3, 4], 1)
        em.add_accumulated(1, [-4, 1, 0, 2], 1)
        protos = em.reduced.astype(np.float64)
        like_ones = [cossim(np.ones(4), p) for p in protos]
        finite = np.array([1.0, -2.0, 0.5, 3.0])
        with np.errstate(over="ignore"):
            preds, scores = classify_batch(em, [np.full(4, 1e300), finite])
        assert preds.tolist() == [3, 3]
        assert scores[0].tolist() == pytest.approx(like_ones, rel=1e-15)
        assert scores[1].tolist() == [cossim(finite, p) for p in protos]
        with np.errstate(over="ignore"):
            cid, one = classify(em, np.full(4, -1e300))
        assert cid == 1
        assert one.tolist() == pytest.approx([-s for s in like_ones], rel=1e-15)

    def test_overflowing_query_warns_nothing(self):
        em = ExplicitMemory(4, QuantSpec())
        em.add_accumulated(3, [1, 2, 3, 4], 1)
        em.add_accumulated(1, [-4, 1, 0, 2], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds, _ = classify_batch(em, np.full((1, 4), 1e300))
        assert preds.tolist() == [3]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([1, 2, 7, 32, 257]),
        st.lists(st.sampled_from([0.25, 0.5, 1 - 2**-52, 1.0, 1 + 2**-52, 2.0, 64.0, 2.0**300]),
                 min_size=1, max_size=8),
        st.integers(0, 2**32 - 1),
    )
    def test_peaks_either_side_of_the_rescale_limit(self, d_p, ratios, seed):
        # rows whose peak |entry| is above sqrt(DBL_MAX / (2d)) are scaled by a
        # power of two before scoring: a finite squared norm keeps every bit
        # of cossim, and an overflowing one scores like the scaled row
        rng = np.random.default_rng(seed)
        em = ExplicitMemory(d_p, QuantSpec())
        for cid in range(3):
            accum = rng.integers(-99, 99, size=d_p)
            em.add_accumulated(cid, np.zeros(d_p) if cid == 2 else accum, 1)
        protos = em.reduced.astype(np.float64)
        limit = math.sqrt(np.finfo(np.float64).max / (2 * d_p))
        queries = rng.standard_normal((len(ratios), d_p))
        queries *= limit * np.array(ratios)[:, None] / np.abs(queries).max(axis=1, keepdims=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, scores = classify_batch(em, queries)
        for q, row in zip(queries, scores):
            with np.errstate(over="ignore"):
                finite = math.isfinite(np.dot(q, q))
            if not finite:
                q = np.ldexp(q, -np.frexp(np.abs(q).max())[1])
            assert row.tolist() == [cossim(q, p) if np.any(p) else 0.0 for p in protos]

    def test_no_queries_give_empty_results(self):
        em = ExplicitMemory(2, QuantSpec())
        em.add_accumulated(0, [1, 0], 1)
        preds, scores = classify_batch(em, np.zeros((0, 2)))
        assert preds.shape == (0,) and scores.shape == (0, 1)

    def test_rejects_bad_queries(self):
        em = ExplicitMemory(2, QuantSpec())
        em.add_accumulated(0, [1, 0], 1)
        with pytest.raises(ZeroNormError):
            classify_batch(em, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ShapeMismatchError):
            classify_batch(em, [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            classify_batch(em, [[np.nan, 1.0]])


class TestScoringView:
    """`classify_batch` scores against `ExplicitMemory.scoring_view()`, which
    must follow every change of the memory."""

    @staticmethod
    def assert_scores_are_cossim(em, queries):
        _, scores = classify_batch(em, queries)
        for q, row in zip(queries, scores):
            ref = [cossim(q, p) if np.any(p) else 0.0 for p in em.reduced.astype(np.float64)]
            assert row.tolist() == ref
        return scores

    @staticmethod
    def learn(em, am, params, rng, cid):
        learn_class(em, am, params, rng.standard_normal((5, 8)) + rng.standard_normal(8), cid)

    def test_scores_follow_every_change(self, tmp_path):
        params = init_model([8, 6, 4], seed=3)
        rng = np.random.default_rng(11)
        queries = forward_fcr(params, forward_backbone(params, rng.standard_normal((6, 8))))
        em, am = ExplicitMemory(params.d_p), ActivationMemory(params.d_a)
        for cid in (5, 2):
            self.learn(em, am, params, rng, cid)
            self.assert_scores_are_cossim(em, queries)
        self.learn(em, am, params, rng, 9)
        self.assert_scores_are_cossim(em, queries)

        save_em(em, tmp_path / "em.ofem")
        self.assert_scores_are_cossim(load_em(tmp_path / "em.ofem"), queries)
        for bits in (1, 3, 8):
            self.assert_scores_are_cossim(em.rebuilt_at_bits(bits), queries)

        view, before = em.scoring_view(), self.assert_scores_are_cossim(em, queries)
        with pytest.raises(DuplicateClassError):
            self.learn(em, am, params, rng, 2)
        assert em.class_ids() == [5, 2, 9] and em.scoring_view() is view
        assert self.assert_scores_are_cossim(em, queries).tolist() == before.tolist()

        twin, twin_am = copy.deepcopy(em), copy.deepcopy(am)
        self.learn(twin, twin_am, params, rng, 4)
        assert self.assert_scores_are_cossim(twin, queries).shape == (6, 4)
        assert self.assert_scores_are_cossim(em, queries).tolist() == before.tolist()

    def test_view_is_read_only(self):
        em = ExplicitMemory(2)
        em.add_accumulated(7, [3, 4], 1)
        em.add_accumulated(2, [0, -2], 1)
        view = em.scoring_view()
        assert view.protos.tolist() == [[3.0, 4.0], [0.0, -2.0]]
        assert view.norms.tolist() == [5.0, 2.0] and view.by_id.tolist() == [1, 0]
        for array in view:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_prototypes_are_64_byte_aligned(self):
        # rows that start mid cache line split every wide load: scoring a
        # 100 x 256 memory took about 40% longer
        for classes in (1, 3, 100):
            em = ExplicitMemory(256)
            for cid in range(classes):
                em.add_accumulated(cid, np.arange(256) - cid, 1)
            for mem in (em, em.rebuilt_at_bits(3)):
                assert mem.scoring_view().protos.ctypes.data % 64 == 0

    def test_built_once_per_change(self, monkeypatch):
        built = []
        real = memory.row_norms

        def counting(x):
            if len(x) == len(em):  # the memory's rows, not a one-row query
                built.append(len(x))
            return real(x)

        monkeypatch.setattr(memory, "row_norms", counting)
        params = init_model([8, 6, 4], seed=4)
        rng = np.random.default_rng(12)
        em, am = ExplicitMemory(params.d_p), ActivationMemory(params.d_a)
        for cid in (0, 1, 2):
            self.learn(em, am, params, rng, cid)
        query = rng.standard_normal(params.d_p)
        classify(em, query)
        classify(em, query)
        assert built == [3]
        self.learn(em, am, params, rng, 3)
        classify(em, query)
        classify(em, query)
        assert built == [3, 4]


class TestMemoryAccounting:
    def test_paper_footprints(self):
        assert em_memory_bytes(100, 256, 3) == 9600
        assert em_memory_bytes(100, 256, 8) == 25600

    @given(st.integers(1, 500), st.integers(1, 1024), st.integers(1, 32))
    def test_ceil_formula(self, n, d, bits):
        import math

        assert em_memory_bytes(n, d, bits) == math.ceil(n * d * bits / 8)


class TestPrecisionSweep:
    def build_em(self, rng, n_classes=6, d_p=16):
        em = ExplicitMemory(d_p, QuantSpec())
        protos = []
        for cid in range(n_classes):
            accum = rng.integers(-40000, 40000, size=d_p, dtype=np.int64)
            em.add_accumulated(cid, accum, 4)
            protos.append(accum.astype(np.float64))
        return em, protos

    def test_full_precision_point_is_degenerate(self):
        rng = np.random.default_rng(5)
        em, protos = self.build_em(rng)
        feats = rng.standard_normal((60, 16))
        labels = np.array([brute_force_argmax(f, list(enumerate(protos))) for f in feats])
        points = precision_sweep(em, feats, labels, [32])
        base_hits = sum(
            int(classify(em, f)[0] == l) for f, l in zip(feats, labels)
        )
        assert points[0].accuracy == base_hits / 60

    def test_sweep_emits_requested_bits(self):
        rng = np.random.default_rng(6)
        em, protos = self.build_em(rng)
        feats = rng.standard_normal((20, 16))
        labels = np.zeros(20, dtype=np.int64)
        bits = [8, 7, 6, 5, 4, 3, 2, 1]
        points = precision_sweep(em, feats, labels, bits)
        assert [p.bits for p in points] == bits
        assert all(0.0 <= p.accuracy <= 1.0 for p in points)

    def test_one_bit_is_sign_vector(self):
        rng = np.random.default_rng(7)
        em, _ = self.build_em(rng)
        em1 = em.rebuilt_at_bits(1)
        for cid in em1.class_ids():
            np.testing.assert_array_equal(em1.get(cid).quantized, bipolarize(em.get(cid).accum))


class TestQuantSpec:
    def test_defaults(self):
        spec = QuantSpec()
        assert spec.feature_bits == 8
        assert spec.accum_bits == 32
        assert spec.prototype_bits == 32
        assert spec.max_shots == 256

    def test_headroom_invariant(self):
        with pytest.raises(ValueError):
            QuantSpec(feature_bits=30, accum_bits=32, max_shots=256)

    def test_prototype_bits_range(self):
        with pytest.raises(ValueError):
            QuantSpec(prototype_bits=33)
        with pytest.raises(ValueError):
            QuantSpec(prototype_bits=0)

    def test_no_accumulator_overflow_within_max_shots(self):
        # saturating-detect check: worst-case feature sums stay in 32 bits
        spec = QuantSpec()
        lim = (1 << (spec.feature_bits - 1)) - 1
        accum = np.zeros(4, dtype=np.int64)
        for _ in range(spec.max_shots):
            accum += np.array([lim, -lim, lim, -lim], dtype=np.int64)
            assert np.abs(accum).max() < (1 << (spec.accum_bits - 1))


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        em = ExplicitMemory(8, QuantSpec(prototype_bits=8))
        for cid in (2, 5, 9):
            accum = rng.integers(-30000, 30000, size=8, dtype=np.int64)
            em.add_accumulated(cid, accum, 7)
        path = tmp_path / "mem.ofem"
        save_em(em, path)
        loaded = load_em(path)
        assert loaded.class_ids() == em.class_ids()
        assert loaded.d_p == em.d_p
        for cid in em.class_ids():
            np.testing.assert_array_equal(loaded.get(cid).quantized, em.get(cid).quantized)
            assert loaded.get(cid).count == em.get(cid).count
        q = rng.standard_normal(8)
        assert classify(loaded, q)[0] == classify(em, q)[0]

    def test_round_trip_17_bit(self, tmp_path):
        em = ExplicitMemory(3, QuantSpec(prototype_bits=17))
        em.add_accumulated(0, [65535, -65535, 1], 1)
        path = tmp_path / "wide.ofem"
        save_em(em, path)
        loaded = load_em(path)
        np.testing.assert_array_equal(loaded.get(0).quantized, [65535, -65535, 1])

    def test_round_trip_64_bit(self, tmp_path):
        em = ExplicitMemory(3, QuantSpec(accum_bits=64, prototype_bits=64))
        em.add_accumulated(4, [2**62, -(2**63), 5], 2)
        path = tmp_path / "full.ofem"
        save_em(em, path)
        loaded = load_em(path)
        assert loaded.quant.prototype_bits == 64
        assert loaded.class_ids() == [4] and loaded.get(4).count == 2
        np.testing.assert_array_equal(loaded.get(4).quantized, [2**62, -(2**63), 5])

    def test_bytes_per_entry_and_header_shift(self, tmp_path):
        # header: magic, version, count, d_p, bits, largest shift; per class:
        # id, count, then each value in whole little-endian bytes
        em = ExplicitMemory(2, QuantSpec(prototype_bits=12))
        em.add_accumulated(7, [6000, -9], 2)  # shift 2: [1500, -3]
        em.add_accumulated(1, [-2047, 9], 1)  # shift 0
        path = tmp_path / "w.ofem"
        save_em(em, path)
        blob = path.read_bytes()
        assert blob[:4] == b"OFEM"
        assert np.frombuffer(blob[4:24], "<u4").tolist() == [1, 2, 2, 12, 2]
        assert blob[24:] == (
            (7).to_bytes(4, "little") + (2).to_bytes(4, "little")
            + (1500).to_bytes(2, "little", signed=True) + (-3).to_bytes(2, "little", signed=True)
            + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
            + (-2047).to_bytes(2, "little", signed=True) + (9).to_bytes(2, "little", signed=True)
        )
        np.testing.assert_array_equal(load_em(path).reduced, [[1500, -3], [-2047, 9]])

    def test_empty_memory_round_trip(self, tmp_path):
        path = tmp_path / "empty.ofem"
        save_em(ExplicitMemory(4, QuantSpec(prototype_bits=8)), path)
        assert path.read_bytes() == b"OFEM" + struct.pack("<IIIII", 1, 0, 4, 8, 0)
        loaded = load_em(path)
        assert len(loaded) == 0 and loaded.d_p == 4 and loaded.quant.prototype_bits == 8
        loaded.add_accumulated(3, [1, -2, 3, 0], 1)
        assert loaded.class_ids() == [3]

    @pytest.mark.parametrize("class_id", [-1, 2**32, 2**32 + 5])
    def test_ids_must_fit_u32(self, class_id):
        # the snapshot id column is u32: 2**32 + 5 would reload as 5
        em, am = ExplicitMemory(2), ActivationMemory(2)
        with pytest.raises(ClassIdRangeError):
            em.add_accumulated(class_id, [1, 2], 1)
        with pytest.raises(ClassIdRangeError):
            am.add_batch(class_id, [1.0, 2.0])
        assert len(em) == len(am) == 0

    def test_counts_must_be_positive(self):
        with pytest.raises(EmptySampleSetError):
            ExplicitMemory(2).add_accumulated(0, [1, 2], 0)
        with pytest.raises(EmptySampleSetError):
            ActivationMemory(2).add_batch(0, np.zeros((0, 2)))

    @pytest.mark.parametrize("count", [2**32, 2**32 + 3])
    def test_counts_must_fit_u32(self, count):
        # the snapshot count column is u32: 2**32 + 3 would reload as 3
        em = ExplicitMemory(3)
        with pytest.raises(ClassIdRangeError):
            em.add_accumulated(0, [1, 2, 3], count)
        assert len(em) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ofem"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(MalformedFileError):
            load_em(path)

    def test_unsupported_width(self, tmp_path):
        path = tmp_path / "w.ofem"
        for bits in (0, 65):
            path.write_bytes(b"OFEM" + struct.pack("<IIIII", 1, 1, 2, bits, 0) + bytes(40))
            with pytest.raises(MalformedFileError):
                load_em(path)

    def test_truncated(self, tmp_path):
        em = ExplicitMemory(8, QuantSpec(prototype_bits=8))
        em.add_accumulated(0, list(range(8)), 1)
        path = tmp_path / "t.ofem"
        save_em(em, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(MalformedFileError):
            load_em(path)

    @staticmethod
    def em_file(bits, rows, shift=0):
        """OFEM bytes of classes 7, 8, ... (1, 2, ... shots) storing `rows`."""
        width = (bits + 7) // 8
        payload = b"".join(
            struct.pack("<II", 7 + i, 1 + i)
            + b"".join(int(v).to_bytes(width, "little", signed=True) for v in row)
            for i, row in enumerate(rows)
        )
        return b"OFEM" + struct.pack("<IIIII", 1, len(rows), len(rows[0]), bits, shift) + payload

    @classmethod
    def write_one_class(cls, path, bits, entries, shift):
        """An OFEM holding class 7 (1 shot) with `entries` as stored values."""
        path.write_bytes(cls.em_file(bits, [entries], shift))

    @pytest.mark.parametrize("bits,entries", [
        (3, [100, -100, 3]),
        (3, [4, 0, 0]),
        (3, [-5, 0, 0]),
        (1, [1, 0, -1]),
        (1, [2, 1, 1]),
        (17, [2**16, 0, 0]),
    ])
    def test_entries_outside_the_stored_width_are_refused(self, tmp_path, bits, entries):
        # save_em writes only reduce_rows output: signs at 1 bit, else the
        # signed range; the whole bytes of a file could hold more
        path = tmp_path / "e.ofem"
        self.write_one_class(path, bits, entries, 0)
        with pytest.raises(MalformedFileError, match=f"outside the {bits}-bit range"):
            load_em(path)

    @pytest.mark.parametrize("bits,entries", [(3, [-4, 3, 0]), (1, [-1, 1, 1])])
    def test_entries_at_the_ends_of_the_stored_width_load(self, tmp_path, bits, entries):
        path = tmp_path / "e.ofem"
        self.write_one_class(path, bits, entries, 0)
        assert load_em(path).reduced.tolist() == [entries]

    @pytest.mark.parametrize(
        "magic,bits,entry", [(b"OFEM", 8, b"\x01"), (b"OFAM", 64, bytes(8))], ids=["OFEM", "OFAM"]
    )
    @pytest.mark.parametrize("what,n_d,rows", [
        ("0 entries per class", (0, 0), []),
        ("0 entries per class", (1, 0), [(3, 1)]),
        ("shot count >= 1", (2, 1), [(3, 1), (4, 0)]),
        ("class 3 already stored", (2, 1), [(3, 1), (3, 2)]),
    ], ids=["no-class-0-entries", "0-entries", "0-shots", "repeated-id"])
    def test_rows_no_memory_can_hold_are_malformed(self, tmp_path, magic, bits, entry, what, n_d, rows):
        # both memories hold d >= 1 entries per class, and distinct ids
        # with at least one shot each
        n, d = n_d
        payload = b"".join(struct.pack("<II", cid, count) + entry * d for cid, count in rows)
        path = tmp_path / "rows.bin"
        path.write_bytes(magic + struct.pack("<IIIII", 1, n, d, bits, 0) + payload)
        with pytest.raises(MalformedFileError, match=what):
            (load_em if magic == b"OFEM" else load_actmem)(path)

    def test_save_refuses_what_load_refuses(self, tmp_path):
        # a memory narrowed after learning holds values its new width cannot
        # store: save_em refuses them and writes nothing
        em = ExplicitMemory(2, QuantSpec(prototype_bits=8))
        em.add_accumulated(0, [100, -3], 1)
        em.quant = QuantSpec(prototype_bits=4)
        path = tmp_path / "narrowed.ofem"
        with pytest.raises(OverflowAfterShiftError, match="outside the 4-bit range"):
            save_em(em, path)
        assert not path.exists()
        # and a memory widened after learning a shift its new width never gives
        em = ExplicitMemory(2, QuantSpec(accum_bits=64, prototype_bits=4))
        em.add_accumulated(0, [2**62, 1], 1)
        em.quant = QuantSpec(accum_bits=64, prototype_bits=8)
        with pytest.raises(OverflowAfterShiftError, match="shift 60 above 8-bit storage's 57"):
            save_em(em, path)
        assert not path.exists()

    @pytest.mark.parametrize("bits,shift", [(3, 4_000_000_000), (3, 63), (33, 33), (1, 1), (64, 1)])
    def test_shift_above_what_reduce_rows_gives_is_refused(self, tmp_path, bits, shift):
        # reduce_rows shifts by at most 64 - (bits - 1), and not at all at 1 or 64 bits
        path = tmp_path / "s.ofem"
        self.write_one_class(path, bits, [1, -1, 1], shift)
        with pytest.raises(MalformedFileError, match=f"shift {shift} above"):
            load_em(path)

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_every_width_round_trips_its_extremes(self, tmp_path, bits):
        # each entry is decoded from its own bytes beside the bytes of its
        # neighbours and of the record head, which must not leak into it
        lo, hi = (-1, 1) if bits == 1 else (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        rows = [[lo, hi, -1], [1, hi, lo], [hi, lo, hi]] if bits == 1 else [
            [lo, hi, -1], [0, 1, lo], [hi, lo + 1, hi - 1],
        ]
        blob = self.em_file(bits, rows)
        (tmp_path / "in.ofem").write_bytes(blob)
        em = load_em(tmp_path / "in.ofem")
        assert em.reduced.tolist() == em.accum.tolist() == rows
        assert em.class_ids() == [7, 8, 9] and em.counts.tolist() == [1, 2, 3]
        assert em.reduced.dtype == np.int64 and em.quant.prototype_bits == bits
        save_em(em, tmp_path / "out.ofem")
        assert (tmp_path / "out.ofem").read_bytes() == blob
        # and what learning stores at this width saves to the same layout
        learned = ExplicitMemory(3, QuantSpec(accum_bits=64, prototype_bits=bits))
        for i, accum in enumerate([[-(2**63), 2**63 - 1, 5], [1, -1, 0], [hi, lo, 0]]):
            learned.add_accumulated(7 + i, accum, 1 + i)
        save_em(learned, tmp_path / "learned.ofem")
        shift = int(learned.shifts.max())
        assert (tmp_path / "learned.ofem").read_bytes() == self.em_file(
            bits, learned.reduced.tolist(), shift
        )
        back = load_em(tmp_path / "learned.ofem")
        assert back.reduced.tolist() == learned.reduced.tolist()

    def test_activation_sums_round_trip_bit_for_bit(self, tmp_path):
        top = np.finfo(np.float64).max
        am = ActivationMemory(6)
        am.add_batch(4, [[0.0, 5e-324, -5e-324, top, -top, 1.0 / 3.0]])
        am.add_batch(2, [[0.0, -2.5, 2.0**-1074, 7.0, -0.0, 1e300]])
        save_actmem(am, tmp_path / "a.ofam")
        back = load_actmem(tmp_path / "a.ofam")
        assert back.class_ids() == [4, 2] and back.sums.dtype == np.float64
        assert_same_bits(back.sums, am.sums)


class TestRowStore:
    """Both memories keep their rows in buffers with spare rows that they
    alone write; every memory must still read as if each append had
    concatenated fresh arrays (`helpers.ConcatRows`)."""

    PARAMS = init_model([8, 6, 4], seed=3)

    @classmethod
    def learn(cls, em, am, rng, cid, oracles=None):
        samples = rng.standard_normal((int(rng.integers(1, 6)), 8)) + rng.standard_normal(8)
        learn_class(em, am, cls.PARAMS, samples, cid)
        if oracles is not None:
            learn_class_oracles(*oracles, em.quant, cls.PARAMS, samples, cid)

    OPS = ("add_accumulated", "add_batch", "learn_class", "rebuilt_at_bits", "deepcopy",
           "pickle", "snapshot")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**31)), max_size=25))
    def test_every_memory_matches_a_concatenating_oracle(self, tmp_path_factory, steps):
        d_p, d_a = self.PARAMS.d_p, self.PARAMS.d_a
        root = ExplicitMemory(d_p, QuantSpec(prototype_bits=5)), ActivationMemory(d_a)
        ems, ams = [(root[0], ConcatRows.of(root[0]))], [(root[1], ConcatRows.of(root[1]))]
        fresh_ids, folder = itertools.count(), tmp_path_factory.mktemp("rows")
        for op, seed in steps:
            rng = np.random.default_rng(seed)
            em, em_rows = ems[rng.integers(len(ems))]
            am, am_rows = ams[rng.integers(len(ams))]
            if op == "add_accumulated":
                accum, count = rng.integers(-(2**20), 2**20, d_p), int(rng.integers(1, 9))
                em.add_accumulated(next(fresh_ids), accum, count)
                em_rows.add_accumulated(em.ids[-1], accum, count, em.quant.prototype_bits)
            elif op == "add_batch":
                thetas = rng.standard_normal((int(rng.integers(1, 5)), d_a))
                am.add_batch(next(fresh_ids), thetas)
                am_rows.add_batch(am.ids[-1], thetas)
            elif op == "learn_class":
                self.learn(em, am, rng, next(fresh_ids), (em_rows, am_rows))
            elif op == "rebuilt_at_bits":
                bits = int(rng.integers(1, 33))
                reduced, shifts = reduce_rows(em_rows.arrays["accum"], bits)
                rows = {**em_rows.arrays, "reduced": reduced, "shifts": shifts}
                ems.append((em.rebuilt_at_bits(bits), ConcatRows(**rows)))
            elif op in ("deepcopy", "pickle"):
                clone = copy.deepcopy if op == "deepcopy" else lambda m: pickle.loads(pickle.dumps(m))
                ems.append((clone(em), ConcatRows(**em_rows.arrays)))
                ams.append((clone(am), ConcatRows(**am_rows.arrays)))
            else:  # snapshot both, then learn on what loads
                save_em(em, folder / "em.ofem")
                save_actmem(am, folder / "am.ofam")
                em2, am2 = load_em(folder / "em.ofem"), load_actmem(folder / "am.ofam")
                reduced = em_rows.arrays["reduced"]
                shifts = np.full(len(reduced), em_rows.arrays["shifts"].max(initial=0))
                rows = {**em_rows.arrays, "shifts": shifts, "accum": reduced}
                oracles = ConcatRows(**rows), ConcatRows(**am_rows.arrays)
                self.learn(em2, am2, rng, next(fresh_ids), oracles)
                ems.append((em2, oracles[0]))
                ams.append((am2, oracles[1]))
            for mem, rows in ems + ams:
                rows.assert_holds(mem)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_learning_on_one_relative_leaves_the_others_unchanged(self, order):
        # the source has spare rows; its rebuild shares its arrays
        rng = np.random.default_rng(5)
        em, am = ExplicitMemory(self.PARAMS.d_p), ActivationMemory(self.PARAMS.d_a)
        for cid in range(3):
            self.learn(em, am, rng, cid)
        em_copy, am_copy = copy.deepcopy(em), copy.deepcopy(am)
        pairs = [(em, am), (em.rebuilt_at_bits(3), ActivationMemory(self.PARAMS.d_a)),
                 (em_copy, am_copy)]
        oracles = [(ConcatRows.of(e), ConcatRows.of(a)) for e, a in pairs]
        for cid, who in enumerate(order, start=10):
            self.learn(*pairs[who], rng, cid, oracles[who])
            for (e, a), (e_rows, a_rows) in zip(pairs, oracles):
                e_rows.assert_holds(e)
                a_rows.assert_holds(a)

    def test_an_append_writes_its_row_beside_the_rows_before(self):
        # a full buffer doubles, so of 16 appends to a non-empty memory at
        # most 5 (at 1, 2, 4, 8 and 16 rows) copy the rows before them
        rng = np.random.default_rng(8)
        em, am = ExplicitMemory(self.PARAMS.d_p), ActivationMemory(self.PARAMS.d_a)
        self.learn(em, am, rng, 0)
        in_place = []
        for cid in range(1, 17):
            accum, sums = em.accum, am.sums
            self.learn(em, am, rng, cid)
            assert np.array_equal(em.accum[:cid], accum) and np.array_equal(am.sums[:cid], sums)
            in_place.append(np.shares_memory(em.accum, accum) and np.shares_memory(am.sums, sums))
        assert in_place.count(False) <= 5

    def test_a_copy_holds_each_row_once_and_learns_in_place(self):
        rng = np.random.default_rng(9)
        em, am = ExplicitMemory(64), ActivationMemory(64)
        for cid in range(5):
            em.add_accumulated(cid, rng.integers(-99, 99, 64), 1)
            am.add_batch(cid, rng.standard_normal((2, 64)))
        classify(em, np.ones(64))  # a scored memory holds a derived float copy too
        learn = {em: lambda m: m.add_accumulated(9, np.ones(64), 1),
                 am: lambda m: m.add_batch(9, np.ones((1, 64)))}
        for mem in (em, am):
            rows = ConcatRows.of(mem).arrays
            stored = sum(array.nbytes for array in rows.values())
            assert len(pickle.dumps(mem)) < stored + 1024
            for clone in (copy.deepcopy(mem), pickle.loads(pickle.dumps(mem))):
                assert held_nbytes(clone) <= 2 * stored
                ConcatRows(**rows).assert_holds(clone)
                before = {name: getattr(clone, name) for name in rows}
                learn[mem](clone)
                assert all(np.shares_memory(getattr(clone, n), a) for n, a in before.items())
            ConcatRows(**rows).assert_holds(mem)

    def test_a_loaded_memory_keeps_the_rows_it_decoded(self, tmp_path):
        # load_em decodes once; accumulators and reduced values are one
        # array until the next append gives each a buffer of its own
        em = ExplicitMemory(3, QuantSpec(prototype_bits=4))
        for cid in range(3):
            em.add_accumulated(cid, [cid, -5, 7], 1)
        save_em(em, tmp_path / "em.ofem")
        loaded = load_em(tmp_path / "em.ofem")
        assert loaded.accum is loaded.reduced and loaded.reduced.flags.owndata
        loaded.add_accumulated(9, [99, 0, -99], 1)
        assert not np.shares_memory(loaded.accum, loaded.reduced)
        assert loaded.accum[:3].tolist() == em.reduced.tolist() == loaded.reduced[:3].tolist()

    @pytest.mark.parametrize("class_id", [3, np.int64(3), 3.0])
    def test_stored_ids_match_by_value(self, class_id):
        em = ExplicitMemory(2)
        em.add_accumulated(5, [1, 2], 1)
        em.add_accumulated(3, [3, 4], 1)
        assert class_id in em and em.get(class_id).accum.tolist() == [3, 4]

    @pytest.mark.parametrize("class_id", [4, -3, 2**70, 3.5, None, "3"])
    def test_other_values_match_no_stored_id(self, class_id):
        em = ExplicitMemory(2)
        em.add_accumulated(3, [3, 4], 1)
        assert class_id not in em
        with pytest.raises(KeyError):
            em.get(class_id)

    def test_a_clash_names_the_first_repeated_id(self):
        em = ExplicitMemory(1)
        em.add_accumulated(4, [1], 1)
        with pytest.raises(DuplicateClassError, match="class 4 already stored"):
            em._append([6, 4], [1, 1], shifts=np.zeros(2, int), accum=np.ones((2, 1), int),
                       reduced=np.ones((2, 1), int))
        with pytest.raises(DuplicateClassError, match="class 6 already stored"):
            em._append([6, 7, 6], [1, 1, 1], shifts=np.zeros(3, int),
                       accum=np.ones((3, 1), int), reduced=np.ones((3, 1), int))
        assert em.class_ids() == [4]


class TestReduceRows:
    @given(st.integers(0, 2**62), st.integers(2, 64))
    def test_shift_matches_choose_shift_rule(self, peak, bits):
        reduced, shifts = reduce_rows(np.array([[peak, -peak]]), bits)
        lim = (1 << (bits - 1)) - 1
        s = int(shifts[0])
        assert (peak >> s) <= lim and (s == 0 or (peak >> (s - 1)) > lim)
        assert reduced.tolist() == [[peak >> s, -peak >> s]]

    @pytest.mark.parametrize("bits", [2, 8, 33, 63])
    def test_int64_minimum_has_magnitude_two_to_the_63(self, bits):
        # magnitudes 2**63, 2**62 and 2**62 - 1: bit lengths 64, 63 and 62
        accum = np.array([[-(2**63), 0], [2**62, -1], [1 - 2**62, 3]])
        reduced, shifts = reduce_rows(accum, bits)
        assert shifts.tolist() == [65 - bits, 64 - bits, 63 - bits]
        assert reduced.tolist() == [
            [-(2**63) >> (65 - bits), 0],
            [2**62 >> (64 - bits), -1],
            [(1 - 2**62) >> (63 - bits), 3 >> (63 - bits)],
        ]

    def test_int64_minimum_stores_unshifted_at_64_bits(self):
        reduced, shifts = reduce_rows(np.array([[-(2**63), 0]]), 64)
        assert shifts.tolist() == [0] and reduced.tolist() == [[-(2**63), 0]]

    @pytest.mark.parametrize("bits", [2, 8, 33, 63])
    def test_int64_minimum_row_fits_its_snapshot(self, tmp_path, bits):
        # 65 - bits is the largest shift reduce_rows gives, and load_em's bound
        em = ExplicitMemory(2, QuantSpec(accum_bits=64, prototype_bits=bits))
        em.add_accumulated(3, [-(2**63), 0], 1)
        assert em.get(3).scale_shift == 65 - bits
        save_em(em, tmp_path / "min.ofem")
        loaded = load_em(tmp_path / "min.ofem").get(3)
        assert loaded.quantized.tolist() == [-(2**63) >> (65 - bits), 0]
        assert loaded.scale_shift == 65 - bits

    def test_one_bit_is_sign_vector_with_no_shift(self):
        reduced, shifts = reduce_rows(np.array([[5, 0, -3], [0, 0, 0]]), 1)
        assert reduced.tolist() == [[1, 1, -1], [1, 1, 1]]
        assert shifts.tolist() == [0, 0]
