"""Acceptance gate: one test per exit criterion, each printing a
pass/fail line with its stated tolerance. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they pass."""

import copy
import time

import numpy as np
import pytest

from helpers import (
    base_scores_per_stage,
    central_diff,
    flatten_params,
    meta_score,
    param_grad_flat,
    protocol_stage_features,
    rel_err,
    set_params_from_flat,
)
from protomem import cli
from protomem.backbone import (
    GradientTape,
    backward,
    forward_backbone,
    forward_fcr,
    init_model,
)
from protomem.data import SessionStream, split_fscil
from protomem.harness import (
    extract_features,
    make_blob_dataset,
    run_protocol,
    validate_stream,
)
from protomem.losses import (
    PretrainLossConfig,
    multi_margin_loss,
    ortho_loss,
    pretrain_loss,
    softmax_ce_batch,
)
from protomem.memory import (
    ExplicitMemory,
    QuantSpec,
    classify,
    em_memory_bytes,
    precision_sweep,
    quantize_feature,
    reduce_rows,
)
from protomem.offline import MetaConfig, _query_step, init_fcc, metalearn, pretrain
from protomem.online import _cosine_target_grads, learn_class


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- desk run


class DeskRun:
    """Shared seeded end-to-end state used by criteria 3, 4, 5, and 7."""

    SEED = 7
    DIMS = [256, 96, 48, 32]
    CHANCE = 1.0 / 18.0

    def __init__(self):
        t0 = time.monotonic()
        dataset = make_blob_dataset(18, 70, grid=16, seed=self.SEED)
        self.stream = split_fscil(
            dataset, base_classes=10, ways=2, shots=5,
            per_class_cap=50, test_per_class=20, seed=self.SEED, sessions=4,
        )
        self.params_ag = self._pretrain(lambda_ortho=0.0)
        self.params_agor = self._pretrain(lambda_ortho=0.1)
        self.params_aom = copy.deepcopy(self.params_agor)
        meta = MetaConfig(meta_samples=5, iterations=150, lr=0.01, query_batch=64)
        metalearn(self.params_aom, self.stream.base, meta, seed=self.SEED + 2)
        self.report_ag = run_protocol(self.params_ag, self.stream, QuantSpec())
        self.report_aom = run_protocol(self.params_aom, self.stream, QuantSpec())
        self.em = self._populate_em(self.params_aom)
        self.test_features = extract_features(self.params_aom, self.stream.test)
        self.elapsed = time.monotonic() - t0

    def _pretrain(self, lambda_ortho):
        params = init_model(self.DIMS, seed=self.SEED)
        fcc = init_fcc(10, self.DIMS[-1], self.SEED + 1)
        cfg = PretrainLossConfig(lambda_ortho=lambda_ortho, mix_probability=0.4)
        pretrain(params, fcc, self.stream.base, cfg, epochs=50, lr=0.002,
                 seed=self.SEED, batch_size=32)
        return params

    def _populate_em(self, params):
        em = ExplicitMemory(params.d_p, QuantSpec())
        for part in [self.stream.base, *self.stream.sessions]:
            for cid in part.class_ids():
                learn_class(em, None, params, part.inputs[part.indices_of(cid)], cid)
        return em

    def mean_offdiag_gram(self, params):
        feats = extract_features(params, self.stream.test)
        u = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        g = u @ u.T
        mask = ~np.eye(g.shape[0], dtype=bool)
        return float(np.abs(g[mask]).mean())


@pytest.fixture(scope="module")
def desk():
    return DeskRun()


# ------------------------------------------------- criterion 1: gradients


class TestCriterion1Gradients:
    TOL = 1e-4
    INSTANCES = 20

    def test_gradient_suite_under_a_minute(self):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst = {}

        # cross-entropy
        w = 0.0
        for _ in range(self.INSTANCES):
            dim = int(rng.integers(2, 10))
            z = rng.standard_normal(dim) * 2
            t = int(rng.integers(0, dim))
            _, g = softmax_ce_batch(z, t)
            w = max(w, rel_err(g, central_diff(lambda v: softmax_ce_batch(v, t)[0], z)))
        worst["ce"] = w

        # orthogonality penalty
        w = 0.0
        for _ in range(self.INSTANCES):
            b, d = int(rng.integers(2, 6)), int(rng.integers(2, 8))
            x = rng.standard_normal((b, d)) + 0.2
            _, g = ortho_loss(x)
            num = central_diff(lambda f: ortho_loss(f.reshape(b, d))[0], x.ravel())
            w = max(w, rel_err(g.ravel(), num))
        worst["ortho"] = w

        # composite pretraining objective (both gradient blocks at once)
        w = 0.0
        cfg = PretrainLossConfig(lambda_ortho=0.3)
        for _ in range(self.INSTANCES):
            b, c, d = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
            logits = rng.standard_normal((b, c))
            theta = rng.standard_normal((b, d)) + 0.2
            targets = rng.integers(0, c, b)
            _, gl, gt, _ = pretrain_loss(logits, targets, theta, cfg)
            packed = np.concatenate([logits.ravel(), theta.ravel()])

            def loss_at(flat):
                lg = flat[: b * c].reshape(b, c)
                th = flat[b * c :].reshape(b, d)
                return pretrain_loss(lg, targets, th, cfg)[0]

            num = central_diff(loss_at, packed)
            w = max(w, rel_err(np.concatenate([gl.ravel(), gt.ravel()]), num))
        worst["pre"] = w

        # multi-margin, away from hinge kinks
        w = 0.0
        done = 0
        while done < self.INSTANCES:
            dim = int(rng.integers(2, 9))
            l = rng.uniform(0, 1, dim)
            gt = int(rng.integers(0, dim))
            margins = 0.1 - l[gt] + np.delete(l, gt)
            if np.any(np.abs(margins) < 1e-3):
                continue
            done += 1
            _, g = multi_margin_loss(l, gt, 0.1)
            w = max(w, rel_err(g, central_diff(lambda v: multi_margin_loss(v, gt, 0.1)[0], l)))
        worst["margin"] = w

        # relu(cossim) score chain through the network (margin objective)
        w = 0.0
        done = 0
        while done < self.INSTANCES:
            params = init_model([5, 4, 3], seed=int(rng.integers(1 << 30)))
            x = rng.standard_normal(5)
            protos = rng.standard_normal((4, 3))
            gt = int(rng.integers(0, 4))
            cfg = MetaConfig(margin=0.1)
            tape = GradientTape()
            theta = forward_fcr(params, forward_backbone(params, x[None], tape), tape)
            if np.linalg.norm(theta) < 1e-3:
                continue
            scores = meta_score(params, x, protos)
            cos_raw = protos @ theta[0] / (np.linalg.norm(protos, axis=1) * np.linalg.norm(theta))
            margins = 0.1 - scores[gt] + np.delete(scores, gt)
            if np.any(np.abs(cos_raw) < 1e-3) or np.any(np.abs(margins) < 1e-3):
                continue
            done += 1
            # metalearn's query step on a one-query batch
            _, _, upstream = _query_step(theta, protos, np.array([gt]), cfg)
            backward(params, tape, upstream)
            analytic = param_grad_flat(tape, params)
            flat0 = flatten_params(params)

            def meta_loss(flat):
                set_params_from_flat(params, flat)
                th = forward_fcr(params, forward_backbone(params, x[None]))
                return _query_step(th, protos, np.array([gt]), cfg)[0]

            num = central_diff(meta_loss, flat0)
            set_params_from_flat(params, flat0)
            w = max(w, rel_err(analytic, num))
        worst["meta_chain"] = w

        # finetuning cosine objective through the projection layer
        w = 0.0
        for _ in range(self.INSTANCES):
            params = init_model([6, 5, 4], seed=int(rng.integers(1 << 30)))
            a = rng.standard_normal((1, 5))
            target = np.where(rng.standard_normal((1, 4)) >= 0, 1.0, -1.0)
            layer = params.layers[-1]
            tape = GradientTape()
            out = forward_fcr(params, a, tape)
            if np.linalg.norm(out) < 1e-3:
                continue
            _, gy = _cosine_target_grads(out, target)
            backward(params, tape, gy)
            analytic = tape.grad_w[len(params.layers) - 1].ravel().copy()
            flat0 = layer.weight.ravel().copy()

            def ft_loss(flat):
                layer.weight[...] = flat.reshape(layer.weight.shape)
                return _cosine_target_grads(forward_fcr(params, a), target)[0][0]

            num = central_diff(ft_loss, flat0)
            layer.weight[...] = flat0.reshape(layer.weight.shape)
            w = max(w, rel_err(analytic, num))
        worst["finetune_cos"] = w

        elapsed = time.monotonic() - start
        ok = all(v < self.TOL for v in worst.values()) and elapsed < 60
        detail = (
            f"gradient suite rel-err {max(worst.values()):.2e} < {self.TOL} over "
            f">= {self.INSTANCES} instances each {dict((k, f'{v:.1e}') for k, v in worst.items())}, "
            f"{elapsed:.1f}s < 60s"
        )
        report(1, ok, detail)


# ---------------------------------------------- criterion 2: oracle checks


class TestCriterion2Oracles:
    def test_single_pass_equals_two_pass_oracle(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            d_p = int(rng.integers(1, 513))
            shots = int(rng.integers(1, 33))
            params = init_model([4, d_p + 1, d_p], seed=int(rng.integers(1 << 30)))
            samples = rng.standard_normal((shots, 4))
            em = ExplicitMemory(d_p, QuantSpec())
            learn_class(em, None, params, samples, 0)
            feats = forward_fcr(params, forward_backbone(params, samples))
            qs = np.stack([quantize_feature(f, 8) for f in feats])
            proto = em.get(0)
            np.testing.assert_array_equal(proto.accum, qs.sum(axis=0))
            np.testing.assert_array_equal(
                proto.accum / proto.count, qs.astype(np.float64).mean(axis=0)
            )
        report(2, True, "single-pass accumulation == two-pass integer mean on 100 instances")

    def test_classify_matches_brute_force(self):
        rng = np.random.default_rng(203)
        d_p = 32
        em = ExplicitMemory(d_p, QuantSpec())
        vecs = {}
        for cid in range(50):
            accum = rng.integers(-50000, 50000, size=d_p, dtype=np.int64)
            em.add_accumulated(cid, accum, 5)
            vecs[cid] = accum.astype(np.float64)
        agree = 0
        for _ in range(1000):
            q = rng.standard_normal(d_p)
            got, _ = classify(em, q)
            best = max(
                vecs,
                key=lambda c: float(vecs[c] @ q)
                / (np.linalg.norm(vecs[c]) * np.linalg.norm(q)),
            )
            agree += int(got == best)
        report(2, agree == 1000, f"classify argmax == brute-force cosine on {agree}/1000 queries")


# ------------------------------------------- criterion 3: quantization


class TestCriterion3Quantization:
    def test_shift_and_footprint_vectors(self):
        shift = int(reduce_rows(np.array([[65535, -3, 17]]), 8)[1][0])
        bytes_3bit = em_memory_bytes(100, 256, 3)
        ok = shift == 9 and bytes_3bit == 9600
        report(3, ok, f"17-bit max entry -> shift {shift} (expect 9); "
                      f"100x256x3-bit = {bytes_3bit} B (expect 9600)")

    def test_decision_agreement_and_sweep(self, desk):
        rng = np.random.default_rng(204)
        d_p = 32
        em = ExplicitMemory(d_p, QuantSpec())
        for cid in range(50):
            accum = rng.integers(-60000, 60000, size=d_p, dtype=np.int64)
            em.add_accumulated(cid, accum, 5)
        em8 = em.rebuilt_at_bits(8)
        agree = sum(
            int(classify(em, q)[0] == classify(em8, q)[0])
            for q in rng.standard_normal((200, d_p))
        )
        points = precision_sweep(
            desk.em, desk.test_features, desk.stream.test.labels, [32, 8]
        )
        gap = abs(points[1].accuracy - points[0].accuracy)
        ok = agree / 200 >= 0.99 and gap <= 0.01
        report(3, ok, f"8-bit decision agreement {agree / 200:.3f} >= 0.99; "
                      f"desk sweep |acc(8b) - acc(full)| = {gap:.4f} <= 0.01")


# ---------------------------------------------- criterion 4: protocol


class TestCriterion4Protocol:
    def test_validator_rejects_constructed_violations(self, desk):
        stream = desk.stream
        dup = SessionStream(stream.base, [stream.sessions[0], stream.sessions[0]],
                            stream.ways, stream.shots, stream.test)
        short = SessionStream(
            stream.base,
            [stream.sessions[0].take(np.arange(len(stream.sessions[0]) - 1))],
            stream.ways, stream.shots, stream.test,
        )
        uncovered = SessionStream(
            stream.base, stream.sessions, stream.ways, stream.shots,
            stream.test.subset_by_classes(stream.test.class_ids()[1:]),
        )
        results = [
            validate_stream(stream) == [],
            validate_stream(dup) != [],
            validate_stream(short) != [],
            validate_stream(uncovered) != [],
        ]
        report(4, all(results),
               "validator accepts the well-formed stream and rejects duplicate-class, "
               "short-shot, and uncovered-test constructions")

    def test_frozen_scores_and_coverage(self, desk, monkeypatch):
        params, stream = desk.params_aom, desk.stream
        first, *later = base_scores_per_stage(
            params, stream, QuantSpec(), desk.test_features[:5]
        )
        stable = len(later) == len(stream.sessions) and all(
            scores.tobytes() == first.tobytes() for scores in later
        )
        staged = protocol_stage_features(monkeypatch, params, stream, QuantSpec())
        coverage = len(staged) == len(desk.report_aom.session_accuracies) and all(
            feats.tobytes()
            == extract_features(
                params, stream.test.subset_by_classes(stream.classes_through(t))
            ).tobytes()
            for t, feats in enumerate(staged)
        )
        report(4, stable and coverage,
               "base-class scores bitwise identical across sessions (FT off); "
               "evaluation touches exactly the union-of-classes test subset")


# ------------------------------------------ criterion 5: desk end-to-end


class TestCriterion5DeskScale:
    def test_desk_run(self, desk):
        final = desk.report_aom.session_accuracies[-1]
        od_plain = desk.mean_offdiag_gram(desk.params_ag)
        od_ortho = desk.mean_offdiag_gram(desk.params_agor)
        margin = desk.report_aom.average - desk.report_ag.average
        checks = {
            f"final-session acc {final:.3f} > 3x chance {3 * desk.CHANCE:.3f}":
                final > 3 * desk.CHANCE,
            f"held-out |offdiag Gram| {od_ortho:.4f} < {od_plain:.4f} (lambda 0.1 vs 0)":
                od_ortho < od_plain,
            f"ablation AG+OR+MM vs AG margin {margin:+.4f} >= -0.01": margin >= -0.01,
            f"pipeline runtime {desk.elapsed:.0f}s < 600s": desk.elapsed < 600,
        }
        report(5, all(checks.values()), "; ".join(checks))


# --------------------------------------------- criterion 6: determinism


class TestCriterion6Determinism:
    OVERRIDES = dict(
        classes=7, base_classes=4, ways=1, shots=3, sessions=3,
        per_class_cap=8, test_per_class=3, grid=8, hidden="16,12", d_p=6,
        pretrain_epochs=2, batch_size=16, meta_iterations=2, meta_samples=2,
        query_batch=8, finetune_epochs=2, seed=5,
    )

    def run_chain(self, out):
        base = [f"{k}={v}" for k, v in self.OVERRIDES.items()]
        paths = {
            "params_out": out / "params.ofsc",
            "history_out": out / "history.csv",
            "report_out": out / "report.csv",
            "sweep_out": out / "sweep.csv",
            "ablation_out": out / "ablation.csv",
        }
        extra = [f"{k}={v}" for k, v in paths.items()]
        params_in = f"params_in={out / 'params.ofsc'}"
        finetuned = out / "report_ft.csv"
        assert cli.main(["pretrain", *base, *extra]) == 0
        assert cli.main(["protocol", *base, *extra, params_in]) == 0
        assert cli.main(
            ["protocol", *base, *extra, params_in, "finetune=true", f"report_out={finetuned}"]
        ) == 0
        assert cli.main(["sweep", *base, *extra, params_in]) == 0
        assert cli.main(["ablate", *base, *extra, "ablate_rows=none;AG,FT"]) == 0
        return {k: p.read_bytes() for k, p in {**paths, "report_ft": finetuned}.items()}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        first = self.run_chain(a)
        second = self.run_chain(b)
        same = {k: first[k] == second[k] for k in first}
        report(6, all(same.values()),
               f"rerun with same seed: byte-identical artifacts {sorted(same)}")


# ------------------------------------------- criterion 7: single pass


class TestCriterion7SinglePass:
    def test_forward_counter_equals_shots(self, desk):
        params = copy.deepcopy(desk.params_aom)
        em = ExplicitMemory(params.d_p, QuantSpec())
        deltas = []
        for session in desk.stream.sessions:
            for cid in session.class_ids():
                rows = session.indices_of(cid)
                before = params.forward_calls
                learn_class(em, None, params, session.inputs[rows], cid)
                deltas.append(params.forward_calls - before)
        ok = all(d == desk.stream.shots for d in deltas)
        report(7, ok, f"forward passes per learned class = {sorted(set(deltas))} "
                      f"(expect exactly [{desk.stream.shots}])")
