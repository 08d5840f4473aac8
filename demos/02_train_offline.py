"""Offline phase walkthrough: pretrain the extractor + projection with the
composite objective (cross-entropy + feature-orthogonality penalty), watch
the penalty decorrelate held-out features, then sharpen clustering with
margin-based episodic metalearning.

Run: python3 demos/02_train_offline.py   (about half a minute on CPU)
"""

import copy

import numpy as np

from protomem import (
    MetaConfig,
    PretrainLossConfig,
    QuantSpec,
    build_base_em,
    classify,
    extract_features,
    make_blob_dataset,
    metalearn,
    pretrain,
    split_fscil,
)
from protomem.backbone import init_model, save_params
from protomem.offline import init_fcc

SEED = 7
dataset = make_blob_dataset(num_classes=18, per_class=70, grid=16, seed=SEED)
stream = split_fscil(dataset, base_classes=10, ways=2, shots=5,
                     per_class_cap=50, test_per_class=20, seed=SEED, sessions=4)
print(f"base session: {len(stream.base)} samples over {len(stream.base.class_ids())} classes")


def mean_offdiag_gram(params):
    feats = extract_features(params, stream.test)
    u = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    g = u @ u.T
    return float(np.abs(g[~np.eye(len(g), dtype=bool)]).mean())


def run_pretrain(lambda_ortho):
    params = init_model([256, 96, 48, 32], seed=SEED)
    fcc = init_fcc(10, 32, SEED + 1)
    cfg = PretrainLossConfig(lambda_ortho=lambda_ortho, mix_probability=0.4)
    _, _, history = pretrain(params, fcc, stream.base, cfg,
                             epochs=50, lr=0.002, seed=SEED, batch_size=32)
    return params, history


print("\n== 1. pretraining, with and without the orthogonality penalty ==")
plain, hist0 = run_pretrain(lambda_ortho=0.0)
ortho, hist1 = run_pretrain(lambda_ortho=0.1)
print(f"lambda=0   : train acc {hist0[-1][3]:.3f}  held-out |offdiag Gram| {mean_offdiag_gram(plain):.4f}")
print(f"lambda=0.1 : train acc {hist1[-1][3]:.3f}  held-out |offdiag Gram| {mean_offdiag_gram(ortho):.4f}")
print("(the penalty spreads feature directions without hurting the fit)")


def em_accuracy(params):
    em, _ = build_base_em(params, stream.base, QuantSpec())
    feats = extract_features(params, stream.test.subset_by_classes(stream.base.class_ids()))
    labels = stream.test.subset_by_classes(stream.base.class_ids()).labels
    return sum(int(classify(em, f)[0] == l) for f, l in zip(feats, labels)) / len(labels)


print("\n== 2. metalearning with the squared-margin objective ==")
meta_params = copy.deepcopy(ortho)
before = em_accuracy(meta_params)
cfg = MetaConfig(meta_samples=5, iterations=150, lr=0.01, query_batch=64)
_, history = metalearn(meta_params, stream.base, cfg, seed=SEED + 2)
after = em_accuracy(meta_params)
print(f"episodes: {len(history)}  margin loss {history[0][1]:.4f} -> {history[-1][1]:.4f}")
print(f"base-session prototype-classifier accuracy: {before:.3f} -> {after:.3f}")

save_params(meta_params, "trained_params.ofsc")
print("\nsaved trained weights to trained_params.ofsc")
print("next: demos/03_online_sessions.py uses weights trained exactly like these")
