"""Precision/footprint trade-off: rebuild the prototype store at falling
bit widths and watch accuracy. The 1-bit point stores sign vectors only.

Run: python3 demos/04_precision_sweep.py   (about half a minute on CPU)
"""

import numpy as np

from protomem import (
    ExplicitMemory,
    MetaConfig,
    PretrainLossConfig,
    QuantSpec,
    extract_features,
    learn_class,
    load_em,
    make_blob_dataset,
    metalearn,
    precision_sweep,
    pretrain,
    save_em,
    split_fscil,
)
from protomem.backbone import init_model
from protomem.offline import init_fcc

SEED = 7
dataset = make_blob_dataset(18, 70, grid=16, seed=SEED)
stream = split_fscil(dataset, base_classes=10, ways=2, shots=5,
                     per_class_cap=50, test_per_class=20, seed=SEED, sessions=4)

params = init_model([256, 96, 48, 32], seed=SEED)
fcc = init_fcc(10, 32, SEED + 1)
pretrain(params, fcc, stream.base,
         PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.4),
         epochs=50, lr=0.002, seed=SEED, batch_size=32)
metalearn(params, stream.base,
          MetaConfig(meta_samples=5, iterations=150, lr=0.01, query_batch=64),
          seed=SEED + 2)

print("== populate the store with every class in the stream ==")
em = ExplicitMemory(params.d_p, QuantSpec())
for part in [stream.base, *stream.sessions]:
    for cid in part.class_ids():
        # no class means: only finetuning reads them
        learn_class(em, None, params, part.inputs[part.indices_of(cid)], cid)
print(f"{len(em)} prototypes of dim {em.d_p}")

print("\n== sweep prototype precision ==")
features = extract_features(params, stream.test)
points = precision_sweep(em, features, stream.test.labels, [32, 8, 7, 6, 5, 4, 3, 2, 1])
print(f"{'bits':>5} {'kB':>7} {'accuracy':>9}")
for p in points:
    tag = " (sign)" if p.bits == 1 else ""
    print(f"{p.bits:>5} {p.memory_bytes / 1000:>7.3f} {p.accuracy:>9.4f}{tag}")
print("accuracy holds far below full precision; cosine scoring only needs direction")

print("\n== snapshot round-trip at 8 bits ==")
em8 = em.rebuilt_at_bits(8)
save_em(em8, "memory_8bit.ofem")
back = load_em("memory_8bit.ofem")
same = all(
    np.array_equal(back.get(c).quantized, em8.get(c).quantized) for c in em8.class_ids()
)
print(f"memory_8bit.ofem: {len(back)} classes, payload identical after reload: {same}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 3.2))
    xs = np.arange(len(points))
    ax.plot(xs, [p.accuracy * 100 for p in points], "o-")
    ax.set_xticks(xs, [("1(sign)" if p.bits == 1 else str(p.bits)) for p in points])
    ax.set_xlabel("prototype bits")
    ax.set_ylabel("accuracy [%]")
    top = ax.secondary_xaxis("top")
    top.set_xticks(xs, [f"{p.memory_bytes / 1000:.1f}" for p in points])
    top.set_xlabel("store size [kB]")
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    fig.savefig("precision_sweep.png", dpi=120)
    print("wrote precision_sweep.png")
except ImportError:
    pass
