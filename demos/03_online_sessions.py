"""Online phase walkthrough: play a class-incremental stream against a
trained model. Each incremental session adds new classes with a single
forward pass per shot; evaluation always covers every class seen so far.

Run: python3 demos/03_online_sessions.py   (about a minute on CPU)
"""

import copy

from protomem import (
    FinetuneConfig,
    MetaConfig,
    PretrainLossConfig,
    QuantSpec,
    make_blob_dataset,
    metalearn,
    pretrain,
    run_protocol,
    split_fscil,
    validate_stream,
)
from protomem.backbone import init_model
from protomem.offline import init_fcc

SEED = 7
dataset = make_blob_dataset(18, 70, grid=16, seed=SEED)
stream = split_fscil(dataset, base_classes=10, ways=2, shots=5,
                     per_class_cap=50, test_per_class=20, seed=SEED, sessions=4)
assert validate_stream(stream) == [], "stream must be disjoint and complete"
print(f"stream: {len(stream.base.class_ids())} base classes + "
      f"{len(stream.sessions)} sessions of {stream.ways}-way {stream.shots}-shot")

print("\n== training the offline phases (same recipe as demo 02) ==")
params = init_model([256, 96, 48, 32], seed=SEED)
fcc = init_fcc(10, 32, SEED + 1)
pretrain(params, fcc, stream.base,
         PretrainLossConfig(lambda_ortho=0.1, mix_probability=0.4),
         epochs=50, lr=0.002, seed=SEED, batch_size=32)
metalearn(params, stream.base,
          MetaConfig(meta_samples=5, iterations=150, lr=0.01, query_batch=64),
          seed=SEED + 2)

print("\n== playing the stream (frozen weights, single-pass updates) ==")
report = run_protocol(copy.deepcopy(params), stream, QuantSpec())
header = "    ".join(f"s{t}" for t in range(len(report.session_accuracies)))
print(f"         {header}    avg")
row = " ".join(f"{a:.3f}" for a in report.session_accuracies)
print(f"accuracy {row}  {report.average:.4f}")

base_accs = report.base_class_accuracies
drops = [base_accs[0] - acc for acc in base_accs]
print("base-class accuracy drop per session:", [f"{d:+.3f}" for d in drops])
print("(the extractor and old prototypes are frozen, so any drop comes only",
      "\n from new prototypes competing in the argmax, never from drift)")

print("\n== optional projection-layer finetuning from the class mean activations ==")
ft_report = run_protocol(
    copy.deepcopy(params), stream, QuantSpec(),
    finetune=FinetuneConfig(epochs=20, sub_batch=4, lr=0.01),
)
row = " ".join(f"{a:.3f}" for a in ft_report.session_accuracies)
print(f"with FT  {row}  {ft_report.average:.4f}")
print("(finetuning pulls projected mean activations toward the bipolarized",
      "\n prototypes at extra compute cost; at this desk scale the effect is",
      "\n small and can land either side of the frozen run)")
