"""Session protocol: disjoint class streams, union-of-classes evaluation,
ablation rows, and the synthetic desk-scale datasets."""

from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import forward_backbone, forward_fcr, init_model
from .data import LabeledDataset, SessionStream
from .errors import ConflictingFlagsError, InsufficientSamplesError, SettingValueError
from .losses import PretrainLossConfig
from .memory import ActivationMemory, QuantSpec, aligned_copy, classify_batch
from .offline import MetaConfig, build_base_em, init_fcc, metalearn, pretrain
from .online import FinetuneConfig, finetune_fcr, learn_dataset

ABLATION_FLAGS = ("AG", "OR", "MM", "CE", "FT")


@dataclass
class SessionReport:
    session_accuracies: list
    average: float
    base_class_accuracies: list


def validate_stream(stream: SessionStream) -> list:
    """Check disjointness, way/shot counts, and test coverage.

    Returns a list of violation strings; empty means the stream is valid.
    """
    violations = []
    groups = [("base", stream.base)] + [
        (f"session {t + 1}", s) for t, s in enumerate(stream.sessions)
    ]
    seen: dict[int, str] = {}
    for name, ds in groups:
        for cid in ds.class_ids():
            if cid in seen:
                violations.append(
                    f"class {cid} appears in both {seen[cid]} and {name}"
                )
            else:
                seen[cid] = name
    for t, s in enumerate(stream.sessions, start=1):
        ids = s.class_ids()
        if len(ids) != stream.ways:
            violations.append(
                f"session {t} has {len(ids)} classes, expected {stream.ways}"
            )
        for cid in ids:
            got = int((s.labels == cid).sum())
            if got != stream.shots:
                violations.append(
                    f"session {t} class {cid} has {got} samples, expected {stream.shots}"
                )
    test_ids = set(stream.test.class_ids())
    for cid in sorted(seen):
        if cid not in test_ids:
            violations.append(f"class {cid} has no test samples")
    return violations


def require_test_rows(stream: SessionStream):
    """Refuse a stream with an empty test set, which leaves nothing to
    evaluate; callers check before they train or build a memory."""
    if len(stream.test) == 0:
        raise SettingValueError(
            "the test set is empty; evaluation needs test_per_class >= 1"
        )


def require_base_test_rows(stream: SessionStream) -> np.ndarray:
    """Refuse a stream whose test set is empty or holds no row of a base
    class, which leaves session 0 nothing to evaluate; returns the mask of
    base-class test rows. A protocol run checks before it trains or builds
    a memory; a sweep over novel-class test rows needs only test rows."""
    require_test_rows(stream)
    base_ids = stream.base.class_ids()
    is_base = np.isin(stream.test.labels, base_ids)
    if not is_base.any():
        raise InsufficientSamplesError(f"session 0 has no test sample of base classes {base_ids}")
    return is_base


def extract_features(params, dataset: LabeledDataset) -> np.ndarray:
    """Prototype-space features for every dataset row, in a 64-byte aligned
    copy: `classify_batch` scores a batch that starts mid cache line about
    17% slower."""
    return aligned_copy(forward_fcr(params, forward_backbone(params, dataset.inputs)))


def run_protocol(
    params,
    stream: SessionStream,
    quant: QuantSpec,
    finetune: FinetuneConfig | None = None,
) -> SessionReport:
    """Play the stream: build the base memory, absorb each incremental
    session with single-pass updates (then finetune the projection, unless
    `finetune` is None), and evaluate each stage on the union of classes seen.
    An activation memory, which only finetuning reads, is kept only then.

    The test rows go through the frozen extractor once, and through the
    projection again after each finetune.
    """
    is_base = require_base_test_rows(stream)
    test = stream.test
    act_mem = None if finetune is None else ActivationMemory(params.d_a)
    em, act_mem = build_base_em(params, stream.base, quant, act_mem)
    theta_a = forward_backbone(params, test.inputs)
    feats = forward_fcr(params, theta_a)
    accs, base_accs = [], []
    for t in range(len(stream.sessions) + 1):
        if t:
            learn_dataset(em, act_mem, params, stream.sessions[t - 1])
            if finetune is not None:
                finetune_fcr(params, act_mem, em, finetune)
                feats = forward_fcr(params, theta_a)
        in_stage = np.isin(test.labels, stream.classes_through(t))
        preds, _ = classify_batch(em, feats[in_stage])
        ok = preds == test.labels[in_stage]
        accs.append(int(ok.sum()) / len(ok))
        base_accs.append(int(ok[is_base[in_stage]].sum()) / int(is_base.sum()))
    return SessionReport(
        session_accuracies=accs,
        average=float(np.mean(accs)),
        base_class_accuracies=base_accs,
    )


def forgetting_metrics(base_only_accuracies) -> list:
    """Per-session drop of base-class accuracy relative to session 0."""
    ref = base_only_accuracies[0]
    return [ref - a for a in base_only_accuracies]


@dataclass
class TrainRecipe:
    """Run settings: one instance of each settings class, plus the model
    shape and pretraining schedule that no settings class owns. `grid` is
    the cutmix grid; None infers a square one from the input width."""

    loss: PretrainLossConfig = field(default_factory=PretrainLossConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    quant: QuantSpec = field(default_factory=QuantSpec)
    hidden: tuple = (96, 48)
    d_p: int = 32
    pretrain_epochs: int = 50
    pretrain_lr: float = 0.002
    batch_size: int = 32
    seed: int = 7
    grid: tuple | None = None


def pretrain_model(base: LabeledDataset, recipe: TrainRecipe):
    """Initialise an extractor and a linear head from the recipe's seed,
    then pretrain both on the base classes. Returns (params, history)."""
    dims = [base.input_dim, *recipe.hidden, recipe.d_p]
    params = init_model(dims, seed=recipe.seed)
    fcc = init_fcc(len(base.class_ids()), recipe.d_p, recipe.seed + 1)
    _, _, history = pretrain(
        params, fcc, base, recipe.loss,
        epochs=recipe.pretrain_epochs, lr=recipe.pretrain_lr,
        seed=recipe.seed, batch_size=recipe.batch_size, grid=recipe.grid,
    )
    return params, history


def metalearn_model(params, base: LabeledDataset, recipe: TrainRecipe):
    """Metalearn params in place on the base classes with the recipe's
    metalearning settings, seeded two past the recipe's seed (pretraining
    draws from the seed, its head from the next). Returns (params, history)."""
    return metalearn(params, base, recipe.meta, seed=recipe.seed + 2)


def _check_flags(flags):
    """Refuse an ablation row with an unknown flag, or with both MM and CE."""
    bad = set(flags) - set(ABLATION_FLAGS)
    if bad:
        raise ConflictingFlagsError(f"unknown flags {sorted(bad)}")
    if "MM" in flags and "CE" in flags:
        raise ConflictingFlagsError("MM and CE metalearning are mutually exclusive")


def train_pipeline(stream: SessionStream, recipe: TrainRecipe, flags: set):
    """One full pipeline for an ablation row: init, pretrain, optional
    metalearning, protocol run. The flags switch the recipe's
    augmentation and orthogonality terms off and pick the metalearning
    objective. Returns (params, report)."""
    require_base_test_rows(stream)
    _check_flags(flags)
    loss = recipe.loss
    row = replace(
        recipe,
        loss=replace(
            loss,
            lambda_ortho=loss.lambda_ortho if "OR" in flags else 0.0,
            mix_probability=loss.mix_probability if "AG" in flags else 0.0,
        ),
        meta=replace(recipe.meta, objective="mm" if "MM" in flags else "ce"),
    )
    params, _ = pretrain_model(stream.base, row)
    if "MM" in flags or "CE" in flags:
        metalearn_model(params, stream.base, row)
    return params, run_protocol(params, stream, row.quant, row.finetune if "FT" in flags else None)


def ablation_matrix(stream: SessionStream, rows, recipe: TrainRecipe) -> list:
    """Train and evaluate one configuration per flag set.

    rows: iterable of flag collections over {AG, OR, MM, CE, FT}, each
    checked before the first row trains.
    Returns [(flags_label, SessionReport), ...] in input order.
    """
    rows = [set(row) for row in rows]
    for flags in rows:
        _check_flags(flags)
    return [
        ("+".join(sorted(flags)) or "none", train_pipeline(stream, recipe, flags)[1])
        for flags in rows
    ]


def make_blob_dataset(
    num_classes: int,
    per_class: int,
    grid: int = 16,
    seed=0,
    noise: float = 0.05,
    max_shift: int = 1,
) -> LabeledDataset:
    """Gaussian-bump class templates rendered to a grid, jittered by
    integer shifts and pixel noise; inputs are flattened to [0, 1]."""
    if min(num_classes, per_class, grid) < 1 or noise < 0:
        raise SettingValueError(
            f"num_classes {num_classes}, per_class {per_class} and grid {grid} "
            f"must be >= 1, noise {noise} >= 0"
        )
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:grid, 0:grid]
    templates = []
    for _ in range(num_classes):
        img = np.zeros((grid, grid))
        for _ in range(2):
            cy, cx = rng.uniform(0.2 * grid, 0.8 * grid, size=2)
            sigma = rng.uniform(0.09, 0.16) * grid
            amp = rng.uniform(0.7, 1.0)
            img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        templates.append(np.clip(img, 0.0, 1.0))
    inputs = np.empty((num_classes * per_class, grid * grid))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    row = 0
    for cid, tpl in enumerate(templates):
        for _ in range(per_class):
            dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
            img = np.roll(tpl, (int(dy), int(dx)), axis=(0, 1))
            img = img + rng.normal(0.0, noise, size=img.shape)
            inputs[row] = np.clip(img, 0.0, 1.0).reshape(-1)
            labels[row] = cid
            row += 1
    return LabeledDataset(inputs, labels)
