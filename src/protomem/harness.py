"""Session protocol: disjoint class streams, union-of-classes evaluation,
ablation rows, and the synthetic desk-scale datasets."""

from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import forward_backbone, forward_fcr, init_model
from .data import LabeledDataset, SessionStream
from .errors import ConflictingFlagsError, InsufficientSamplesError, SettingValueError
from .errors import ShapeMismatchError
from .losses import PretrainLossConfig
from .memory import QuantSpec, classify_batch
from .offline import MetaConfig, build_base_em, init_fcc, metalearn, pretrain
from .numerics import check_finite
from .online import FinetuneConfig, finetune_fcr, learn_dataset

ABLATION_FLAGS = ("AG", "OR", "MM", "CE", "FT")


@dataclass
class SessionReport:
    session_accuracies: list
    average: float
    base_class_accuracies: list
    evaluated_class_sets: list  # sorted class ids evaluated per session
    evaluated_counts: list  # test samples touched per session
    probe_scores: list  # per session: list of {class_id: score} per probe
    config_echo: dict = field(default_factory=dict)


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
    """Prototype-space features for every dataset row."""
    return forward_fcr(params, forward_backbone(params, dataset.inputs))


def run_protocol(
    params,
    stream: SessionStream,
    quant: QuantSpec,
    finetune: bool = False,
    ft_cfg: FinetuneConfig | None = None,
    probes=None,
) -> SessionReport:
    """Play the stream: build the base memory, absorb each incremental
    session with single-pass updates (optionally finetuning the
    projection), and evaluate each stage on the union of classes seen.

    Test rows and probes, a (P, input_dim) array-like, go through the frozen
    extractor once, and through the projection again after each finetune.
    """
    is_base = require_base_test_rows(stream)
    test = stream.test
    probe_x = check_finite([] if probes is None else probes, "probes")
    if probe_x.shape == (0,):  # an empty sequence
        probe_x = probe_x.reshape(0, test.input_dim)
    if probe_x.ndim != 2 or probe_x.shape[1] != test.input_dim:
        raise ShapeMismatchError(f"probes must be (P, {test.input_dim}), got {probe_x.shape}")
    em, act_mem = build_base_em(params, stream.base, quant)
    theta_a = forward_backbone(params, np.concatenate([test.inputs, probe_x]))
    feats = forward_fcr(params, theta_a)
    is_probe = np.ones(len(probe_x), dtype=bool)
    accs, base_accs, class_sets, counts, probe_scores = [], [], [], [], []
    for t in range(len(stream.sessions) + 1):
        if t:
            learn_dataset(em, act_mem, params, stream.sessions[t - 1])
            if finetune:
                finetune_fcr(params, act_mem, em, ft_cfg or FinetuneConfig())
                feats = forward_fcr(params, theta_a)
        seen = stream.classes_through(t)
        in_stage = np.isin(test.labels, seen)
        preds, scores = classify_batch(em, feats[np.append(in_stage, is_probe)])
        n = int(in_stage.sum())
        ok = preds[:n] == test.labels[in_stage]
        accs.append(int(ok.sum()) / n)
        base_accs.append(int(ok[is_base[in_stage]].sum()) / int(is_base.sum()))
        class_sets.append(seen)
        counts.append(n)
        probe_scores.append([dict(zip(em.class_ids(), row)) for row in scores[n:].tolist()])
    return SessionReport(
        session_accuracies=accs,
        average=float(np.mean(accs)),
        base_class_accuracies=base_accs,
        evaluated_class_sets=class_sets,
        evaluated_counts=counts,
        probe_scores=probe_scores,
        config_echo={
            "ways": stream.ways,
            "shots": stream.shots,
            "finetune": finetune,
            "prototype_bits": quant.prototype_bits,
            "feature_bits": quant.feature_bits,
            "d_a": params.d_a,
            "d_p": params.d_p,
        },
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


def train_pipeline(stream: SessionStream, recipe: TrainRecipe, flags: set):
    """One full pipeline for an ablation row: init, pretrain, optional
    metalearning, protocol run. The flags switch the recipe's
    augmentation and orthogonality terms off and pick the metalearning
    objective. Returns (params, report)."""
    require_base_test_rows(stream)
    bad = set(flags) - set(ABLATION_FLAGS)
    if bad:
        raise ConflictingFlagsError(f"unknown flags {sorted(bad)}")
    if "MM" in flags and "CE" in flags:
        raise ConflictingFlagsError("MM and CE metalearning are mutually exclusive")
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
        metalearn(params, stream.base, row.meta, seed=row.seed + 2)
    report = run_protocol(
        params, stream, row.quant, finetune="FT" in flags, ft_cfg=row.finetune
    )
    report.config_echo["flags"] = "+".join(sorted(flags)) if flags else "none"
    report.config_echo["lambda_ortho"] = row.loss.lambda_ortho
    report.config_echo["mix_probability"] = row.loss.mix_probability
    return params, report


def ablation_matrix(stream: SessionStream, rows, recipe: TrainRecipe) -> list:
    """Train and evaluate one configuration per flag set.

    rows: iterable of flag collections over {AG, OR, MM, CE, FT}.
    Returns [(flags_label, SessionReport), ...] in input order.
    """
    out = []
    for row in rows:
        flags = set(row)
        _, report = train_pipeline(stream, recipe, flags)
        out.append((report.config_echo["flags"], report))
    return out


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
