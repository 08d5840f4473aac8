"""Server-side phases: supervised pretraining with a temporary
classification head, and episodic metalearning over recomputed
full-precision prototypes."""

from dataclasses import dataclass

import numpy as np

from .backbone import (
    DenseLayer,
    GradientTape,
    ModelParams,
    backward,
    forward_backbone,
    forward_fcr,
    sgd_step,
)
from .errors import (
    InsufficientSamplesError,
    NumericFailureError,
    SettingValueError,
    ShapeMismatchError,
    ZeroNormError,
)
from .losses import (
    PretrainLossConfig,
    cutmix,
    mixup,
    multi_margin_loss,
    pretrain_loss,
    sample_augmentation,
    softmax_ce_batch,
)
from .memory import ExplicitMemory, QuantSpec
from .numerics import ZERO_NORM_FLOOR, matmul, matvecs, relu, row_norms
from .online import learn_dataset

# pretraining has diverged once an epoch's mean CE exceeds this multiple of
# the first epoch's: the converging runs of the tests and the benchmark stay
# below 2x, and a rate known to diverge passes 300x by its second epoch
DIVERGED_CE_FACTOR = 10.0


def init_fcc(num_classes: int, d_p: int, seed) -> ModelParams:
    """The temporary pretraining classifier: one identity DenseLayer from
    d_p features to num_classes logits, Glorot-uniform over a seeded
    (num_classes, d_p) draw stored transposed, with zero bias."""
    if num_classes >= d_p:
        raise ShapeMismatchError("head needs fewer classes than feature dims (d_p > |C0|)")
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (num_classes + d_p))
    weight = rng.uniform(-limit, limit, size=(num_classes, d_p)).T
    return ModelParams([DenseLayer(weight, np.zeros(num_classes))])


@dataclass
class MetaConfig:
    """Settings of `metalearn`'s episodes.

    `lr` is a per-mean rate: `metalearn` divides the upstream gradient of
    its query batch by the number of queries (`upstream_q / nq`), so a
    step moves the weights by lr times the gradient of the mean query
    loss. `pretrain` and `finetune_fcr` take per-sum rates, applied to
    gradients summed over their batch. With a full batch of the default
    64 queries, the default lr = 0.01 is a per-sum rate of 0.01 / 64.
    """

    meta_samples: int = 5
    iterations: int = 500
    lr: float = 0.01
    margin: float = 0.1
    query_batch: int = 64
    objective: str = "mm"  # "mm" | "ce"

    def __post_init__(self):
        if self.meta_samples < 1 or self.iterations < 1:
            raise SettingValueError("meta_samples and iterations must be >= 1")
        if self.lr <= 0 or self.margin <= 0 or self.query_batch < 1:
            raise SettingValueError("lr, query_batch and margin must be positive")
        if self.objective not in ("mm", "ce"):
            raise SettingValueError("objective must be 'mm' or 'ce'")


def _one_hot_rows(labels, class_ids):
    """One-hot rows over the sorted class_ids."""
    out = np.zeros((len(labels), len(class_ids)))
    out[np.arange(len(labels)), np.searchsorted(class_ids, labels)] = 1.0
    return out


def _cutmix_grid(dim: int, grid):
    """The (H, W) grid cutmix cuts a dim-wide input on: grid, which must
    tile the input, or when grid is None the square grid of a square width."""
    if grid is None:
        side = int(round(dim**0.5))
        if side * side != dim:
            raise SettingValueError(
                f"mix_probability > 0 draws cutmix, which needs a grid: input width "
                f"{dim} is not square, so set a grid that tiles it or mix_probability=0"
            )
        return side, side
    h, w = grid
    if min(h, w) < 1 or dim % (h * w):
        raise SettingValueError(
            f"mix_probability > 0 draws cutmix, but grid {h}x{w} does not tile "
            f"input width {dim}"
        )
    return h, w


def pretrain(
    params,
    fcc: ModelParams,
    base_dataset,
    cfg: PretrainLossConfig,
    epochs: int,
    lr: float,
    seed,
    *,
    batch_size: int,
    grid=None,
):
    """Minibatch SGD on the composite CE + orthogonality objective.

    Both loss terms are batch sums, so one lambda balances them across
    batch sizes; learning rates are correspondingly per-sum (a mean-loss
    rate divided by the batch size lands in the same regime). One
    augmentation decision per batch; interpolation pairs each row with a
    shuffled partner. History rows are (epoch, per-sample CE, per-batch
    ortho, train accuracy on the un-augmented labels). Deterministic
    under a fixed seed. Raises NumericFailureError on a non-finite loss,
    and once an epoch's CE exceeds DIVERGED_CE_FACTOR times the first's.

    fcc is the one-layer head from `init_fcc`: its only layer is its
    projection, so it runs through `forward_fcr` on its own tape and is
    updated by the same `sgd_step`; its input gradient, taken through its
    weight before that update, is passed down to the projection.
    """
    if batch_size < 1:
        raise SettingValueError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 1 or not lr > 0:
        raise SettingValueError(f"pretrain needs epochs >= 1 and lr > 0, got {epochs} and {lr}")
    rng = np.random.default_rng(seed)
    class_ids = base_dataset.class_ids()
    if len(class_ids) != fcc.d_p:  # the head's output width
        raise ShapeMismatchError(f"dataset has {len(class_ids)} classes, head expects {fcc.d_p}")
    if cfg.mix_probability > 0:
        grid = _cutmix_grid(base_dataset.input_dim, grid)
    n = len(base_dataset)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        ce_sum = ortho_sum = 0.0
        hits = total = 0
        nbatches = 0
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            x = base_dataset.inputs[idx]
            hard = base_dataset.labels[idx]
            targets = _one_hot_rows(hard, class_ids)
            mode = sample_augmentation(cfg, rng)
            if mode != "none" and len(idx) > 1:
                partner = rng.permutation(len(idx))
                if mode == "mixup":
                    x, targets = mixup(
                        x, x[partner], targets, targets[partner], cfg.mix_alpha, rng
                    )
                else:
                    mixed = [
                        cutmix(x[i], x[j], targets[i], targets[j], cfg.mix_alpha, rng, grid)
                        for i, j in enumerate(partner.tolist())
                    ]
                    x, targets = (np.array(rows) for rows in zip(*mixed))
            tape = GradientTape()
            theta_a = forward_backbone(params, x, tape)
            theta_p = forward_fcr(params, theta_a, tape)
            head_tape = GradientTape()
            logits = forward_fcr(fcc, theta_p, head_tape)
            loss, grad_logits, grad_theta, (ce_part, ortho_part) = pretrain_loss(
                logits, targets, theta_p, cfg
            )
            if not np.isfinite(loss):
                raise NumericFailureError(f"non-finite loss at epoch {epoch}")
            ce_sum += ce_part
            ortho_sum += ortho_part
            nbatches += 1
            pred = logits.argmax(axis=1)
            hits += int((np.asarray(class_ids)[pred] == hard).sum())
            total += len(idx)
            backward(fcc, head_tape, grad_logits)
            # the head's input gradient, through its weight before the update
            grad_head = matmul(grad_logits, fcc.layers[0].weight.T)
            backward(params, tape, grad_head + grad_theta)
            sgd_step(params, tape, lr)
            sgd_step(fcc, head_tape, lr)
        history.append((epoch, ce_sum / total, ortho_sum / nbatches, hits / total))
        if history[-1][1] > DIVERGED_CE_FACTOR * history[0][1]:
            raise NumericFailureError(
                f"pretraining diverged: epoch {epoch} mean CE {history[-1][1]:.3g} is above "
                f"{DIVERGED_CE_FACTOR:g}x epoch 0's {history[0][1]:.3g}"
            )
    return params, fcc, history


def _cosines(theta_q, protos):
    """Cosine of each query row against each prototype row: (cos, q_hat,
    q_norm, p_hat), each query's values bitwise those of scoring it alone."""
    p_norm = np.linalg.norm(protos, axis=1)
    if np.any(p_norm < ZERO_NORM_FLOOR):
        raise ZeroNormError("a prototype has near-zero norm")
    q_norm = row_norms(theta_q)
    if np.any(q_norm < ZERO_NORM_FLOOR):
        raise ZeroNormError("query feature has near-zero norm")
    q_hat = theta_q / q_norm[:, None]
    p_hat = protos / p_norm[:, None]
    cos = matvecs(p_hat, q_hat)
    return cos, q_hat, q_norm, p_hat


def _score_jacobians(cos, q_hat, q_norm, p_hat):
    """Per query and class, the d(score)/d(theta_p) row of the
    ReLU-sharpened cosine scores, zero where the ReLU gate is closed: a
    (B, C, d) array."""
    gate = (cos > 0).astype(np.float64)[:, :, None]
    return gate * (p_hat - cos[:, :, None] * q_hat[:, None, :]) / q_norm[:, None, None]


# elements in each (queries, classes, d_p) gradient temporary of metalearn
_JACOBIAN_CHUNK = 1 << 15


def _query_step(theta_q, protos, gts, cfg: MetaConfig):
    """Objective and gradient of one query batch against fixed
    prototypes: (loss summed over the queries in order, hits,
    d loss / d theta_q), each query's terms bitwise those of scoring it
    alone."""
    cos, q_hat, q_norm, p_hat = _cosines(theta_q, protos)
    scores = relu(cos)
    if cfg.objective == "mm":
        loss_sum, dl = multi_margin_loss(scores, gts, cfg.margin)
    else:
        loss_sum, dl = softmax_ce_batch(scores, gts)
    hits = int(np.count_nonzero(scores.argmax(axis=1) == gts))
    upstream_q = np.empty_like(theta_q)
    step = max(1, _JACOBIAN_CHUNK // protos.size)
    for lo in range(0, len(theta_q), step):
        rows = slice(lo, lo + step)
        dtheta = _score_jacobians(cos[rows], q_hat[rows], q_norm[rows], p_hat)
        upstream_q[rows] = matvecs(dtheta.swapaxes(-1, -2), dl[rows])
    return loss_sum, hits, upstream_q


def metalearn(params, base_dataset, cfg: MetaConfig, seed):
    """Episodic training: each iteration recomputes class prototypes from
    N meta-samples per class, scores a query batch, and updates the
    extractor and projection by SGD on the margin (or CE) objective.

    Prototypes are constants for the gradient, so the meta-sample
    forward keeps no tape. Returns (params, history) with history rows
    (iteration, mean loss, query accuracy).
    """
    rng = np.random.default_rng(seed)
    class_ids = base_dataset.class_ids()
    pools = {c: base_dataset.indices_of(c) for c in class_ids}
    for c, pool in pools.items():
        if len(pool) < cfg.meta_samples:
            raise InsufficientSamplesError(
                f"class {c} has {len(pool)} samples, needs {cfg.meta_samples} meta-samples"
            )
    history = []
    for it in range(cfg.iterations):
        meta_rows = []
        for c in class_ids:
            take = rng.choice(len(pools[c]), size=cfg.meta_samples, replace=False)
            meta_rows.append(pools[c][take])
        meta_idx = np.concatenate(meta_rows)
        theta_meta = forward_fcr(params, forward_backbone(params, base_dataset.inputs[meta_idx]))
        protos = theta_meta.reshape(len(class_ids), cfg.meta_samples, -1).mean(axis=1)
        free = np.ones(len(base_dataset), dtype=bool)
        free[meta_idx] = False
        pool_rest = np.flatnonzero(free)
        if len(pool_rest) == 0:
            raise InsufficientSamplesError("no query samples left after meta-sampling")
        q_take = rng.choice(
            len(pool_rest), size=min(cfg.query_batch, len(pool_rest)), replace=False
        )
        q_idx = pool_rest[q_take]
        q_tape = GradientTape()
        theta_q = forward_fcr(
            params, forward_backbone(params, base_dataset.inputs[q_idx], q_tape), q_tape
        )
        gts = np.searchsorted(class_ids, base_dataset.labels[q_idx])
        loss_sum, hits, upstream_q = _query_step(theta_q, protos, gts, cfg)
        nq = len(q_idx)
        mean_loss = loss_sum / nq
        if not np.isfinite(mean_loss):
            raise NumericFailureError(f"non-finite metalearning loss at iteration {it}")
        backward(params, q_tape, upstream_q / nq)
        sgd_step(params, q_tape, cfg.lr)
        history.append((it, mean_loss, hits / nq))
    return params, history


def build_base_em(params, base_dataset, quant: QuantSpec, means=None):
    """Populate a fresh explicit memory with one prototype per base class,
    each from a single pass over its samples, and the dict `means` with
    their mean activations unless it is None (only finetuning reads them).
    Returns (em, means)."""
    em = ExplicitMemory(params.d_p, quant)
    return learn_dataset(em, means, params, base_dataset)
