"""On-device learning paths: single-pass prototype accumulation and
optional frozen-extractor finetuning of the projection layer."""

from dataclasses import dataclass

import numpy as np

from .backbone import GradientTape, backward, forward_backbone, forward_fcr, sgd_step
from .errors import (
    DuplicateClassError,
    EmptySampleSetError,
    MisalignedMemoriesError,
    SettingValueError,
    ShapeMismatchError,
    ZeroNormError,
)
from .memory import bipolarize, quantize_rows
from .numerics import ZERO_NORM_FLOOR, row_norms, rowdot


@dataclass
class FinetuneConfig:
    epochs: int = 100
    sub_batch: int = 4
    lr: float = 0.01

    def __post_init__(self):
        # lr == 0 is allowed: it makes the update a no-op, which tests rely on
        if self.epochs < 1 or self.sub_batch < 1 or self.lr < 0:
            raise SettingValueError("epochs, sub_batch must be >= 1 and lr >= 0")


def learn_class(em, means, params, samples, class_id: int):
    """Absorb one new class with a single forward pass per sample.

    Features are quantized and summed into an exact integer accumulator;
    the class mean is never materialized (cosine scoring is
    scale-invariant). Extractor and projection weights stay untouched.
    `means` maps class ids to mean extractor activations, the one input
    of `finetune_fcr`, or is None when finetuning is off; the class's mean
    is added to it. A class already in `em` or in `means` is refused
    before either is written.
    """
    if class_id in em or means is not None and int(class_id) in means:
        raise DuplicateClassError(f"class {class_id} already learned")
    if em.d_p != params.d_p:
        raise ShapeMismatchError(f"explicit memory d_p {em.d_p} != model d_p {params.d_p}")
    batch = np.asarray(samples, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[0] == 0:
        raise EmptySampleSetError("learn_class needs at least one sample")
    shots = batch.shape[0]
    if shots > em.quant.max_shots:
        raise SettingValueError(
            f"{shots} shots exceed the declared max_shots {em.quant.max_shots}"
        )
    theta_a = forward_backbone(params, batch)
    theta_p = forward_fcr(params, theta_a)
    accum = quantize_rows(theta_p, em.quant.feature_bits).sum(axis=0)
    em.add_accumulated(class_id, accum, shots)
    if means is not None:
        means[int(class_id)] = theta_a.sum(axis=0) / shots
    return em, means


def learn_dataset(em, means, params, dataset):
    """Absorb every class of `dataset`, one `learn_class` each, in class-id
    order: the one order in which a stream's classes enter the memory.
    `means` is None or a dict of class means, as in `learn_class`."""
    for cid in dataset.class_ids():
        learn_class(em, means, params, dataset.inputs[dataset.indices_of(cid)], cid)
    return em, means


def _cosine_target_grads(y: np.ndarray, targets: np.ndarray):
    """Per-row losses 1 - cossim(y_i, target_i) and their gradients
    w.r.t. the rows y_i, each row's values bitwise those of scoring it
    alone: (losses (B,), grads (B, d))."""
    ny = row_norms(y)
    nt = row_norms(targets)
    if np.any(ny < ZERO_NORM_FLOOR) or np.any(nt < ZERO_NORM_FLOOR):
        raise ZeroNormError("zero-norm vector in cosine objective")
    y_hat = y / ny[:, None]
    t_hat = targets / nt[:, None]
    cos = rowdot(y_hat, t_hat)
    grads = -(t_hat - cos[:, None] * y_hat) / ny[:, None]
    return 1.0 - cos, grads


def finetune_fcr(params, means, em, cfg: FinetuneConfig):
    """Batched gradient descent pulling projected mean activations toward
    the bipolarized class prototypes; the extractor and the memory are
    read-only.

    `means` maps each class id of `em` to its (d_a,) mean activation, as
    `learn_class` stores it. Returns the per-epoch total loss history
    (recorded before each epoch's updates land in the following groups).
    Refuses, before any update, class-id sets that differ, since each
    prototype is paired with its class's mean activation, and a mean that
    is not d_a wide.
    """
    em_ids, mean_ids = sorted(em.class_ids()), sorted(means)
    if em_ids != mean_ids:
        raise MisalignedMemoriesError(f"memory class sets differ: em={em_ids} means={mean_ids}")
    for c in mean_ids:
        shape = np.shape(means[c])
        if shape != (params.d_a,):
            raise ShapeMismatchError(f"class {c} mean of shape {shape} != ({params.d_a},)")
    inputs = np.array([means[c] for c in mean_ids], dtype=np.float64)
    targets = bipolarize(em.reduced[np.argsort(em.ids)]).astype(np.float64)
    history = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for lo in range(0, len(em), cfg.sub_batch):
            rows = slice(lo, lo + cfg.sub_batch)
            tape = GradientTape()  # records the projection only, so trains only it
            out = forward_fcr(params, inputs[rows], tape)
            losses, upstream = _cosine_target_grads(out, targets[rows])
            for loss_j in losses.tolist():  # rows in order
                epoch_loss += loss_j
            backward(params, tape, upstream)
            sgd_step(params, tape, cfg.lr)
        history.append(epoch_loss)
    return history
