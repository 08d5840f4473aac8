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


def learn_class(em, act_mem, params, samples, class_id: int):
    """Absorb one new class with a single forward pass per sample.

    Features are quantized and summed into an exact integer accumulator;
    the class mean is never materialized (cosine scoring is
    scale-invariant). Extractor and projection weights stay untouched.
    `act_mem` is None when no activation memory is kept: only finetuning
    reads one. Both memories are checked before either is written.
    """
    if class_id in em or act_mem is not None and class_id in act_mem:
        raise DuplicateClassError(f"class {class_id} already learned")
    if act_mem is not None and act_mem.d_a != params.d_a:
        raise ShapeMismatchError(f"activation memory d_a {act_mem.d_a} != model d_a {params.d_a}")
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
    accum = quantize_rows(theta_p, em.quant.feature_bits).values.sum(axis=0)
    em.add_accumulated(class_id, accum, shots)
    if act_mem is not None:
        act_mem.add_batch(class_id, theta_a)
    return em, act_mem


def learn_dataset(em, act_mem, params, dataset):
    """Absorb every class of `dataset`, one `learn_class` each, in class-id
    order: the one order in which a stream's classes enter the memories.
    `act_mem` may be None, as in `learn_class`."""
    for cid in dataset.class_ids():
        learn_class(em, act_mem, params, dataset.inputs[dataset.indices_of(cid)], cid)
    return em, act_mem


def check_aligned(em, act_mem):
    """Refuse an explicit and activation memory pair whose class-id sets
    differ: finetuning pairs each prototype with its class's mean
    activation."""
    em_ids, am_ids = sorted(em.class_ids()), sorted(act_mem.class_ids())
    if em_ids != am_ids:
        raise MisalignedMemoriesError(f"memory class sets differ: em={em_ids} act={am_ids}")


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


def finetune_fcr(params, act_mem, em, cfg: FinetuneConfig):
    """Batched gradient descent pulling projected mean activations toward
    the bipolarized class prototypes; the extractor and the memory are
    read-only.

    Returns the per-epoch total loss history (recorded before each
    epoch's updates land in the following groups).
    """
    check_aligned(em, act_mem)
    order = np.argsort(act_mem.ids)
    inputs = act_mem.sums[order] / act_mem.counts[order, None]
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
