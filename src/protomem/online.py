"""On-device learning paths: single-pass prototype accumulation and
optional frozen-extractor finetuning of the projection layer."""

import struct
from dataclasses import dataclass

import numpy as np

from .backbone import GradientTape, backward, forward_backbone, forward_fcr, sgd_step
from .errors import (
    DuplicateClassError,
    EmptySampleSetError,
    FormatVersionMismatchError,
    MisalignedMemoriesError,
    SettingValueError,
    ShapeMismatchError,
    ZeroNormError,
)
from .memory import ACTMEM_MAGIC, SNAPSHOT_VERSION, bipolarize, quantize_feature
from .numerics import ZERO_NORM_FLOOR


class ActivationMemory:
    """Per-class running sums of intermediate features; means on demand."""

    def __init__(self, d_a: int):
        if d_a < 1:
            raise ShapeMismatchError("d_a must be positive")
        self.d_a = d_a
        self._sums: dict[int, np.ndarray] = {}
        self._counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._sums)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._sums

    def class_ids(self) -> list:
        return list(self._sums)

    def count(self, class_id: int) -> int:
        return self._counts[class_id]

    def add_batch(self, class_id: int, thetas):
        batch = np.asarray(thetas, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.shape[1] != self.d_a:
            raise ShapeMismatchError(f"activation dim {batch.shape[1]} != d_a {self.d_a}")
        if class_id not in self._sums:
            self._sums[class_id] = np.zeros(self.d_a)
            self._counts[class_id] = 0
        self._sums[class_id] += batch.sum(axis=0)
        self._counts[class_id] += batch.shape[0]

    def mean(self, class_id: int) -> np.ndarray:
        return self._sums[class_id] / self._counts[class_id]


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
    """
    if class_id in em:
        raise DuplicateClassError(f"class {class_id} already learned")
    batch = np.asarray(samples, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[0] == 0:
        raise EmptySampleSetError("learn_class needs at least one sample")
    shots = batch.shape[0]
    if shots > em.quant.max_shots:
        raise ValueError(
            f"{shots} shots exceed the declared max_shots {em.quant.max_shots}"
        )
    theta_a = forward_backbone(params, batch)
    theta_p = forward_fcr(params, theta_a)
    accum = np.zeros(em.d_p, dtype=np.int64)
    for row in theta_p:
        accum += quantize_feature(row, em.quant.feature_bits).values
    em.add_accumulated(class_id, accum, shots)
    act_mem.add_batch(class_id, theta_a)
    return em, act_mem


def subbatch_plan(num_classes: int, n: int) -> list:
    """Round-robin index groups of size n; the last group may be smaller."""
    if n < 1:
        raise ValueError("sub-batch size must be >= 1")
    return [list(range(k, min(k + n, num_classes))) for k in range(0, num_classes, n)]


def _cosine_target_grad(y: np.ndarray, target: np.ndarray):
    """Loss 1 - cossim(y, target) and its gradient w.r.t. y."""
    ny = float(np.linalg.norm(y))
    nt = float(np.linalg.norm(target))
    if ny < ZERO_NORM_FLOOR or nt < ZERO_NORM_FLOOR:
        raise ZeroNormError("zero-norm vector in cosine objective")
    y_hat = y / ny
    t_hat = target / nt
    cos = float(np.dot(y_hat, t_hat))
    grad = -(t_hat - cos * y_hat) / ny
    return 1.0 - cos, grad


def finetune_fcr(params, act_mem, em, cfg: FinetuneConfig):
    """Batched gradient descent pulling projected mean activations toward
    the bipolarized class prototypes; the extractor and the memory are
    read-only.

    Returns the per-epoch total loss history (recorded before each
    epoch's updates land in the following groups).
    """
    em_ids = sorted(em.class_ids())
    am_ids = sorted(act_mem.class_ids())
    if em_ids != am_ids:
        raise MisalignedMemoriesError(
            f"memory class sets differ: em={em_ids} act={am_ids}"
        )
    inputs = np.stack([act_mem.mean(c) for c in em_ids])
    targets = bipolarize(em.reduced[np.argsort(em.ids)]).astype(np.float64)
    plan = subbatch_plan(len(em_ids), cfg.sub_batch)
    history = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for group in plan:
            idx = np.asarray(group)
            tape = GradientTape()
            out = forward_fcr(params, inputs[idx], tape)
            upstream = np.zeros_like(out)
            for j in range(len(group)):
                loss_j, grad_j = _cosine_target_grad(out[j], targets[idx[j]])
                epoch_loss += loss_j
                upstream[j] = grad_j
            backward(params, tape, upstream, frozen_backbone=True)
            sgd_step(params, tape, cfg.lr)
        history.append(epoch_loss)
    return history


def save_actmem(act_mem: ActivationMemory, path):
    """Activation-memory snapshot in the same container shape as the
    prototype store, with float64 running sums as payload."""
    with open(path, "wb") as fh:
        fh.write(ACTMEM_MAGIC)
        fh.write(struct.pack("<IIIII", SNAPSHOT_VERSION, len(act_mem), act_mem.d_a, 64, 0))
        for cid in act_mem.class_ids():
            fh.write(struct.pack("<II", cid, act_mem.count(cid)))
            fh.write(act_mem._sums[cid].astype("<f8").tobytes())


def load_actmem(path) -> ActivationMemory:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 24 or blob[:4] != ACTMEM_MAGIC:
        raise FormatVersionMismatchError(f"{path}: bad magic")
    version, n, d_a, bits, _shift = struct.unpack_from("<IIIII", blob, 4)
    if version != SNAPSHOT_VERSION or bits != 64:
        raise FormatVersionMismatchError(f"{path}: unsupported version or payload width")
    mem = ActivationMemory(d_a)
    off = 24
    for _ in range(n):
        if off + 8 + d_a * 8 > len(blob):
            raise FormatVersionMismatchError(f"{path}: truncated payload")
        cid, count = struct.unpack_from("<II", blob, off)
        off += 8
        total = np.frombuffer(blob, dtype="<f8", count=d_a, offset=off).copy()
        off += d_a * 8
        mem._sums[cid] = total
        mem._counts[cid] = count
    return mem
