"""Loss functions and feature-interpolation augmentations with analytic gradients."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SettingValueError, ShapeMismatchError, ZeroNormError
from .numerics import ZERO_NORM_FLOOR, as_matrix, as_vector, matmul, softmax_ce


@dataclass
class PretrainLossConfig:
    lambda_ortho: float = 0.1
    mix_probability: float = 0.4
    mix_alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mix_probability <= 1.0:
            raise SettingValueError("mix_probability must be in [0, 1]")
        if self.lambda_ortho < 0:
            raise SettingValueError("lambda_ortho must be nonnegative")
        if self.mix_alpha <= 0:
            raise SettingValueError("mix_alpha must be positive")


def ortho_loss(theta_pb):
    """Pairwise-orthogonality penalty over a feature batch.

    Rows are unit-normalized, G = U @ U.T, and the loss is the squared
    Frobenius distance of G from the identity; off-diagonal Gram mass is
    what gets penalized since the diagonal is 1 by construction. Returns
    (loss, grad) with the gradient taken w.r.t. the unnormalized rows.
    """
    x = as_matrix(theta_pb)
    if x.shape[0] < 2:
        raise ShapeMismatchError("orthogonality loss needs a batch of at least 2 rows")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < ZERO_NORM_FLOOR):
        raise ZeroNormError("a feature row has near-zero norm")
    u = x / norms[:, None]
    gram = matmul(u, u.T)
    err = gram - np.eye(x.shape[0])
    loss = float((err * err).sum())
    grad_u = 4.0 * matmul(err, u)
    # chain rule through row normalization: du/dx = (I - u u^T) / |x|
    proj = (grad_u * u).sum(axis=1)
    grad_x = (grad_u - proj[:, None] * u) / norms[:, None]
    return loss, grad_x


def softmax_ce_batch(logits, targets):
    """Total cross-entropy over a batch; targets are indices or soft rows.

    Summed, not averaged: the composite pretraining objective adds a
    Gram penalty that is itself a sum over batch pairs, and the two
    terms must share the batch scaling for one weight to balance them.
    """
    z = as_matrix(logits)
    b = z.shape[0]
    grad = np.zeros_like(z)
    total = 0.0
    t_arr = np.asarray(targets)
    for i in range(b):
        t_i = t_arr[i] if t_arr.ndim else t_arr
        loss_i, g_i = softmax_ce(z[i], t_i)
        total += loss_i
        grad[i] = g_i
    return total, grad


def pretrain_loss(logits, targets, theta_pb, cfg: PretrainLossConfig):
    """Composite pretraining objective: mean CE + lambda_ortho * ortho penalty.

    Returns (loss, grad_logits, grad_theta). With lambda_ortho == 0 the
    orthogonality branch is skipped entirely and the result equals the CE
    term alone.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 1:
        ce, grad_logits = softmax_ce(z, targets)
    else:
        ce, grad_logits = softmax_ce_batch(z, targets)
    theta = np.asarray(theta_pb, dtype=np.float64)
    if cfg.lambda_ortho > 0:
        ol, grad_theta = ortho_loss(theta)
        return ce + cfg.lambda_ortho * ol, grad_logits, cfg.lambda_ortho * grad_theta
    return ce, grad_logits, np.zeros_like(theta, dtype=np.float64)


def multi_margin_loss(scores, gt: int, m: float):
    """Squared-hinge margin loss over class scores, averaged by class count.

    loss = sum_{i != gt} max(0, m - l_gt + l_i)^2 / C. The subgradient at
    the hinge kink is 0. Returns (loss, grad).
    """
    l = as_vector(scores)
    c = l.size
    if not 0 <= gt < c:
        raise ShapeMismatchError(f"ground-truth index {gt} out of range for {c} scores")
    h = m - l[gt] + l
    h[gt] = 0.0
    active = h > 0
    loss = float((h[active] ** 2).sum()) / c
    grad = np.zeros_like(l)
    grad[active] = 2.0 * h[active] / c
    grad[gt] = -float(grad[active].sum())
    return loss, grad


def mixup(x1, x2, y1, y2, alpha: float, rng, lam: float | None = None):
    """Convex interpolation of two samples and their soft labels.

    lam ~ Beta(alpha, alpha) unless forced explicitly (tests and replay).
    """
    a = as_vector(x1)
    b = as_vector(x2)
    if a.shape != b.shape:
        raise ShapeMismatchError("mixup inputs differ in dimension")
    ya = as_vector(y1)
    yb = as_vector(y2)
    if ya.shape != yb.shape:
        raise ShapeMismatchError("mixup labels differ in dimension")
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    return lam * a + (1.0 - lam) * b, lam * ya + (1.0 - lam) * yb


def cutmix(x1, x2, y1, y2, alpha: float, rng, grid, lam: float | None = None, patch=None):
    """Paste a rectangular patch of x2 into x1; mix labels by patch area.

    Inputs are flat vectors interpreted as (channels, H, W) with
    channels = dim / (H*W). The patch cuts through all channels. The
    label weight on y2 equals the exact fraction of grid cells replaced.
    `patch` = (r0, r1, c0, c1) pins the rectangle for tests.
    """
    a = as_vector(x1)
    b = as_vector(x2)
    if a.shape != b.shape:
        raise ShapeMismatchError("cutmix inputs differ in dimension")
    ya = as_vector(y1)
    yb = as_vector(y2)
    h, w = grid
    if a.size % (h * w) != 0:
        raise ShapeMismatchError(f"input dim {a.size} is not a multiple of grid {h}x{w}")
    channels = a.size // (h * w)
    if patch is None:
        if lam is None:
            lam = float(rng.beta(alpha, alpha))
        cut = math.sqrt(max(0.0, 1.0 - lam))
        ph, pw = int(round(h * cut)), int(round(w * cut))
        cy = int(rng.integers(0, h))
        cx = int(rng.integers(0, w))
        r0, r1 = max(0, cy - ph // 2), min(h, cy + (ph + 1) // 2)
        c0, c1 = max(0, cx - pw // 2), min(w, cx + (pw + 1) // 2)
    else:
        r0, r1, c0, c1 = patch
    xa = a.reshape(channels, h, w).copy()
    xb = b.reshape(channels, h, w)
    xa[:, r0:r1, c0:c1] = xb[:, r0:r1, c0:c1]
    frac = (r1 - r0) * (c1 - c0) / (h * w)
    return xa.reshape(-1), (1.0 - frac) * ya + frac * yb


def sample_augmentation(cfg: PretrainLossConfig, rng) -> str:
    """Draw the per-batch augmentation mode: none, mixup, or cutmix.

    Interpolation fires with probability mix_probability; mixup and
    cutmix split that mass equally and are never combined.
    """
    if rng.random() >= cfg.mix_probability:
        return "none"
    return "mixup" if rng.random() < 0.5 else "cutmix"
