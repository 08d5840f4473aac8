"""Loss functions and feature-interpolation augmentations with analytic gradients."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SettingValueError, ShapeMismatchError, ZeroNormError
from .numerics import ZERO_NORM_FLOOR, as_matrix, as_vector, matmul


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
    Takes one row of logits with its index or soft row, or a (B, C)
    batch with an index per row (or one for every row) or a soft row per
    row; the total adds the row losses in row order. Each row's loss and gradient
    are bitwise those of scoring it alone. Returns (loss, grad) with
    grad = softmax - target, shaped like the logits.
    """
    l = np.asarray(logits, dtype=np.float64)
    z = as_matrix(l[None] if l.ndim == 1 else l)
    shifted = z - z.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    logp = shifted - np.log(total)
    grad = exp / total
    t = np.asarray(targets)
    if l.ndim == 1 and t.ndim == 1:
        t = t[None]
    if t.ndim < 2:
        idx = (np.full(len(z), t) if t.ndim == 0 else t).astype(np.int64)
        if idx.shape != z.shape[:1] or np.any((idx < 0) | (idx >= z.shape[1])):
            raise ShapeMismatchError(f"target indices {t} do not fit {z.shape} logits")
        rows = np.arange(len(z))
        losses = -logp[rows, idx]
        grad[rows, idx] -= 1.0
    else:
        t = t.astype(np.float64)
        if t.shape != z.shape:
            raise ShapeMismatchError("soft target rows differ from logits")
        # per-row dot products, see numerics.row_norms
        losses = -np.matmul(t[:, None, :], logp[:, :, None])[:, 0, 0]
        grad -= t
    loss = 0.0
    for row_loss in losses.tolist():
        loss += row_loss
    return loss, grad if l.ndim == 2 else grad[0]


def pretrain_loss(logits, targets, theta_pb, cfg: PretrainLossConfig):
    """Composite pretraining objective: CE + lambda_ortho * ortho penalty.

    Returns (loss, grad_logits, grad_theta, (ce, ortho)). The penalty is
    skipped, with ortho 0.0 and a zero theta gradient, when lambda_ortho
    is 0 or the batch has one row: one unit row has Gram matrix [1], so
    zero loss and zero gradient.
    """
    ce, grad_logits = softmax_ce_batch(logits, targets)
    theta = np.asarray(theta_pb, dtype=np.float64)
    if cfg.lambda_ortho > 0 and len(as_matrix(theta)) > 1:
        ortho, grad_theta = ortho_loss(theta)
        loss = ce + cfg.lambda_ortho * ortho
        return loss, grad_logits, cfg.lambda_ortho * grad_theta, (ce, ortho)
    return ce, grad_logits, np.zeros_like(theta), (ce, 0.0)


def multi_margin_loss(scores, gt, m: float):
    """Squared-hinge margin loss over class scores, averaged by class count.

    loss = sum_{i != gt} max(0, m - l_gt + l_i)^2 / C. The subgradient at
    the hinge kink is 0. Takes one row of scores with its index, or a
    (B, C) batch with one index per row, whose loss is the sum of the row
    losses in row order. Returns (loss, grad).
    """
    l = np.asarray(scores, dtype=np.float64)
    rows = as_matrix(l[None] if l.ndim == 1 else l)
    c = rows.shape[1]
    gts = np.asarray(gt).reshape(-1)
    if len(gts) != len(rows) or np.any((gts < 0) | (gts >= c)):
        raise ShapeMismatchError(f"ground-truth index {gt} out of range for {c} scores")
    r = np.arange(len(rows))
    h = (m - rows[r, gts])[:, None] + rows
    h[r, gts] = 0.0
    active = h > 0
    grad = np.where(active, 2.0 * h / c, 0.0)
    loss = 0.0
    # each row sums only its active terms: zero padding would change
    # numpy's pairwise blocking
    for h_i, grad_i, active_i, gt_i in zip(h, grad, active, gts.tolist()):
        loss += float((h_i[active_i] ** 2).sum()) / c
        grad_i[gt_i] = -float(grad_i[active_i].sum())
    return loss, grad if l.ndim == 2 else grad[0]


def mixup(x1, x2, y1, y2, alpha: float, rng, lam=None):
    """Convex interpolation of two samples and their soft labels, or of
    two batches row by row.

    lam ~ Beta(alpha, alpha), one draw per row in row order, unless
    forced explicitly (tests and replay).
    """
    a, b, ya, yb = (np.asarray(v, dtype=np.float64) for v in (x1, x2, y1, y2))
    if a.shape != b.shape or a.ndim not in (1, 2) or a.size == 0:
        raise ShapeMismatchError("mixup inputs differ in dimension")
    if ya.shape != yb.shape or ya.shape[:-1] != a.shape[:-1]:
        raise ShapeMismatchError("mixup labels differ in dimension")
    if lam is None:
        lam = rng.beta(alpha, alpha, size=a.shape[:-1])
    lam = np.asarray(lam, dtype=np.float64)[..., None] if a.ndim == 2 else float(lam)
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
