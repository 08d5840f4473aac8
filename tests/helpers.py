"""Shared test oracles: finite differences, naive and per-row reference
implementations, and the synthetic datasets and sweeps that only tests use."""

from dataclasses import replace

import numpy as np

from protomem.backbone import GradientTape, backward, forward_backbone, forward_fcr, sgd_step
from protomem.data import LabeledDataset
from protomem.errors import NumericFailureError, ShapeMismatchError, ZeroNormError
from protomem import harness
from protomem.harness import SessionReport, extract_features, pretrain_model
from protomem.losses import cutmix, mixup, pretrain_loss, sample_augmentation
from protomem.memory import bipolarize, classify_batch, quantize_rows, reduce_rows
from protomem.numerics import ZERO_NORM_FLOOR, as_vector, matmul, relu
from protomem.offline import _cosines, _cutmix_grid, _one_hot_rows, build_base_em
from protomem.online import finetune_fcr, learn_class, learn_dataset


# the smallest CLI run that exercises every command: a 7-class 8x8 blob
# stream, a 64-16-12-6 model and one or two steps of each schedule
TINY = dict(
    classes=7,
    base_classes=4,
    ways=1,
    shots=3,
    sessions=3,
    per_class_cap=8,
    test_per_class=3,
    grid=8,
    hidden="16,12",
    d_p=6,
    pretrain_epochs=2,
    batch_size=16,
    meta_iterations=2,
    meta_samples=2,
    query_batch=8,
    finetune_epochs=2,
    seed=5,
)


def central_diff(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f at x (flat array)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2 * step)
    return grad


def rel_err(a, b, floor=1e-10):
    """Norm-wise relative error ||a - b|| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), floor)
    return float(np.linalg.norm(a - b)) / denom


def assert_same_bits(got, want):
    """Equal bit patterns (so -0.0 != +0.0), NaN wherever `want` is NaN."""
    got, want = (np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in (got, want))
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    got_bits = np.ascontiguousarray(got).view(np.int64)
    want_bits = np.ascontiguousarray(want).view(np.int64)
    np.testing.assert_array_equal(got_bits[~nan], want_bits[~nan])


def naive_matmul(a, b):
    """Pure-Python triple loop, k-innermost, accumulating left to right."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def rank1_matmul(a, b):
    """numpy rank-1 loop over every k, none skipped: out += a[:, t] * b[t]
    for t in index order. Each out[i, j] is the triple loop's sum, so this
    is the oracle at shapes too large for `naive_matmul`."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for t in range(a.shape[1]):
        out += a[:, t, None] * b[t]
    return out


def flatten_params(params):
    """All weights and biases as one flat vector, layer order."""
    chunks = []
    for layer in params.layers:
        chunks.append(layer.weight.ravel().copy())
        chunks.append(layer.bias.copy())
    return np.concatenate(chunks)


def assign_layer(layer, weight=None, bias=None):
    """Give a layer new weight and/or bias values, each reshaped to the
    layer's own shape: the one way tests change parameters, since a
    layer's arrays are read-only. Each is assigned as a fresh copy through
    the attribute, which drops the layer's derived state."""
    if weight is not None:
        layer.weight = np.array(weight, dtype=np.float64).reshape(layer.weight.shape)
    if bias is not None:
        layer.bias = np.array(bias, dtype=np.float64).reshape(layer.bias.shape)


def set_params_from_flat(params, flat):
    """Inverse of flatten_params, through assign_layer."""
    off = 0
    for layer in params.layers:
        n_w, n_b = layer.weight.size, layer.bias.size
        assign_layer(layer, flat[off : off + n_w], flat[off + n_w : off + n_w + n_b])
        off += n_w + n_b
    assert off == flat.size


def param_grad_flat(tape, params):
    """Gradient buffers flattened in the same order as flatten_params."""
    chunks = []
    for idx in range(len(params.layers)):
        chunks.append(tape.grad_w[idx].ravel().copy())
        chunks.append(tape.grad_b[idx].copy())
    return np.concatenate(chunks)


# ------------------------------------------- datasets and sweeps for tests


def ortho_strength_sweep(stream, recipe, strengths=(0.01, 0.1, 1.0)) -> list:
    """Pretrain once per regularization strength and measure the effect.

    Returns rows (strength, train accuracy, mean off-diagonal |Gram| on
    held-out features); the desk-scale picture behind the default 0.1.
    """
    rows = []
    for lam in strengths:
        loss = replace(recipe.loss, lambda_ortho=lam)
        params, history = pretrain_model(stream.base, replace(recipe, loss=loss))
        feats = extract_features(params, stream.test)
        u = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        gram = u @ u.T
        off = float(np.abs(gram[~np.eye(len(gram), dtype=bool)]).mean())
        rows.append((lam, history[-1][3], off))
    return rows


def make_points_dataset(
    num_classes: int, per_class: int, dim: int = 2, separation: float = 6.0, seed=0
) -> LabeledDataset:
    """Gaussian point clouds with centers at equal angles on a circle of
    radius `separation`; linearly separable when the radius dominates the
    unit noise."""
    if dim < 2:
        raise ValueError("point clouds need dim >= 2")
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = separation * np.cos(angles)
    centers[:, 1] = separation * np.sin(angles)
    inputs = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    row = 0
    for cid in range(num_classes):
        pts = centers[cid] + rng.standard_normal((per_class, dim))
        inputs[row : row + per_class] = pts
        labels[row : row + per_class] = cid
        row += per_class
    return LabeledDataset(inputs, labels)


def save_dataset_csv(ds: LabeledDataset, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(ds.input_dim)) + "\n")
        for row, lab in zip(ds.inputs, ds.labels):
            fh.write(str(int(lab)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def meta_score(params, x, proto_matrix, tape: GradientTape | None = None):
    """Per-class scores relu(cossim(theta_p(x), prototype_c)).

    proto_matrix holds one full-precision prototype per row. With a tape
    attached the forward activations are recorded for backprop.
    """
    protos = np.asarray(proto_matrix, dtype=np.float64)
    theta_p = forward_fcr(params, forward_backbone(params, x, tape), tape)
    cos = _cosines(theta_p.reshape(-1, theta_p.shape[-1]), protos)[0]
    return relu(cos.reshape(theta_p.shape[:-1] + (len(protos),)))


# --------------------------- per-row references for the batched training math


def softmax_ce(logits, target):
    """Numerically stable cross-entropy of one row and its gradient w.r.t.
    the logits.

    target is either a class index or a probability vector (soft labels
    from feature interpolation). Returns (loss, grad) with grad = p - t.
    """
    z = as_vector(logits)
    shifted = z - z.max()
    exp = np.exp(shifted)
    total = exp.sum()
    p = exp / total
    logp = shifted - np.log(total)
    if np.isscalar(target) or getattr(target, "ndim", 1) == 0:
        idx = int(target)
        if not 0 <= idx < z.size:
            raise ShapeMismatchError(f"target index {idx} out of range for {z.size} logits")
        t = np.zeros_like(z)
        t[idx] = 1.0
        loss = -float(logp[idx])
    else:
        t = as_vector(target)
        if t.shape != z.shape:
            raise ShapeMismatchError("soft target length differs from logits")
        loss = -float(np.dot(t, logp))
    return loss, p - t


def subbatch_plan(num_classes: int, n: int) -> list:
    """Index groups of size n in order; the last group may be smaller. The
    per-row finetune oracle groups its rows by these."""
    if n < 1:
        raise ValueError("sub-batch size must be >= 1")
    return [list(range(k, min(k + n, num_classes))) for k in range(0, num_classes, n)]


def cosine_target_grad(y, target):
    """Loss 1 - cossim(y, target) of one row and its gradient w.r.t. y."""
    ny = float(np.linalg.norm(y))
    nt = float(np.linalg.norm(target))
    if ny < ZERO_NORM_FLOOR or nt < ZERO_NORM_FLOOR:
        raise ZeroNormError("zero-norm vector in cosine objective")
    y_hat = y / ny
    t_hat = target / nt
    cos = float(np.dot(y_hat, t_hat))
    grad = -(t_hat - cos * y_hat) / ny
    return 1.0 - cos, grad


def finetune_fcr_per_row(params, means, em, cfg):
    """`online.finetune_fcr` with the cosine objective taken one row at a
    time; returns the per-epoch loss history."""
    inputs = np.stack([means[c] for c in sorted(means)])
    targets = np.stack([
        bipolarize(em.get(c).quantized).astype(np.float64) for c in sorted(em.class_ids())
    ])
    history = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for group in subbatch_plan(len(inputs), cfg.sub_batch):
            tape = GradientTape()
            out = forward_fcr(params, inputs[group], tape)
            upstream = np.zeros_like(out)
            for j, row in enumerate(group):
                loss_j, upstream[j] = cosine_target_grad(out[j], targets[row])
                epoch_loss += loss_j
            backward(params, tape, upstream)
            sgd_step(params, tape, cfg.lr)
        history.append(epoch_loss)
    return history


def run_protocol_per_stage(params, stream, quant, finetune=None):
    """`harness.run_protocol` with every stage running the whole extractor
    again on its test subset."""
    em, means = build_base_em(params, stream.base, quant, {})
    base_ids = stream.base.class_ids()
    accs, base_accs = [], []
    for t in range(len(stream.sessions) + 1):
        if t:
            session = stream.sessions[t - 1]
            for cid in session.class_ids():
                learn_class(em, means, params, session.inputs[session.indices_of(cid)], cid)
            if finetune is not None:
                finetune_fcr(params, means, em, finetune)
        subset = stream.test.subset_by_classes(stream.classes_through(t))
        preds, _ = classify_batch(em, extract_features(params, subset))
        ok = preds == subset.labels
        is_base = np.isin(subset.labels, base_ids)
        accs.append(int(ok.sum()) / len(subset))
        base_accs.append(int(ok[is_base].sum()) / int(is_base.sum()))
    return SessionReport(accs, float(np.mean(accs)), base_accs)


def base_scores_per_stage(params, stream, quant, feats) -> list:
    """The scores of `feats` against the base classes of the memory that
    `build_base_em` builds, and again after each session's `learn_dataset`:
    one (N, base classes) array per stage."""
    em, _ = build_base_em(params, stream.base, quant)
    base = [em.class_ids().index(cid) for cid in stream.base.class_ids()]
    stages = [classify_batch(em, feats)[1][:, base]]
    for session in stream.sessions:
        learn_dataset(em, None, params, session)
        stages.append(classify_batch(em, feats)[1][:, base])
    return stages


def protocol_stage_features(monkeypatch, params, stream, quant) -> list:
    """The features `harness.run_protocol` scores at each stage, recorded
    by patching the `classify_batch` it calls."""
    staged = []

    def recording(em, feats):
        staged.append(feats.copy())
        return classify_batch(em, feats)

    monkeypatch.setattr(harness, "classify_batch", recording)
    harness.run_protocol(params, stream, quant)
    return staged


def softmax_ce_rows(logits, targets):
    """Batch cross-entropy as one `softmax_ce` call per row, summed in order."""
    z = np.asarray(logits, dtype=np.float64)
    grad = np.zeros_like(z)
    total = 0.0
    t_arr = np.asarray(targets)
    for i in range(z.shape[0]):
        loss_i, grad[i] = softmax_ce(z[i], t_arr[i] if t_arr.ndim else t_arr)
        total += loss_i
    return total, grad


def mixup_per_row(x, targets, partner, alpha, rng):
    """Mixup of each row with its partner row, one Beta draw per row."""
    mixed_x = np.empty_like(x)
    mixed_t = np.empty_like(targets)
    for i, j in enumerate(partner):
        lam = float(rng.beta(alpha, alpha))
        mixed_x[i] = lam * x[i] + (1.0 - lam) * x[j]
        mixed_t[i] = lam * targets[i] + (1.0 - lam) * targets[j]
    return mixed_x, mixed_t


def multi_margin_loss_row(scores, gt: int, m: float):
    """Squared-hinge margin loss of one row of scores."""
    l = as_vector(scores)
    c = l.size
    h = m - l[gt] + l
    h[gt] = 0.0
    active = h > 0
    loss = float((h[active] ** 2).sum()) / c
    grad = np.zeros_like(l)
    grad[active] = 2.0 * h[active] / c
    grad[gt] = -float(grad[active].sum())
    return loss, grad


def multi_margin_loss_rows(scores, gts, m: float):
    """Batch margin loss with each row's active terms summed in a Python
    loop, two numpy sums per row; the row losses add up in row order."""
    rows = np.asarray(scores, dtype=np.float64)
    c = rows.shape[1]
    r = np.arange(len(rows))
    h = (m - rows[r, gts])[:, None] + rows
    h[r, gts] = 0.0
    active = h > 0
    grad = np.where(active, 2.0 * h / c, 0.0)
    loss = 0.0
    for h_i, grad_i, active_i, gt_i in zip(h, grad, active, np.asarray(gts).tolist()):
        loss += float((h_i[active_i] ** 2).sum()) / c
        grad_i[gt_i] = -float(grad_i[active_i].sum())
    return loss, grad


def scores_and_grad_row(theta_p, protos):
    """ReLU-cosine scores of one query, with d(score)/d(theta_p) rows."""
    nq = float(np.linalg.norm(theta_p))
    if nq < ZERO_NORM_FLOOR:
        raise ZeroNormError("query feature has near-zero norm")
    pnorms = np.linalg.norm(protos, axis=1)
    q_hat = theta_p / nq
    p_hat = protos / pnorms[:, None]
    cos = p_hat @ q_hat
    gate = (cos > 0).astype(np.float64)
    dtheta = gate[:, None] * (p_hat - cos[:, None] * q_hat[None, :]) / nq
    return relu(cos), dtheta


def query_step_per_row(theta_q, protos, gts, cfg):
    """Metalearning query-batch step, one query at a time: (loss sum,
    hits, upstream)."""
    upstream_q = np.zeros_like(theta_q)
    loss_sum = 0.0
    hits = 0
    for qi in range(len(theta_q)):
        scores, dtheta = scores_and_grad_row(theta_q[qi], protos)
        gt = int(gts[qi])
        if cfg.objective == "mm":
            loss, dl = multi_margin_loss_row(scores, gt, cfg.margin)
        else:
            loss, dl = softmax_ce(scores, gt)
        loss_sum += loss
        hits += int(scores.argmax() == gt)
        upstream_q[qi] = dl @ dtheta
    return loss_sum, hits, upstream_q


def metalearn_per_query(params, base_dataset, cfg, seed):
    """`offline.metalearn` with its query batch scored one query at a time."""
    rng = np.random.default_rng(seed)
    class_ids = base_dataset.class_ids()
    pools = {c: base_dataset.indices_of(c) for c in class_ids}
    col = {c: i for i, c in enumerate(class_ids)}
    history = []
    for it in range(cfg.iterations):
        meta_idx = np.concatenate([
            pools[c][rng.choice(len(pools[c]), size=cfg.meta_samples, replace=False)]
            for c in class_ids
        ])
        theta_meta = forward_fcr(params, forward_backbone(params, base_dataset.inputs[meta_idx]))
        protos = theta_meta.reshape(len(class_ids), cfg.meta_samples, -1).mean(axis=1)
        free = np.ones(len(base_dataset), dtype=bool)
        free[meta_idx] = False
        pool_rest = np.flatnonzero(free)
        q_size = min(cfg.query_batch, len(pool_rest))
        q_idx = pool_rest[rng.choice(len(pool_rest), size=q_size, replace=False)]
        q_tape = GradientTape()
        theta_q = forward_fcr(
            params, forward_backbone(params, base_dataset.inputs[q_idx], q_tape), q_tape
        )
        gts = [col[int(l)] for l in base_dataset.labels[q_idx]]
        loss_sum, hits, upstream_q = query_step_per_row(theta_q, protos, gts, cfg)
        nq = len(q_idx)
        mean_loss = loss_sum / nq
        if not np.isfinite(mean_loss):
            raise NumericFailureError(f"non-finite metalearning loss at iteration {it}")
        backward(params, q_tape, upstream_q / nq)
        sgd_step(params, q_tape, cfg.lr)
        history.append((it, mean_loss, hits / nq))
    return params, history


def pretrain_hand_head(params, weight, bias, base_dataset, cfg, epochs, lr, seed, *,
                       batch_size, grid=None):
    """`offline.pretrain` with the head as a (C, d_p) weight and (C,) bias
    whose forward, gradient and update are written out by hand. Updates
    params, weight and bias in place; returns the history."""
    rng = np.random.default_rng(seed)
    class_ids = base_dataset.class_ids()
    if cfg.mix_probability > 0:
        grid = _cutmix_grid(base_dataset.input_dim, grid)
    n = len(base_dataset)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        ce_sum = ortho_sum = 0.0
        hits = total = nbatches = 0
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
            theta_p = forward_fcr(params, forward_backbone(params, x, tape), tape)
            logits = matmul(theta_p, weight.T) + bias
            loss, grad_logits, grad_theta, (ce_part, ortho_part) = pretrain_loss(
                logits, targets, theta_p, cfg
            )
            if not np.isfinite(loss):
                raise NumericFailureError(f"non-finite loss at epoch {epoch}")
            ce_sum += ce_part
            ortho_sum += ortho_part
            nbatches += 1
            hits += int((np.asarray(class_ids)[logits.argmax(axis=1)] == hard).sum())
            total += len(idx)
            grad_w = matmul(grad_logits.T, theta_p)
            grad_b = grad_logits.sum(axis=0)
            backward(params, tape, matmul(grad_logits, weight) + grad_theta)
            sgd_step(params, tape, lr)
            weight -= lr * grad_w
            bias -= lr * grad_b
        history.append((epoch, ce_sum / total, ortho_sum / nbatches, hits / total))
    return history


class ConcatRows:
    """Oracle for what an explicit memory stores: each of its arrays,
    grown by one `np.concatenate` per append, so that every append leaves
    fresh (C, ...) arrays that nothing else holds."""

    def __init__(self, **arrays):
        self.arrays = {name: np.array(a) for name, a in arrays.items()}

    @classmethod
    def of(cls, mem):
        """An oracle holding a copy of each array that `mem` stores now."""
        names = ("ids", "counts", "shifts", "accum", "reduced")
        return cls(**{name: getattr(mem, name) for name in names})

    def append(self, **rows):
        for name, block in rows.items():
            old = self.arrays[name]
            self.arrays[name] = np.concatenate([old, np.asarray(block, dtype=old.dtype)])

    def add_accumulated(self, class_id, accum, count, bits):
        accum = np.asarray(accum, dtype=np.int64).reshape(1, -1)
        reduced, shifts = reduce_rows(accum, bits)
        self.append(ids=[class_id], counts=[count], shifts=shifts, accum=accum, reduced=reduced)

    def assert_holds(self, mem):
        """Every stored array of `mem` equals the oracle's, bit for bit."""
        for name, want in self.arrays.items():
            got = getattr(mem, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def held_nbytes(obj) -> int:
    """Bytes of the distinct arrays that own data and that `obj`'s
    attributes reach, through containers and the bases of views."""
    held, todo = {}, list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo += item.values()
        elif isinstance(item, (list, tuple)):
            todo += item
        elif isinstance(item, np.ndarray):
            if item.flags.owndata:
                held[id(item)] = item.nbytes
            todo.append(item.base)
    return sum(held.values())


def learn_class_oracle(em_rows, quant, params, samples, class_id):
    """What `learn_class` appends to an explicit memory, on its oracle."""
    theta_a = forward_backbone(params, np.asarray(samples, dtype=np.float64))
    q = quantize_rows(forward_fcr(params, theta_a), quant.feature_bits)
    em_rows.add_accumulated(class_id, q.sum(axis=0), len(q), quant.prototype_bits)
