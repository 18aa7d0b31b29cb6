"""Independent reference implementations used to verify the library.

Everything here is deliberately written in the most literal way possible
(explicit Python loops, no shared code with src/) so that agreement with
the library is meaningful evidence, not a tautology. The one exception is
``transfer_fit_per_step``, which reuses the library's loss and optimizer so
that it differs from ``train_target`` only in when the source model runs.
"""

import math

import numpy as np


def softmax_exact(v):
    """Max-subtracted softmax, scalar loop."""
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def pool_by_summation(x, a):
    """m = sum_i a_i x_i with an explicit per-frame loop; x is (d, n)."""
    d, n = x.shape
    m = np.zeros(d)
    for i in range(n):
        m += a[i] * x[:, i]
    return m


def smooth_by_summation(a):
    return sum((a[i] - a[i + 1]) ** 2 for i in range(len(a) - 1))


def smooth_reg_quadratic(a):
    """The smoothness penalty as 2 a.a - a_1^2 - a_n^2 - 2 sum a_i a_{i+1}."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("quadratic smoothness form needs n >= 2")
    return float(2.0 * (a @ a) - a[0] ** 2 - a[-1] ** 2 - 2.0 * (a[:-1] @ a[1:]))


def frame_labels(rec):
    """Per-frame class indices from a record's segments; -1 = background."""
    if rec.segments is None:
        raise ValueError(f"{rec.video_id} carries no segments")
    out = np.full(rec.n, -1, dtype=np.int64)
    for seg in rec.segments:
        out[int(round(seg.t_start * rec.fps)):int(round(seg.t_end * rec.fps))] = seg.label
    return out


def classifier_by_hand(m, fc1_w, fc1_b, fc2_w, fc2_b):
    """Step-by-step two-layer forward with scalar loops."""
    h = len(fc1_b)
    c = len(fc2_b)
    hidden = [max(0.0, sum(fc1_w[j][k] * m[k] for k in range(len(m))) + fc1_b[j])
              for j in range(h)]
    logits = [sum(fc2_w[i][j] * hidden[j] for j in range(h)) + fc2_b[i]
              for i in range(c)]
    probs = softmax_exact(logits)
    return hidden, logits, probs


def fuse_streams(logits_rgb, logits_flow):
    """Late fusion: softmax of the per-class mean of the two streams' logits."""
    return softmax_exact([(a + b) / 2.0 for a, b in zip(logits_rgb, logits_flow)])


def frame_logits(x_i, p, heads=1):
    """Class logits of the classifier on one frame feature, copied once per
    head to fill the pooled width; ``p`` carries fc1_w, fc1_b, fc2_w, fc2_b."""
    m = [float(v) for v in x_i] * heads
    return classifier_by_hand(m, p.fc1_w, p.fc1_b, p.fc2_w, p.fc2_b)[1]


def frame_class_score(x_i, a_i, p, c, heads=1):
    """w_i^c = a_i * sigmoid(class-c frame logit)."""
    z = frame_logits(x_i, p, heads)[c]
    if z >= 0:
        return a_i / (1.0 + math.exp(-z))
    return a_i * math.exp(z) / (1.0 + math.exp(z))


def kernel_by_hand(x, y, sigma):
    sq = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
    return math.exp(-sq / (2.0 * sigma * sigma))


def mmd2_triple_loop(t, u, sigma):
    """The three double sums, written out."""
    n_t, n_u = len(t), len(u)
    s = 0.0
    for i in range(n_t):
        for j in range(n_t):
            s += kernel_by_hand(t[i], t[j], sigma)
    total = s / (n_t * n_t)
    s = 0.0
    for i in range(n_u):
        for j in range(n_u):
            s += kernel_by_hand(u[i], u[j], sigma)
    total += s / (n_u * n_u)
    s = 0.0
    for i in range(n_t):
        for j in range(n_u):
            s += kernel_by_hand(t[i], u[j], sigma)
    total -= 2.0 * s / (n_t * n_u)
    return total


def median_pairwise_distance(points):
    dists = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            dists.append(math.sqrt(sum((float(a) - float(b)) ** 2
                                       for a, b in zip(points[i], points[j]))))
    med = float(np.median(dists))
    return med if med > 0 else 1.0


def iou_by_hand(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    inter = max(0.0, hi - lo)
    if inter == 0.0:
        return 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union


def ap_by_hand(detections, ground_truth, iou_thr):
    """Greedy confidence-descending AP with best-IoU matching, list based.

    detections: list of (video_id, t_start, t_end, confidence)
    ground_truth: list of (video_id, t_start, t_end)
    """
    n_gt = len(ground_truth)
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][3], detections[i][1]))
    used = [False] * n_gt
    ap = 0.0
    tp = 0
    for rank, i in enumerate(order):
        vid, lo, hi, _ = detections[i]
        best, best_iou = -1, 0.0
        for j, (gvid, glo, ghi) in enumerate(ground_truth):
            if used[j] or gvid != vid:
                continue
            ov = iou_by_hand((lo, hi), (glo, ghi))
            if ov > best_iou:
                best, best_iou = j, ov
        if best >= 0 and best_iou >= iou_thr:
            used[best] = True
            tp += 1
            ap += tp / (rank + 1)
    return ap / n_gt


def transfer_fit_per_step(data, stream, cfg, source_model):
    """Target training with transfer, running the frozen source model on the
    sampled source clips at every step instead of once per clip.

    Same RNG tree (seeded by (seed, role code 1, stream code)) and the same
    draw order as the library: batch indices, the (B, h) dropout mask,
    source indices.
    Full label fraction only.
    """
    from wtal.classifier import label_vector
    from wtal.training import forward_video, init_model, sgd_step, total_loss

    code = {"rgb": 0, "flow": 1}[stream.value]
    init_rng, batch_rng, mask_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence((cfg.seed, 1, code)).spawn(3))
    model = init_model(data.feature_dim(stream), data.n_classes, stream, "target",
                       cfg, init_rng)
    records = list(data.iter_split("train", stream))
    source_records = list(data.iter_split("source", stream))
    velocity = np.zeros_like(model.flat)
    keep = 1.0 - cfg.dropout
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, len(records), size=cfg.batch_size)
        batch = [(records[i][1], label_vector(records[i][0].labels, data.n_classes))
                 for i in idx]
        mask = ((mask_rng.random((cfg.batch_size, cfg.classifier_hidden)) < keep) / keep
                if cfg.dropout else None)
        sidx = batch_rng.integers(0, len(source_records), size=cfg.batch_size)
        fwd = [forward_video(source_model, source_records[i][1]) for i in sidx]
        source_acts = (np.vstack([att.m for att, _ in fwd]),
                       np.vstack([cls.hidden_clean for _, cls in fwd]))
        _, _, grad = total_loss(batch, model, cfg, mask, source_acts)
        sgd_step(model, grad, velocity, it, cfg.lr_for(stream), cfg)
    return model
