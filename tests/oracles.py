"""Independent reference implementations used to verify the library.

Everything here is deliberately written in the most literal way possible
(explicit Python loops, no shared code with src/) so that agreement with
the library is meaningful evidence, not a tautology. The exceptions
reuse library kernels so that they differ from the library in one respect
only: ``transfer_fit_per_step`` in when the source model runs, and
``total_loss_per_video`` and ``predict_split_per_video`` in running the
attention layer one video at a time. ``video_scores`` is the library's
chunk scoring on a chunk of one video. ``manifest_by_hand``,
``instances_by_hand`` and ``accuracy_by_hand`` check a JSON array one
entry at a time, where the library checks it a column at a time; they word
a kind fault with the library's ``check_fields``.
"""

import math
import sys

import numpy as np


def softmax_exact(v):
    """Max-subtracted softmax, scalar loop."""
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def json_kind_by_hand(value, kind):
    """Whether ``value`` has JSON kind ``kind`` (a type, ``[kind]`` or a tuple
    of kinds), one value at a time; an integer is a number, a bool is not."""
    if isinstance(kind, tuple):
        return any(json_kind_by_hand(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(json_kind_by_hand(v, kind[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def manifest_by_hand(doc):
    """``dataset._manifest_from_json`` with its records checked one at a time,
    in record order: each record's kinds, shapes and id before the next."""
    from wtal.dataset import (_MANIFEST_FIELDS, _RECORD_FIELDS, Manifest, _record_from_json,
                              check_fields)
    from wtal.errors import DataFormatError
    check_fields(doc, _MANIFEST_FIELDS, DataFormatError, "manifest")
    if doc["version"] != 1:
        raise DataFormatError(f"unsupported manifest version {doc['version']!r}")
    seen = set()
    for i, obj in enumerate(doc["videos"]):
        where = f"manifest record {i}"
        check_fields(obj, _RECORD_FIELDS, DataFormatError, where)
        paths = obj["features"]
        if not (set(paths) == {"rgb", "flow"} and all(isinstance(p, str) for p in paths.values())):
            raise DataFormatError(f"{where}: 'features' must map ['flow', 'rgb'] to path "
                                  f"strings, got {paths!r}")
        segments = obj.get("segments", [])
        if not (isinstance(segments, list) and all(
                isinstance(s, list) and len(s) == 3 and json_kind_by_hand(s[0], int)
                and json_kind_by_hand(s[1], float) and json_kind_by_hand(s[2], float)
                for s in segments)):
            raise DataFormatError(f"{where}: 'segments' must be [label, t_start, t_end] "
                                  f"arrays, got {segments!r}")
        if obj["id"] in seen:
            raise DataFormatError(f"duplicate video id {obj['id']!r}")
        seen.add(obj["id"])
    manifest = Manifest(version=1, class_names=tuple(doc["classes"]),
                        videos=tuple(map(_record_from_json, doc["videos"])))
    for rec in manifest.videos:
        rec.validate(manifest.n_classes)
    return manifest


def instances_by_hand(detections, manifest, split):
    """``evaluation.instances_from_detections`` checking one entry at a time."""
    from wtal.dataset import check_fields
    from wtal.errors import InputError
    from wtal.evaluation import _DETECTION_FIELDS, Instance
    videos = {rec.video_id for rec in manifest.split(split)}
    out = []
    for i, det in enumerate(detections):
        where = f"detection entry {i}"
        check_fields(det, _DETECTION_FIELDS, InputError, where)
        if det["video_id"] not in videos:
            raise InputError(f"{where}: video {det['video_id']!r} is not in split {split!r}")
        if not 0 <= det["class"] < manifest.n_classes:
            raise InputError(f"{where}: class {det['class']} outside [0, {manifest.n_classes})")
        if not det["t_start"] < det["t_end"]:
            raise InputError(f"{where}: t_start {det['t_start']} is not before t_end")
        out.append(Instance(det["video_id"], det["class"], float(det["t_start"]),
                            float(det["t_end"]), float(det["confidence"])))
    return out


def accuracy_by_hand(predictions, manifest, split):
    """``evaluation.accuracy_from_predictions`` checking one record at a time."""
    from wtal.dataset import check_fields
    from wtal.errors import InputError
    from wtal.evaluation import _PREDICTION_FIELDS, accuracy
    label_sets = {rec.video_id: set(rec.labels) for rec in manifest.split(split)}
    fields = {"rgb": "logits_rgb", "flow": "logits_flow", "fused": "probs_fused"}
    seen = set()
    for i, p in enumerate(predictions):
        check_fields(p, _PREDICTION_FIELDS, InputError, f"prediction record {i}")
        if p["video_id"] not in label_sets or p["video_id"] in seen:
            raise InputError(f"prediction record {i}: {p['video_id']!r} is repeated or "
                             f"not in split {split!r}")
        seen.add(p["video_id"])
        for name in fields.values():
            if len(p[name]) != manifest.n_classes:
                raise InputError(f"prediction record {i}: {name!r} holds {len(p[name])} "
                                 f"scores for {manifest.n_classes} classes")
    return {stream: accuracy({p["video_id"]: int(np.argmax(p[name])) for p in predictions},
                             label_sets)
            for stream, name in fields.items()}


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
    records = list(data.iter_split("train", stream))
    source_records = list(data.iter_split("source", stream))
    model = init_model(records[0][1].d, data.n_classes, stream, "target", cfg, init_rng)
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
        _, _, grad = total_loss(batch, model, mask, source_acts)
        sgd_step(model, grad, velocity, it)
    return model


def total_loss_per_video(batch, model, dropout_mask=None, source_acts=None, weights=None):
    """The training loss and its gradient, with attention forward and
    backward run on one video at a time (each a chunk of one) and the
    classifier once on the stacked pooled rows.

    Returns (total, the LOSS_TERMS values in order, gradient like model.flat).
    """
    from wtal.attention import (attend, attention_grads, smooth_reg_direct,
                                smooth_reg_grad, sparsity_reg, sparsity_reg_grad,
                                uniform_attention)
    from wtal.classifier import (class_loss, class_loss_grad_logits, classifier_grads,
                                 classify)
    from wtal.training import LOSS_TERMS, loss_weights
    from wtal.transfer import transfer_loss

    cfg = model.cfg
    w = loss_weights(cfg) if weights is None else dict.fromkeys(LOSS_TERMS, 0.0) | weights
    p = model.attention
    n_reg = len(batch) * p.r
    pooled = [attend(x, p, cfg.attention_mode) if cfg.attention_enabled
              else uniform_attention(x, p.r) for x, _ in batch]
    pooled_m = np.vstack([att.m for att in pooled])
    labels = np.vstack([y for _, y in batch])
    cls = classify(pooled_m, model.classifier, dropout_mask)
    terms = {"class": float(np.mean(class_loss(cls.probs, labels))),
             "smooth": sum(smooth_reg_direct(att.a) for att in pooled) / n_reg,
             "sparsity": sum(sparsity_reg(att.scores) for att in pooled) / n_reg,
             "fc1": 0.0, "fc2": 0.0}
    kt_grads = {}
    if source_acts is not None:
        for tap, source, target in (("fc1", source_acts[0], pooled_m),
                                    ("fc2", source_acts[1], cls.hidden_clean)):
            if w[tap]:
                terms[tap], _, g = transfer_loss(source, target, cfg.kernel)
                kt_grads[tap] = w[tap] * g
    total = sum(w[k] * terms[k] for k in LOSS_TERMS)

    g_logits = w["class"] * class_loss_grad_logits(cls.probs, labels) / len(batch)
    g_cls, g_m = classifier_grads(pooled_m, model.classifier, cls, g_logits, dropout_mask,
                                  g_hidden_clean=kt_grads.get("fc2"))
    g_m = g_m + kt_grads.get("fc1", 0.0)
    g_w1, g_w2 = np.zeros_like(p.w1), np.zeros_like(p.w2)
    for i, ((x, _), att) in enumerate(zip(batch, pooled)):
        g_a = w["smooth"] / n_reg * smooth_reg_grad(att.a)
        g_sparse = w["sparsity"] / n_reg * sparsity_reg_grad(att.scores)
        sigmoid = att.mode == "sigmoid"
        g1, g2 = attention_grads(x, p, att, g_m=g_m[i:i + 1],
                                 g_a=g_a if sigmoid else g_a + g_sparse,
                                 g_scores=g_sparse if sigmoid else None)
        g_w1 += g1
        g_w2 += g2
    grad = np.concatenate([g.ravel() for g in (g_w1, g_w2, *g_cls)])
    return total, [terms[k] for k in LOSS_TERMS], grad


def broadcast_sq_dists(a, b):
    """Direct (x - y).(x - y) per pair, from an (n_a, n_b, d) difference
    tensor: exact zeros on identical rows and no cancellation at any offset."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=-1)


def broadcast_transfer_loss(source, target, kcfg):
    """One tap's (squared MMD, bandwidth, gradient on the target batch) from
    broadcast distances."""
    if kcfg.sigma == "median":
        z = np.vstack([source, target])
        iu = np.triu_indices(len(z), k=1)
        med = float(np.median(np.sqrt(broadcast_sq_dists(z, z)[iu])))
        sigma = med if med > 0 else 1.0
    else:
        sigma = float(kcfg.sigma)
    s2 = 2.0 * sigma * sigma
    n_t, n_u = len(source), len(target)
    k_tt = float(np.sum(np.exp(-broadcast_sq_dists(source, source) / s2))) / (n_t * n_t)
    k_uu = float(np.sum(np.exp(-broadcast_sq_dists(target, target) / s2))) / (n_u * n_u)
    k_tu = float(np.sum(np.exp(-broadcast_sq_dists(source, target) / s2))) / (n_t * n_u)
    return k_tt + k_uu - 2.0 * k_tu, sigma, broadcast_transfer_grads(source, target, sigma)


def broadcast_transfer_grads(source, target, sigma):
    """d mmd2 / d target as sums over (n, n, d) difference tensors:
    d k(x, y)/d x = k(x, y) (y - x) / sigma^2."""
    t, u = source, target
    n_t, n_u = len(t), len(u)
    s2 = sigma * sigma
    k_uu = np.exp(-broadcast_sq_dists(u, u) / (2.0 * s2))
    k_tu = np.exp(-broadcast_sq_dists(t, u) / (2.0 * s2))
    diff_uu = u[None, :, :] - u[:, None, :]          # [p, j] = u_j - u_p
    g = (2.0 / (n_u * n_u)) * np.sum(k_uu[:, :, None] * diff_uu, axis=1) / s2
    diff_tu = t[:, None, :] - u[None, :, :]          # [i, p] = t_i - u_p
    g -= (2.0 / (n_t * n_u)) * np.sum(k_tu[:, :, None] * diff_tu, axis=0) / s2
    return g


def extract_proposals_per_class(scores, cfg):
    """Maximal runs at or above the threshold, one class track at a time, as
    (class, ind_start, ind_end, confidence) tuples, each scored by np.mean
    over its frames."""
    proposals = []
    for c in range(scores.shape[0]):
        track = scores[c]
        above = np.concatenate([[False], track >= cfg.threshold, [False]])
        edges = np.flatnonzero(np.diff(above.astype(np.int8)))
        for lo, hi in zip(edges[::2], edges[1::2]):
            proposals.append((c, int(lo), int(hi), float(np.mean(track[lo:hi]))))
    return proposals


def video_scores(model, x):
    """``detection.chunk_scores`` on one video: its (C,) logits and (C, n)
    score map."""
    from wtal.detection import chunk_scores

    logits, scores = chunk_scores(model, x)
    return logits[0], scores


def predict_split_per_video(data, split, model_rgb, model_flow):
    """predict_split with one forward pass per video and stream."""
    from wtal.dataset import Stream
    from wtal.numerics import stable_softmax

    records, scores = [], {}
    for rec in data.split(split):
        z_rgb, w_rgb = video_scores(model_rgb, data.features(rec.video_id, Stream.RGB))
        z_flow, w_flow = video_scores(model_flow, data.features(rec.video_id, Stream.FLOW))
        records.append({
            "video_id": rec.video_id,
            "logits_rgb": z_rgb.tolist(),
            "logits_flow": z_flow.tolist(),
            "probs_fused": stable_softmax((z_rgb + z_flow) / 2.0).tolist(),
        })
        scores[rec.video_id] = (w_rgb, w_flow)
    return records, scores
