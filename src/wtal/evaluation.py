"""Classification accuracy and detection mAP@IoU scoring.

Average precision follows the usual temporal-detection protocol: pool a
class's proposals across videos, sort by descending confidence (ties by
earlier start), match each greedily to its best-IoU unmatched ground-truth
instance in the same video, count it a true positive when that IoU clears
the threshold, and sum precision at each true positive divided by the
number of ground-truth instances (raw, non-interpolated). Classes with no
ground truth are excluded from the mAP mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import Manifest, check_entries, json_text
from .errors import InputError


@dataclass(frozen=True)
class Instance:
    """A scored (detection) or unscored (ground-truth) temporal interval."""

    video_id: str
    label: int
    t_start: float
    t_end: float
    confidence: float = 1.0


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection over union of two (start, end) intervals."""
    (a0, a1), (b0, b1) = a, b
    if not (a0 < a1) or not (b0 < b1):
        raise InputError(f"degenerate segment: {a} vs {b}")
    inter = min(a1, b1) - max(a0, b0)
    if inter <= 0:
        return 0.0
    union = (a1 - a0) + (b1 - b0) - inter
    return inter / union


def average_precision(detections: Sequence[Instance],
                      ground_truth: Sequence[Instance],
                      iou_thr: float) -> float:
    """AP of one class's detections against its ground-truth instances."""
    n_gt = len(ground_truth)
    if n_gt == 0:
        return 0.0
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence,
                                  detections[i].t_start))
    gt_by_video: dict[str, list[int]] = {}    # indices in ground-truth order
    for j, gt in enumerate(ground_truth):
        gt_by_video.setdefault(gt.video_id, []).append(j)
    matched = [False] * n_gt
    ap = 0.0
    n_tp = 0
    for rank, i in enumerate(order):
        det = detections[i]
        best_j, best_iou = -1, 0.0
        for j in gt_by_video.get(det.video_id, ()):
            if matched[j]:
                continue
            gt = ground_truth[j]
            ov = tiou((det.t_start, det.t_end), (gt.t_start, gt.t_end))
            if ov > best_iou:
                best_j, best_iou = j, ov
        if best_j >= 0 and best_iou >= iou_thr:
            matched[best_j] = True
            n_tp += 1
            ap += n_tp / (rank + 1)
    return ap / n_gt


@dataclass(frozen=True)
class EvalReport:
    thresholds: tuple[float, ...]
    map_per_threshold: tuple[float, ...]
    ap: Mapping[int, tuple[float, ...]]     # class -> AP at each threshold
    evaluated_classes: tuple[int, ...]
    accuracy: Mapping[str, float | None]    # rgb / flow / fused

    @property
    def average_map(self) -> float:
        """Plain mean of mAP over the configured threshold grid."""
        return float(np.mean(self.map_per_threshold))


def map_at_iou(detections: Sequence[Instance], ground_truth: Sequence[Instance],
               thresholds: Sequence[float],
               accuracy_by_stream: Mapping[str, float | None] | None = None
               ) -> EvalReport:
    """Per-class AP and mAP at every threshold in the grid."""
    classes = sorted({gt.label for gt in ground_truth})
    det_by_class = {c: [d for d in detections if d.label == c] for c in classes}
    gt_by_class = {c: [g for g in ground_truth if g.label == c] for c in classes}
    ap = {c: tuple(average_precision(det_by_class[c], gt_by_class[c], thr)
                   for thr in thresholds) for c in classes}
    if classes:
        map_per_thr = tuple(float(np.mean([ap[c][k] for c in classes]))
                            for k in range(len(thresholds)))
    else:
        map_per_thr = tuple(0.0 for _ in thresholds)
    return EvalReport(
        thresholds=tuple(float(t) for t in thresholds),
        map_per_threshold=map_per_thr,
        ap=ap,
        evaluated_classes=tuple(classes),
        accuracy=dict(accuracy_by_stream or {"rgb": None, "flow": None, "fused": None}),
    )


def accuracy(predicted: Mapping[str, int], label_sets: Mapping[str, set]) -> float:
    """Fraction of videos whose predicted class is among the true labels."""
    if not label_sets:
        raise InputError("no videos to score")
    correct = 0
    for video_id, labels in label_sets.items():
        if video_id not in predicted:
            raise InputError(f"missing prediction for {video_id}")
        correct += int(predicted[video_id] in labels)
    return correct / len(label_sets)


def ground_truth_instances(manifest: Manifest, split: str) -> list[Instance]:
    """Flatten a split's segment annotations into evaluable instances."""
    out = []
    for rec in manifest.split(split):
        for seg in rec.segments or ():
            out.append(Instance(video_id=rec.video_id, label=seg.label,
                                t_start=seg.t_start, t_end=seg.t_end))
    return out


_DETECTION_FIELDS = (("video_id", str), ("class", int), ("t_start", float),
                     ("t_end", float), ("confidence", float))
_PREDICTION_FIELDS = (("video_id", str), ("logits_rgb", [float]), ("logits_flow", [float]),
                      ("probs_fused", [float]))


def instances_from_detections(detections: Sequence[Mapping], manifest: Manifest,
                              split: str) -> list[Instance]:
    """Parse the detect command's output-schema dicts: a video id of the split,
    a class in [0, n_classes), finite t_start < t_end and a finite confidence.
    ``check_entries`` checks each rule once on its column and names the first
    entry that breaks one."""
    videos = {rec.video_id for rec in manifest.split(split)}
    rules = (
        (lambda columns, _: videos.issuperset(columns[0]),
         lambda at, det: f"{at}: video {det['video_id']!r} is not in split {split!r}"),
        (lambda columns, _: set(columns[1]).issubset(range(manifest.n_classes)),
         lambda at, det: f"{at}: class {det['class']} outside [0, {manifest.n_classes})"),
        (lambda columns, _: all(map(lt, columns[2], columns[3])),
         lambda at, det: f"{at}: t_start {det['t_start']} is not before t_end"),
    )
    video_ids, classes, *times = check_entries(detections, _DETECTION_FIELDS, rules,
                                               InputError, "detection entry")
    return list(map(Instance, video_ids, classes, *(map(float, col) for col in times)))


def accuracy_from_predictions(predictions: Sequence[Mapping], manifest: Manifest,
                              split: str) -> dict[str, float]:
    """Per-stream and fused accuracy from the detect command's predictions:
    one record per video of the split, each array holding n_classes scores.
    Checked through ``check_entries`` as ``instances_from_detections`` is."""
    label_sets = {rec.video_id: set(rec.labels) for rec in manifest.split(split)}
    fields = {"rgb": "logits_rgb", "flow": "logits_flow", "fused": "probs_fused"}
    n = manifest.n_classes
    rules = [(lambda columns, objs: (len(set(columns[0])) == len(objs)
                                     and label_sets.keys() >= set(columns[0])),
              lambda at, p: f"{at}: {p['video_id']!r} is repeated or not in split {split!r}")]
    rules += [(lambda columns, _, k=k: set(map(len, columns[k])) <= {n},
               lambda at, p, name=name: f"{at}: {name!r} holds {len(p[name])} scores for "
                                        f"{n} classes")
              for k, name in enumerate(fields.values(), 1)]
    video_ids, *columns = check_entries(predictions, _PREDICTION_FIELDS, rules, InputError,
                                        "prediction record")
    # the first index of the largest score, as np.argmax, without the array
    return {key: accuracy(dict(zip(video_ids, (s.index(max(s)) for s in col))), label_sets)
            for key, col in zip(fields, columns)}


# ---------------------------------------------------------------------------
# report artifacts: JSON, CSV, SVG (all byte-deterministic)
# ---------------------------------------------------------------------------


def report_to_json(report: EvalReport, class_names: Sequence[str]) -> str:
    doc = {
        "thresholds": list(report.thresholds),
        "map_per_threshold": list(report.map_per_threshold),
        "average_map": report.average_map,
        "ap_per_class": {class_names[c]: list(report.ap[c])
                         for c in report.evaluated_classes},
        "accuracy": {k: report.accuracy.get(k) for k in ("rgb", "flow", "fused")},
    }
    return json_text(doc)


def report_to_csv(report: EvalReport, class_names: Sequence[str]) -> str:
    lines = ["iou,mAP," + ",".join(class_names[c] for c in report.evaluated_classes)]
    for k, thr in enumerate(report.thresholds):
        cells = [repr(thr), repr(report.map_per_threshold[k])]
        cells += [repr(report.ap[c][k]) for c in report.evaluated_classes]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_to_svg(report: EvalReport) -> str:
    """Bar chart of mAP against IoU threshold; plain hand-built SVG."""
    width, height, pad = 640, 400, 50
    inner_w, inner_h = width - 2 * pad, height - 2 * pad
    n = max(1, len(report.thresholds))
    bar_w = inner_w / n * 0.7
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" font-size="14">IoU threshold</text>',
        f'<text x="15" y="{height // 2}" text-anchor="middle" font-size="14" transform="rotate(-90 15 {height // 2})">mAP</text>',
    ]
    for k, (thr, val) in enumerate(zip(report.thresholds, report.map_per_threshold)):
        x = pad + inner_w * (k + 0.15) / n
        bar_h = inner_h * val
        y = height - pad - bar_h
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{bar_h:.2f}" fill="#4477aa"/>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-size="11">{thr:.2f}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{max(y - 4, 12):.2f}" '
                     f'text-anchor="middle" font-size="11">{val:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: EvalReport, class_names: Sequence[str], json_path: Path,
                write: Callable[[Path, Callable[[Path], object]], None]) -> None:
    """Write report.json plus sibling .csv and .svg files, each through
    ``write(path, fill)``, which has ``fill`` write the file it is handed."""
    json_path = Path(json_path)
    texts = {json_path: report_to_json(report, class_names),
             json_path.with_suffix(".csv"): report_to_csv(report, class_names),
             json_path.with_suffix(".svg"): report_to_svg(report)}
    for path, text in texts.items():
        write(path, lambda tmp, text=text: tmp.write_text(text))
