"""Temporal proposals from attention-gated per-frame class scores.

A frame's score for class c is its attention weight (mean over heads)
times sigmoid(class-c logit of the classifier applied to that frame),
fused across streams as theta * rgb + (1 - theta) * flow. Per class,
maximal consecutive runs of frames at or above the threshold become
proposals with half-open frame intervals [ind_start, ind_end), converted
to seconds by t = ind / fps, scored by the mean in-run fused score.
No suppression is needed: maximal runs are disjoint by construction.

Each video and stream runs forward once: predict_split reads both the
video logits and the frame score map off that pass, and detect_split
only fuses and thresholds the maps it returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .classifier import classify
from .dataset import Dataset, FeatureMatrix, Stream
from .errors import ConfigError, ShapeError
from .numerics import sigmoid, stable_softmax
from .training import Model, forward_video


@dataclass(frozen=True)
class DetectConfig:
    theta: float = 0.5
    threshold: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")


@dataclass(frozen=True)
class Proposal:
    label: int
    t_start: float
    t_end: float
    confidence: float
    ind_start: int
    ind_end: int


def video_scores(model: Model, x: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass: the video logits and the (C, n) frame score map
    w_i^c = a_i * sigmoid(frame logit), entries in [0, 1]. The frame logits
    come from the video classifier applied to every frame as one row batch,
    each frame tiled across heads to the pooled width; dropout is off."""
    att, cls = forward_video(model, x)
    frames = classify(np.tile(x.values, (model.attention.r, 1)).T, model.classifier)
    return cls.logits, att.frame_weights[None, :] * sigmoid(frames.logits.T)


def fused_frame_scores(w_rgb: np.ndarray, w_flow: np.ndarray,
                       cfg: DetectConfig) -> np.ndarray:
    """theta-weighted fusion of the two streams' frame score maps."""
    if w_rgb.shape != w_flow.shape:
        raise ShapeError(f"stream score maps disagree in shape: {w_rgb.shape} vs {w_flow.shape}")
    return cfg.theta * w_rgb + (1.0 - cfg.theta) * w_flow


def extract_proposals(scores: np.ndarray, fps: float, cfg: DetectConfig) -> list[Proposal]:
    """Threshold each class's score track into maximal-run proposals."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError("scores must be (classes, frames)")
    if fps <= 0:
        raise ConfigError("fps must be positive")
    proposals: list[Proposal] = []
    for c in range(scores.shape[0]):
        track = scores[c]
        above = np.concatenate([[False], track >= cfg.threshold, [False]])
        edges = np.flatnonzero(np.diff(above.astype(np.int8)))
        for lo, hi in zip(edges[::2], edges[1::2]):
            proposals.append(Proposal(
                label=c,
                t_start=lo / fps,
                t_end=hi / fps,
                confidence=float(np.mean(track[lo:hi])),
                ind_start=int(lo),
                ind_end=int(hi),
            ))
    return proposals


def predict_split(data: Dataset, split: str, model_rgb: Model, model_flow: Model
                  ) -> tuple[list[dict], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Classification records for accuracy scoring, and each video's (RGB,
    flow) frame score maps by id, from one forward pass per video and stream."""
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


def detect_split(data: Dataset, split: str,
                 scores: Mapping[str, tuple[np.ndarray, np.ndarray]],
                 cfg: DetectConfig) -> list[dict]:
    """Proposals for every video in a split, as output-schema dicts, from
    the score maps that predict_split returned."""
    out = []
    for rec in data.split(split):
        fused = fused_frame_scores(*scores[rec.video_id], cfg)
        for prop in extract_proposals(fused, rec.fps, cfg):
            out.append({
                "video_id": rec.video_id,
                "class": prop.label,
                "t_start": prop.t_start,
                "t_end": prop.t_end,
                "confidence": prop.confidence,
            })
    return out
