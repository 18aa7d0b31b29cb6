"""Temporal proposals from attention-gated per-frame class scores.

A frame's score for class c is its attention weight (mean over heads)
times sigmoid(class-c logit of the classifier applied to that frame),
fused across streams as theta * rgb + (1 - theta) * flow. Per class,
maximal consecutive runs of frames at or above the threshold become
proposals with half-open frame intervals [ind_start, ind_end), scored by
the mean in-run fused score; detect_split converts them to t = ind / fps.
No suppression is needed: maximal runs are disjoint by construction.

predict_split scores each stream in one pass over the split, which must hold
videos (Manifest.split): consecutive test videos form chunks with the
training step's rule (chunk_bounds: at most CHUNK_VIDEOS videos, within both
models' frame budgets). Each pass reads the split's files first
(Dataset.read_split), then runs each chunk forward once (stream_scores),
giving the video logits and the frame score maps off the same pass. The two
passes share nothing, so in a process that has already loaded
multiprocessing (one that ran train), on a split of at least FORK_MIN_FRAMES
frames, they run side by side (training.run_streams: RGB here, flow in a
forked child); otherwise, and so in a lone detect command, one after the
other. Either way an RGB error is raised before a flow error. fuse_passes
then fuses the video logits into the prediction records, as ablate does per
arm; detect_split only fuses and thresholds the maps, one video at a time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classifier import classify
from .dataset import STREAMS, Dataset, FeatureMatrix, Stream, VideoRecord
from .errors import ConfigError, ShapeError
from .numerics import sigmoid, stable_softmax
from .training import (Model, chunk_bounds, chunk_budget, forward_video, run_streams,
                       stack_videos)

# The fewest test frames for which predict_split runs the two streams in two
# processes, and only in a process that has already loaded multiprocessing.
# Measured on default-shaped models (2 cores, OpenBLAS on one thread), in one
# process that ran train before detect, in-process -> side by side, median
# detect time: 2,000 frames 55.9 -> 59.8 ms, 3,000 69.2 -> 66.3 ms, 4,000
# 85.7 -> 82.2 ms, 6,000 118.2 -> 106.4 ms, 20,000 322.6 -> 263.2 ms. A lone
# detect, forking by size alone, was slower (medians of 21 alternating pairs):
# 4,127 frames 333.3 -> 357.6 ms, 20,164 472.2 -> 499.6 ms; so it does not fork.
FORK_MIN_FRAMES = 4000


@dataclass(frozen=True)
class DetectConfig:
    theta: float = 0.5
    threshold: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")


def chunk_scores(model: Model, x: FeatureMatrix, counts: Sequence[int] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass over a chunk of videos (``counts`` splits the frame
    columns, default one video): the (B, C) video logits and the (C, N)
    frame score map w_i^c = a_i * sigmoid(frame logit), entries in [0, 1].
    The frame logits come from the video classifier applied to every frame
    as one row batch, each frame tiled across heads to the pooled width;
    dropout is off."""
    att, cls = forward_video(model, x, counts)
    frames = classify(np.tile(x.values, (model.attention.r, 1)).T, model.classifier)
    return cls.logits, att.frame_weights[None, :] * sigmoid(frames.logits.T)


def fused_frame_scores(w_rgb: np.ndarray, w_flow: np.ndarray,
                       cfg: DetectConfig) -> np.ndarray:
    """theta-weighted fusion of the two streams' frame score maps."""
    if w_rgb.shape != w_flow.shape:
        raise ShapeError(f"stream score maps disagree in shape: {w_rgb.shape} vs {w_flow.shape}")
    return cfg.theta * w_rgb + (1.0 - cfg.theta) * w_flow


def extract_proposals(scores: np.ndarray, cfg: DetectConfig) -> list[tuple[int, int, int, float]]:
    """Threshold each class's score track into maximal-run proposals:
    (class, ind_start, ind_end, confidence) tuples, in class-then-time order."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError("scores must be (classes, frames)")
    above = np.zeros((scores.shape[0], scores.shape[1] + 2), dtype=np.int8)
    above[:, 1:-1] = scores >= cfg.threshold
    # each run contributes a rise then a fall in its own row; row-major order
    # keeps the edges of one class together and in time order
    rows, edges = np.nonzero(np.diff(above, axis=1))
    # add.reduce / count is np.mean's arithmetic, so confidences keep its bits
    return [(c, lo, hi, float(np.add.reduce(scores[c, lo:hi]) / (hi - lo)))
            for c, lo, hi in zip(rows[::2].tolist(), edges[::2].tolist(),
                                 edges[1::2].tolist())]


def stream_scores(xs: Sequence[FeatureMatrix], model: Model, budget: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One stream's pass over a split's feature matrices ``xs``: the (V, C)
    video logits and their (C, N) frame score maps side by side, in ``xs``
    order, each chunk of at most ``budget`` frames run forward once."""
    logits, maps = [], []
    for lo, hi in chunk_bounds([x.n for x in xs], budget):
        z, w = chunk_scores(model, *stack_videos(xs[lo:hi]))
        logits.append(z)
        maps.append(w)
    return np.vstack(logits), np.hstack(maps)


def fuse_passes(recs: Sequence[VideoRecord], rgb: tuple[np.ndarray, np.ndarray],
                flow: tuple[np.ndarray, np.ndarray]) -> tuple[list[dict], dict]:
    """Classification records for accuracy scoring, and each video's (RGB, flow)
    frame score maps by id, from each stream's stream_scores pass over ``recs``."""
    (z_rgb, w_rgb), (z_flow, w_flow) = rgb, flow
    probs = stable_softmax((z_rgb + z_flow) / 2.0)
    cuts = np.cumsum([rec.n for rec in recs[:-1]])
    records = [{"video_id": rec.video_id, "logits_rgb": zr.tolist(),
                "logits_flow": zf.tolist(), "probs_fused": p.tolist()}
               for rec, zr, zf, p in zip(recs, z_rgb, z_flow, probs)]
    scores = dict(zip([rec.video_id for rec in recs],
                      zip(np.split(w_rgb, cuts, axis=1), np.split(w_flow, cuts, axis=1))))
    return records, scores


def predict_split(data: Dataset, split: str, model_rgb: Model, model_flow: Model
                  ) -> tuple[list[dict], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """fuse_passes of one stream_scores pass per stream over the split (side
    by side where the module docstring says, RGB then flow otherwise)."""
    recs = data.manifest.split(split)
    budget = min(chunk_budget(model_rgb), chunk_budget(model_flow))
    models = dict(zip(STREAMS, (model_rgb, model_flow)))

    def one_pass(stream: Stream) -> tuple[np.ndarray, np.ndarray]:
        return stream_scores(data.read_split(recs, stream), models[stream], budget)

    if ("multiprocessing" in sys.modules
            and sum(rec.n for rec in recs) >= FORK_MIN_FRAMES):
        passes = run_streams(one_pass)
    else:
        passes = {stream: one_pass(stream) for stream in STREAMS}
    return fuse_passes(recs, passes[Stream.RGB], passes[Stream.FLOW])


def detect_split(data: Dataset, split: str,
                 scores: Mapping[str, tuple[np.ndarray, np.ndarray]],
                 cfg: DetectConfig) -> list[dict]:
    """Proposals for every video in a split, as output-schema dicts in
    seconds, from the score maps that predict_split returned."""
    out = []
    for rec in data.manifest.split(split):
        fused = fused_frame_scores(*scores[rec.video_id], cfg)
        for c, lo, hi, confidence in extract_proposals(fused, cfg):
            out.append({
                "video_id": rec.video_id,
                "class": c,
                "t_start": lo / rec.fps,
                "t_end": hi / rec.fps,
                "confidence": confidence,
            })
    return out
