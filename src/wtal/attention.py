"""Self-attention pooling over frame features, with analytic gradients.

The scorer is additive: per-frame logits are w2 @ tanh(W1 @ X), one row per
head. In ``softmax`` mode each head's weights are a simplex vector and the
L1 sparsity penalty is provably constant (weights sum to 1). The ``sigmoid``
mode scores frames independently, normalizes by the score sum for pooling,
and applies the L1 penalty to the raw scores, where it actually bites.
The smoothness penalty is the direct summation sum((a_i - a_{i+1})^2).

Every function here takes a chunk: the frames of B videos side by side in
one (d, N) feature matrix, video b owning the next ``counts[b]`` columns; a
single video is a chunk of one. Each head's softmax or score sum runs over
each video's own columns, the pooled output has one row per video, and the
smoothness penalty skips the adjacent pairs that straddle two videos, so a
chunk computes what its videos would one at a time, up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError, ShapeError
from .numerics import sigmoid

MODES = ("softmax", "sigmoid")


class AttentionParams(NamedTuple):
    """W1 (b x d) and w2 (r x b), or their gradients; ``training.Model`` checks the shapes."""

    w1: np.ndarray
    w2: np.ndarray

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def r(self) -> int:
        return self.w2.shape[0]


def _membership(counts: Sequence[int], n: int) -> np.ndarray:
    """The (B, N) 0/1 matrix whose row b marks the columns of video b."""
    if min(counts, default=0) < 1 or sum(counts) != n:
        raise ShapeError(f"frame counts {tuple(counts)} do not split {n} frames")
    return np.repeat(np.eye(len(counts)), counts, axis=1)


def _video_sums(v: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Each row of the (r, N) ``v`` summed over each video's columns and
    spread back over them."""
    return (v @ member.T) @ member


@dataclass
class AttentionOutput:
    """Forward pass artifacts; hidden is kept for the backward pass.

    ``a`` is (r, N), each head's weights summing to 1 over each video, and
    ``m`` is (B, r*d), row b concatenating video b's per-head pooled vectors.
    ``scores`` holds the raw per-frame scores the sparsity penalty applies
    to: in sigmoid mode the unnormalized sigmoid outputs, in softmax mode
    the weights themselves. ``member`` is the chunk's membership matrix and
    ``pooling`` the (B, r, N) stack of ``a`` masked to each video, so that
    m = pooling @ X^T.
    """

    a: np.ndarray
    m: np.ndarray
    scores: np.ndarray
    hidden: np.ndarray
    mode: str
    counts: tuple[int, ...]
    member: np.ndarray
    pooling: np.ndarray

    @property
    def frame_weights(self) -> np.ndarray:
        """Per-frame detection weight: mean over heads."""
        return self.a.mean(axis=0)


def _pooled(values: np.ndarray, a: np.ndarray, member: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The pooling stack, and m[b, k*d:(k+1)*d] = X @ (a_k on video b) for
    every video and head at once."""
    pooling = member[:, None, :] * a
    return pooling, (pooling.reshape(-1, values.shape[1]) @ values.T).reshape(len(member), -1)


def attend(x: FeatureMatrix, p: AttentionParams, mode: str = "softmax",
           counts: Sequence[int] | None = None) -> AttentionOutput:
    """Pool each video's frames into m_b = concat_k(X_b @ a_k) with learned
    weights; ``counts`` splits the columns of ``x`` into videos (default:
    one video)."""
    if mode not in MODES:
        raise ConfigError(f"unknown attention mode {mode!r}")
    values = x.values
    d, n = values.shape
    if d != p.w1.shape[1]:
        raise ShapeError(f"features have d={d}, attention expects d={p.w1.shape[1]}")
    counts = (n,) if counts is None else tuple(counts)
    member = _membership(counts, n)
    hidden = p.w1 @ values                     # (b, N)
    np.tanh(hidden, out=hidden)
    logits = p.w2 @ hidden                     # (r, N)
    if mode == "softmax":
        top = np.maximum.reduceat(logits, [0, *accumulate(counts[:-1])], axis=1)
        scores = np.exp(logits - top @ member)       # max-shifted per video and head
    else:
        scores = sigmoid(logits)
    a = scores / _video_sums(scores, member)
    pooling, m = _pooled(values, a, member)
    return AttentionOutput(a, m, a if mode == "softmax" else scores, hidden, mode, counts,
                           member, pooling)


def uniform_attention(x: FeatureMatrix, r: int = 1,
                      counts: Sequence[int] | None = None) -> AttentionOutput:
    """Attention-free pooling: each frame weighs 1/n of its own video, and
    the gradient path is zero."""
    counts = (x.n,) if counts is None else tuple(counts)
    member = _membership(counts, x.n)
    a = np.tile((1.0 / np.array(counts, dtype=np.float64)) @ member, (r, 1))
    pooling, m = _pooled(x.values, a, member)
    return AttentionOutput(a, m, a, np.zeros((0, x.n)), "uniform", counts, member, pooling)


def attention_grads(x: FeatureMatrix, p: AttentionParams, out: AttentionOutput,
                    g_m: np.ndarray | None = None,
                    g_a: np.ndarray | None = None,
                    g_scores: np.ndarray | None = None) -> AttentionParams:
    """Backpropagate upstream gradients on (m, a, scores) of one chunk to
    the gradients on (W1, w2), summed over its videos.

    g_m is (B, r*d) like ``out.m``; g_a and g_scores are (r, N) like
    ``out.a``. g_scores is only meaningful in sigmoid mode, where the
    sparsity penalty touches the raw scores directly.
    """
    d, n, r, b = p.d, x.n, p.r, len(out.counts)
    if out.mode == "uniform":
        return AttentionParams(np.zeros_like(p.w1), np.zeros_like(p.w2))
    if g_scores is not None and out.mode != "sigmoid":
        raise ShapeError("score gradients only exist in sigmoid mode")
    if g_m is not None and g_m.shape != (b, r * d):
        raise ShapeError(f"g_m must have shape ({b}, {r * d}), got {g_m.shape}")
    if g_a is not None and g_a.shape != (r, n):
        raise ShapeError(f"g_a must have shape ({r}, {n}), got {g_a.shape}")

    # v = a * (upstream gradient on a); column i of video j reads head k's
    # row j*r + k of G @ X, the row that the pooling stack's mask selects
    v = np.zeros((r, n)) if g_a is None else out.a * g_a
    if g_m is not None:
        gx = (g_m.reshape(b * r, d) @ x.values).reshape(b, r, n)
        v = v + np.add.reduce(gx * out.pooling, axis=0)
    g_logits = v - out.a * _video_sums(v, out.member)   # through the normalization
    if out.mode == "sigmoid":
        if g_scores is not None:
            g_logits = g_logits + g_scores * out.scores
        g_logits = g_logits * (1.0 - out.scores)
    g_w2 = g_logits @ out.hidden.T
    g_pre = out.hidden * out.hidden                 # through the tanh, in place
    np.subtract(1.0, g_pre, out=g_pre)
    g_pre *= np.dot(p.w2.T, g_logits)   # np.dot: matmul is ~3x slower on a 1-head outer product
    return AttentionParams(g_pre @ x.values.T, g_w2)


# ---------------------------------------------------------------------------
# regularizers on the (r, N) weights, summed over heads
# ---------------------------------------------------------------------------


def _adjacent_diffs(a: np.ndarray, counts: Sequence[int] | None) -> np.ndarray:
    """a_i - a_{i+1} along the last axis, 0 where the pair straddles two videos."""
    diffs = a[..., :-1] - a[..., 1:]
    if counts is not None and len(counts) > 1:
        diffs[..., [end - 1 for end in accumulate(counts[:-1])]] = 0.0
    return diffs


def smooth_reg_direct(a: np.ndarray, counts: Sequence[int] | None = None) -> float:
    """sum over heads and adjacent frames of one video of (a_i - a_{i+1})^2;
    0 for a single frame. ``counts`` splits the frames into videos."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise ShapeError("smoothness penalty needs non-empty weight rows")
    diffs = _adjacent_diffs(a, counts)
    return float(np.sum(diffs * diffs))


def smooth_reg_grad(a: np.ndarray, counts: Sequence[int] | None = None) -> np.ndarray:
    """Gradient of smooth_reg_direct: 2(a_i - a_{i-1}) + 2(a_i - a_{i+1})."""
    a = np.asarray(a, dtype=np.float64)
    g = np.zeros_like(a)
    diffs = _adjacent_diffs(a, counts)
    g[..., :-1] += 2.0 * diffs
    g[..., 1:] -= 2.0 * diffs
    return g


def sparsity_reg(a: np.ndarray) -> float:
    """L1 norm of the attention weights (or raw scores in sigmoid mode)."""
    return float(np.sum(np.abs(np.asarray(a, dtype=np.float64))))


def sparsity_reg_grad(a: np.ndarray) -> np.ndarray:
    """Subgradient of the L1 norm, sign(a); 0 at exact zeros."""
    return np.sign(np.asarray(a, dtype=np.float64))
