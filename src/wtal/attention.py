"""Self-attention pooling over frame features, with analytic gradients.

The scorer is additive: per-frame logits are w2 @ tanh(W1 @ X), one row per
head. In ``softmax`` mode each head's weights are a simplex vector and the
L1 sparsity penalty is provably constant (weights sum to 1). The ``sigmoid``
mode scores frames independently, normalizes by the score sum for pooling,
and applies the L1 penalty to the raw scores, where it actually bites.
The smoothness penalty is the direct summation sum((a_i - a_{i+1})^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError, ShapeError
from .numerics import sigmoid, stable_softmax

MODES = ("softmax", "sigmoid")


@dataclass
class AttentionParams:
    """Learned attention parameters: W1 (b x d), w2 (r x b)."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ShapeError("attention parameters must be 2-D")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ShapeError(
                f"w2 columns ({self.w2.shape[1]}) must match W1 rows ({self.w1.shape[0]})"
            )

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def r(self) -> int:
        return self.w2.shape[0]


@dataclass(frozen=True)
class AttentionOutput:
    """Forward pass artifacts; hidden/logits are kept for the backward pass.

    ``a`` is (r, n) with each row summing to 1. ``m`` is the length r*d
    concatenation of per-head pooled vectors. ``scores`` holds the raw
    per-frame scores the sparsity penalty applies to: in sigmoid mode the
    unnormalized sigmoid outputs, in softmax mode the weights themselves.
    """

    a: np.ndarray
    m: np.ndarray
    scores: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray
    mode: str

    @property
    def frame_weights(self) -> np.ndarray:
        """Per-frame detection weight: mean over heads."""
        return self.a.mean(axis=0)


def attend(x: FeatureMatrix, p: AttentionParams, mode: str = "softmax") -> AttentionOutput:
    """Pool frame features into m = concat_k(X @ a_k) with learned weights."""
    if mode not in MODES:
        raise ConfigError(f"unknown attention mode {mode!r}")
    if x.d != p.d:
        raise ShapeError(f"features have d={x.d}, attention expects d={p.d}")
    hidden = np.tanh(p.w1 @ x.values)          # (b, n)
    logits = p.w2 @ hidden                     # (r, n)
    if mode == "softmax":
        a = stable_softmax(logits)
        scores = a
    else:
        scores = sigmoid(logits)
        a = scores / scores.sum(axis=1, keepdims=True)
    m = (x.values @ a.T).T.reshape(-1)         # head k occupies m[k*d:(k+1)*d]
    return AttentionOutput(a=a, m=m, scores=scores, hidden=hidden,
                           logits=logits, mode=mode)


def uniform_attention(x: FeatureMatrix, r: int = 1) -> AttentionOutput:
    """Attention-free pooling: fixed uniform weights, zero gradient path."""
    n = x.n
    a = np.full((r, n), 1.0 / n)
    m = np.tile(x.values.mean(axis=1), r)
    return AttentionOutput(a=a, m=m, scores=a, hidden=np.zeros((0, n)),
                           logits=np.zeros((r, n)), mode="uniform")


def attention_grads(x: FeatureMatrix, p: AttentionParams, out: AttentionOutput,
                    g_m: np.ndarray | None = None,
                    g_a: np.ndarray | None = None,
                    g_scores: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate upstream gradients on (m, a, scores) to (W1, w2).

    g_scores is only meaningful in sigmoid mode, where the sparsity penalty
    touches the raw scores directly.
    """
    d, n, r = p.d, x.n, p.r
    if out.mode == "uniform":
        return np.zeros_like(p.w1), np.zeros_like(p.w2)
    if g_scores is not None and out.mode != "sigmoid":
        raise ShapeError("score gradients only exist in sigmoid mode")
    if g_m is not None and g_m.shape != (r * d,):
        raise ShapeError(f"g_m must have shape ({r * d},), got {g_m.shape}")
    if g_a is not None and g_a.shape != (r, n):
        raise ShapeError(f"g_a must have shape ({r}, {n}), got {g_a.shape}")

    u = np.zeros((r, n)) if g_a is None else g_a      # upstream gradient on a
    if g_m is not None:
        u = u + g_m.reshape(r, d) @ x.values
    u = u - np.sum(u * out.a, axis=1, keepdims=True)  # through the normalization
    if out.mode == "softmax":
        g_logits = out.a * u
    else:
        g_s = u / out.scores.sum(axis=1, keepdims=True)
        if g_scores is not None:
            g_s = g_s + g_scores
        g_logits = g_s * out.scores * (1.0 - out.scores)
    g_w2 = g_logits @ out.hidden.T
    g_pre = (p.w2.T @ g_logits) * (1.0 - out.hidden ** 2)
    g_w1 = g_pre @ x.values.T
    return g_w1, g_w2


# ---------------------------------------------------------------------------
# regularizers on the (r, n) weights, summed over heads
# ---------------------------------------------------------------------------


def smooth_reg_direct(a: np.ndarray) -> float:
    """sum over heads and i<n of (a_i - a_{i+1})^2; 0 for a single frame."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise ShapeError("smoothness penalty needs non-empty weight rows")
    diffs = a[..., :-1] - a[..., 1:]
    return float(np.sum(diffs * diffs))


def smooth_reg_grad(a: np.ndarray) -> np.ndarray:
    """Gradient of smooth_reg_direct: 2(a_i - a_{i-1}) + 2(a_i - a_{i+1})."""
    a = np.asarray(a, dtype=np.float64)
    g = np.zeros_like(a)
    diffs = a[..., :-1] - a[..., 1:]
    g[..., :-1] += 2.0 * diffs
    g[..., 1:] -= 2.0 * diffs
    return g


def sparsity_reg(a: np.ndarray) -> float:
    """L1 norm of the attention weights (or raw scores in sigmoid mode)."""
    return float(np.sum(np.abs(np.asarray(a, dtype=np.float64))))


def sparsity_reg_grad(a: np.ndarray) -> np.ndarray:
    """Subgradient of the L1 norm, sign(a); 0 at exact zeros."""
    return np.sign(np.asarray(a, dtype=np.float64))
