"""Two-FC classification head and video loss.

The head is logits = FC2 @ relu(FC1 @ m + b1) + b2 with a softmax on top.
Dropout (when given) multiplies the hidden layer by a pre-scaled 0-or-1/keep
mask, so inference needs no rescaling; the unmasked hidden activations are
returned too because the knowledge-transfer loss taps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .numerics import stable_softmax

LOG_EPS = 1e-12


@dataclass
class ClassifierParams:
    """FC1 (h x rd) + bias, FC2 (C x h) + bias."""

    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    def __post_init__(self):
        self.fc1_w = np.asarray(self.fc1_w, dtype=np.float64)
        self.fc1_b = np.asarray(self.fc1_b, dtype=np.float64)
        self.fc2_w = np.asarray(self.fc2_w, dtype=np.float64)
        self.fc2_b = np.asarray(self.fc2_b, dtype=np.float64)
        h, _ = self.fc1_w.shape
        c, h2 = self.fc2_w.shape
        if self.fc1_b.shape != (h,) or self.fc2_b.shape != (c,) or h2 != h:
            raise ShapeError("classifier parameter shapes are inconsistent")
        if c < 2:
            raise ShapeError("classifier needs at least 2 classes")

    @property
    def in_dim(self) -> int:
        return self.fc1_w.shape[1]

    @property
    def h(self) -> int:
        return self.fc1_w.shape[0]

    @property
    def n_classes(self) -> int:
        return self.fc2_w.shape[0]


@dataclass(frozen=True)
class ClassifierOutput:
    """hidden_clean is pre-dropout (the transfer tap); hidden feeds FC2."""

    pre1: np.ndarray
    hidden_clean: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


def classify(m: np.ndarray, p: ClassifierParams,
             dropout_mask: np.ndarray | None = None) -> ClassifierOutput:
    """Forward pass; dropout_mask entries must be 0 or 1/keep_rate."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (p.in_dim,):
        raise ShapeError(f"pooled vector has shape {m.shape}, classifier expects ({p.in_dim},)")
    pre1 = p.fc1_w @ m + p.fc1_b
    hidden_clean = np.maximum(pre1, 0.0)
    if dropout_mask is not None:
        if dropout_mask.shape != hidden_clean.shape:
            raise ShapeError("dropout mask must match the hidden layer")
        hidden = hidden_clean * dropout_mask
    else:
        hidden = hidden_clean
    logits = p.fc2_w @ hidden + p.fc2_b
    return ClassifierOutput(pre1=pre1, hidden_clean=hidden_clean, hidden=hidden,
                            logits=logits, probs=stable_softmax(logits))


def label_vector(labels, n_classes: int) -> np.ndarray:
    """Uniform mass over the video's present labels."""
    labels = sorted(set(int(c) for c in labels))
    if not labels:
        raise InputError("empty label set")
    y = np.zeros(n_classes)
    for c in labels:
        if not (0 <= c < n_classes):
            raise InputError(f"label {c} outside [0, {n_classes})")
        y[c] = 1.0 / len(labels)
    return y


def class_loss(probs: np.ndarray, y: np.ndarray) -> float:
    """Cross-entropy -sum_c y_c log(p_c + eps)."""
    if probs.shape != y.shape:
        raise ShapeError("probs and labels must have equal length")
    return float(-np.sum(y * np.log(probs + LOG_EPS)))


def class_loss_grad_logits(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact gradient of class_loss w.r.t. the logits, through the epsilon.

    dL/dp_c = -y_c/(p_c + eps), pushed through the softmax Jacobian.
    """
    g_p = -y / (probs + LOG_EPS)
    return probs * (g_p - float(g_p @ probs))


@dataclass(frozen=True)
class ClassifierGrads:
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray
    m: np.ndarray


def classifier_grads(m: np.ndarray, p: ClassifierParams, out: ClassifierOutput,
                     g_logits: np.ndarray,
                     dropout_mask: np.ndarray | None = None,
                     g_hidden_clean: np.ndarray | None = None) -> ClassifierGrads:
    """Backward pass. g_hidden_clean injects the transfer tap's gradient."""
    m = np.asarray(m, dtype=np.float64)
    g_fc2_w = np.outer(g_logits, out.hidden)
    g_fc2_b = g_logits.copy()
    g_hidden = p.fc2_w.T @ g_logits
    if dropout_mask is not None:
        g_hidden = g_hidden * dropout_mask
    if g_hidden_clean is not None:
        g_hidden = g_hidden + g_hidden_clean
    g_pre1 = g_hidden * (out.pre1 > 0.0)
    g_fc1_w = np.outer(g_pre1, m)
    g_fc1_b = g_pre1
    g_m = p.fc1_w.T @ g_pre1
    return ClassifierGrads(fc1_w=g_fc1_w, fc1_b=g_fc1_b,
                           fc2_w=g_fc2_w, fc2_b=g_fc2_b, m=g_m)
