"""Squared-MMD knowledge transfer between source and target activations.

The estimator is the biased V-statistic, all three double sums including
i = j terms, with a Gaussian kernel exp(-||x - y||^2 / (2 sigma^2)).
Bandwidth is either fixed or the median of pairwise distances over the
pooled sample (fallback 1 when the median is 0). The median is treated as
a constant in the backward pass: gradients never flow through sigma, and
gradient certification runs with a fixed bandwidth.

The loss taps two points per stream: the pooled representation entering
FC1, and the post-relu hidden activations after FC1 (pre-dropout). Each
tap is one ``transfer_loss`` / ``transfer_grads`` pair with its own
bandwidth; which taps run is decided by the training loss weights alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SampleError, ShapeError


@dataclass(frozen=True)
class KernelConfig:
    """sigma is a positive number or the string "median"."""

    sigma: float | str = "median"

    def __post_init__(self):
        if isinstance(self.sigma, str):
            if self.sigma != "median":
                raise ConfigError(f'kernel sigma must be positive or "median", got {self.sigma!r}')
        elif not self.sigma > 0:
            raise ConfigError(f"kernel sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class TransferConfig:
    enabled: bool = True
    fc2_enabled: bool = True


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # direct (x-y).(x-y) per pair; exact zeros on identical rows
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=-1)


def median_bandwidth(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise SampleError("median bandwidth needs at least 2 vectors")
    sq = _sq_dists(points, points)
    iu = np.triu_indices(points.shape[0], k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    return med if med > 0 else 1.0


def resolve_sigma(t: np.ndarray, u: np.ndarray, kcfg: KernelConfig) -> float:
    if kcfg.sigma == "median":
        return median_bandwidth(np.vstack([t, u]))
    return float(kcfg.sigma)


def _check_pair(t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(t, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if t.ndim != 2 or u.ndim != 2:
        raise ShapeError("batches must be 2-D (rows are vectors)")
    if t.shape[0] < 1 or u.shape[0] < 1:
        raise SampleError("both batches need at least one vector")
    if t.shape[1] != u.shape[1]:
        raise ShapeError(f"batch dims differ: {t.shape[1]} vs {u.shape[1]}")
    return t, u


def mmd2(t: np.ndarray, u: np.ndarray, sigma: float) -> float:
    """Biased squared-MMD V-statistic between row batches T and U."""
    t, u = _check_pair(t, u)
    s2 = 2.0 * sigma * sigma
    k_tt = float(np.sum(np.exp(-_sq_dists(t, t) / s2))) / (t.shape[0] ** 2)
    k_uu = float(np.sum(np.exp(-_sq_dists(u, u) / s2))) / (u.shape[0] ** 2)
    k_tu = float(np.sum(np.exp(-_sq_dists(t, u) / s2))) / (t.shape[0] * u.shape[0])
    return k_tt + k_uu - 2.0 * k_tu


def mmd2_grad_u(t: np.ndarray, u: np.ndarray, sigma: float) -> np.ndarray:
    """d mmd2 / d u_p, sigma held constant (the source side is frozen).

    For the Gaussian kernel, d k(x, y)/d x = k(x, y) (y - x) / sigma^2.
    """
    t, u = _check_pair(t, u)
    n_t, n_u = t.shape[0], u.shape[0]
    s2 = sigma * sigma
    k_uu = np.exp(-_sq_dists(u, u) / (2.0 * s2))    # (n_u, n_u)
    k_tu = np.exp(-_sq_dists(t, u) / (2.0 * s2))    # (n_t, n_u)
    # UU term: entries (p,j) and (j,p) contribute equally; the p=j entry is 0
    diff_uu = u[None, :, :] - u[:, None, :]          # [p, j] = u_j - u_p
    g = (2.0 / (n_u * n_u)) * np.sum(k_uu[:, :, None] * diff_uu, axis=1) / s2
    diff_tu = t[:, None, :] - u[None, :, :]          # [i, p] = t_i - u_p
    g -= (2.0 / (n_t * n_u)) * np.sum(k_tu[:, :, None] * diff_tu, axis=0) / s2
    return g


def transfer_loss(source: np.ndarray, target: np.ndarray,
                  kcfg: KernelConfig) -> tuple[float, float]:
    """Squared MMD at one classifier tap, and the bandwidth it used."""
    if source.shape[1] != target.shape[1]:
        raise ConfigError(f"source and target widths differ: "
                          f"{source.shape[1]} vs {target.shape[1]}")
    sigma = resolve_sigma(source, target, kcfg)
    return mmd2(source, target, sigma), sigma


def transfer_grads(source: np.ndarray, target: np.ndarray, sigma: float) -> np.ndarray:
    """Gradient of one tap's squared MMD w.r.t. the target batch (rows align
    with videos), at the bandwidth ``transfer_loss`` returned."""
    return mmd2_grad_u(source, target, sigma)
