"""Squared-MMD knowledge transfer between source and target activations.

The estimator is the biased V-statistic, all three double sums including
i = j terms, with a Gaussian kernel exp(-||x - y||^2 / (2 sigma^2)).
Bandwidth is either fixed or the median of pairwise distances over the
pooled sample (fallback 1 when the median is 0). The median is treated as
a constant in the backward pass: gradients never flow through sigma, and
gradient certification runs with a fixed bandwidth.

Distances come in Gram form, ||x||^2 + ||y||^2 - 2 x.y clamped at 0, from
three block products T T', U U' and T U' (Gretton et al., *A Kernel
Two-Sample Test*, JMLR 2012: the statistic is three block sums of one
kernel matrix). Three rules keep it exact where the broadcast difference
was:

- Both batches are first centred on their pooled mean. Distances do not
  change under a shift, and without it a batch far from the origin with a
  small spread loses its distances to cancellation.
- The three products have equal shapes and contiguous right operands, so
  equal batches give equal bits in all three blocks and
  ``mmd2(t, t.copy())`` is exactly 0. One stacked product would not
  guarantee that, nor would ``t @ t.T``, which numpy may send to a
  different BLAS routine than ``t @ u.T``.
- Squared norms are read off the diagonals of the self products, so each
  point's distance to itself is an exact 0 with no special case. The
  diagonals of K_tt and K_uu stay in the sums, as the V-statistic counts
  i = j; zeroing them alone would also break the bit equality with K_tu
  (whose diagonal is a cross term) that the exact zero relies on.

``transfer_loss`` reads the bandwidth and the statistic off one set of
blocks; ``median_bandwidth``, ``mmd2`` and ``mmd2_grad_u`` are the same
reads for callers holding raw batches. The gradient is in matrix form:
(2 / (n_u^2 s^2)) (K_uu U - rowsum(K_uu) U) - (2 / (n_t n_u s^2))
(K_tu' T - colsum(K_tu) U), where the sums scale the rows of U.

The loss taps two points per stream: the pooled representation entering
FC1, and the post-relu hidden activations after FC1 (pre-dropout). Each
tap is one ``transfer_loss`` / ``transfer_grads`` pair with its own
bandwidth; which taps run is decided by the training loss weights alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SampleError, ShapeError


@dataclass(frozen=True)
class KernelConfig:
    """sigma is a positive number or the string "median"."""

    sigma: float | str = field(default="median", metadata={"kind": (str, float)})

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


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ np.ascontiguousarray(b.T)


def _clamped(g: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    return np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * g, 0.0)


def _sq_blocks(t: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Centred batches and the squared distances T-T, U-U and T-U."""
    centre = (t.sum(axis=0) + u.sum(axis=0)) / (t.shape[0] + u.shape[0])
    t, u = t - centre, u - centre
    g_tt, g_uu = _gram(t, t), _gram(u, u)
    sq_t, sq_u = np.diagonal(g_tt), np.diagonal(g_uu)
    return (t, u, _clamped(g_tt, sq_t, sq_t), _clamped(g_uu, sq_u, sq_u),
            _clamped(_gram(t, u), sq_t, sq_u))


def _median_distance(d_tt: np.ndarray, d_uu: np.ndarray, d_tu: np.ndarray) -> float:
    """Median pairwise distance over the pooled points of three blocks.

    T-T, U-U and T-U listed twice hold each ordered pair (i, j) of the
    n = n_t + n_u points once, i = j included. The n diagonal entries are
    exact zeros, so the smallest values, and each pair appears twice; the
    pair median is the mean of the square roots at sorted positions
    n(n+1)/2 - 1 and n(n+1)/2.
    """
    n = sum(d_tu.shape)
    hi = n * (n + 1) // 2
    sq = np.partition(np.concatenate([d_tt.ravel(), d_uu.ravel(), d_tu.ravel(), d_tu.ravel()]),
                      (hi - 1, hi))
    med = float((np.sqrt(sq[hi - 1]) + np.sqrt(sq[hi])) / 2.0)
    return med if med > 0 else 1.0


def _v_statistic(d_tt: np.ndarray, d_uu: np.ndarray, d_tu: np.ndarray,
                 sigma: float) -> float:
    s2 = 2.0 * sigma * sigma
    n_t, n_u = d_tu.shape
    k_tt = float(np.sum(np.exp(-d_tt / s2))) / (n_t * n_t)
    k_uu = float(np.sum(np.exp(-d_uu / s2))) / (n_u * n_u)
    k_tu = float(np.sum(np.exp(-d_tu / s2))) / (n_t * n_u)
    return k_tt + k_uu - 2.0 * k_tu


def median_bandwidth(points: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise SampleError("median bandwidth needs at least 2 vectors")
    # any split into two batches lists the same pairs
    return _median_distance(*_sq_blocks(points[:1], points[1:])[2:])


def mmd2(t: np.ndarray, u: np.ndarray, sigma: float) -> float:
    """Biased squared-MMD V-statistic between row batches T and U."""
    t, u = _check_pair(t, u)
    return _v_statistic(*_sq_blocks(t, u)[2:], sigma)


def mmd2_grad_u(t: np.ndarray, u: np.ndarray, sigma: float) -> np.ndarray:
    """d mmd2 / d u_p, sigma held constant (the source side is frozen).

    For the Gaussian kernel, d k(x, y)/d x = k(x, y) (y - x) / sigma^2.
    """
    t, u, _, d_uu, d_tu = _sq_blocks(*_check_pair(t, u))
    n_t, n_u = d_tu.shape
    s2 = sigma * sigma
    k_uu = np.exp(-d_uu / (2.0 * s2))    # (n_u, n_u)
    k_tu = np.exp(-d_tu / (2.0 * s2))    # (n_t, n_u)
    g = (2.0 / (n_u * n_u * s2)) * (k_uu @ u - k_uu.sum(axis=1)[:, None] * u)
    g -= (2.0 / (n_t * n_u * s2)) * (k_tu.T @ t - k_tu.sum(axis=0)[:, None] * u)
    return g


def transfer_loss(source: np.ndarray, target: np.ndarray,
                  kcfg: KernelConfig) -> tuple[float, float]:
    """Squared MMD at one classifier tap, and the bandwidth it used."""
    t, u = _check_pair(source, target)
    _, _, d_tt, d_uu, d_tu = _sq_blocks(t, u)
    if kcfg.sigma == "median":
        sigma = _median_distance(d_tt, d_uu, d_tu)
    else:
        sigma = float(kcfg.sigma)
    return _v_statistic(d_tt, d_uu, d_tu, sigma), sigma


def transfer_grads(source: np.ndarray, target: np.ndarray, sigma: float) -> np.ndarray:
    """Gradient of one tap's squared MMD w.r.t. the target batch (rows align
    with videos), at the bandwidth ``transfer_loss`` returned."""
    return mmd2_grad_u(source, target, sigma)
