"""Dense numeric kernel: stable elementwise primitives and the
finite-difference gradient oracle used to certify every analytic gradient
in this package.

Everything here operates on float64 numpy arrays. Sizes are tiny
(hundreds of entries), so clarity beats BLAS-level tuning.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ShapeError

# Central-difference step used by the certification suite. 1e-5 in float64
# balances truncation against rounding error; tests depend on this value.
FD_STEP = 1e-5


def stable_softmax(v: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, one row at a time, with max subtraction
    so large logits cannot overflow.

    Args:
        v: Array of finite logits whose rows (last axis) are non-empty.

    Returns:
        Array of v's shape: each row has entries > 0 summing to 1 within 1e-12.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ShapeError(f"softmax expects non-empty rows, got shape {v.shape}")
    e = np.exp(v - np.max(v, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Perturbs every entry of ``x`` in turn: (f(x + h e_i) - f(x - h e_i)) / 2h.
    Works on arrays of any shape; the result has the shape of ``x``.

    Args:
        f: Scalar function defined in a neighborhood of ``x``.
        x: Point at which to differentiate.
        h: Step size, must be > 0.

    Returns:
        Array of the same shape as ``x`` holding the numerical gradient.
    """
    if h <= 0:
        raise ShapeError(f"finite-difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = float(f(x))
        flat_x[i] = orig - h
        f_minus = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(
                f"non-finite function value while differentiating entry {i}"
            )
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative disagreement between an analytic and a numerical gradient.

    Defined as ``max|a - n| / max(1e-5, max|a|, max|n|)``. The absolute
    floor keeps near-zero gradients from being divided by noise: central
    differences at h=1e-5 carry rounding error around ulp(f)/2h ~ 1e-11
    for unit-scale losses, so demanding agreement below 1e-10 absolute
    would test the oracle's noise, not the gradient.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ShapeError(
            f"gradient shapes differ: {analytic.shape} vs {numeric.shape}"
        )
    if analytic.size == 0:
        return 0.0
    scale = max(1e-5, float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale
