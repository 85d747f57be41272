"""Pure-numpy reference math used across the whole library.

These are the *exact* functions the SC circuits approximate (GELU, softmax,
the iterative softmax recurrence) plus small helpers.  They are kept free of
any autograd machinery so the SC substrate can import them without dragging
in the network stack.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf


def gelu_exact(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian Error Linear Unit: ``x * Phi(x)``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax_exact(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax_exact(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def sigmoid_exact(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def iterative_softmax_reference(x: np.ndarray, iterations: int, axis: int = -1) -> np.ndarray:
    """Floating-point reference of Algorithm 1 (iterative approximate softmax).

    This is the mathematical recurrence with no SC quantisation:

    .. math::
        y^0_i = 1/m, \\qquad
        z_i = x_i\\,y^{j-1}_i, \\qquad
        y^j_i = y^{j-1}_i + [z_i - y^{j-1}_i\\,\\mathrm{sum}(z)] / k

    The SC circuit (:mod:`repro.core.softmax_circuit`) adds thermometer
    quantisation and sub-sampling on top of exactly this recurrence, and the
    approximate-softmax-aware fine-tuning stage trains the ViT against this
    reference.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = np.asarray(x, dtype=float)
    x = np.moveaxis(x, axis, -1)
    m = x.shape[-1]
    y = np.full_like(x, 1.0 / m)
    for _ in range(iterations):
        z = x * y
        total = z.sum(axis=-1, keepdims=True)
        y = y + (z - y * total) / iterations
    return np.moveaxis(y, -1, axis)
