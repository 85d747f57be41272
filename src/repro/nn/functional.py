"""Differentiable functional operations built on the autograd Tensor.

Everything the compact ViT needs: GELU (exact, via erf), numerically stable
softmax / log-softmax, normalisation helpers, dropout and the differentiable
iterative approximate softmax used by the circuit-aware fine-tuning stage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

_SQRT2 = float(np.sqrt(2.0))


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: ``x * 0.5 * (1 + erf(x / sqrt(2)))``."""
    return x * ((x * (1.0 / _SQRT2)).erf() + 1.0) * 0.5


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def iterative_softmax(x: Tensor, iterations: int, axis: int = -1) -> Tensor:
    """Differentiable iterative approximate softmax (Algorithm 1).

    Built from plain tensor operations, so the gradient of the *approximate*
    recurrence flows to the logits — the property the approximate-softmax-
    aware fine-tuning stage of Section V relies on.
    """
    check_positive_int(iterations, "iterations")
    if axis != -1 and axis != x.ndim - 1:
        x = x.swapaxes(axis, -1)
    m = x.shape[-1]
    y = Tensor(np.full(x.shape, 1.0 / m))
    for _ in range(iterations):
        z = x * y
        total = z.sum(axis=-1, keepdims=True)
        y = y + (z - y * total) * (1.0 / iterations)
    if axis != -1 and axis != x.ndim - 1:
        y = y.swapaxes(axis, -1)
    return y


def layer_norm(x: Tensor, weight: Optional[Tensor] = None, bias: Optional[Tensor] = None, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with optional affine parameters."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mean) / (var + eps).sqrt()
    if weight is not None:
        normalised = normalised * weight
    if bias is not None:
        normalised = normalised + bias
    return normalised


def dropout(x: Tensor, rate: float, training: bool, seed: SeedLike = None) -> Tensor:
    """Inverted dropout; identity when not training or rate is zero."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return x
    rng = as_generator(seed)
    mask = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight stored as (out, in))."""
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        if out._needs_graph(bias):
            return out + bias
        out.data += bias.data  # the fresh GEMM output; same sum as ``out + bias``
    return out


def scaled_dot_product_scores(query: Tensor, key: Tensor, scale: Optional[float] = None) -> Tensor:
    """Attention logits ``Q K^T / sqrt(d)`` (before softmax)."""
    d = query.shape[-1]
    if scale is None:
        scale = 1.0 / float(np.sqrt(d))
    scores = query @ key.swapaxes(-1, -2)
    if scores._needs_graph():
        return scores * scale
    scores.data *= scale
    return scores


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels (plain numpy; labels carry no gradient)."""
    labels = np.asarray(labels, dtype=int)
    check_positive_int(num_classes, "num_classes")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the given number of classes")
    encoded = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(encoded, labels[..., None], 1.0, axis=-1)
    return encoded


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function.

    Shared by the test suite to validate every autograd primitive; kept in
    the library so downstream users extending the engine can reuse it.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + eps
        upper = fn(x)
        flat[idx] = original - eps
        lower = fn(x)
        flat[idx] = original
        grad_flat[idx] = (upper - lower) / (2 * eps)
    return grad
