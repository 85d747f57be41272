"""Test-vector generation for circuit-error evaluation.

The paper collects the inputs of softmax and GELU "for each layer in ViT"
and samples test vectors from the overall distribution.  Two paths provide
the same thing here:

* **model-based** — :func:`collect_softmax_inputs` / :func:`collect_gelu_inputs`
  run a (trained or untrained) :class:`repro.nn.vit.CompactVisionTransformer`
  on a batch of images and harvest the actual pre-softmax attention logits
  and pre-GELU activations from its trace;
* **parametric** — :func:`attention_logit_vectors` / :func:`gelu_input_vectors`
  draw from distributions whose shape matches what compact ViTs produce
  (per-row scale spread and a handful of dominant entries for attention
  logits; a slightly negative-shifted, unit-ish-scale Gaussian mixture for
  pre-GELU activations).  These are used by benches that must run without a
  trained checkpoint and by the hypothesis-based property tests.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_eval_mode, check_positive_int


def attention_logit_vectors(
    num_rows: int,
    m: int,
    seed: SeedLike = 0,
    scale_range: tuple = (0.4, 2.0),
    peak_fraction: float = 0.08,
    peak_boost: float = 2.0,
) -> np.ndarray:
    """Synthetic pre-softmax attention logit rows of shape ``(num_rows, m)``.

    Each row has its own temperature drawn from ``scale_range`` (attention
    heads differ widely in how peaked they are) and a small number of boosted
    entries representing the tokens the head actually attends to.
    """
    check_positive_int(num_rows, "num_rows")
    check_positive_int(m, "m")
    rng = as_generator(seed)
    scales = rng.uniform(scale_range[0], scale_range[1], size=(num_rows, 1))
    rows = rng.normal(0.0, 1.0, size=(num_rows, m)) * scales
    num_peaks = max(1, int(round(peak_fraction * m)))
    for row in range(num_rows):
        idx = rng.choice(m, size=num_peaks, replace=False)
        rows[row, idx] += rng.uniform(0.5, peak_boost, size=num_peaks) * scales[row, 0]
    return rows


def gelu_input_vectors(
    num_samples: int,
    seed: SeedLike = 0,
    negative_shift: float = -0.15,
    scale: float = 0.6,
    heavy_tail_fraction: float = 0.02,
) -> np.ndarray:
    """Synthetic pre-GELU activation samples of shape ``(num_samples,)``.

    MLP pre-activations in trained transformers are roughly Gaussian with a
    small negative shift and a heavier-than-Gaussian tail; the mixture below
    reproduces that shape.
    """
    check_positive_int(num_samples, "num_samples")
    rng = as_generator(seed)
    base = rng.normal(negative_shift, scale, size=num_samples)
    tail_mask = rng.random(num_samples) < heavy_tail_fraction
    tail = rng.normal(negative_shift, 3.0 * scale, size=num_samples)
    return np.where(tail_mask, tail, base)


def _pooled_trace_values(
    model, images: np.ndarray, field: str, flatten, limit: Optional[int], limit_name: str, seed: SeedLike, caller: str
) -> np.ndarray:
    """One traced forward's per-layer ``field`` arrays, pooled, shuffled and cut to ``limit`` rows.

    The trace fills only ``field`` (its other fields are ``None``), and
    ``flatten`` reshapes each layer's array.  ``limit`` and the model's eval
    mode are checked before the forward runs, which records no autograd
    graph.
    """
    from repro.nn.autograd import Tensor, no_grad
    from repro.nn.vit import ModelTrace

    if limit is not None:
        check_positive_int(limit, limit_name)
    check_eval_mode(model, caller)
    trace = ModelTrace(**{f.name: [] if f.name == field else None for f in fields(ModelTrace)})
    with no_grad():
        model(Tensor(np.asarray(images, dtype=float)), trace=trace)
    pooled = np.concatenate([flatten(values) for values in getattr(trace, field)], axis=0)
    return pooled[as_generator(seed).permutation(pooled.shape[0])[:limit]]


def collect_softmax_inputs(
    model,
    images: np.ndarray,
    max_rows: Optional[int] = None,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Harvest pre-softmax attention logit rows from a ViT forward pass.

    ``model`` is a :class:`repro.nn.vit.CompactVisionTransformer`; the rows
    of every attention head in every layer are pooled, shuffled and (when
    ``max_rows`` is given) sub-sampled — the "sampled from the overall
    distribution" step of the paper's methodology.  ``model`` must be in eval mode.
    """
    return _pooled_trace_values(
        model,
        images,
        "attention_logits",
        lambda logits: logits.reshape(-1, logits.shape[-1]),
        limit=max_rows,
        limit_name="max_rows",
        seed=seed,
        caller="collect_softmax_inputs",
    )


def collect_gelu_inputs(
    model,
    images: np.ndarray,
    max_samples: Optional[int] = None,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Harvest pre-GELU activation samples from an eval-mode ViT forward pass."""
    return _pooled_trace_values(
        model,
        images,
        "gelu_inputs",
        lambda hidden: hidden.reshape(-1),
        limit=max_samples,
        limit_name="max_samples",
        seed=seed,
        caller="collect_gelu_inputs",
    )
