"""Streaming, batched end-to-end evaluation of the ViT on SC circuits.

:class:`ScViTEvalPipeline` evaluates a trained
:class:`~repro.nn.vit.CompactVisionTransformer` with every attention softmax
routed through the bit-accurate iterative SC softmax circuit and, optionally,
every GELU through the gate-assisted SI block: the accuracy column of
Table VI for each softmax configuration ``[By, s1, s2, k]``.  It is the one
evaluator; offline grids, the Table VI task, the co-design driver and every
served prediction run through it:

* **batched substitution** — the circuit-level softmax runs directly on the
  ``(batch, heads, tokens, m)`` score tensor and the SI GELU on the whole
  ``(batch, tokens, hidden)`` activation tensor: one substitution call per
  layer per batch, with fault injection applied as one net-count draw per
  softmax stream interface and one composed draw per GELU
  (:mod:`repro.eval_pipeline.faults`).
* **circuits as call arguments** — the substitutions reach the model as the
  ``softmax=``/``gelu=`` arguments of one forward, and the fault model is
  armed for that forward only; no forward writes to the model, the
  circuits or the pipeline, so one pipeline over one frozen model serves
  any number of threads at once.
* **chunk-invariant numerics** — forwards run under
  :func:`repro.nn.autograd.batch_invariant_matmul`, so evaluating a split
  in chunks of 1, 32 or 1024 images yields bit-identical logits; the
  pipeline's results are a pure function of (weights, images, config,
  fault seed), never of ``batch_size``.
* **streaming** — :meth:`ScViTEvalPipeline.iter_batches` yields per-chunk
  results as they are computed, so callers can stream a split through
  constant memory; :meth:`evaluate` is the accumulate-to-accuracy wrapper.

:class:`repro.eval_pipeline.tasks.EvalTask` builds this pipeline per config
of a dataset-level accuracy grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.blocks import build as build_block
from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.nn.autograd import Tensor, batch_invariant_matmul, no_grad
from repro.nn.vit import CompactVisionTransformer
from repro.training.datasets import DatasetSplit
from repro.utils.validation import check_eval_mode, check_positive_int

__all__ = ["EvalBatch", "EvalResult", "ScViTEvalPipeline"]


def _check_finite(images: np.ndarray, first_index: int = 0) -> None:
    """Raise ``ValueError`` naming the first image with a NaN or infinite pixel.

    A non-finite pixel has no thermometer count: left in, it would reach a
    table gather as an out-of-range index and fail the whole batch.
    """
    bad = ~np.isfinite(images)
    if bad.any():
        position = int(np.argwhere(bad)[0][0])
        raise ValueError(f"image {first_index + position} has non-finite pixel values")


def _clamp_and_rescale(out: np.ndarray) -> np.ndarray:
    """The accelerator's output stage, in place: clamp at 0, rows sum to 1.

    An all-zero row becomes uniform.  Same IEEE operations as
    ``where(sum > 0, out / maximum(sum, 1e-9), 1/m)``, so the same bits.
    """
    np.clip(out, 0.0, None, out=out)
    row_sum = out.sum(axis=-1, keepdims=True)
    out /= np.maximum(row_sum, 1e-9)
    out[~(row_sum[..., 0] > 0)] = 1.0 / out.shape[-1]
    return out


@dataclass
class EvalBatch:
    """One streamed chunk of an evaluation: predictions against labels."""

    indices: np.ndarray  # global image indices within the split
    predictions: np.ndarray
    labels: np.ndarray

    @property
    def correct(self) -> int:
        return int(np.sum(self.predictions == self.labels))

    def __len__(self) -> int:
        return int(self.indices.size)


@dataclass
class EvalResult:
    """Accuracy of one circuit configuration on one dataset split."""

    accuracy: float
    num_images: int
    correct: int
    predictions: np.ndarray
    softmax_config: SoftmaxCircuitConfig
    gelu_output_bsl: Optional[int]
    flip_prob: float = 0.0
    split: str = ""


class ScViTEvalPipeline:
    """Evaluate a trained ViT under circuit-level softmax/GELU, batched.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.vit.CompactVisionTransformer` in eval mode.
    softmax_config:
        Softmax circuit configuration, ``alpha_x`` already calibrated (see
        :func:`~repro.eval_pipeline.tasks.sc_vit_alpha_x`); ``m`` is clamped
        to the model's token count.
    gelu_output_bsl:
        Optional output BSL routing every GELU through a gate-assisted SI
        block; ``None`` keeps the exact GELU (the Table VI setting).
    flip_prob, fault_seed:
        Bit-flip fault injection on every thermometer-stream interface
        (see :class:`~repro.eval_pipeline.faults.BitFlipFaultModel`);
        ``flip_prob=0`` is exact, fault-free emulation.
    batch_size:
        Default chunk size of :meth:`iter_batches`/:meth:`evaluate`.  Pure
        throughput/memory knob: results are bit-identical for any value.
    """

    def __init__(
        self,
        model: CompactVisionTransformer,
        softmax_config: SoftmaxCircuitConfig,
        gelu_output_bsl: Optional[int] = None,
        flip_prob: float = 0.0,
        fault_seed: int = 0,
        batch_size: int = 32,
    ) -> None:
        check_positive_int(batch_size, "batch_size")
        check_eval_mode(model, "ScViTEvalPipeline")
        self.model = model
        self.batch_size = int(batch_size)
        config = softmax_config.clamped_to_vector_length(model.config.num_tokens)
        # Circuit implementations come through the block registry — this
        # module never imports repro.core, which is what keeps the layering
        # acyclic (repro.core.codesign imports this module at module level).
        # The handles kept here are the family classes the registry builds
        # (IterativeSoftmaxCircuit, GeluSIBlock).
        self.softmax_circuit = build_block("softmax/iterative", spec=config)
        self.gelu_block = None
        if gelu_output_bsl is not None:
            check_positive_int(gelu_output_bsl, "gelu_output_bsl")
            self.gelu_block = build_block("gelu/si", output_length=gelu_output_bsl)
        self.fault_model: Optional[BitFlipFaultModel] = None
        if flip_prob > 0.0:
            self.fault_model = BitFlipFaultModel(flip_prob, seed=fault_seed)
        self.flip_prob = float(flip_prob)

    # ----------------------------------------------------------------- forward
    def _predict(self, images: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Predicted classes of one forward, the circuits passed as call arguments.

        The circuits are read once, so a forward runs on one softmax block
        even if its owner swaps ``softmax_circuit`` meanwhile, and the fault
        model is armed for ``indices`` in a copy this forward alone sees.
        The softmax emulation runs on ``(batch, heads, tokens, m)`` directly
        — one call per layer per batch — then the accelerator's output
        clamp-and-rescale (rowwise, so the numbers equal a per-row
        evaluation); the SI GELU takes the whole activation tensor, faulted
        as one composed site.
        """
        check_eval_mode(self.model, "ScViTEvalPipeline")
        softmax_circuit, gelu_block = self.softmax_circuit, self.gelu_block
        faults = None if self.fault_model is None else self.fault_model.armed(indices)

        def softmax(scores: Tensor) -> Tensor:
            return Tensor(_clamp_and_rescale(softmax_circuit.forward(scores.data, faults=faults)))

        def gelu(x: Tensor) -> Tensor:
            return Tensor(gelu_block.evaluate(x.data, faults=faults))

        with no_grad(), batch_invariant_matmul():
            logits = self.model(Tensor(images), softmax=softmax, gelu=None if gelu_block is None else gelu)
        return np.argmax(logits.data, axis=-1)

    # --------------------------------------------------------------- streaming
    def iter_batches(
        self,
        split: DatasetSplit,
        max_images: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> Iterator[EvalBatch]:
        """Stream the split through the model on SC circuits, chunk by chunk.

        Yields an :class:`EvalBatch` per chunk; the union of all yielded
        predictions is bit-identical for every ``batch_size`` (including 1,
        the serial per-image path).  A chunk holding a NaN or infinite pixel
        raises ``ValueError`` naming the first such image's split index.
        """
        batch_size = self.batch_size if batch_size is None else int(batch_size)
        check_positive_int(batch_size, "batch_size")
        images = split.images if max_images is None else split.images[:max_images]
        labels = split.labels if max_images is None else split.labels[:max_images]
        for start in range(0, len(images), batch_size):
            stop = min(start + batch_size, len(images))
            _check_finite(images[start:stop], first_index=start)
            indices = np.arange(start, stop)
            predictions = self._predict(images[start:stop], indices)
            yield EvalBatch(indices=indices, predictions=predictions, labels=labels[start:stop])

    def predict_batch(
        self, images: np.ndarray, image_indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Predicted classes for one batch of images addressed by global index.

        The serving entry point (:mod:`repro.serve`): predictions are a pure
        function of ``(weights, image, config, fault seed, image index)`` —
        never of which other images share the batch — because forwards run
        under :func:`~repro.nn.autograd.batch_invariant_matmul` and fault
        draws are keyed by image index.  Coalescing any subset of requests
        into one micro-batch therefore reproduces the per-image results bit
        for bit.  ``image_indices`` defaults to ``0..B-1`` (the offline
        split order); it only matters when fault injection is enabled.
        A NaN or infinite pixel raises ``ValueError`` naming the first such
        image's position in ``images``.
        """
        images = np.asarray(images)
        if image_indices is None:
            indices = np.arange(images.shape[0])
        else:
            indices = np.asarray(image_indices, dtype=np.int64)
            if indices.shape != (images.shape[0],):
                raise ValueError(
                    f"image_indices has shape {indices.shape}, expected ({images.shape[0]},)"
                )
        _check_finite(images)
        return self._predict(images, indices).astype(np.int64)

    def evaluate(
        self,
        split: DatasetSplit,
        max_images: Optional[int] = None,
        batch_size: Optional[int] = None,
        split_name: str = "",
    ) -> EvalResult:
        """Top-1 accuracy of the split under the circuit-level nonlinearities."""
        predictions = []
        correct = 0
        total = 0
        for batch in self.iter_batches(split, max_images=max_images, batch_size=batch_size):
            predictions.append(batch.predictions)
            correct += batch.correct
            total += len(batch)
        merged = np.concatenate(predictions) if predictions else np.empty(0, dtype=np.int64)
        return EvalResult(
            accuracy=float(100.0 * correct / max(1, total)),
            num_images=int(total),
            correct=int(correct),
            predictions=merged.astype(np.int64),
            softmax_config=self.softmax_circuit.config,
            gelu_output_bsl=self.gelu_block.output_length if self.gelu_block else None,
            flip_prob=self.flip_prob,
            split=split_name,
        )
