"""Streaming, batched end-to-end evaluation of the SC-patched ViT.

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
* **chunk-invariant numerics** — forwards run under
  :func:`repro.nn.autograd.batch_invariant_matmul`, so evaluating a split
  in chunks of 1, 32 or 1024 images yields bit-identical logits; the
  pipeline's results are a pure function of (weights, images, config,
  fault seed), never of ``batch_size``.
* **streaming** — :meth:`ScViTEvalPipeline.iter_batches` yields per-chunk
  results as they are computed, so callers can stream a split through
  constant memory; :meth:`evaluate` is the accumulate-to-accuracy wrapper.

:class:`repro.eval_pipeline.tasks.EvalTask` registers this pipeline with the
sweep runner, which is where dataset-level grids pick up multiprocessing,
the result cache and crash-resume.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.blocks import build as build_block
from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.nn.autograd import Tensor, batch_invariant_matmul, no_grad
from repro.nn.vit import CompactVisionTransformer
from repro.training.datasets import DatasetSplit
from repro.utils.validation import check_positive_int

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
        A trained :class:`~repro.nn.vit.CompactVisionTransformer`.
    softmax_config:
        Softmax circuit configuration; ``m`` is clamped to the model's token
        count and ``alpha_x`` calibrated on attention logits unless
        ``calibrate`` is disabled (same protocol as the seed evaluator).
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
    calibration_images / calibration_logits / calibrate:
        ``alpha_x`` calibration inputs, identical to the seed evaluator's.
    """

    def __init__(
        self,
        model: CompactVisionTransformer,
        softmax_config: SoftmaxCircuitConfig,
        gelu_output_bsl: Optional[int] = None,
        flip_prob: float = 0.0,
        fault_seed: int = 0,
        batch_size: int = 32,
        calibration_images: Optional[np.ndarray] = None,
        calibrate: bool = True,
        calibration_logits: Optional[np.ndarray] = None,
    ) -> None:
        check_positive_int(batch_size, "batch_size")
        self.model = model
        self.batch_size = int(batch_size)
        tokens = model.config.num_tokens
        config = softmax_config.clamped_to_vector_length(tokens)
        if calibrate and calibration_logits is None and calibration_images is not None:
            from repro.evaluation.vectors import collect_softmax_inputs

            calibration_logits = collect_softmax_inputs(model, calibration_images, max_rows=512)
        if calibrate and calibration_logits is not None:
            config = config.with_updates(alpha_x=calibrate_alpha_x(calibration_logits, config.bx))
        # Circuit implementations come through the block registry — this
        # module never imports repro.core, which is what keeps the layering
        # acyclic (repro.core.codesign imports this module at module level).
        # The handles kept here are the registry adapters themselves; every
        # attribute used below (forward/config, evaluate/process and the
        # declared stream formats) is part of their public surface.
        self.softmax_circuit = build_block("softmax/iterative", spec=config)
        self.gelu_block = None
        if gelu_output_bsl is not None:
            check_positive_int(gelu_output_bsl, "gelu_output_bsl")
            self.gelu_block = build_block("gelu/si", output_length=gelu_output_bsl)
        self.fault_model: Optional[BitFlipFaultModel] = None
        if flip_prob > 0.0:
            self.fault_model = BitFlipFaultModel(flip_prob, seed=fault_seed)
        self.flip_prob = float(flip_prob)

    # ------------------------------------------------------------ substitution
    def _batched_softmax(self, scores: Tensor) -> Tensor:
        """Circuit softmax over the last axis of the whole score tensor.

        Runs the emulation on ``(batch, heads, tokens, m)`` directly — one
        call per layer per batch — then applies the accelerator's output
        clamp-and-rescale, exactly as the seed evaluator did per flattened
        row (the operations are rowwise, so the numbers are identical).
        """
        out = self.softmax_circuit.forward(scores.data, faults=self.fault_model)
        out = np.clip(out, 0.0, None)
        row_sum = out.sum(axis=-1, keepdims=True)
        out = np.where(row_sum > 0, out / np.maximum(row_sum, 1e-9), 1.0 / out.shape[-1])
        return Tensor(out)

    def _batched_gelu(self, x: Tensor) -> Tensor:
        """SI-block GELU over the whole activation tensor, faulted as one composed site."""
        assert self.gelu_block is not None
        return Tensor(self.gelu_block.evaluate(x.data, faults=self.fault_model))

    # ---------------------------------------------------------------- patching
    @contextlib.contextmanager
    def _patched_model(self):
        """Swap the circuit substitutions into every block, restore on exit."""
        model = self.model
        was_training = model.training
        model.eval()
        originals = []
        for block in model.blocks:
            originals.append((block.attention._apply_softmax, block.mlp.activation.forward))
            block.attention._apply_softmax = self._batched_softmax
            if self.gelu_block is not None:
                block.mlp.activation.forward = self._batched_gelu
        try:
            yield model
        finally:
            for block, (softmax_fn, gelu_fn) in zip(model.blocks, originals):
                block.attention._apply_softmax = softmax_fn
                block.mlp.activation.forward = gelu_fn
            if was_training:
                model.train()

    # --------------------------------------------------------------- streaming
    def iter_batches(
        self,
        split: DatasetSplit,
        max_images: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> Iterator[EvalBatch]:
        """Stream the split through the SC-patched model, chunk by chunk.

        Yields an :class:`EvalBatch` per chunk; the union of all yielded
        predictions is bit-identical for every ``batch_size`` (including 1,
        the serial per-image path).  A chunk holding a NaN or infinite pixel
        raises ``ValueError`` naming the first such image's split index.
        """
        batch_size = self.batch_size if batch_size is None else int(batch_size)
        check_positive_int(batch_size, "batch_size")
        images = split.images if max_images is None else split.images[:max_images]
        labels = split.labels if max_images is None else split.labels[:max_images]
        with self._patched_model() as model, no_grad(), batch_invariant_matmul():
            for start in range(0, len(images), batch_size):
                stop = min(start + batch_size, len(images))
                _check_finite(images[start:stop], first_index=start)
                indices = np.arange(start, stop)
                if self.fault_model is not None:
                    self.fault_model.begin_batch(indices)
                logits = model(Tensor(images[start:stop]))
                predictions = np.argmax(logits.data, axis=-1)
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
        with self._patched_model() as model, no_grad(), batch_invariant_matmul():
            if self.fault_model is not None:
                self.fault_model.begin_batch(indices)
            logits = model(Tensor(images))
            return np.argmax(logits.data, axis=-1).astype(np.int64)

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
