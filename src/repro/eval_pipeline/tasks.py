"""The SC-ViT recipe and its sweep-task registration (`EvalTask`).

:func:`build_sc_vit` builds the frozen model every SC-ViT evaluation and
deployment runs, :func:`sc_vit_alpha_x` calibrates it, and
:func:`~repro.blocks.specs.sc_vit_softmax` builds its ``[By, s1, s2, k]``
softmax circuit; ``repro eval``, Table VI and serving all use the three.

Dataset-level accuracy grids — accuracy vs output BSL, accuracy vs softmax
design, accuracy vs bit-flip rate, per split — are sweeps like any other, so
they run through :class:`~repro.runner.runner.ParallelSweepRunner`: worker
processes evaluate whole-split configurations in parallel, results land in
the content-addressed :class:`~repro.runner.cache.ResultCache` (predictions
ride the NPZ sidecar), and an interrupted grid resumes from every finished
configuration.

Determinism contract: an :class:`EvalTask` evaluation is a pure function of
the task's inputs (weights, splits, calibration images) and the config dict.
The fault seed therefore lives *in the config* (``fault_seed``) rather than
being derived from the grid index — a cached result must not alias when the
same config appears at a different grid position — and ``batch_size`` is
deliberately absent from the cache key because the pipeline's results are
bit-identical for every chunking (see
:func:`repro.nn.autograd.batch_invariant_matmul`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, sc_vit_softmax
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.eval_pipeline.pipeline import EvalResult, ScViTEvalPipeline
from repro.nn.autograd import _matmul_formulation
from repro.runner.cache import array_digest, weights_digest
from repro.runner.runner import ParallelSweepRunner, SweepTask

__all__ = ["EvalTask", "build_sc_vit", "eval_grid", "run_eval_grid", "sc_vit_alpha_x"]

#: Default accuracy-vs-BSL grid: the softmax output BSLs swept by the CLI
#: and the accuracy bench (the Fig. 8 / Table VI ``By`` axis).
DEFAULT_BY_GRID: Tuple[int, ...] = (4, 8, 16)


def build_sc_vit(source: Any, test_size: int) -> Tuple[Any, Any, Any]:
    """The SC-ViT model with its synthetic splits: ``(model, train, test)``.

    16x16 synthetic CIFAR-10/100 images and a BN ``CompactVisionTransformer``,
    optionally loaded from a checkpoint.  ``source`` carries the fields a
    :class:`~repro.serve.ServeSpec` and a ``repro eval`` argv share by name:
    ``dataset``, ``train_size``, ``data_seed``, ``layers``, ``embed_dim``,
    ``heads``, ``model_seed`` and ``checkpoint``.  The model is in eval mode.
    """
    from repro.nn.vit import CompactVisionTransformer, ViTConfig
    from repro.training.datasets import synthetic_cifar10, synthetic_cifar100

    dataset_fn = {"cifar10": synthetic_cifar10, "cifar100": synthetic_cifar100}[source.dataset]
    train, test = dataset_fn(train_size=source.train_size, test_size=test_size, seed=source.data_seed)
    config = ViTConfig(
        image_size=16,
        patch_size=4,
        embed_dim=source.embed_dim,
        num_layers=source.layers,
        num_heads=source.heads,
        num_classes={"cifar10": 10, "cifar100": 100}[source.dataset],
        norm="bn",
        seed=source.model_seed,
    )
    model = CompactVisionTransformer(config)
    if source.checkpoint is not None:
        from repro.nn.serialization import load_model

        load_model(source.checkpoint, model)
    return model.eval(), train, test


def sc_vit_alpha_x(model: Any, images: np.ndarray, bx: int = 4) -> float:
    """``alpha_x`` for a ``bx``-bit input, fitted on up to 512 attention-logit rows of ``images``.

    The one calibration of every SC-ViT evaluation and deployment (``model`` in eval mode).
    """
    from repro.evaluation.vectors import collect_softmax_inputs

    return calibrate_alpha_x(collect_softmax_inputs(model, images, max_rows=512), bx=bx)


@dataclass
class EvalTask(SweepTask):
    """Evaluate one end-to-end configuration on one dataset split.

    The task carries what every configuration shares — the trained model,
    the named splits, the calibration images; each config dict selects
    ``{"split", "by", "s1", "s2", "k", "gelu_bsl", "flip_prob",
    "fault_seed"}``.  The cache version digests the model weights and every
    split, so retraining or regenerating data invalidates stale accuracies
    automatically.
    """

    model: Any
    splits: Dict[str, Tuple[np.ndarray, np.ndarray]]
    calibration_images: np.ndarray
    max_images: Optional[int] = None
    batch_size: int = 32
    _weights_digest: str = field(default="", repr=False)
    _alpha_x: Optional[float] = field(default=None, repr=False)

    name = "eval-pipeline"

    def __post_init__(self) -> None:
        if not self.splits:
            raise ValueError("EvalTask needs at least one dataset split")
        if not self._weights_digest:
            self._weights_digest = weights_digest(self.model)

    # ------------------------------------------------------------- cache keys
    def config_key(self, config: Dict[str, Any]) -> Dict[str, Any]:
        key = dict(config)
        key["max_images"] = self.max_images
        return key

    def version(self) -> str:
        split_digests = ";".join(
            f"{name}:{array_digest(images, labels)}"
            for name, (images, labels) in sorted(self.splits.items())
        )
        # ``m:64`` is sc_vit_softmax's row length, kept so stored keys still match;
        # ``calib:eval`` retires results scored after a training-mode calibration.
        return (
            f"weights:{self._weights_digest};"
            f"splits:{split_digests};"
            f"calibration:{array_digest(self.calibration_images)};m:64;calib:eval;"
            f"fault_model:{BitFlipFaultModel.VERSION};"
            f"matmul:{_matmul_formulation()}"
        )

    # -------------------------------------------------------------- evaluation
    def pipeline(self, config: Dict[str, Any]) -> ScViTEvalPipeline:
        """The pipeline ``config`` evaluates: its ``[By, s1, s2, k]`` circuit, GELU and faults."""
        if self._alpha_x is None:  # calibrated once per task/worker
            self._alpha_x = sc_vit_alpha_x(self.model, self.calibration_images)
        by, s1, s2, k = (int(config[key]) for key in ("by", "s1", "s2", "k"))
        gelu_bsl = config.get("gelu_bsl")
        return ScViTEvalPipeline(
            self.model,
            sc_vit_softmax(by, s1, s2, k, alpha_x=self._alpha_x),
            gelu_output_bsl=None if gelu_bsl is None else int(gelu_bsl),
            flip_prob=float(config.get("flip_prob", 0.0)),
            fault_seed=int(config.get("fault_seed", 0)),
            batch_size=self.batch_size,
        )

    def evaluate(self, config: Dict[str, Any], seed: int) -> EvalResult:
        # Deterministic by design: the fault seed comes from the config (so
        # cache entries never alias across grid orders); the runner's
        # per-index seed is unused.
        split_name = str(config["split"])
        if split_name not in self.splits:
            raise KeyError(f"unknown split {split_name!r}; task has {sorted(self.splits)}")
        from repro.training.datasets import DatasetSplit

        images, labels = self.splits[split_name]
        split = DatasetSplit(images=images, labels=labels)
        return self.pipeline(config).evaluate(split, max_images=self.max_images, split_name=split_name)

    # ------------------------------------------------------------- round-trip
    def encode(self, result: EvalResult) -> Dict[str, Any]:
        from dataclasses import asdict

        return {
            "accuracy": result.accuracy,
            "num_images": result.num_images,
            "correct": result.correct,
            "softmax_config": asdict(result.softmax_config),
            "gelu_output_bsl": result.gelu_output_bsl,
            "flip_prob": result.flip_prob,
            "split": result.split,
        }

    def result_arrays(self, result: EvalResult) -> Optional[dict]:
        return {"predictions": np.asarray(result.predictions, dtype=np.int64)}

    def decode(self, payload: Dict[str, Any], arrays: Optional[dict] = None) -> EvalResult:
        predictions = np.empty(0, dtype=np.int64)
        if arrays and "predictions" in arrays:
            predictions = np.asarray(arrays["predictions"], dtype=np.int64)
        return EvalResult(
            accuracy=float(payload["accuracy"]),
            num_images=int(payload["num_images"]),
            correct=int(payload["correct"]),
            predictions=predictions,
            softmax_config=SoftmaxCircuitConfig(**payload["softmax_config"]),
            gelu_output_bsl=None if payload["gelu_output_bsl"] is None else int(payload["gelu_output_bsl"]),
            flip_prob=float(payload["flip_prob"]),
            split=str(payload["split"]),
        )


def eval_grid(
    by_grid: Sequence[int] = DEFAULT_BY_GRID,
    s1: int = 32,
    s2: int = 8,
    k: int = 3,
    gelu_bsl: Optional[int] = None,
    flip_probs: Sequence[float] = (0.0,),
    splits: Sequence[str] = ("test",),
    fault_seed: int = 0,
) -> List[Dict[str, Any]]:
    """The accuracy grid in canonical order: split-major, then flip, then BSL.

    Each row of the resulting sweep is one whole-split evaluation; the inner
    ``by`` axis is the accuracy-vs-BSL trajectory the bench plots.
    """
    configs: List[Dict[str, Any]] = []
    for split in splits:
        for flip_prob in flip_probs:
            for by in by_grid:
                configs.append(
                    {
                        "split": str(split),
                        "by": int(by),
                        "s1": int(s1),
                        "s2": int(s2),
                        "k": int(k),
                        "gelu_bsl": None if gelu_bsl is None else int(gelu_bsl),
                        "flip_prob": float(flip_prob),
                        "fault_seed": int(fault_seed),
                    }
                )
    return configs


def run_eval_grid(
    task: EvalTask,
    configs: Sequence[Dict[str, Any]],
    workers: int = 1,
    cache: Optional[Any] = None,
    reporter: Optional[Any] = None,
) -> List[EvalResult]:
    """Evaluate a config grid through the sweep runner (stats on the function)."""
    runner = ParallelSweepRunner(task, workers=workers, cache=cache, reporter=reporter)
    results = runner.run(list(configs))
    run_eval_grid.last_run_stats = runner.stats
    return results
