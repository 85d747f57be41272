"""Sweep-task registration of the eval pipeline (`EvalTask`).

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

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_y
from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.eval_pipeline.pipeline import EvalResult, ScViTEvalPipeline
from repro.nn.autograd import _matmul_formulation
from repro.runner.cache import array_digest
from repro.runner.runner import ParallelSweepRunner, SweepTask

__all__ = ["EvalTask", "eval_grid", "run_eval_grid"]

#: Default accuracy-vs-BSL grid: the softmax output BSLs swept by the CLI
#: and the accuracy bench (the Fig. 8 / Table VI ``By`` axis).
DEFAULT_BY_GRID: Tuple[int, ...] = (4, 8, 16)


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
    m: int = 64
    _weights_digest: str = field(default="", repr=False)
    _calibration_logits: Optional[np.ndarray] = field(default=None, repr=False)

    name = "eval-pipeline"

    def __post_init__(self) -> None:
        if not self.splits:
            raise ValueError("EvalTask needs at least one dataset split")
        if not self._weights_digest:
            state = self.model.state_dict()
            self._weights_digest = array_digest(*(state[k] for k in sorted(state)))

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
        return (
            f"weights:{self._weights_digest};"
            f"splits:{split_digests};"
            f"calibration:{array_digest(self.calibration_images)};m:{self.m};"
            f"fault_model:{BitFlipFaultModel.VERSION};"
            f"matmul:{_matmul_formulation()}"
        )

    # -------------------------------------------------------------- evaluation
    def softmax_config(self, config: Dict[str, Any]) -> SoftmaxCircuitConfig:
        by = int(config["by"])
        return SoftmaxCircuitConfig(
            m=self.m,
            iterations=int(config["k"]),
            bx=4,
            alpha_x=2.0,
            by=by,
            alpha_y=calibrate_alpha_y(by, self.m),
            s1=int(config["s1"]),
            s2=int(config["s2"]),
        )

    def _calibration(self) -> np.ndarray:
        """Attention logits for ``alpha_x``, collected once per task/worker."""
        if self._calibration_logits is None:
            from repro.evaluation.vectors import collect_softmax_inputs

            self._calibration_logits = collect_softmax_inputs(
                self.model, self.calibration_images, max_rows=512
            )
        return self._calibration_logits

    def evaluate(self, config: Dict[str, Any], seed: int) -> EvalResult:
        # Deterministic by design: the fault seed comes from the config (so
        # cache entries never alias across grid orders); the runner's
        # per-index seed is unused.
        split_name = str(config["split"])
        if split_name not in self.splits:
            raise KeyError(f"unknown split {split_name!r}; task has {sorted(self.splits)}")
        from repro.training.datasets import DatasetSplit

        gelu_bsl = config.get("gelu_bsl")
        pipeline = ScViTEvalPipeline(
            self.model,
            self.softmax_config(config),
            gelu_output_bsl=None if gelu_bsl is None else int(gelu_bsl),
            flip_prob=float(config.get("flip_prob", 0.0)),
            fault_seed=int(config.get("fault_seed", 0)),
            batch_size=self.batch_size,
            calibration_logits=self._calibration(),
        )
        images, labels = self.splits[split_name]
        split = DatasetSplit(images=images, labels=labels)
        return pipeline.evaluate(split, max_images=self.max_images, split_name=split_name)

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
