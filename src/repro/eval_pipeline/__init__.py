"""Batched end-to-end SC-ViT evaluation subsystem.

The paper's ultimate claim is end-to-end — the SC softmax/GELU blocks
preserve ViT accuracy at practical bitstream lengths — and this package
makes that claim a first-class, reproducible experiment:

* :mod:`repro.eval_pipeline.pipeline` — :class:`ScViTEvalPipeline`, the
  streaming batched evaluator: circuit substitutions vectorised over the
  batch axis (one call per layer per batch), chunk-invariant numerics via
  :func:`repro.nn.autograd.batch_invariant_matmul`, per-chunk streaming.
* :mod:`repro.eval_pipeline.faults` — :class:`BitFlipFaultModel`,
  deterministic per-image bit-flip injection on every thermometer-stream
  interface, sampled as net count changes (SC noise-tolerance knob).
* :mod:`repro.eval_pipeline.tasks` — :func:`build_sc_vit` and
  :func:`sc_vit_alpha_x`, the one SC-ViT model and calibration recipe,
  :class:`EvalTask`, one whole-split evaluation per config, the canonical
  :func:`eval_grid` builder and :func:`run_eval_grid`, its serial sweep.

Entry points: ``python -m repro eval`` (CLI) and
``benchmarks/bench_eval_accuracy.py`` (the ACC_sc_vit.json trajectory).
See ``docs/evaluation.md``.
"""

from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.eval_pipeline.pipeline import EvalBatch, EvalResult, ScViTEvalPipeline
from repro.eval_pipeline.tasks import DEFAULT_BY_GRID, EvalTask, build_sc_vit, eval_grid, run_eval_grid, sc_vit_alpha_x

__all__ = [
    "BitFlipFaultModel",
    "EvalBatch",
    "EvalResult",
    "ScViTEvalPipeline",
    "EvalTask",
    "build_sc_vit",
    "sc_vit_alpha_x",
    "eval_grid",
    "run_eval_grid",
    "DEFAULT_BY_GRID",
]
