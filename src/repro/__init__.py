"""ASCEND reproduction: end-to-end stochastic-computing acceleration of ViTs.

The package mirrors the structure of the paper (DATE 2024):

* :mod:`repro.blocks` — the unified circuit-block API: the
  ``NonlinearBlock`` protocol, frozen JSON-round-trippable block specs, the
  string-keyed block registry (``build("softmax/iterative", ...)``) and the
  declarative ``ExperimentSpec`` files behind ``python -m repro run``,
* :mod:`repro.sc` — the stochastic-computing substrate (encodings, bitstream
  arithmetic, sorting networks, baseline nonlinear units) on one packed
  numpy kernel engine,
* :mod:`repro.hw` — the hardware cost model standing in for the paper's
  Synopsys/TSMC 28 nm synthesis flow,
* :mod:`repro.core` — ASCEND's contribution: the gate-assisted SI GELU, the
  iterative approximate softmax circuit, the design-space exploration, the
  accelerator model and the SC-friendly ViT,
* :mod:`repro.nn` — a numpy autograd + ViT + LSQ quantisation substrate,
* :mod:`repro.training` — datasets, trainer, knowledge distillation and the
  two-stage training pipeline,
* :mod:`repro.evaluation` — test vectors, error metrics, Pareto analysis and
  report formatting,
* :mod:`repro.runner` — sweep orchestration: the parallel sweep executor,
  the content-addressed on-disk result cache and the per-experiment sweep
  tasks behind the ``python -m repro`` CLI,
* :mod:`repro.eval_pipeline` — the batched end-to-end SC-ViT evaluation
  subsystem: streaming whole-split evaluation with chunk-invariant
  numerics, packed-bitplane fault injection and the ``EvalTask`` sweep
  registration (``python -m repro eval``),
* :mod:`repro.serve` — the async dynamic-batching inference service:
  bounded request queue, micro-batcher, worker-pool engine, per-request
  result cache and stdio/HTTP transports (``python -m repro serve``),
* :mod:`repro.fabric` — the bitstream-configurable accelerator-fabric
  simulator: a tile grid hosting registry blocks, deterministic
  place-and-route, configure-then-compile execution on the packed SC
  engine, golden bit-identity cross-checks and Table VI cost
  reconciliation (``python -m repro fabric``),
* :mod:`repro.telemetry` — the unified observability plane: span tracing
  with cross-process context propagation (Chrome-trace/Perfetto export),
  Prometheus-text metrics, per-kernel profiling at the SC kernel seam and
  structured logging (``python -m repro trace``; off by default and
  provably inert — see ``docs/observability.md``).

See ``docs/`` for each subsystem's design notes and ``benchmarks/`` for the
scripts that regenerate the paper's tables and figures (their recorded
results are under ``benchmarks/results/``).
"""

__version__ = "1.0.0"

__all__ = [
    "blocks",
    "core",
    "sc",
    "hw",
    "nn",
    "training",
    "evaluation",
    "eval_pipeline",
    "runner",
    "serve",
    "fabric",
    "telemetry",
    "utils",
    "__version__",
]
