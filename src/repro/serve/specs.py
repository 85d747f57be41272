"""Frozen, JSON-round-trippable deployment specs for the serving tier.

A deployment used to be CLI-flag folklore: the worker count lived in a
shell history, the circuit parameters in a runbook, the cache policy in
someone's head.  :class:`ServeSpec` makes the whole deployment a single
reproducible artifact; its file format is the shared spec codec
(:mod:`repro.utils.specs`):

* **frozen dataclass** — a spec is immutable; derive variants with
  :meth:`ServeSpec.with_updates`.
* **exact JSON round-trip** — ``ServeSpec.from_json(spec.to_json())``
  reconstructs the spec field for field, and re-serialising produces the
  same bytes (the property ``repro serve --spec`` and the spec tests
  gate on).
* **validation at construction** — a typo'd engine name, a negative
  queue depth or a ``"0.01"`` string for ``flip_prob`` fails when the spec
  is *built* (or its file loaded), not an hour into serving.

Like ``repro.blocks.specs`` this module is pure data: it imports nothing
heavy, so the spec layer stays importable without pulling in the SC engine.

The JSON envelope is ``{"kind": "serve/deployment", "params": {...}}``;
params omitted from a file take the dataclass defaults.  A spec file is
the only input ``repro serve`` takes (``repro serve --spec FILE``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.specs import Spec

__all__ = ["SPEC_KIND", "ServeSpec"]

#: The ``kind`` tag of every serialised deployment spec.  ``repro run``
#: uses it to tell deployment files apart from ``ExperimentSpec`` files.
SPEC_KIND = "serve/deployment"

_DATASETS = ("cifar10", "cifar100")
_ENGINES = ("thread", "process", "fabric")
_TRANSPORTS = ("stdio", "http")


@dataclass(frozen=True)
class ServeSpec(Spec):
    """One complete, reproducible description of a serving deployment.

    Field groups (in JSON order):

    * identity — ``name`` / ``description`` (free-form, excluded from no
      fingerprints: the *engine version* hashes weights and circuits, not
      labels).
    * model — the synthetic dataset + ViT geometry + optional checkpoint.
    * circuit — softmax BSL/sub-sampling/iterations, GELU routing and
      fault injection.
    * engine — ``"thread"`` (:class:`~repro.serve.engine.PipelineEngine`),
      ``"process"`` (:class:`~repro.serve.sharded.ShardedProcessEngine`),
      or ``"fabric"`` (:class:`~repro.fabric.engine.FabricEngine`: the
      thread engine with the softmax block executing on a configured
      accelerator-fabric tile, the target of ``dead_tile`` scenario
      events); ``workers`` is threads or shards respectively.
      ``max_shards`` (and ``scale_up_queue_depth``) enable queue-depth
      autoscaling of the process engine above its baseline shard count.
    * service — micro-batcher and backpressure knobs
      (:class:`~repro.serve.service.InferenceService`).
    * cache — prediction-cache policy: one in-memory
      :class:`~repro.serve.cache.PredictionCache` in the service, for every
      engine family, or none.
    * transport — stdio JSON-lines or localhost HTTP.
    """

    # identity
    name: str = ""
    description: str = ""
    # model
    dataset: str = "cifar10"
    train_size: int = 160
    data_seed: int = 0
    layers: int = 2
    embed_dim: int = 32
    heads: int = 4
    model_seed: int = 0
    checkpoint: Optional[str] = None
    calibration_images: int = 32
    # circuit
    by: int = 8
    s1: int = 32
    s2: int = 8
    k: int = 3
    gelu_bsl: Optional[int] = None
    flip_prob: float = 0.0
    fault_seed: int = 0
    # engine
    engine: str = "thread"
    workers: int = 1
    max_shards: Optional[int] = None
    scale_up_queue_depth: int = 16
    # service
    max_batch: int = 8
    max_wait_ms: float = 2.0
    max_queue: int = 256
    timeout_s: float = 30.0
    # cache
    cache: bool = True
    # transport
    transport: str = "stdio"
    host: str = "127.0.0.1"
    port: int = 8765
    # observability — request/batch/shard spans for this deployment.  Purely
    # observational: excluded from the engine fingerprint and request cache
    # keys, so a spec with telemetry on serves bit-identical predictions to
    # one without.
    telemetry: bool = False

    kind = SPEC_KIND
    envelope = "kind"
    label = "serve spec"

    def validate(self) -> None:
        if self.dataset not in _DATASETS:
            raise ValueError(f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}, got {self.transport!r}")
        for name in (
            "train_size", "layers", "embed_dim", "heads", "calibration_images",
            "by", "s1", "s2", "k", "workers", "max_batch", "max_queue",
            "scale_up_queue_depth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive int, got {getattr(self, name)!r}")
        if self.gelu_bsl is not None and self.gelu_bsl <= 0:
            raise ValueError(f"gelu_bsl must be a positive int or null, got {self.gelu_bsl!r}")
        if not 0.0 <= self.flip_prob < 1.0:
            raise ValueError(f"flip_prob must be in [0, 1), got {self.flip_prob!r}")
        if self.max_wait_ms < 0.0:
            raise ValueError(f"max_wait_ms must be non-negative, got {self.max_wait_ms!r}")
        if self.timeout_s <= 0.0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s!r}")
        if self.max_shards is not None and self.max_shards < self.workers:
            raise ValueError(
                f"max_shards must be >= workers ({self.workers}), got {self.max_shards!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port!r}")
