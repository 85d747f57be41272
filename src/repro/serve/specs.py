"""Frozen, JSON-round-trippable deployment specs for the serving tier.

A deployment used to be CLI-flag folklore: the worker count lived in a
shell history, the circuit parameters in a runbook, the cache policy in
someone's head.  :class:`ServeSpec` makes the whole deployment a single
reproducible artifact, mirroring :mod:`repro.blocks.specs`:

* **frozen dataclass** — a spec is immutable; derive variants with
  :meth:`ServeSpec.with_updates`.
* **exact JSON round-trip** — ``ServeSpec.from_json(spec.to_json())``
  reconstructs the spec field for field, and re-serialising produces the
  same bytes (the property ``repro serve --spec`` and the spec tests
  gate on).
* **validation at construction** — a typo'd engine name or a negative
  queue depth fails when the spec is *built*, not an hour into serving.

Like ``repro.blocks.specs`` this module is pure data: it imports nothing
heavy, so the spec layer stays importable without pulling in the SC engine.

The JSON envelope is ``{"kind": "serve/deployment", "params": {...}}``;
params omitted from a file take the dataclass defaults.  A spec file is
the only input ``repro serve`` takes (``repro serve --spec FILE``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = ["SPEC_KIND", "ServeSpec"]

#: The ``kind`` tag of every serialised deployment spec.  ``repro run``
#: uses it to tell deployment files apart from ``ExperimentSpec`` files.
SPEC_KIND = "serve/deployment"

_DATASETS = ("cifar10", "cifar100")
_ENGINES = ("thread", "process", "fabric")
_TRANSPORTS = ("stdio", "http")


def _check_positive(spec: "ServeSpec", *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"{name} must be a positive int, got {value!r}")


@dataclass(frozen=True)
class ServeSpec:
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
    * cache — prediction-cache policy: one
      :class:`~repro.serve.cache.PredictionCache` in the service, optionally
      written through to ``cache_dir``, for every engine family.
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
    cache_dir: str = ".repro-cache"
    # transport
    transport: str = "stdio"
    host: str = "127.0.0.1"
    port: int = 8765
    # observability — spans + kernel profiling for this deployment.  Purely
    # observational: excluded from the engine fingerprint, request cache
    # keys and scenario cache identity (ScenarioTask strips it), so a spec
    # with telemetry on serves bit-identical predictions to one without.
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.dataset not in _DATASETS:
            raise ValueError(f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        if self.transport not in _TRANSPORTS:
            raise ValueError(f"transport must be one of {_TRANSPORTS}, got {self.transport!r}")
        _check_positive(
            self,
            "train_size", "layers", "embed_dim", "heads", "calibration_images",
            "by", "s1", "s2", "k", "workers", "max_batch", "max_queue",
            "scale_up_queue_depth",
        )
        if self.gelu_bsl is not None and (not isinstance(self.gelu_bsl, int) or self.gelu_bsl <= 0):
            raise ValueError(f"gelu_bsl must be a positive int or null, got {self.gelu_bsl!r}")
        if not 0.0 <= float(self.flip_prob) < 1.0:
            raise ValueError(f"flip_prob must be in [0, 1), got {self.flip_prob!r}")
        if float(self.max_wait_ms) < 0.0:
            raise ValueError(f"max_wait_ms must be non-negative, got {self.max_wait_ms!r}")
        if float(self.timeout_s) <= 0.0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s!r}")
        if self.max_shards is not None:
            if not isinstance(self.max_shards, int) or self.max_shards < self.workers:
                raise ValueError(
                    f"max_shards must be >= workers ({self.workers}), got {self.max_shards!r}"
                )
        if self.checkpoint is not None and not isinstance(self.checkpoint, str):
            raise ValueError(f"checkpoint must be a path string or null, got {self.checkpoint!r}")
        if not 0 <= int(self.port) <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port!r}")
        if not isinstance(self.telemetry, bool):
            raise ValueError(f"telemetry must be a bool, got {self.telemetry!r}")

    # ------------------------------------------------------------- round trip
    def to_dict(self) -> Dict[str, Any]:
        """``{"kind": "serve/deployment", "params": {...}}`` in field order."""
        return {"kind": SPEC_KIND, "params": dataclasses.asdict(self)}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON — the byte-exact inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServeSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"serve spec must be a JSON object, got {type(payload).__name__}")
        kind = payload.get("kind")
        if kind != SPEC_KIND:
            raise ValueError(f"expected kind {SPEC_KIND!r}, got {kind!r}")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("params must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(f"unknown serve spec params: {', '.join(unknown)}")
        return cls(**params)

    @classmethod
    def from_json(cls, text: str) -> "ServeSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ServeSpec":
        path = Path(path)
        try:
            return cls.from_json(path.read_text())
        except (ValueError, OSError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    # ------------------------------------------------------------ derivation
    def with_updates(self, **updates: Any) -> "ServeSpec":
        """A new spec with ``updates`` applied (validation re-runs)."""
        return dataclasses.replace(self, **updates)

    @classmethod
    def field_defaults(cls) -> Dict[str, Any]:
        """Field-name -> default, in declaration (and JSON) order."""
        return {f.name: f.default for f in dataclasses.fields(cls)}

    @staticmethod
    def sniff(payload: Any) -> bool:
        """True when a decoded JSON payload looks like a serve spec.

        ``repro run`` uses this to route ``serve/deployment`` files to the
        serving path and everything else to :class:`ExperimentSpec`.
        """
        return isinstance(payload, dict) and payload.get("kind") == SPEC_KIND
