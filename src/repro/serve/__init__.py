"""Async dynamic-batching inference tier for the SC-ViT reproduction.

The serving subsystem turns the offline evaluation stack into an online
service without giving up a single bit of its accuracy guarantees: PR 3's
batch-invariant numerics plus per-image fault seeding mean concurrent
requests can be coalesced into opportunistic micro-batches whose results
are bit-identical to evaluating each image alone — and (since the sharded
tier) dispatched to any worker *process* with the same guarantee.

* :mod:`repro.serve.specs` — :class:`ServeSpec`: a frozen,
  JSON-round-trippable description of one whole deployment (model,
  circuit, engine family, sharding, cache, transport), mirroring
  :mod:`repro.blocks.specs`.
* :mod:`repro.serve.deploy` — :func:`build_deployment`: the single path
  from a spec to a startable :class:`Deployment` (what ``repro serve
  --spec`` and ``repro run`` use).
* :mod:`repro.serve.service` — :class:`InferenceService`: bounded request
  queue with explicit backpressure, request coalescing, per-request
  timeouts, stats snapshot.
* :mod:`repro.serve.batcher` — :class:`DynamicBatcher`: flush on
  ``max_batch`` or ``max_wait_ms``, whichever first; batch size adapts to
  load.
* :mod:`repro.serve.engine` — the :class:`EngineProtocol` seam,
  :class:`ReplicaFactory`, and :class:`PipelineEngine`: thread worker pool
  running :class:`~repro.eval_pipeline.ScViTEvalPipeline` forwards on
  one pipeline all worker threads share (circuits built via :mod:`repro.blocks`).
* :mod:`repro.serve.sharded` — :class:`ShardedProcessEngine`: N worker
  processes with per-process replicas, one pickled frame per pipe
  message, worker-death re-dispatch and queue-depth replica scaling.
* :mod:`repro.serve.cache` — :class:`PredictionCache`: idempotent
  per-request result reuse in the service (one cache whatever the
  engine), content-addressed by image digest and engine fingerprint.
* :mod:`repro.serve.stats` — :class:`ServiceStats`: throughput,
  p50/p95/p99 latency, batch-size histogram, cache hit rate, kept once
  per service.
* :mod:`repro.serve.transport` — stdio JSON-lines and localhost-HTTP
  front ends over one shared protocol handler.

Entry points: ``python -m repro serve --spec deployment.json`` (CLI),
``benchmarks/bench_serve_latency.py`` (closed-/open-loop + sharded
scaling load generator -> ``BENCH_serve.json``) and the ``serve``
sections of ``python -m repro verify``.  See ``docs/serving.md``.
"""

from repro.serve.batcher import DynamicBatcher
from repro.serve.cache import PredictionCache, request_fingerprint
from repro.serve.deploy import Deployment, build_deployment, build_replica_factory
from repro.serve.engine import (
    EngineProtocol,
    PipelineEngine,
    ReplicaFactory,
    pipeline_fingerprint,
)
from repro.serve.service import (
    InferenceService,
    PredictionResult,
    RequestTimeout,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve.sharded import ShardedProcessEngine
from repro.serve.specs import ServeSpec
from repro.serve.stats import ServiceStats
from repro.serve.transport import handle_message, render_metrics, serve_http, serve_stdio

__all__ = [
    "Deployment",
    "DynamicBatcher",
    "EngineProtocol",
    "InferenceService",
    "PipelineEngine",
    "PredictionCache",
    "PredictionResult",
    "ReplicaFactory",
    "RequestTimeout",
    "ServeSpec",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceStats",
    "ShardedProcessEngine",
    "build_deployment",
    "build_replica_factory",
    "handle_message",
    "pipeline_fingerprint",
    "render_metrics",
    "request_fingerprint",
    "serve_http",
    "serve_stdio",
]
