"""Build a running deployment from a declarative :class:`ServeSpec`.

The single construction site for the serving tier: ``repro serve --spec
deployment.json`` and ``repro run`` on a serve spec both funnel into
:func:`build_deployment`, so there is exactly one code path from
"description of a deployment" to "running service" — what the spec says
is what serves.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.serve.engine import PipelineEngine, ReplicaFactory
from repro.serve.service import InferenceService
from repro.serve.specs import ServeSpec

__all__ = ["Deployment", "build_deployment", "build_replica_factory"]


class Deployment:
    """A built (not yet started) service plus the spec that produced it.

    ``async with deployment:`` starts/stops the underlying
    :class:`~repro.serve.InferenceService`; :meth:`to_spec` returns the
    originating spec unchanged, so a deployment round-trips byte-exactly:
    ``build_deployment(spec).to_spec().to_json() == spec.to_json()``.
    """

    def __init__(self, spec: ServeSpec, service: InferenceService, engine: Any, cache: Any) -> None:
        self._spec = spec
        self.service = service
        self.engine = engine
        self.cache = cache

    def to_spec(self) -> ServeSpec:
        return self._spec

    async def __aenter__(self) -> "Deployment":
        await self.service.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.service.stop()


def build_replica_factory(spec: ServeSpec) -> ReplicaFactory:
    """The spec's :class:`~repro.serve.engine.ReplicaFactory`, fully resolved.

    Builds the model and its calibrated softmax circuit from the SC-ViT
    recipe that ``repro eval`` uses (:func:`~repro.eval_pipeline.build_sc_vit`,
    :func:`~repro.eval_pipeline.sc_vit_alpha_x`,
    :func:`~repro.blocks.specs.sc_vit_softmax`), and packages them as the
    picklable replica recipe both engine families construct workers from.
    Exposed separately from :func:`build_deployment` because the scenario
    layer's ``bit_identity`` assertion needs the *same* recipe to build an
    offline reference pipeline after the service under test has closed.
    """
    from repro.blocks.specs import sc_vit_softmax
    from repro.eval_pipeline.tasks import build_sc_vit, sc_vit_alpha_x

    # A one-image test split: serving draws only on the training images.
    model, train, _ = build_sc_vit(spec, test_size=1)
    alpha_x = sc_vit_alpha_x(model, train.images[: spec.calibration_images])
    return ReplicaFactory(
        model=model,
        softmax_config=sc_vit_softmax(spec.by, spec.s1, spec.s2, spec.k, alpha_x=alpha_x),
        gelu_output_bsl=spec.gelu_bsl,
        flip_prob=spec.flip_prob,
        fault_seed=spec.fault_seed,
    )


def build_deployment(spec: ServeSpec, code_version: Optional[str] = None) -> "Deployment":
    """Everything between a :class:`ServeSpec` and a startable service.

    Builds the replica recipe (:func:`build_replica_factory`), resolves
    the engine family (``thread`` -> :class:`~repro.serve.engine.PipelineEngine`,
    ``process`` -> :class:`~repro.serve.sharded.ShardedProcessEngine`,
    ``fabric`` -> :class:`~repro.fabric.engine.FabricEngine` executing the
    softmax on a configured tile grid), and wires the cache policy: one
    :class:`~repro.serve.cache.PredictionCache` in the service, whatever
    the engine (the process engine routes batches by load, not by key, so
    no cache entry belongs to a shard).
    """
    from repro import telemetry

    if spec.telemetry:
        # Spec-driven enablement: force the plane on (and install the
        # kernel-profiling hook) before the engine builds, so even
        # construction-time kernel work is observed.
        telemetry.enable()
    else:
        # Env-driven (`REPRO_TELEMETRY=1`) enablement still installs hooks.
        telemetry.activate()

    factory = build_replica_factory(spec)

    if spec.engine == "process":
        from repro.serve.sharded import ShardedProcessEngine

        engine: Any = ShardedProcessEngine(
            factory,
            shards=spec.workers,
            max_shards=spec.max_shards,
            scale_up_queue_depth=spec.scale_up_queue_depth,
        )
    elif spec.engine == "fabric":
        from repro.fabric.engine import FabricEngine

        engine = FabricEngine(factory, workers=spec.workers)
    else:
        engine = PipelineEngine(factory, workers=spec.workers)

    cache = None
    if spec.cache:
        from repro.runner.cache import ResultCache
        from repro.serve.cache import PredictionCache

        cache = PredictionCache(backing=ResultCache(spec.cache_dir) if spec.cache_dir else None)

    service = InferenceService(
        engine,
        max_batch=spec.max_batch,
        max_wait_ms=spec.max_wait_ms,
        max_queue=spec.max_queue,
        request_timeout_s=spec.timeout_s,
        cache=cache,
        code_version=code_version,
    )
    return Deployment(spec, service, engine, cache)
