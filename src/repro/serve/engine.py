"""Worker-pool inference engine: one pipeline shared by every worker thread.

The service's compute layer.  Micro-batches are executed on a
:class:`concurrent.futures.ThreadPoolExecutor`, and every worker thread
runs them on the same :class:`~repro.eval_pipeline.ScViTEvalPipeline` over
the same frozen model.  That is safe because a forward writes nothing
shared: the pipeline passes its circuits to the model as call arguments
and arms its fault model in a copy per call, so concurrent forwards never
see each other's state.  The weights exist once per process.

Numpy-autograd inference modes (``no_grad`` and ``batch_invariant_matmul``)
are process-wide flags, so the engine holds both enabled from
:meth:`start` to :meth:`close` instead of toggling them per forward —
concurrent workers then cannot observe a half-restored mode.  While an
engine is running, everything in the process computes under inference
semantics; a serving process is assumed not to train concurrently.

The engine also owns the *fingerprint* that versions every cached
prediction: a digest of the model weights, the resolved circuit specs and
the fault settings, in the same spirit as
:meth:`repro.eval_pipeline.tasks.EvalTask.version`.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.eval_pipeline.pipeline import ScViTEvalPipeline
from repro.nn.autograd import _matmul_formulation, batch_invariant_matmul, no_grad
from repro.runner.cache import array_digest, canonical_json, weights_digest

__all__ = [
    "EngineProtocol",
    "PipelineEngine",
    "ReplicaFactory",
    "pipeline_fingerprint",
]


@runtime_checkable
class EngineProtocol(Protocol):
    """The seam between :class:`~repro.serve.InferenceService` and compute.

    Anything with this surface can sit under the service: the in-process
    thread pool (:class:`PipelineEngine`), the multi-process sharded tier
    (:class:`~repro.serve.sharded.ShardedProcessEngine`), or a test stub.
    The contract beyond the signatures:

    * ``run`` is thread-safe, called from ``executor`` threads, and its
      predictions are a pure function of ``(images, indices)`` — the
      batching invariant the whole service is built on.
    * ``workers`` is the *current* parallel batch capacity; engines that
      autoscale may grow it between calls (the service re-syncs its worker
      slots against it each batch).
    * ``version`` is the cache fingerprint of the replica configuration;
      two engines with equal versions must produce bit-identical
      predictions.

    Optional extensions the service uses when present: ``observe_load``
    (queue-depth autoscaling hook) and ``stats_snapshot`` (per-shard
    counters reported under ``engine`` in the ``/stats`` payload).
    """

    workers: int
    version: str
    flip_prob: float
    image_shape: Optional[tuple]
    executor: Optional[ThreadPoolExecutor]

    def start(self) -> None: ...

    def close(self) -> None: ...

    def run(self, images: np.ndarray, indices: np.ndarray) -> np.ndarray: ...


def pipeline_fingerprint(pipeline: ScViTEvalPipeline) -> str:
    """Version token for cached predictions of ``pipeline``.

    Digests the weights, the resolved (post-calibration, post-clamp)
    softmax config, the GELU routing, the fault settings, the fault
    sampler's version (faulted pipelines only: a fault-free forward draws
    nothing) and the batch-invariant matmul formulation this process
    resolved to (stacked and einsum may differ by an ulp) — everything a
    prediction depends on besides the image itself and its index.
    """
    from dataclasses import asdict

    identity = {
        "weights": weights_digest(pipeline.model),
        "softmax": asdict(pipeline.softmax_circuit.config),
        "gelu_bsl": pipeline.gelu_block.output_length if pipeline.gelu_block else None,
        "flip_prob": pipeline.flip_prob,
        "fault_seed": pipeline.fault_model.seed if pipeline.fault_model is not None else 0,
        "matmul": _matmul_formulation(),
    }
    if pipeline.fault_model is not None:
        identity["fault_model"] = BitFlipFaultModel.VERSION
    return array_digest(np.frombuffer(canonical_json(identity).encode(), dtype=np.uint8))


@dataclass
class ReplicaFactory:
    """Picklable recipe for one bit-identical pipeline replica.

    Both engines build their replicas from one of these: the thread engine
    calls it once (and again after a chaos kill), the sharded engine ships
    it (pickled by ``multiprocessing``) to each worker process, which calls
    it once at startup.  Replicas share the factory's frozen ``model``
    rather than copy it: a forward never writes to the model, so a shared
    one cannot race.  ``softmax_config`` arrives calibrated (its
    ``alpha_x`` fitted once, by whoever built the factory), so replicas
    never calibrate.
    """

    model: Any
    softmax_config: Any
    gelu_output_bsl: Optional[int] = None
    flip_prob: float = 0.0
    fault_seed: int = 0

    def __call__(self) -> ScViTEvalPipeline:
        return ScViTEvalPipeline(
            self.model,
            self.softmax_config,
            gelu_output_bsl=self.gelu_output_bsl,
            flip_prob=self.flip_prob,
            fault_seed=self.fault_seed,
        )

    def image_shape(self) -> tuple:
        config = self.model.config
        return (config.image_size, config.image_size, config.in_channels)


class PipelineEngine:
    """Thread pool executing micro-batches on one shared pipeline.

    Parameters
    ----------
    pipeline_factory:
        A :class:`ReplicaFactory` (or anything with its surface): called
        once to build the pipeline every worker thread runs, and again
        after each :meth:`kill_shard`.
        The engine also reads the pipeline's fault rate (``flip_prob``: the
        service keys cached predictions on the image index exactly when
        faults are on) and per-image shape (``image_shape()``: the service
        rejects a malformed image before it can fail a whole micro-batch)
        from it, so they can never disagree with what the pipeline runs.
    workers:
        Worker-thread count.  1 (the default) serialises batches; more
        overlap BLAS work across batches.
    version:
        Cache-version token; the fingerprint of the pipeline when omitted.
    """

    def __init__(
        self,
        pipeline_factory: ReplicaFactory,
        workers: int = 1,
        version: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self._factory = pipeline_factory
        self.workers = int(workers)
        self.flip_prob = float(pipeline_factory.flip_prob)
        self.image_shape = tuple(pipeline_factory.image_shape())
        self.executor: Optional[ThreadPoolExecutor] = None
        self._modes: Optional[contextlib.ExitStack] = None
        self._pipeline = pipeline_factory()
        self.deaths = 0
        self.version = pipeline_fingerprint(self._pipeline) if version is None else version

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self.executor is not None:
            return
        self._modes = contextlib.ExitStack()
        self._modes.enter_context(no_grad())
        self._modes.enter_context(batch_invariant_matmul())
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None
        if self._modes is not None:
            self._modes.close()
            self._modes = None

    # ----------------------------------------------------------------- chaos
    def kill_shard(self, slot: Optional[int] = None) -> int:
        """Discard the pipeline and build a new one (thread-engine replica loss).

        The degradation analogue of the sharded engine's ``kill_shard``:
        there is no process to SIGKILL, so the failure mode is losing the
        built pipeline.  Batches already running finish on the old one;
        later batches run on the new one.  Replicas are bit-identical by
        construction, so this perturbs latency, never predictions.
        ``slot`` is accepted for interface parity and ignored.  Returns 0
        (the nominal killed slot).
        """
        self._pipeline = self._factory()
        self.deaths += 1
        return 0

    # ------------------------------------------------------------- execution
    def run(self, images: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Predict one micro-batch (called on a worker thread)."""
        return self._pipeline.predict_batch(images, indices)

