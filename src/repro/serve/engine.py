"""Worker-pool inference engine: per-thread pipelines over shared weights.

The service's compute layer.  Micro-batches are executed on a
:class:`concurrent.futures.ThreadPoolExecutor`; every worker thread lazily
builds its **own** :class:`~repro.eval_pipeline.ScViTEvalPipeline` (over a
deep copy of the template model), because the pipeline patches circuit
substitutions into the model's blocks for the duration of a forward — a
shared model would race.  Weights are copied once per worker, not per
batch, and all workers are bit-identical by construction: same weights,
same circuit specs, same calibration logits.

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
import copy
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Optional, Protocol, runtime_checkable

import numpy as np

from repro.eval_pipeline.faults import BitFlipFaultModel
from repro.eval_pipeline.pipeline import ScViTEvalPipeline
from repro.nn.autograd import _matmul_formulation, batch_invariant_matmul, no_grad
from repro.runner.cache import array_digest, canonical_json

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
    state = pipeline.model.state_dict()
    weights = array_digest(*(state[key] for key in sorted(state)))
    from dataclasses import asdict

    identity = {
        "weights": weights,
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
    calls it once per worker thread, the sharded engine ships it (pickled
    by ``multiprocessing``) to each worker process, which calls it once at
    startup.  Every call deep-copies the template model, so replicas never
    share mutable state — the pipeline patches circuit substitutions into
    the model's blocks during a forward, and a shared model would race.
    """

    model: Any
    softmax_config: Any
    gelu_output_bsl: Optional[int] = None
    flip_prob: float = 0.0
    fault_seed: int = 0
    calibration_logits: Optional[np.ndarray] = None

    def __call__(self) -> ScViTEvalPipeline:
        return ScViTEvalPipeline(
            copy.deepcopy(self.model),
            self.softmax_config,
            gelu_output_bsl=self.gelu_output_bsl,
            flip_prob=self.flip_prob,
            fault_seed=self.fault_seed,
            calibration_logits=self.calibration_logits,
        )

    def image_shape(self) -> tuple:
        config = self.model.config
        return (config.image_size, config.image_size, config.in_channels)


class PipelineEngine:
    """Thread pool executing micro-batches on per-worker pipeline replicas.

    Parameters
    ----------
    pipeline_factory:
        A :class:`ReplicaFactory` (or anything with its surface): called
        once per worker thread to build a replica, every one bit-identical.
        The engine also reads the replicas' fault rate (``flip_prob``: the
        service keys cached predictions on the image index exactly when
        faults are on) and per-image shape (``image_shape()``: the service
        rejects a malformed image before it can fail a whole micro-batch)
        from it, so they can never disagree with what the replicas run.
    workers:
        Worker-thread count.  1 (the default) serialises batches; more
        overlap BLAS work across batches.
    version:
        Cache-version token; computed from a probe pipeline when omitted.
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
        self._local = threading.local()
        self.executor: Optional[ThreadPoolExecutor] = None
        self._modes: Optional[contextlib.ExitStack] = None
        # Chaos seam: kill_shard() bumps the generation; worker threads
        # rebuild their replica on the next batch they run.
        self._generation = 0
        self.deaths = 0
        if version is None:
            probe = pipeline_factory()
            version = pipeline_fingerprint(probe)
            # The probe doubles as worker 0's replica if built on that thread
            # later; cheaper to just drop it — workers build their own.
            del probe
        self.version = version

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
        """Discard every worker's replica (thread-engine replica loss).

        The degradation analogue of the sharded engine's ``kill_shard``:
        there is no process to SIGKILL, so the failure mode is losing the
        built pipelines — each worker thread deep-copies a fresh replica
        on its next batch.  Replicas are bit-identical by construction, so
        this perturbs latency, never predictions.  ``slot`` is accepted
        for interface parity and ignored (thread replicas are anonymous).
        Returns 0 (the nominal killed slot).
        """
        self._generation += 1
        self.deaths += 1
        return 0

    # ------------------------------------------------------------- execution
    def _pipeline(self) -> ScViTEvalPipeline:
        pipeline = getattr(self._local, "pipeline", None)
        if pipeline is None or getattr(self._local, "generation", -1) != self._generation:
            pipeline = self._factory()
            self._local.pipeline = pipeline
            self._local.generation = self._generation
        return pipeline

    def run(self, images: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Predict one micro-batch (called on a worker thread)."""
        return self._pipeline().predict_batch(images, indices)

