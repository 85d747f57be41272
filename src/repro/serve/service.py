"""The asynchronous inference service: queue, batcher, workers, cache, stats.

:class:`InferenceService` is the orchestration layer between transports and
the compute engine.  One request's life:

1. :meth:`submit` fingerprints the image (:func:`~repro.serve.cache.request_fingerprint`)
   and returns instantly on a cache hit; an identical
   request already *in flight* coalesces onto its queue entry instead of
   being computed twice.
2. Otherwise the request enters the bounded queue.  A full queue rejects
   immediately (:class:`ServiceOverloaded`) — backpressure is explicit, not
   an unbounded latency cliff.
3. The batch loop reserves a worker slot, lets the
   :class:`~repro.serve.batcher.DynamicBatcher` coalesce up to ``max_batch``
   requests (or ``max_wait_ms``), and dispatches the micro-batch to the
   engine's thread pool.  Reserving the slot *before* collecting means
   batches grow while all workers are busy — load adaptively increases
   batch size instead of queue depth.
4. Results fan back out to per-request futures, land in the cache, and the
   submitter returns with latency accounting.  Each request owns its future
   and one ``call_later`` timer: a request that outlives
   ``request_timeout_s`` raises :class:`RequestTimeout` alone, while its
   computation still completes, answers coalesced waiters and warms the
   cache.

Served predictions are bit-identical to offline per-image evaluation for
*any* arrival pattern — the batching invariant inherited from
:meth:`repro.eval_pipeline.ScViTEvalPipeline.predict_batch` — which
``python -m repro verify`` and ``tests/test_serve.py`` enforce.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro import telemetry
from repro.serve.batcher import SHUTDOWN, DynamicBatcher
from repro.serve.cache import PredictionCache, request_fingerprint
from repro.serve.stats import ServiceStats
from repro.telemetry.tracer import push_context

__all__ = [
    "InferenceService",
    "PredictionResult",
    "RequestTimeout",
    "ServiceClosed",
    "ServiceOverloaded",
]


class ServiceOverloaded(RuntimeError):
    """The bounded request queue is full; retry later (HTTP 429)."""


class RequestTimeout(TimeoutError):
    """No result within ``request_timeout_s`` (HTTP 504)."""


class ServiceClosed(RuntimeError):
    """Submit called before start or after stop."""


@dataclass
class PredictionResult:
    """One served prediction plus how it was produced."""

    prediction: int
    cached: bool
    latency_ms: float
    coalesced: bool = False
    request_id: Optional[str] = None


class _Pending:
    """Internal queue entry: one image awaiting a micro-batch.

    ``waiters`` holds the future of the request that enqueued it plus one
    per coalesced duplicate; each request owns (and may time out) its own.
    """

    __slots__ = ("image", "index", "key", "waiters", "ctx")

    def __init__(
        self,
        image: np.ndarray,
        index: int,
        key: Optional[str],
        future: "asyncio.Future",
        ctx: Optional[Dict[str, str]] = None,
    ) -> None:
        self.image = image
        self.index = index
        self.key = key
        self.waiters = [future]
        self.ctx = ctx  # trace context of the submitting request (or None)


class InferenceService:
    """Async dynamic-batching front end over an inference engine.

    Parameters
    ----------
    engine:
        Compute backend (:class:`~repro.serve.engine.PipelineEngine` or
        anything with ``start``/``close``/``run``/``executor``/``workers``
        plus ``version``/``flip_prob``/``image_shape`` attributes).
    max_batch / max_wait_ms:
        Micro-batcher flush thresholds (see :mod:`repro.serve.batcher`).
    max_queue:
        Bounded queue depth; the backpressure knob.
    request_timeout_s:
        Per-request deadline covering queueing + batching + compute.
    cache:
        Optional :class:`~repro.serve.cache.PredictionCache`; ``None``
        disables result reuse (every request computes).
    """

    def __init__(
        self,
        engine: Any,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        request_timeout_s: float = 30.0,
        cache: Optional[PredictionCache] = None,
    ) -> None:
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue = int(max_queue)
        self.request_timeout_s = float(request_timeout_s)
        self.cache = cache
        self.stats = ServiceStats()
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[DynamicBatcher] = None
        self._batch_loop_task: Optional[asyncio.Task] = None
        self._worker_slots: Optional[asyncio.Semaphore] = None
        self._inflight: Dict[str, _Pending] = {}
        self._batch_tasks: set = set()
        self._started = False
        self._closed = False
        self._trace_on = False
        self._tracer = telemetry.get_tracer()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the engine and the batch loop; idempotent."""
        if self._started:
            return
        # Enablement is read at start (not construction) so a deploy/scenario
        # entry point that flips telemetry on still covers this service.
        self._trace_on = telemetry.enabled()
        self._tracer = telemetry.get_tracer()
        self.engine.start()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._batcher = DynamicBatcher(self._queue, self.max_batch, self.max_wait_ms)
        self._granted_slots = int(self.engine.workers)
        self._worker_slots = asyncio.Semaphore(self._granted_slots)
        self._batch_loop_task = asyncio.create_task(self._batch_loop())
        self.stats.start()
        self._started = True
        self._closed = False

    async def stop(self) -> None:
        """Drain queued requests, finish in-flight batches, stop the engine."""
        if not self._started or self._closed:
            return
        self._closed = True
        await self._queue.put(SHUTDOWN)
        await self._batch_loop_task
        if self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)
        self.engine.close()
        self._started = False

    async def __aenter__(self) -> "InferenceService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ----------------------------------------------------------------- submit
    async def submit(
        self,
        image: Any,
        index: int = 0,
        request_id: Optional[str] = None,
    ) -> PredictionResult:
        """Predict one image; returns when the result is available.

        ``index`` is the request's global image index — the per-request
        fault seed.  With fault injection enabled it selects the bit-flip
        mask (submit the image's offline split index to reproduce offline
        evaluation exactly); fault-free it is ignored by the compute path
        and excluded from the cache identity.
        """
        if not self._started or self._closed:
            raise ServiceClosed("service is not running")
        arrived = time.monotonic()
        # Validate before counting: `submitted` tracks requests accepted for
        # processing, so every one reaches a terminal counter (completed /
        # rejected / timeout / error) and the /stats ledger balances.
        image = self._check_image(image)
        index = int(index)
        if not 0 <= index < 2**63:  # the fault draws key on an int64 index: one bad one would fail its batch
            raise ValueError(f"index {index} lies outside [0, 2**63 - 1]")
        self.stats.record_submitted()
        span = (
            self._tracer.begin("service.request", cat="service", index=index, request_id=request_id)
            if self._trace_on
            else None
        )

        key: Optional[str] = None
        pending: Optional[_Pending] = None
        if self.cache is not None:
            faults_on = float(getattr(self.engine, "flip_prob", 0.0)) > 0.0
            key = request_fingerprint(
                image,
                self.engine.version,
                image_index=index if faults_on else None,
            )
            hit = self.cache.get(key)
            if hit is not None:
                latency_ms = (time.monotonic() - arrived) * 1000.0
                self.stats.record_completed(latency_ms, cached=True)
                if span is not None:
                    self._tracer.end(span, outcome="cache_hit")
                return PredictionResult(
                    prediction=hit, cached=True, latency_ms=latency_ms, request_id=request_id
                )
            pending = self._inflight.get(key)

        loop = asyncio.get_running_loop()
        future = loop.create_future()
        coalesced = pending is not None
        if coalesced:
            pending.waiters.append(future)
        else:
            ctx = self._tracer.context_of(span) if span is not None else None
            pending = _Pending(image, index, key, future, ctx=ctx)
            if key is not None:
                self._inflight[key] = pending
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self._inflight.pop(key, None)
                self.stats.record_rejected()
                if span is not None:
                    self._tracer.end(span, outcome="rejected")
                raise ServiceOverloaded(
                    f"request queue full ({self.max_queue} pending); retry later"
                ) from None

        # The timer fails this request's future only; the computation, its
        # coalesced waiters and the cache fill go on without it.
        timer = loop.call_later(self.request_timeout_s, self._expire, future)
        try:
            prediction = await future
        except RequestTimeout:
            self.stats.record_timeout()
            if span is not None:
                self._tracer.end(span, outcome="timeout")
            raise
        except Exception:
            if span is not None:
                self._tracer.end(span, outcome="error")
            raise
        finally:
            timer.cancel()
        latency_ms = (time.monotonic() - arrived) * 1000.0
        self.stats.record_completed(latency_ms, coalesced=coalesced)
        if span is not None:
            self._tracer.end(span, outcome="coalesced" if coalesced else "computed")
        return PredictionResult(
            prediction=int(prediction),
            cached=False,
            coalesced=coalesced,
            latency_ms=latency_ms,
            request_id=request_id,
        )

    def _expire(self, future: "asyncio.Future") -> None:
        if not future.done():
            future.set_exception(
                RequestTimeout(
                    f"no result within {self.request_timeout_s:g}s "
                    f"(queue depth {self._queue.qsize()})"
                )
            )

    def _check_image(self, image: Any) -> np.ndarray:
        image = np.asarray(image, dtype=float)
        expected = getattr(self.engine, "image_shape", None)
        if expected is not None and tuple(image.shape) != tuple(expected):
            raise ValueError(f"image has shape {tuple(image.shape)}, expected {tuple(expected)}")
        # A NaN/inf pixel cannot be thermometer-encoded; rejecting it here
        # fails this request alone instead of its whole micro-batch.
        if not np.isfinite(image).all():
            raise ValueError("image has non-finite pixel values")
        return image

    # ------------------------------------------------------------ batch loop
    def _sync_worker_slots(self) -> None:
        """Grow the slot pool when an autoscaling engine adds capacity.

        Engines with a dynamic ``workers`` count (the sharded process
        engine) gain slots here so new shards take traffic on the next
        batch.  Slots are never reclaimed: a retiring engine just leaves a
        slot idle, which is harmless — the engine routes around retired
        shards itself.
        """
        target = int(getattr(self.engine, "workers", 1))
        while self._granted_slots < target:
            self._worker_slots.release()
            self._granted_slots += 1

    async def _batch_loop(self) -> None:
        observe_load = getattr(self.engine, "observe_load", None)
        while True:
            # Reserve the worker slot first: while every worker is busy no
            # request is pulled, so the queue accumulates and the next batch
            # fills toward max_batch — batch size adapts to load.
            if callable(observe_load):
                observe_load(self._queue.qsize())
                self._sync_worker_slots()
            await self._worker_slots.acquire()
            collect = (
                self._tracer.begin("batcher.collect", cat="batcher") if self._trace_on else None
            )
            batch = await self._batcher.next_batch()
            if batch is None:
                self._worker_slots.release()
                return
            if collect is not None:
                # Re-home the span onto the first batched request's trace so
                # the collect slice nests under the request that opened it.
                first_ctx = batch[0].ctx
                if first_ctx is not None:
                    collect.trace_id = first_ctx.get("trace_id", collect.trace_id)
                    collect.parent_id = first_ctx.get("span_id")
                self._tracer.end(collect, batch_size=len(batch))
            task = asyncio.create_task(self._execute(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._on_batch_done)
            if self._batcher.closed:
                return

    def _on_batch_done(self, task: "asyncio.Task") -> None:
        self._batch_tasks.discard(task)
        self._worker_slots.release()
        if not task.cancelled() and task.exception() is not None:
            # _execute routes failures into request futures; anything that
            # still escapes is a bug worth surfacing, not swallowing.
            raise task.exception()

    async def _execute(self, batch) -> None:
        loop = asyncio.get_running_loop()
        batch_span = None
        if self._trace_on:
            batch_span = self._tracer.begin(
                "service.batch", cat="service", parent=batch[0].ctx, requests=len(batch)
            )
        try:
            # Inside the try: with engines that declare no image_shape a
            # ragged batch makes np.stack itself raise, and that failure must
            # reach the request futures, not strand them until timeout.
            images = np.stack([pending.image for pending in batch])
            indices = np.asarray([pending.index for pending in batch], dtype=np.int64)
            if batch_span is not None:
                ctx = self._tracer.context_of(batch_span)
                tracer = self._tracer

                def run_traced():
                    # The executor hop drops asyncio context; re-install the
                    # batch context thread-locally so the engine's dispatch
                    # spans (sharded engine) parent correctly.
                    with push_context(ctx):
                        with tracer.span("engine.run", cat="engine", parent=ctx, batch_size=len(batch)):
                            return self.engine.run(images, indices)

                predictions = await loop.run_in_executor(self.engine.executor, run_traced)
            else:
                predictions = await loop.run_in_executor(
                    self.engine.executor, self.engine.run, images, indices
                )
        except Exception as exc:
            for pending in batch:
                if pending.key is not None:
                    self._inflight.pop(pending.key, None)
                for future in pending.waiters:
                    if not future.done():
                        self.stats.record_error()
                        future.set_exception(RuntimeError(f"inference batch failed: {exc!r}"))
            if batch_span is not None:
                self._tracer.end(batch_span, outcome="error")
            return
        self.stats.record_batch(len(batch))
        if batch_span is not None:
            self._tracer.end(batch_span, outcome="ok")
        for pending, prediction in zip(batch, predictions):
            prediction = int(prediction)
            if pending.key is not None:
                self._inflight.pop(pending.key, None)
                if self.cache is not None:
                    self.cache.put(pending.key, prediction)
            for future in pending.waiters:
                if not future.done():
                    future.set_result(prediction)

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict:
        """The ``/stats`` payload: counters, latency tail, batching, cache."""
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        snapshot = self.stats.snapshot(queue_depth=queue_depth, in_flight=len(self._batch_tasks))
        snapshot["config"] = {
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "max_queue": self.max_queue,
            "request_timeout_s": self.request_timeout_s,
            "workers": self.engine.workers,
            "cache_enabled": self.cache is not None,
            "flip_prob": float(getattr(self.engine, "flip_prob", 0.0)),
        }
        cache_counters = getattr(self.cache, "counters", None)
        if callable(cache_counters):
            # ServiceStats already reports request-level "hits"; the cache's
            # own counters add the miss/store side of the ledger.
            counters = cache_counters()
            snapshot["cache"].update(misses=counters["misses"], stores=counters["stores"])
        engine_snapshot = getattr(self.engine, "stats_snapshot", None)
        if callable(engine_snapshot):
            # Sharded engines report per-shard counters and shard lifecycle.
            snapshot["engine"] = engine_snapshot()
        return snapshot
