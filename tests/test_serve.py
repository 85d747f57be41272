"""Tests of the serving subsystem (:mod:`repro.serve`).

The load-bearing property is the one the whole design rests on: for *any*
arrival pattern — any request order, any stagger, any batcher settings —
served predictions are bit-identical to offline per-image evaluation, with
and without fault injection (hypothesis drives the arrival patterns).
Around it: micro-batcher flush semantics, backpressure, timeouts, the
idempotent prediction cache, the stats snapshot and both transports.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import NUM_IMAGES, replica_factory

from repro.eval_pipeline import BitFlipFaultModel, ScViTEvalPipeline
from repro.nn import autograd
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.serve import (
    DynamicBatcher,
    InferenceService,
    PipelineEngine,
    PredictionCache,
    RequestTimeout,
    ServeSpec,
    ServiceClosed,
    ServiceOverloaded,
    ServiceStats,
    ShardedProcessEngine,
    pipeline_fingerprint,
    request_fingerprint,
)
from repro.serve.batcher import SHUTDOWN
from repro.serve.transport import handle_message, serve_http
from repro.training.datasets import SyntheticImageDataset


def _engine(stack, flip_prob=0.0, workers=1):
    return PipelineEngine(replica_factory(stack, flip_prob), workers=workers)


class StubEngine:
    """Engine double with controllable latency; prediction = index % 7."""

    def __init__(self, workers=1, delay=0.0, image_shape=None, flip_prob=0.0):
        self.workers = workers
        self.delay = delay
        self.image_shape = image_shape
        self.flip_prob = flip_prob
        self.version = "stub-v1"
        self.executor = None
        self.batch_sizes = []
        self._lock = threading.Lock()

    def start(self):
        self.executor = ThreadPoolExecutor(max_workers=self.workers)

    def close(self):
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None

    def run(self, images, indices):
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.batch_sizes.append(len(indices))
        return np.asarray(indices) % 7


# ---------------------------------------------------------------------------
# The batching invariant — the test the subsystem exists to pass
# ---------------------------------------------------------------------------


class TestServedBitIdentity:
    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    @pytest.mark.parametrize(
        "family, examples",
        [pytest.param("thread", 6, id="thread"), pytest.param("process", 3, marks=pytest.mark.slow, id="process")],
    )
    def test_any_arrival_pattern_matches_offline(
        self, stack, offline_predictions, family, examples, flip_prob
    ):
        """Randomised order/stagger/batching never changes a prediction, in
        worker threads or across 2 shard processes."""
        _, test, _ = stack

        @settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(data=st.data())
        def check(data):
            order = data.draw(st.permutations(list(range(NUM_IMAGES))))
            stagger = data.draw(
                st.lists(st.integers(0, 3), min_size=NUM_IMAGES, max_size=NUM_IMAGES)
            )
            max_batch = data.draw(st.integers(1, NUM_IMAGES))
            max_wait_ms = data.draw(st.sampled_from([0.0, 1.0, 5.0]))
            use_cache = data.draw(st.booleans())
            factory = replica_factory(stack, flip_prob)
            if family == "thread":
                engine = PipelineEngine(factory, workers=data.draw(st.integers(1, 2)))
            else:
                engine = ShardedProcessEngine(factory, shards=2)

            async def session():
                service = InferenceService(
                    engine,
                    max_batch=max_batch,
                    max_wait_ms=max_wait_ms,
                    cache=PredictionCache() if use_cache else None,
                )
                async with service:
                    async def submit(position, image_index):
                        await asyncio.sleep(0.0005 * stagger[position])
                        result = await service.submit(test.images[image_index], index=image_index)
                        return image_index, result.prediction

                    pairs = await asyncio.gather(
                        *[submit(position, index) for position, index in enumerate(order)]
                    )
                return dict(pairs)

            by_index = asyncio.run(session())
            served = np.array([by_index[i] for i in range(NUM_IMAGES)], dtype=np.int64)
            assert np.array_equal(served, offline_predictions[flip_prob])

        check()

    def test_sequential_submissions_match_offline(self, stack, offline_predictions):
        """The degenerate pattern — one request at a time — also matches."""

        async def session():
            async with InferenceService(_engine(stack), max_wait_ms=0.0) as service:
                return [
                    (await service.submit(stack[1].images[i], index=i)).prediction
                    for i in range(NUM_IMAGES)
                ]

        served = np.array(asyncio.run(session()), dtype=np.int64)
        assert np.array_equal(served, offline_predictions[0.0])


# ---------------------------------------------------------------------------
# Dynamic batcher
# ---------------------------------------------------------------------------


class TestDynamicBatcher:
    def test_flushes_at_max_batch(self):
        async def scenario():
            queue = asyncio.Queue()
            for item in range(5):
                queue.put_nowait(item)
            batcher = DynamicBatcher(queue, max_batch=3, max_wait_ms=50.0)
            return await batcher.next_batch(), await batcher.next_batch()

        first, second = asyncio.run(scenario())
        assert first == [0, 1, 2]
        assert second == [3, 4]

    def test_flushes_at_deadline_without_company(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait("lone")
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_ms=5.0)
            start = asyncio.get_running_loop().time()
            batch = await batcher.next_batch()
            return batch, asyncio.get_running_loop().time() - start

        batch, elapsed = asyncio.run(scenario())
        assert batch == ["lone"]
        assert elapsed < 1.0  # deadline, not forever

    def test_zero_wait_drains_only_whats_queued(self):
        async def scenario():
            queue = asyncio.Queue()
            for item in range(3):
                queue.put_nowait(item)
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_ms=0.0)
            return await batcher.next_batch()

        assert asyncio.run(scenario()) == [0, 1, 2]

    def test_shutdown_flushes_partial_batch_then_closes(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait("a")
            queue.put_nowait(SHUTDOWN)
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_ms=50.0)
            partial = await batcher.next_batch()
            final = await batcher.next_batch()
            return partial, final, batcher.closed

        partial, final, closed = asyncio.run(scenario())
        assert partial == ["a"]
        assert final is None
        assert closed

    def test_fills_from_full_queue_without_waiting(self):
        async def scenario():
            queue = asyncio.Queue()
            for item in range(8):
                queue.put_nowait(item)
            batcher = DynamicBatcher(queue, max_batch=4, max_wait_ms=10_000.0)
            loop = asyncio.get_running_loop()
            yielded = []
            loop.call_soon(yielded.append, True)
            start = loop.time()
            first = await batcher.next_batch()
            # Ready requests are taken without handing control to the loop.
            drained_without_yield = not yielded
            second = await batcher.next_batch()
            return first, second, loop.time() - start, drained_without_yield

        first, second, elapsed, drained_without_yield = asyncio.run(scenario())
        assert first == [0, 1, 2, 3]
        assert second == [4, 5, 6, 7]
        assert elapsed < 0.5  # nowhere near max_wait_ms
        assert drained_without_yield

    def test_shutdown_mid_drain_flushes_then_closes(self):
        async def scenario():
            queue = asyncio.Queue()
            for item in (0, 1, SHUTDOWN, 3):
                queue.put_nowait(item)
            batcher = DynamicBatcher(queue, max_batch=8, max_wait_ms=10_000.0)
            start = asyncio.get_running_loop().time()
            partial = await batcher.next_batch()
            final = await batcher.next_batch()
            return partial, final, asyncio.get_running_loop().time() - start, batcher.closed

        partial, final, elapsed, closed = asyncio.run(scenario())
        assert partial == [0, 1]
        assert final is None
        assert closed
        assert elapsed < 0.5

    def test_rejects_bad_parameters(self):
        queue = asyncio.Queue()
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_batch=0, max_wait_ms=1.0)
        with pytest.raises(ValueError):
            DynamicBatcher(queue, max_batch=1, max_wait_ms=-1.0)


# ---------------------------------------------------------------------------
# Service semantics on a stub engine (deterministic timing)
# ---------------------------------------------------------------------------


class TestServiceSemantics:
    def test_backpressure_rejects_when_queue_full(self):
        engine = StubEngine(delay=0.3)

        async def scenario():
            service = InferenceService(engine, max_batch=1, max_wait_ms=0.0, max_queue=2)
            async with service:
                image = np.zeros((2, 2))
                first = asyncio.ensure_future(service.submit(image, index=0))
                await asyncio.sleep(0.05)  # batcher picks up the first request
                outcomes = await asyncio.gather(
                    *[service.submit(image, index=i) for i in range(1, 7)],
                    return_exceptions=True,
                )
                await first
            return outcomes, service.stats

        outcomes, stats = asyncio.run(scenario())
        rejected = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        accepted = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(rejected) == 4  # queue holds 2 of the 6; the rest bounce
        assert len(accepted) == 2
        assert stats.rejected == 4

    def test_request_timeout_raises_and_counts(self):
        engine = StubEngine(delay=0.5)

        async def scenario():
            service = InferenceService(
                engine, max_batch=1, max_wait_ms=0.0, request_timeout_s=0.05
            )
            async with service:
                with pytest.raises(RequestTimeout):
                    await service.submit(np.zeros((2, 2)), index=0)
            return service.stats

        stats = asyncio.run(scenario())
        assert stats.timeouts == 1

    def test_one_waiters_timeout_does_not_fail_its_duplicate(self):
        """A times out; its duplicate B, coalesced onto the same computation,
        still gets the prediction, and the result still warms the cache."""
        engine = StubEngine(delay=0.6)

        async def scenario():
            service = InferenceService(
                engine, max_batch=1, max_wait_ms=0.0, request_timeout_s=0.5,
                cache=PredictionCache(),
            )
            async with service:
                image = np.ones((2, 2))
                first = asyncio.ensure_future(service.submit(image, index=3))
                await asyncio.sleep(0.3)
                second = await service.submit(image, index=3)
                with pytest.raises(RequestTimeout):
                    await first
                third = await service.submit(image, index=3)
            return second, third, service.stats

        second, third, stats = asyncio.run(scenario())
        assert second.prediction == 3
        assert second.coalesced and not second.cached
        assert third.prediction == 3 and third.cached  # the cache holds the result
        assert sum(engine.batch_sizes) == 1
        assert stats.timeouts == 1
        assert stats.submitted == stats.completed + stats.timeouts == 3

    def test_submit_after_stop_raises(self):
        engine = StubEngine()

        async def scenario():
            service = InferenceService(engine)
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosed):
                await service.submit(np.zeros((2, 2)))

        asyncio.run(scenario())

    def test_image_shape_validation_fails_fast(self):
        engine = StubEngine(image_shape=(2, 2))

        async def scenario():
            async with InferenceService(engine) as service:
                with pytest.raises(ValueError, match="expected"):
                    await service.submit(np.zeros((3, 3)))

        asyncio.run(scenario())

    def test_load_adaptive_batching_under_busy_workers(self):
        """While the single worker is busy, arrivals coalesce into one batch."""
        engine = StubEngine(delay=0.15)

        async def scenario():
            service = InferenceService(engine, max_batch=8, max_wait_ms=0.0, max_queue=16)
            async with service:
                image = np.zeros((2, 2))
                first = asyncio.ensure_future(service.submit(image, index=0))
                await asyncio.sleep(0.05)  # worker now busy with batch [0]
                rest = [service.submit(image, index=i) for i in range(1, 6)]
                await asyncio.gather(first, *rest)
            return engine.batch_sizes

        batch_sizes = asyncio.run(scenario())
        assert batch_sizes[0] == 1
        assert max(batch_sizes) == 5  # the backlog shipped as one micro-batch

    def test_identical_inflight_requests_coalesce(self):
        engine = StubEngine(delay=0.1, flip_prob=0.0)

        async def scenario():
            service = InferenceService(
                engine, max_batch=1, max_wait_ms=0.0, cache=PredictionCache()
            )
            async with service:
                image = np.ones((2, 2))
                results = await asyncio.gather(
                    *[service.submit(image, index=i) for i in range(4)]
                )
            return results, engine.batch_sizes

        results, batch_sizes = asyncio.run(scenario())
        assert len({r.prediction for r in results}) == 1
        # One compute; the duplicates coalesced or hit the cache.
        assert sum(batch_sizes) == 1
        assert sum(1 for r in results if r.coalesced or r.cached) == 3

    def test_ragged_batch_fails_fast_instead_of_timing_out(self):
        """With no declared image_shape, a ragged batch must error, not hang."""
        engine = StubEngine()  # image_shape=None: service can't pre-validate

        async def scenario():
            service = InferenceService(
                engine, max_batch=2, max_wait_ms=50.0, request_timeout_s=30.0
            )
            async with service:
                start = asyncio.get_running_loop().time()
                outcomes = await asyncio.gather(
                    service.submit(np.zeros((2, 2)), index=0),
                    service.submit(np.zeros((3, 3)), index=1),  # coalesces, np.stack raises
                    return_exceptions=True,
                )
                return outcomes, asyncio.get_running_loop().time() - start

        outcomes, elapsed = asyncio.run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert elapsed < 5.0  # failed fast, nowhere near request_timeout_s

    def test_non_finite_request_fails_alone(self, stack, offline_predictions):
        """A NaN image is rejected up front; the requests it would have shared
        a micro-batch with still complete, with their offline predictions."""
        _, test, _ = stack
        bad = test.images[0].copy()
        bad[0, 0, 0] = np.nan

        async def scenario():
            service = InferenceService(_engine(stack), max_batch=8, max_wait_ms=20.0)
            async with service:
                outcomes = await asyncio.gather(
                    *[service.submit(test.images[i], index=i) for i in range(7)],
                    service.submit(bad, index=7),
                    return_exceptions=True,
                )
            return outcomes, service.stats

        outcomes, stats = asyncio.run(scenario())
        assert isinstance(outcomes[-1], ValueError)
        assert "non-finite" in str(outcomes[-1])
        served = [outcome.prediction for outcome in outcomes[:-1]]
        assert served == offline_predictions[0.0][:7].tolist()
        assert stats.submitted == 7
        assert stats.completed == 7

    @pytest.mark.parametrize("index", [2**63, -1])
    def test_out_of_range_index_fails_alone(self, index, stack, offline_predictions):
        """With faults on, an index the int64 fault keys cannot hold is rejected up
        front; the seven requests it would have shared a micro-batch with still
        complete, with their offline predictions."""
        _, test, _ = stack

        async def scenario():
            service = InferenceService(_engine(stack, flip_prob=0.05), max_batch=8, max_wait_ms=20.0)
            async with service:
                outcomes = await asyncio.gather(
                    *[service.submit(test.images[i], index=i) for i in range(7)],
                    service.submit(test.images[7], index=index),
                    return_exceptions=True,
                )
            return outcomes, service.stats

        outcomes, stats = asyncio.run(scenario())
        assert isinstance(outcomes[-1], ValueError)
        assert "index" in str(outcomes[-1])
        served = [outcome.prediction for outcome in outcomes[:-1]]
        assert served == offline_predictions[0.05][:7].tolist()
        assert stats.submitted == stats.completed == 7
        assert stats.errors == 0

    def test_shape_rejected_requests_keep_stats_ledger_balanced(self):
        engine = StubEngine(image_shape=(2, 2))

        async def scenario():
            async with InferenceService(engine) as service:
                with pytest.raises(ValueError):
                    await service.submit(np.zeros((5, 5)))
                await service.submit(np.zeros((2, 2)))
            return service.stats

        stats = asyncio.run(scenario())
        # The malformed request never counted as submitted, so submitted ==
        # the sum of terminal outcomes.
        assert stats.submitted == 1
        assert stats.completed == 1

    def test_engine_failure_propagates_to_requests(self):
        class FailingEngine(StubEngine):
            def run(self, images, indices):
                raise RuntimeError("worker blew up")

        async def scenario():
            async with InferenceService(FailingEngine(), max_wait_ms=0.0) as service:
                with pytest.raises(RuntimeError, match="inference batch failed"):
                    await service.submit(np.zeros((2, 2)))
            return service.stats

        stats = asyncio.run(scenario())
        assert stats.errors == 1

    def test_failed_batch_counts_one_error_per_waiter(self):
        class FailingEngine(StubEngine):
            def run(self, images, indices):
                time.sleep(0.1)
                raise RuntimeError("worker blew up")

        async def scenario():
            service = InferenceService(FailingEngine(), max_wait_ms=0.0, cache=PredictionCache())
            async with service:
                image = np.ones((2, 2))
                outcomes = await asyncio.gather(
                    *[service.submit(image, index=0) for _ in range(3)], return_exceptions=True
                )
            return outcomes, service.stats

        outcomes, stats = asyncio.run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert stats.errors == stats.submitted == 3  # the coalesced duplicates count too


# ---------------------------------------------------------------------------
# Prediction cache + fingerprints
# ---------------------------------------------------------------------------


class TestPredictionCache:
    def test_fingerprint_depends_on_image_version_and_index(self, rng):
        image_a = rng.random((4, 4))
        image_b = rng.random((4, 4))
        base = request_fingerprint(image_a, "v1")
        assert request_fingerprint(image_a, "v1") == base
        assert request_fingerprint(image_b, "v1") != base
        assert request_fingerprint(image_a, "v2") != base
        assert request_fingerprint(image_a, "v1", image_index=3) != base

    def test_lru_eviction(self):
        cache = PredictionCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh `a`
        cache.put("c", 3)  # evicts `b`
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_clear_forgets_every_entry(self):
        cache = PredictionCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and "a" not in cache and cache.get("a") is None

    def test_cached_second_pass_is_all_hits(self, stack, offline_predictions):
        _, test, _ = stack

        async def scenario():
            service = InferenceService(
                _engine(stack), max_batch=4, max_wait_ms=2.0, cache=PredictionCache()
            )
            async with service:
                await asyncio.gather(
                    *[service.submit(test.images[i], index=i) for i in range(NUM_IMAGES)]
                )
                warm = await asyncio.gather(
                    *[service.submit(test.images[i], index=i) for i in range(NUM_IMAGES)]
                )
            return warm, service.stats_snapshot()

        warm, snapshot = asyncio.run(scenario())
        assert all(result.cached for result in warm)
        assert snapshot["cache"]["hits"] == NUM_IMAGES
        served = np.array([r.prediction for r in warm], dtype=np.int64)
        assert np.array_equal(served, offline_predictions[0.0])

    def test_fault_mode_keys_include_index(self, stack):
        """Same pixels at different indices must not alias under faults."""
        _, test, _ = stack

        async def scenario():
            service = InferenceService(
                _engine(stack, flip_prob=0.05), max_wait_ms=0.0, cache=PredictionCache()
            )
            async with service:
                first = await service.submit(test.images[0], index=0)
                other_index = await service.submit(test.images[0], index=1)
                repeat = await service.submit(test.images[0], index=0)
            return first, other_index, repeat

        first, other_index, repeat = asyncio.run(scenario())
        assert not other_index.cached  # different fault mask, computed fresh
        assert repeat.cached
        assert repeat.prediction == first.prediction


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


class TestServiceStats:
    def test_empty_snapshot_is_well_formed(self):
        snapshot = ServiceStats().snapshot()
        assert snapshot["requests"]["completed"] == 0
        assert snapshot["throughput_per_s"] == 0.0
        assert snapshot["latency"]["p99_ms"] is None
        assert snapshot["batching"]["histogram"] == {}
        assert snapshot["cache"]["hit_rate"] == 0.0

    def test_counters_percentiles_and_histogram(self):
        clock = iter([0.0, 10.0, 10.0]).__next__
        stats = ServiceStats(clock=clock)
        stats.start()
        for latency in range(1, 101):
            stats.record_submitted()
            stats.record_completed(float(latency), cached=(latency % 4 == 0))
        stats.record_batch(3)
        stats.record_batch(3)
        stats.record_batch(6)
        snapshot = stats.snapshot(queue_depth=2, in_flight=1)
        assert snapshot["uptime_seconds"] == 10.0
        assert snapshot["throughput_per_s"] == pytest.approx(10.0)
        assert snapshot["latency"]["p50_ms"] == pytest.approx(50.5)
        assert snapshot["latency"]["p99_ms"] == pytest.approx(99.01)
        assert snapshot["batching"]["histogram"] == {"3": 2, "6": 1}
        assert snapshot["batching"]["mean_batch_size"] == pytest.approx(4.0)
        assert snapshot["cache"]["hit_rate"] == pytest.approx(0.25)
        assert snapshot["requests"]["queue_depth"] == 2
        assert snapshot["requests"]["in_flight"] == 1

    def test_percentiles_with_zero_and_one_sample(self):
        stats = ServiceStats()
        assert stats.snapshot()["latency"] == {"p50_ms": None, "p95_ms": None, "p99_ms": None}
        stats.record_completed(12.5)
        assert stats.snapshot()["latency"] == {"p50_ms": 12.5, "p95_ms": 12.5, "p99_ms": 12.5}

    def test_batch_histogram_boundaries_and_mean(self):
        stats = ServiceStats()
        for size in (1, 1, 4, 8):
            stats.record_batch(size)
        snapshot = stats.snapshot()["batching"]
        assert snapshot["batches"] == 4
        assert snapshot["batched_images"] == 14
        assert snapshot["mean_batch_size"] == pytest.approx(3.5)
        assert snapshot["histogram"] == {"1": 2, "4": 1, "8": 1}

    def test_latency_reservoir_is_bounded(self):
        stats = ServiceStats(max_samples=10)
        for latency in range(100):
            stats.record_completed(float(latency))
        snapshot = stats.snapshot()
        # Only the most recent 10 samples (90..99) remain.
        assert snapshot["latency"]["p50_ms"] == pytest.approx(94.5)
        assert snapshot["latency"]["p99_ms"] == pytest.approx(98.91)
        with pytest.raises(ValueError):
            ServiceStats(max_samples=0)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class TestPipelineEngine:
    def test_fingerprint_tracks_weights_and_fault_settings(self, stack, monkeypatch):
        model, _, softmax = stack
        base = pipeline_fingerprint(
            ScViTEvalPipeline(model, softmax)
        )
        faulty_pipeline = ScViTEvalPipeline(
            model, softmax, flip_prob=0.1, fault_seed=2
        )
        faulty = pipeline_fingerprint(faulty_pipeline)
        assert base != faulty
        other_model = CompactVisionTransformer(
            ViTConfig(image_size=8, patch_size=4, num_classes=4, embed_dim=16,
                      num_layers=2, num_heads=2, norm="bn", seed=99)
        ).eval()
        assert pipeline_fingerprint(
            ScViTEvalPipeline(other_model, softmax)
        ) != base
        # A fault-sampler version bump re-keys faulted cached predictions
        # only: a fault-free forward draws nothing, so its key stays put.
        monkeypatch.setattr(BitFlipFaultModel, "VERSION", BitFlipFaultModel.VERSION - 1)
        assert pipeline_fingerprint(faulty_pipeline) != faulty
        assert pipeline_fingerprint(
            ScViTEvalPipeline(model, softmax)
        ) == base
        # So does the batch-invariant matmul formulation (stacked vs einsum).
        monkeypatch.setattr(autograd, "_FORMULATION", "stacked")
        stacked = pipeline_fingerprint(faulty_pipeline)
        monkeypatch.setattr(autograd, "_FORMULATION", "einsum")
        assert pipeline_fingerprint(faulty_pipeline) != stacked

    @pytest.mark.parametrize("family", ["thread", "process", "fabric"])
    def test_engine_takes_fault_rate_and_shape_from_its_factory(self, stack, family):
        """Every engine family serves with the fault rate and image shape its
        replicas were built with, so a faulted request is cached per index."""
        from repro.fabric.engine import FabricEngine

        _, test, _ = stack
        factory = replica_factory(stack, flip_prob=0.05)
        engine = {
            "thread": lambda: PipelineEngine(factory, workers=2),
            "process": lambda: ShardedProcessEngine(factory, shards=1),
            "fabric": lambda: FabricEngine(factory),
        }[family]()
        assert engine.flip_prob == factory.flip_prob == 0.05
        assert engine.image_shape == factory.image_shape() == (8, 8, 3)
        assert engine.version

        cache = PredictionCache()

        async def scenario():
            async with InferenceService(engine, max_wait_ms=0.0, cache=cache) as service:
                await service.submit(test.images[0], index=3)

        asyncio.run(scenario())
        assert request_fingerprint(test.images[0], engine.version, image_index=3) in cache
        assert request_fingerprint(test.images[0], engine.version) not in cache

    def test_workers_produce_identical_replicas(self, stack, offline_predictions):
        """Every worker thread's replica computes the same predictions."""
        _, test, _ = stack
        engine = _engine(stack, workers=3)
        engine.start()
        try:
            futures = [
                engine.executor.submit(engine.run, test.images[:NUM_IMAGES], np.arange(NUM_IMAGES))
                for _ in range(6)  # spread across the 3 threads
            ]
            outputs = [future.result() for future in futures]
        finally:
            engine.close()
        for output in outputs:
            assert np.array_equal(output, offline_predictions[0.0])

    def test_worker_threads_share_one_faulted_pipeline(self, stack, offline_predictions):
        """Four threads run many faulted batches on one pipeline over the factory's own model;
        every image's prediction equals its offline per-image one, whichever batch ran it."""
        _, test, _ = stack
        factory = replica_factory(stack, flip_prob=0.05)
        assert factory().model is factory.model
        rng = np.random.default_rng(0)
        batches = [rng.permutation(NUM_IMAGES)[: rng.integers(1, NUM_IMAGES + 1)] for _ in range(64)]
        engine = PipelineEngine(factory, workers=4)
        engine.start()
        try:
            futures = [engine.executor.submit(engine.run, test.images[batch], batch) for batch in batches]
            outputs = [future.result() for future in futures]
        finally:
            engine.close()
        for batch, output in zip(batches, outputs):
            assert np.array_equal(output, offline_predictions[0.05][batch])


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestTransports:
    def test_handle_message_protocol_surface(self):
        engine = StubEngine()

        async def scenario():
            async with InferenceService(engine, max_wait_ms=0.0) as service:
                predict = await handle_message(
                    service, {"op": "predict", "image": [[0.0, 0.0], [0.0, 0.0]], "id": "r1"}
                )
                stats = await handle_message(service, {"op": "stats"})
                ping = await handle_message(service, {"op": "ping"})
                missing = await handle_message(service, {"op": "predict"})
                unknown = await handle_message(service, {"op": "teleport"})
                not_object = await handle_message(service, [1, 2, 3])
            return predict, stats, ping, missing, unknown, not_object

        predict, stats, ping, missing, unknown, not_object = asyncio.run(scenario())
        assert predict["ok"] and predict["id"] == "r1" and predict["prediction"] == 0
        assert stats["ok"] and stats["stats"]["requests"]["completed"] == 1
        assert ping == {"ok": True, "op": "ping"}
        assert not missing["ok"] and missing["code"] == "bad_request"
        assert not unknown["ok"] and unknown["code"] == "bad_request"
        assert not not_object["ok"] and not_object["code"] == "bad_request"

    def test_http_endpoints(self):
        engine = StubEngine()

        async def request_raw(port, method, path, body=b""):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            writer.write(head + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            header_blob, _, payload = raw.partition(b"\r\n\r\n")
            status = int(header_blob.split()[1])
            return status, json.loads(payload)

        async def scenario():
            async with InferenceService(engine, max_wait_ms=0.0) as service:
                server = await serve_http(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                health = await request_raw(port, "GET", "/healthz")
                body = json.dumps(
                    {"image": [[0.0, 0.0], [0.0, 0.0]], "index": 5, "id": "h"}
                ).encode()
                predict = await request_raw(port, "POST", "/predict", body)
                stats = await request_raw(port, "GET", "/stats")
                missing = await request_raw(port, "GET", "/nowhere")
                bad = await request_raw(port, "POST", "/predict", b"not json")
                server.close()
                await server.wait_closed()
            return health, predict, stats, missing, bad

        health, predict, stats, missing, bad = asyncio.run(scenario())
        assert health == (200, {"ok": True, "status": "serving"})
        assert predict[0] == 200 and predict[1]["prediction"] == 5
        assert stats[0] == 200 and stats[1]["stats"]["requests"]["completed"] == 1
        assert missing[0] == 404
        assert bad[0] == 400

    def test_http_malformed_content_length_gets_400(self):
        engine = StubEngine()

        async def scenario():
            async with InferenceService(engine, max_wait_ms=0.0) as service:
                server = await serve_http(service, "127.0.0.1", 0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                server.close()
                await server.wait_closed()
            head, _, payload = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(payload)

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert payload["code"] == "bad_request"


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_version_flag(self, capsys):
        import repro
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_parser_defaults(self):
        from pathlib import Path

        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--spec", "deployment.json"])
        assert args.spec == Path("deployment.json")
        assert args.func.__name__ == "cmd_serve"
        # The spec file is the whole deployment: no flag can be mixed in.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--spec", "deployment.json", "--max-batch", "4"])
        assert excinfo.value.code == 2

    def test_serve_help_lists_only_spec(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        options = {word.rstrip(",") for word in capsys.readouterr().out.split() if word.startswith("-")}
        assert options == {"-h", "--help", "--spec"}

    def test_serve_stdio_transport_in_process(self, monkeypatch, capsys):
        """serve_stdio: JSONL on (patched) stdin/stdout until EOF."""
        import io
        import sys as _sys

        from repro.serve.transport import serve_stdio

        engine = StubEngine()
        requests = (
            json.dumps({"op": "predict", "id": "a", "image": [[0.0, 0.0], [0.0, 0.0]], "index": 3})
            + "\n\n"  # blank lines are skipped
            + "broken json\n"
            + json.dumps({"op": "ping", "id": "p"})
            + "\n"
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))

        async def scenario():
            async with InferenceService(engine, max_wait_ms=0.0) as service:
                await serve_stdio(service)

        asyncio.run(scenario())
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        by_id = {r.get("id"): r for r in responses}
        assert by_id["a"]["prediction"] == 3 % 7
        assert by_id["p"] == {"ok": True, "op": "ping", "id": "p"}
        assert any(not r["ok"] and r["code"] == "bad_request" for r in responses)

    def test_cmd_serve_stdio_end_to_end(self, monkeypatch, capsys, tmp_path):
        """The full CLI path in-process: model build, engine, stdio session."""
        import io
        import sys as _sys

        from repro.cli import main

        dataset = SyntheticImageDataset(num_classes=10, image_size=16, seed=0)
        _, test = dataset.splits(train_size=1, test_size=1)
        requests = (
            json.dumps({"op": "predict", "id": "r0", "image": test.images[0].tolist()})
            + "\n"
            + json.dumps({"op": "predict", "id": "r1", "image": test.images[0].tolist()})
            + "\n"
        )
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        spec_path = tmp_path / "deployment.json"
        spec_path.write_text(
            ServeSpec(
                embed_dim=16, heads=2, train_size=8, calibration_images=4, max_wait_ms=1.0,
            ).to_json()
        )
        exit_code = main(["serve", "--spec", str(spec_path)])
        assert exit_code == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        by_id = {r["id"]: r for r in responses}
        assert by_id["r0"]["ok"] and by_id["r1"]["ok"]
        # Identical fault-free image: the repeat must be served from cache
        # (or coalesced if it landed while the first was in flight).
        assert by_id["r1"]["prediction"] == by_id["r0"]["prediction"]
        assert by_id["r1"]["cached"] or by_id["r1"]["coalesced"] or by_id["r0"]["cached"]

    def test_bench_serve_suite_checks_recorded_floors(self, capsys):
        """`repro bench --suite serve --no-run --check-floor` on the repo results."""
        from repro.cli import main

        exit_code = main(["bench", "--suite", "serve", "--check-floor", "--no-run"])
        output = capsys.readouterr().out
        assert exit_code == 0, output
        assert "serve floors: all pass" in output
        assert "closed_loop.throughput_img_per_s" in output

    @pytest.mark.parametrize(
        "suite, harness, results",
        [("engine", "bench_perf_sc_engine.py", "BENCH_sc_engine.json"),
         ("serve", "bench_serve_latency.py", "BENCH_serve.json"),
         ("fabric", "bench_fabric.py", "BENCH_fabric.json")],
        ids=["engine", "serve", "fabric"],
    )
    def test_bounded_suites_share_one_checker(self, tmp_path, capsys, suite, harness, results):
        """Every `{"min", "max"}` suite skips a floor the host lacks CPUs for
        and fails a violated bound, with the suite named in the verdict."""
        from repro.cli import main

        (tmp_path / harness).write_text("")
        (tmp_path / "results").mkdir()
        payload = {
            "host": {"cpu_count": 1},
            "run": {"scaling": 0.5, "p99_ms": 3.0},
            "floors": {
                "run.scaling": {"min": 1.5, "requires_cpus": 2},
                "run.p99_ms": {"max": 5.0},
            },
        }
        path = tmp_path / "results" / results
        path.write_text(json.dumps(payload))
        argv = ["bench", "--suite", suite, "--benchmarks-dir", str(tmp_path), "--check-floor", "--no-run"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "floor skipped: run.scaling (measured 0.50) needs >= 2 CPUs; host has 1" in output
        assert "floor ok: run.p99_ms: measured 3.00 vs bounds (max 5)" in output
        assert f"{suite} floors: all pass" in output

        payload["run"]["p99_ms"] = 7.0
        path.write_text(json.dumps(payload))
        assert main(argv) == 1
        assert f"{suite.upper()} PERF REGRESSION: run.p99_ms" in capsys.readouterr().err

    @pytest.mark.slow
    def test_stdio_serve_subprocess_round_trip(self, tmp_path):
        """`python -m repro serve` end to end over real pipes."""
        import subprocess
        import sys as _sys
        from pathlib import Path

        dataset = SyntheticImageDataset(num_classes=10, image_size=16, seed=0)
        _, test = dataset.splits(train_size=1, test_size=2)
        requests = "".join(
            json.dumps({"op": "predict", "id": f"r{i}", "image": test.images[i].tolist(),
                        "index": i}) + "\n"
            for i in range(2)
        ) + json.dumps({"op": "stats", "id": "s"}) + "\n"

        import os

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        spec_path = tmp_path / "deployment.json"
        spec_path.write_text(
            ServeSpec(
                embed_dim=16, heads=2, train_size=8, calibration_images=4,
            ).to_json()
        )
        completed = subprocess.run(
            [_sys.executable, "-m", "repro", "serve", "--spec", str(spec_path)],
            input=requests, capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        responses = [json.loads(line) for line in completed.stdout.splitlines() if line.strip()]
        by_id = {r["id"]: r for r in responses}
        assert by_id["r0"]["ok"] and isinstance(by_id["r0"]["prediction"], int)
        assert by_id["r1"]["ok"]
        assert by_id["s"]["stats"]["requests"]["submitted"] == 2
