"""Tests of the sharded multi-process serving tier (:mod:`repro.serve.sharded`).

The load-bearing property extends PR 5's batching invariant across the
process boundary: for *any* arrival pattern — and any interleaving of
worker deaths — predictions served by a :class:`ShardedProcessEngine` are
bit-identical to offline per-image evaluation.  Around it: the pickled
frame wire format, malformed replies treated as shard deaths, per-shard
image/batch counters, the :class:`EngineProtocol` seam, queue-depth
autoscaling, the no-retry contract for deterministic worker errors, and
shards that never outlive their parent.
"""

import asyncio
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline
from repro.evaluation.vectors import collect_softmax_inputs
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.serve import (
    EngineProtocol,
    InferenceService,
    PipelineEngine,
    PredictionCache,
    ReplicaFactory,
    ShardedProcessEngine,
)
from repro.serve.sharded import _Shard, _ShardDied, pack_frame, unpack_frame
from repro.training.datasets import SyntheticImageDataset

SOFTMAX = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=1.0, by=8, alpha_y=0.03, s1=16, s2=4)
GELU_BSL = 4
FAULT_SEED = 11
NUM_IMAGES = 10


@pytest.fixture(scope="module")
def stack():
    """Tiny model + images + calibration logits (same fixture as test_serve)."""
    config = ViTConfig(
        image_size=8, patch_size=4, num_classes=4, embed_dim=16,
        num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config)
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=16, test_size=NUM_IMAGES)
    calibration = collect_softmax_inputs(model, train.images[:4], max_rows=512)
    return model, test, calibration


@pytest.fixture(scope="module")
def offline_predictions(stack):
    model, test, calibration = stack
    predictions = {}
    for flip_prob in (0.0, 0.05):
        pipeline = ScViTEvalPipeline(
            model, SOFTMAX, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
            fault_seed=FAULT_SEED, calibration_logits=calibration,
        )
        predictions[flip_prob] = pipeline.evaluate(test, batch_size=1).predictions
    return predictions


def _factory(stack, flip_prob=0.0):
    model, _, calibration = stack
    return ReplicaFactory(
        model, SOFTMAX, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
        fault_seed=FAULT_SEED, calibration_logits=calibration,
    )


def _sharded_engine(stack, flip_prob=0.0, shards=2, **kwargs):
    return ShardedProcessEngine(_factory(stack, flip_prob), shards=shards, **kwargs)


# ---------------------------------------------------------------------------
# Cheap picklable stand-ins for mechanics tests (no model build per worker)
# ---------------------------------------------------------------------------


class _StubPipeline:
    def predict_batch(self, images, indices):
        return np.asarray(indices, dtype=np.int64) % 7


class _StubFactory:
    """Picklable factory of a model-free pipeline; prediction = index % 7."""

    flip_prob = 0.0

    def __call__(self):
        return _StubPipeline()

    def image_shape(self):
        return (2, 2)


class _ExplodingPipeline:
    def predict_batch(self, images, indices):
        raise ValueError("deterministic boom")


class _ExplodingFactory(_StubFactory):
    def __call__(self):
        return _ExplodingPipeline()


def _stub_engine(**kwargs):
    kwargs.setdefault("version", "stub-sharded-v1")
    return ShardedProcessEngine(_StubFactory(), **kwargs)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


class TestFrames:
    def test_round_trip_arrays_and_meta(self):
        images = np.arange(24, dtype=float).reshape(2, 3, 4)
        indices = np.array([5, 9], dtype=np.int64)
        blob = pack_frame("predict", {"images": images, "indices": indices}, job=7)
        assert isinstance(blob, bytes)
        op, arrays, meta = unpack_frame(blob)
        assert op == "predict"
        assert meta == {"job": 7}
        np.testing.assert_array_equal(arrays["images"], images)
        np.testing.assert_array_equal(arrays["indices"], indices)
        assert arrays["indices"].dtype == np.int64

    def test_metadata_only_frame(self):
        op, arrays, meta = unpack_frame(pack_frame("stop"))
        assert op == "stop"
        assert arrays == {}
        assert meta == {}

    def test_non_contiguous_input_survives(self):
        images = np.arange(16, dtype=float).reshape(4, 4).T  # F-contiguous view
        _, arrays, _ = unpack_frame(pack_frame("predict", {"images": images}))
        np.testing.assert_array_equal(arrays["images"], images)


# ---------------------------------------------------------------------------
# Replies the parent refuses
# ---------------------------------------------------------------------------


class _FakeProcess:
    def is_alive(self):
        return True

    def terminate(self):
        pass


class _FakeConn:
    """A shard pipe answering each predict frame with ``reply(job, indices)``."""

    def __init__(self, reply):
        self.reply = reply
        self.request = None

    def send_bytes(self, blob):
        self.request = unpack_frame(blob)

    def poll(self, timeout):
        return True

    def recv_bytes(self):
        _, arrays, meta = self.request
        return self.reply(meta["job"], arrays["indices"])


def _good_reply(job, indices):
    return pack_frame("result", {"predictions": indices % 7}, job=job)


BAD_REPLIES = {
    "garbage": lambda job, indices: b"\x00 not a frame",
    "truncated": lambda job, indices: _good_reply(job, indices)[:-5],
    "wrong_length": lambda job, indices: pack_frame(
        "result", {"predictions": indices[:-1] % 7}, job=job
    ),
    "float_dtype": lambda job, indices: pack_frame(
        "result", {"predictions": (indices % 7).astype(float)}, job=job
    ),
    "two_dimensional": lambda job, indices: pack_frame(
        "result", {"predictions": (indices % 7)[:, None]}, job=job
    ),
}


def _fake_shard(slot, reply):
    shard = _Shard(slot, 0, _FakeProcess(), _FakeConn(reply))
    shard.ready = True
    return shard


class TestMalformedReplies:
    @pytest.mark.parametrize("kind", sorted(BAD_REPLIES))
    def test_dispatch_treats_a_malformed_reply_as_a_death(self, kind):
        engine = _stub_engine(shards=1)
        shard = _fake_shard(0, BAD_REPLIES[kind])
        with pytest.raises(_ShardDied):
            engine._dispatch(shard, np.zeros((3, 2, 2)), np.array([4, 5, 6]))
        assert shard.batches == 0

    @pytest.mark.parametrize("kind", sorted(BAD_REPLIES))
    def test_run_redispatches_the_batch_and_completes(self, kind):
        engine = _stub_engine(shards=2, respawn=False)
        bad, good = _fake_shard(0, BAD_REPLIES[kind]), _fake_shard(1, _good_reply)
        engine._shards = {0: bad, 1: good}
        predictions = engine.run(np.zeros((3, 2, 2)), np.array([4, 5, 6]))
        assert predictions.tolist() == [4, 5, 6]
        lifecycle = engine.stats_snapshot()["lifecycle"]
        assert lifecycle["deaths"] == 1
        assert lifecycle["redispatches"] == 1
        assert bad.errors == 1
        assert (good.batches, good.images) == (1, 3)


# ---------------------------------------------------------------------------
# The engine seam
# ---------------------------------------------------------------------------


class TestEngineProtocol:
    def test_both_engine_families_satisfy_the_protocol(self, stack):
        thread = PipelineEngine(_factory(stack), workers=1)
        process = _stub_engine(shards=1)
        assert isinstance(thread, EngineProtocol)
        assert isinstance(process, EngineProtocol)
        assert isinstance(thread, PipelineEngine)
        assert isinstance(process, ShardedProcessEngine)

    def test_equal_factories_produce_equal_versions(self, stack):
        first = _sharded_engine(stack, shards=1)
        second = _sharded_engine(stack, shards=1)
        # Same weights + circuit + fault settings => same fingerprint: the
        # cross-shard (and cross-restart) cache-validity contract.
        assert first.version == second.version


# ---------------------------------------------------------------------------
# Bit-identity across the process boundary
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestShardedBitIdentity:
    @pytest.mark.parametrize("flip_prob", [0.0, 0.05])
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_arrival_pattern_matches_offline(
        self, stack, offline_predictions, flip_prob, data
    ):
        """Random order/stagger across 2 shards never changes a prediction."""
        _, test, _ = stack
        order = data.draw(st.permutations(list(range(NUM_IMAGES))))
        stagger = data.draw(
            st.lists(st.integers(0, 3), min_size=NUM_IMAGES, max_size=NUM_IMAGES)
        )
        engine = _sharded_engine(stack, flip_prob=flip_prob, shards=2)
        service = InferenceService(
            engine, max_batch=4, max_wait_ms=2.0,
            cache=PredictionCache(),
        )

        async def session():
            async with service:
                async def submit(position, image_index):
                    await asyncio.sleep(0.0005 * stagger[position])
                    result = await service.submit(test.images[image_index], index=image_index)
                    return image_index, result.prediction

                pairs = await asyncio.gather(
                    *[submit(position, image_index) for position, image_index in enumerate(order)]
                )
                return dict(pairs)

        served = asyncio.run(session())
        expected = offline_predictions[flip_prob]
        for image_index in range(NUM_IMAGES):
            assert served[image_index] == expected[image_index]


@pytest.mark.slow
class TestWorkerDeathRecovery:
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_kill_mid_stream_completes_every_request_bit_identically(
        self, stack, offline_predictions, data
    ):
        """SIGKILL a shard under a random arrival pattern: no request is
        lost, every answer still matches offline eval, and the death is
        accounted for (buried + respawned + re-dispatched)."""
        _, test, _ = stack
        order = data.draw(st.permutations(list(range(NUM_IMAGES))))
        kill_after = data.draw(st.integers(0, 4))
        engine = _sharded_engine(stack, flip_prob=0.05, shards=2)
        service = InferenceService(engine, max_batch=4, max_wait_ms=2.0, cache=None)

        async def session():
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(test.images[i], index=i))
                    for i in order
                ]
                await asyncio.sleep(0.0005 * kill_after)
                engine.kill_shard()
                results = await asyncio.gather(*tasks)
                return {
                    image_index: result.prediction
                    for image_index, result in zip(order, results)
                }, engine.stats_snapshot()

        served, snapshot = asyncio.run(session())
        expected = offline_predictions[0.05]
        for image_index in range(NUM_IMAGES):
            assert served[image_index] == expected[image_index]
        assert snapshot["lifecycle"]["deaths"] >= 1
        assert snapshot["lifecycle"]["live"] >= 2  # the slot was respawned

    def test_idle_death_is_reaped_on_next_dispatch(self):
        engine = _stub_engine(shards=2)
        engine.start()
        try:
            killed = engine.kill_shard()
            assert killed is not None
            # No request was in flight when the worker died; the next
            # dispatch must sweep the corpse, respawn, and still answer.
            predictions = engine.run(np.zeros((3, 2, 2)), np.array([1, 2, 3]))
            np.testing.assert_array_equal(predictions, np.array([1, 2, 3]) % 7)
            lifecycle = engine.stats_snapshot()["lifecycle"]
            assert lifecycle["deaths"] >= 1
            assert lifecycle["live"] == 2
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Deterministic worker errors are not retried
# ---------------------------------------------------------------------------


class TestWorkerErrors:
    def test_compute_error_propagates_without_redispatch(self):
        engine = ShardedProcessEngine(_ExplodingFactory(), shards=1, version="exploding-v1")
        engine.start()
        try:
            with pytest.raises(RuntimeError, match="deterministic boom"):
                engine.run(np.zeros((2, 2, 2)), np.array([0, 1]))
            lifecycle = engine.stats_snapshot()["lifecycle"]
            # The worker reported the error and kept serving: no death, no
            # re-dispatch loop (the same batch would raise on every shard).
            assert lifecycle["deaths"] == 0
            assert lifecycle["redispatches"] == 0
            assert engine.workers == 1
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Queue-depth autoscaling
# ---------------------------------------------------------------------------


class TestAutoscaling:
    def test_scale_up_on_depth_and_retire_on_idle(self):
        engine = _stub_engine(shards=1, max_shards=2, scale_up_queue_depth=4,
                              scale_cooldown_s=0.0)
        engine.start()
        try:
            assert engine.workers == 1
            engine.observe_load(queue_depth=8)  # sustained backlog -> spawn
            deadline = 50
            while engine.workers < 2 and deadline:
                engine.run(np.zeros((1, 2, 2)), np.array([0]))  # promotes ready shards
                deadline -= 1
            assert engine.workers == 2
            # Retiring needs the spare *ready* (it only counts as routable
            # after its handshake is promoted on a dispatch), so keep
            # dispatching until the idle retire lands.
            deadline = 50
            while engine.workers > 1 and deadline:
                engine.run(np.zeros((1, 2, 2)), np.array([0]))
                engine.observe_load(queue_depth=0)  # idle -> retire the spare
                deadline -= 1
            assert engine.workers == 1
            lifecycle = engine.stats_snapshot()["lifecycle"]
            assert lifecycle["retired"] == 1
            assert lifecycle["min_shards"] == 1
        finally:
            engine.close()

    def test_never_scales_without_headroom(self):
        engine = _stub_engine(shards=1)  # max_shards defaults to shards
        engine.start()
        try:
            engine.observe_load(queue_depth=10_000)
            assert engine.stats_snapshot()["lifecycle"]["spawned"] == 1
        finally:
            engine.close()

    def test_service_grows_slots_with_the_engine(self, stack):
        """The service re-syncs worker slots as the engine scales, so a
        spawned shard takes traffic without a restart."""
        engine = _stub_engine(shards=1, max_shards=2, scale_up_queue_depth=2,
                              scale_cooldown_s=0.0)
        service = InferenceService(engine, max_batch=1, max_wait_ms=0.5, cache=None)

        async def session():
            async with service:
                images = np.zeros((12, 2, 2))
                results = await asyncio.gather(
                    *[service.submit(images[i], index=i) for i in range(12)]
                )
                return [r.prediction for r in results], service.stats_snapshot()

        predictions, snapshot = asyncio.run(session())
        assert predictions == [i % 7 for i in range(12)]
        assert snapshot["engine"]["lifecycle"]["spawned"] >= 1


# ---------------------------------------------------------------------------
# Per-shard counters
# ---------------------------------------------------------------------------


class TestShardCounters:
    def test_shard_counters_sum_to_the_service_batching_totals(self):
        engine = _stub_engine(shards=2)
        service = InferenceService(engine, max_batch=3, max_wait_ms=1.0, cache=None)

        async def session():
            async with service:
                images = np.zeros((20, 2, 2))
                await asyncio.gather(*[service.submit(images[i], index=i) for i in range(20)])
                return service.stats_snapshot()

        snapshot = asyncio.run(session())
        assert snapshot["engine"]["lifecycle"]["deaths"] == 0
        shards = snapshot["engine"]["per_shard"]
        assert len(shards) == 2
        for entry in shards.values():
            assert set(entry) == {"batching", "errors", "in_flight"}
            assert "requests" not in entry
            assert entry["errors"] == 0
        batching = snapshot["batching"]
        assert sum(e["batching"]["batched_images"] for e in shards.values()) == batching["batched_images"]
        assert sum(e["batching"]["batches"] for e in shards.values()) == batching["batches"]
        assert batching["batched_images"] == 20


# ---------------------------------------------------------------------------
# No orphans
# ---------------------------------------------------------------------------

_ORPHAN_PARENT = textwrap.dedent(
    """
    import time

    import numpy as np

    from repro.serve import ShardedProcessEngine


    class Stub:
        flip_prob = 0.0

        def __call__(self):
            return self

        def image_shape(self):
            return (2, 2)

        def predict_batch(self, images, indices):
            return np.asarray(indices) % 7


    engine = ShardedProcessEngine(Stub(), shards=2, version="orphan-v1")
    engine.start()
    engine.run(np.zeros((2, 2, 2)), np.array([0, 1]))
    print(*(shard.process.pid for shard in engine._shards.values()), flush=True)
    time.sleep(120)
    """
)


def _running(pid):
    """Is ``pid`` a live (non-zombie) process?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_shards_exit_when_their_parent_is_sigkilled(tmp_path):
    script = tmp_path / "parent.py"
    script.write_text(_ORPHAN_PARENT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, text=True, env=env
    )
    pids = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        assert all(_running(pid) for pid in pids)
        parent.kill()
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)], "shards outlived their parent"
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
