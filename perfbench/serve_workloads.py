"""The serving workload through ``build_deployment(ServeSpec)`` and ``InferenceService.submit``.

``serve-sharded`` is a closed loop: 64 clients (2 x max_batch x shards)
each submit their next distinct image as soon as the previous reply
arrives, against the process engine with 2 shards and no cache, serving
the ``repro serve`` default model (2 layers, 32 dim).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Dict, List, Tuple

import numpy as np
from repro.runner import array_digest

from common import SETUPS, UNTRACED_SHARE, Outcome, median, overhead, percentile, sliced_p99
from host import SpeedProbe, StealMeter, Windows, peak_rss_mb, scale_at
from ledger import LayerClock, layer_table, serve_entry_points

SHARDS = 2
MAX_BATCH = 16
CLIENTS = 2 * MAX_BATCH * SHARDS
POOL_IMAGES = 2048  # distinct images the closed loop cycles through

WINDOW_S = 1.0  # measurement window of the serving loops

DIGEST_IMAGES = 64


def make_spec():
    from repro.serve import ServeSpec

    return ServeSpec(engine="process", workers=SHARDS, cache=False, max_batch=MAX_BATCH)


def make_inputs(seed: int) -> np.ndarray:
    """The ``POOL_IMAGES`` images the clients cycle through, drawn from ``seed``."""
    from repro.training.datasets import synthetic_cifar10

    _, split = synthetic_cifar10(train_size=1, test_size=POOL_IMAGES, seed=seed)
    return split.images


class RequestLog:
    """Request outcomes of one load phase, plus the run's served predictions."""

    def __init__(self, served: Dict[int, int], mismatches: List[int]) -> None:
        self.latency_ms: List[float] = []
        self.done_at: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.served = served
        self.mismatches = mismatches

    async def submit(self, service, images, image: int, started: float) -> None:
        """One request; latency runs from ``started`` to the reply."""
        self.attempted += 1
        try:
            result = await service.submit(images[image], index=image)
        except Exception as exc:  # every failure mode counts against the run
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(repr(exc))
            return
        now = time.perf_counter()
        self.latency_ms.append((now - started) * 1e3)
        self.done_at.append(now)
        if self.served.setdefault(image, int(result.prediction)) != int(result.prediction):
            self.mismatches.append(image)


async def closed_loop(service, images, seconds: float, requests: RequestLog) -> None:
    """``CLIENTS`` clients, each sending its next image when the last returns."""
    order = itertools.count()
    deadline = time.perf_counter() + seconds

    async def client() -> None:
        while time.perf_counter() < deadline:
            await requests.submit(service, images, next(order) % len(images), time.perf_counter())

    await asyncio.gather(*[client() for _ in range(CLIENTS)])


async def sample_windows(windows: Windows, requests: RequestLog, stop: asyncio.Event) -> None:
    """Close a measurement window every ``WINDOW_S`` until ``stop`` is set."""
    while True:
        try:
            await asyncio.wait_for(stop.wait(), WINDOW_S)
            return
        except asyncio.TimeoutError:
            windows.sample(len(requests.latency_ms))


def _timed_engine(deployment, batch_s: List[Tuple[float, float]]) -> None:
    """Time every ``engine.run`` call of the deployment as ``(end, seconds)``."""
    run = deployment.engine.run

    def timed_run(images, indices):
        start = time.perf_counter()
        try:
            return run(images, indices)
        finally:
            end = time.perf_counter()
            batch_s.append((end, end - start))

    deployment.engine.run = timed_run


def _counters(deployment) -> Dict[str, object]:
    snap = deployment.service.stats_snapshot()
    shards = {
        label: stats["batching"]["batched_images"]
        for label, stats in snap.get("engine", {}).get("per_shard", {}).items()
    }
    return {
        "completed": snap["requests"]["completed"],
        "batches": snap["batching"]["batches"],
        "batched_images": snap["batching"]["batched_images"],
        "shards": shards,
    }


class Session:
    """The workload's deployments, inputs and served-prediction record."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seconds = seconds
        # CPU time, not wall: the probe shares the CPUs with busy shards.
        self.probe = SpeedProbe(time.thread_time)
        self.images = make_inputs(seed)
        self.served: Dict[int, int] = {}
        self.mismatches: List[int] = []

    async def set_up(self) -> Tuple[float, object]:
        """Build, start and warm one deployment; returns (seconds, deployment)."""
        from repro.serve import build_deployment

        start = time.perf_counter()
        deployment = build_deployment(make_spec())
        await deployment.service.start()
        await asyncio.gather(*[deployment.service.submit(self.images[i], index=i) for i in range(CLIENTS)])
        return time.perf_counter() - start, deployment

    async def measure(self, deployment, seconds: float) -> Dict[str, object]:
        """Drive the closed loop for ``seconds``."""
        batch_s: List[Tuple[float, float]] = []
        _timed_engine(deployment, batch_s)
        before = _counters(deployment)
        requests = RequestLog(self.served, self.mismatches)
        windows = Windows(self.probe)
        steal = StealMeter()
        stop = asyncio.Event()
        windows.sample(0)
        sampler = asyncio.create_task(sample_windows(windows, requests, stop))
        await closed_loop(deployment.service, self.images, seconds, requests)
        stop.set()
        await sampler
        used = windows.cpu.read()
        rates = windows.rates()
        after = _counters(deployment)
        delta = {key: after[key] - before[key] for key in ("completed", "batches", "batched_images")}
        shard_images = [after["shards"][label] - before["shards"].get(label, 0) for label in after["shards"]]
        return {
            "requests": requests,
            "windows": rates,
            "latency_ms": [
                latency * scale_at(rates["spans"], when)
                for latency, when in zip(requests.latency_ms, requests.done_at)
            ],
            "batch_ms": [seconds * 1e3 * scale_at(rates["spans"], end) for end, seconds in batch_s],
            "cpu": used,
            "steal_pct": steal.read(),
            "delta": delta,
            "shard_images": shard_images,
            "rss_mb": peak_rss_mb(),
        }

    def check(self) -> Tuple[bool, List[str]]:
        """Served predictions equal offline ``predict_batch`` on the same images."""
        from repro.serve import build_replica_factory

        pipeline = build_replica_factory(make_spec())()
        images = self.images
        wanted = sorted(set(self.served) | set(range(DIGEST_IMAGES)))
        offline = {}
        for start in range(0, len(wanted), 256):
            chunk = np.asarray(wanted[start : start + 256], dtype=np.int64)
            for image, prediction in zip(chunk.tolist(), pipeline.predict_batch(images[chunk], chunk).tolist()):
                offline[image] = int(prediction)
        wrong = [image for image, prediction in self.served.items() if offline[image] != prediction]
        info = []
        ok = not wrong and not self.mismatches
        if wrong:
            info.append(f"check FAILED: {len(wrong)} served predictions differ from offline predict_batch")
        if self.mismatches:
            info.append(f"check FAILED: {len(self.mismatches)} repeated images served different predictions")
        if ok:
            info.append(f"check ok: {len(self.served)} distinct served images == offline predict_batch")
        head = np.asarray([offline[image] for image in range(DIGEST_IMAGES)], dtype=np.int64)
        info.append(f"predictions digest (first {DIGEST_IMAGES} images): {array_digest(head)}")
        return ok, info


def shape_guard(measured: Dict[str, object]) -> Tuple[bool, str]:
    """The closed loop must fill batches and keep both shards busy (in images)."""
    delta = measured["delta"]
    mean_batch = delta["batched_images"] / max(1, delta["batches"])
    shares = [images / max(1, delta["batched_images"]) for images in measured["shard_images"]]
    ok = mean_batch >= 0.9 * MAX_BATCH and len(shares) == SHARDS and min(shares) >= 0.4
    shown = ", ".join(f"{share:.2f}" for share in shares)
    return ok, f"shape guard {'ok' if ok else 'FAILED'}: mean batch {mean_batch:.2f} of {MAX_BATCH}, shard image shares [{shown}]"


def span_metrics(events: List[Dict]) -> Dict[str, float]:
    """Serving-layer numbers read from the telemetry plane's spans."""
    spans = [event for event in events if event.get("ph") == "X"]
    by_id = {event["args"].get("span_id"): event for event in spans}
    engine_run = [event["dur"] / 1e3 for event in spans if event["name"] == "engine.run"]
    dispatch = {event["args"]["span_id"]: event for event in spans if event["name"] == "shard.dispatch"}
    predict = [event for event in spans if event["name"] == "shard.predict"]
    ipc = [
        (dispatch[event["args"]["parent_id"]]["dur"] - event["dur"]) / 1e3
        for event in predict
        if event["args"].get("parent_id") in dispatch
    ]
    waits = []
    for event in spans:
        if event["name"] == "service.batch":
            request = by_id.get(event["args"].get("parent_id"))
            if request is not None:
                waits.append((event["ts"] - request["ts"]) / 1e3)
    dispatch_ms = sum(event["dur"] for event in dispatch.values()) / 1e3
    return {
        "serve.engine_run_ms.p50": median(engine_run),
        "serve.ipc_overhead_ms_per_batch": float(np.mean(ipc)) if ipc else 0.0,
        "serve.worker_forward_ms_per_batch": float(np.mean([event["dur"] / 1e3 for event in predict])) if predict else 0.0,
        "serve.queue_wait_ms.p50": median(waits),
        "dispatches": float(len(dispatch)),
        "dispatch_coverage": dispatch_ms / sum(engine_run) if engine_run and dispatch else 0.0,
    }


async def _traced(session: "Session", untraced: Dict[str, object]):
    """A fresh traced deployment over the rest of the run.

    Returns the measurement, the per-layer metrics and the self-time table.
    The forward runs in the shard processes; what this process sees of it
    is ``engine.run``, which the ``shard.dispatch`` spans cover.
    """
    from repro import telemetry

    telemetry.enable()
    telemetry.get_tracer().clear()
    clock = LayerClock()
    try:
        _, deployment = await session.set_up()
        with clock.patched(serve_entry_points()):
            measured = await session.measure(deployment, session.seconds * (1 - UNTRACED_SHARE))
        await deployment.service.stop()
    finally:
        telemetry.disable()
    spans = span_metrics(telemetry.get_tracer().events())
    telemetry.get_tracer().clear()
    per_layer = serve_layer_metrics(measured, untraced)
    per_layer.update({key: value for key, value in spans.items() if key.startswith("serve.")})
    per_layer["trace.coverage_share"] = spans["dispatch_coverage"]
    dispatches = max(1.0, spans["dispatches"])
    per_layer["serve.codec_us_per_batch"] = clock.total_s.get("serve.codec", 0.0) * 1e6 / dispatches
    per_layer["serve.frame_bytes_per_batch"] = clock.work.get("serve.codec", 0.0) / dispatches
    return measured, per_layer, layer_table(clock, measured["delta"]["batched_images"])


async def _run(seed: int, seconds: float, trace: bool) -> Outcome:
    session = Session(seed, seconds)
    info = [f"inputs digest: {array_digest(session.images)}"]
    setups, raw_setups = [], []
    before = session.probe.run()
    for attempt in range(SETUPS):
        seconds_taken, deployment = await session.set_up()
        after = session.probe.run()
        raw_setups.append(seconds_taken)
        setups.append(seconds_taken * session.probe.scale(before, after))
        before = after
        if attempt < SETUPS - 1:
            await deployment.service.stop()

    per_layer: Dict[str, float] = {}
    if trace:
        untraced = await session.measure(deployment, seconds * UNTRACED_SHARE)
        await deployment.service.stop()
        measured, per_layer, table = await _traced(session, untraced)
        info += table
    else:
        measured = await session.measure(deployment, seconds)
        await deployment.service.stop()
    ok, check_info = session.check()

    requests = measured["requests"]
    info += check_info
    if requests.errors:
        info.append(f"request errors (first {len(requests.errors)}): {'; '.join(requests.errors)}")
    guard_ok, line = shape_guard(measured)
    ok = ok and guard_ok
    info.append(line)
    info.append(f"host.steal_pct: {measured['steal_pct']:.2f}")

    attempted = requests.attempted
    failed = requests.failed if ok else attempted
    completed = len(requests.latency_ms)
    end_to_end = {
        "throughput_img_s": median(measured["windows"]["img_s"]),
        "cpu_ms_per_img": median(measured["windows"]["cpu_ms"]),
        "batch_p50_ms": median(measured["batch_ms"]),
        "latency_p50_ms": percentile(measured["latency_ms"], 50.0),
        "latency_p99_ms": sliced_p99(measured["latency_ms"]),
        "setup_s": median(setups),
        "peak_rss_mb": measured["rss_mb"],
        "completed_share": (attempted - failed) / max(1, attempted),
    }
    info.append(
        f"host.speed: probe p50 {median(session.probe.samples) * 1e3:.3f} ms CPU against "
        f"{session.probe.REFERENCE_S * 1e3:g} ms; unscaled latency p50 {percentile(requests.latency_ms, 50.0):.2f} ms, "
        f"setup p50 {median(raw_setups):.4f} s"
    )
    info.append(
        f"samples: {attempted} requests, {completed} completed, {measured['delta']['batches']} batches, "
        f"whole-run latency p99 {percentile(measured['latency_ms'], 99.0):.2f} ms"
    )
    return Outcome(ok, attempted, failed, end_to_end, per_layer, info)


def serve_layer_metrics(measured, untraced) -> Dict[str, float]:
    delta = measured["delta"]
    completed = max(1, delta["completed"])
    shard_images = measured["shard_images"]
    cpu = measured["cpu"]
    return {
        "serve.batch_size.mean": delta["batched_images"] / max(1, delta["batches"]),
        "serve.shard_balance": min(shard_images) / max(shard_images) if shard_images and max(shard_images) else 0.0,
        "serve.parent_cpu_ms_per_img": cpu["self"] * 1e3 / completed,
        "serve.shard_cpu_ms_per_img": cpu["children"] * 1e3 / completed,
        "trace.overhead_share": overhead(
            median(untraced["windows"]["cpu_ms"]), median(measured["windows"]["cpu_ms"])
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace))
