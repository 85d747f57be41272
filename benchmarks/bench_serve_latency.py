"""Load generator + latency/throughput harness for ``repro.serve``.

Drives the in-process :class:`~repro.serve.InferenceService` (no socket in
the measurement path, so the numbers are the service's, not the kernel's)
in the two canonical load shapes:

* **closed loop** — ``CLIENTS`` concurrent clients, each submitting its
  shard of distinct images back-to-back.  Measures sustained throughput
  and the latency distribution when the offered load tracks capacity
  (every completion triggers the next request).
* **open loop** — requests arrive on a fixed schedule (deterministic
  exponential inter-arrivals at ``OPEN_RATE`` req/s) regardless of
  completions, the arrival model that actually exposes queueing delay:
  tail latency under open load is the honest serving metric.
* **sharded scaling** — the same multi-client closed loop against the
  :class:`~repro.serve.ShardedProcessEngine` at 1 and 2 shards, recording
  per-shard image/batch/error counters and the ``scaling_2x`` throughput
  ratio.
* **trace replay** (``--replay``) — paced replay of a scenario workload
  through :func:`repro.scenarios.generate_workload`: any synthetic arrival
  process (``--arrival poisson|pareto|flashcrowd|diurnal``) expanded
  deterministically from ``--seed``, or a recorded ``serve/trace`` file
  (``--trace``).  ``--record-trace`` saves the generated stream for exact
  replay elsewhere.  An opt-in shape: it does not alter the gated payload
  or its floors.

Results go to ``benchmarks/results/BENCH_serve.json`` together with the
regression bounds: a sustained-throughput floor (the acceptance criterion:
>= 50 img/s on the tiny CI model), p99 tail-latency ceilings, and the
2-shard throughput-scaling floor (>= 1.5x over one shard; qualified with
``requires_cpus: 2`` because a single-CPU host cannot physically exhibit
process-level scaling — the measurement is recorded there but the floor
only gates where it can hold).  Per-engine copies of the payload land in
``BENCH_serve_thread.json`` / ``BENCH_serve_sharded.json`` for CI
artifact upload.  ``python -m repro bench --suite serve --check-floor``
gates on the floors.

The timed sections run with the prediction cache *disabled* — a load
generator that cycles over images would otherwise measure dictionary
lookups.  Cache behaviour and bit-identity against offline evaluation are
covered by ``--smoke``, the CI mode: 64 concurrent requests (fault-free
and under ``flip_prob`` fault injection with per-request seeds) must
reproduce :meth:`ScViTEvalPipeline.evaluate` per-image predictions bit for
bit, and a second pass must be 100% cache hits.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py          # bench
    PYTHONPATH=src python benchmarks/bench_serve_latency.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow `python benchmarks/bench_serve_latency.py`
    sys.path.insert(0, str(_SRC))

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline
from repro.evaluation.reporting import format_table
from repro.evaluation.vectors import collect_softmax_inputs
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.serve import (
    InferenceService,
    PipelineEngine,
    PredictionCache,
    ReplicaFactory,
    ShardedProcessEngine,
)
from repro.training.datasets import DatasetSplit, SyntheticImageDataset

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The tiny CI model every serve measurement runs on, fixed so the
#: recorded numbers stay comparable from run to run.
TINY_VIT = dict(
    image_size=8, patch_size=4, num_classes=4, embed_dim=16,
    num_layers=2, num_heads=2, norm="bn", seed=3,
)
TINY_SOFTMAX = dict(m=64, iterations=2, bx=4, alpha_x=1.0, by=8, alpha_y=0.03, s1=16, s2=4)
GELU_BSL = 4
FAULT_SEED = 11

#: Load shapes.
CLOSED_CLIENTS = 16
CLOSED_IMAGES = 256
OPEN_RATE = 200.0  # req/s offered
OPEN_IMAGES = 128
SMOKE_IMAGES = 64
#: The sharded closed loop is smaller: every request crosses a process
#: boundary (one pickled frame each way), so per-image cost is dominated by the
#: forward only once batches form.
SHARDED_CLIENTS = 8
SHARDED_IMAGES = 96

#: Regression bounds recorded into the payload; ``repro bench --suite serve
#: --check-floor`` fails when a measurement leaves them.  The throughput
#: floor is the acceptance criterion (sustained >= 50 img/s on the tiny
#: model); it is far under the >1000 img/s typically measured so only a
#: real regression — not scheduler noise on a loaded CI runner — trips it.
#: The p99 ceilings bound the tail the batcher + queue are allowed to add.
#: The sharded floors: the 2-shard closed loop must scale throughput by
#: >= 1.5x over one shard wherever the host has the cores to show it
#: (``requires_cpus`` — on a 1-CPU runner the ratio is recorded but the
#: floor is skipped), and its tail stays bounded even with IPC in the path.
FLOORS = {
    "closed_loop.throughput_img_per_s": {"min": 50.0},
    "closed_loop.p99_ms": {"max": 1000.0},
    "open_loop.p99_ms": {"max": 1000.0},
    "sharded.shards_2.p99_ms": {"max": 5000.0},
    "sharded.scaling_2x": {"min": 1.5, "requires_cpus": 2},
}


def _build(flip_prob: float = 0.0, workers: int = 2, cached: bool = False,
           max_batch: int = 16, max_wait_ms: float = 2.0, max_queue: int = 1024,
           engine: str = "thread", shards: int = 2):
    """One service stack over the tiny model (service not yet started).

    ``engine="thread"`` builds the in-process :class:`PipelineEngine` with
    ``workers`` threads; ``engine="process"`` builds a
    :class:`ShardedProcessEngine` with ``shards`` worker processes.  Either
    way the service holds one :class:`PredictionCache` when caching is on.
    """
    model = CompactVisionTransformer(ViTConfig(**TINY_VIT))
    dataset = SyntheticImageDataset(num_classes=TINY_VIT["num_classes"],
                                    image_size=TINY_VIT["image_size"], seed=5)
    train, _ = dataset.splits(train_size=16, test_size=1)
    softmax = SoftmaxCircuitConfig(**TINY_SOFTMAX)
    calibration = collect_softmax_inputs(model, train.images[:4], max_rows=512)
    factory = ReplicaFactory(
        model, softmax, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
        fault_seed=FAULT_SEED, calibration_logits=calibration,
    )
    if engine == "process":
        engine_obj = ShardedProcessEngine(factory, shards=shards)
    else:
        engine_obj = PipelineEngine(factory, workers=workers)
    service = InferenceService(
        engine_obj, max_batch=max_batch, max_wait_ms=max_wait_ms, max_queue=max_queue,
        cache=PredictionCache() if cached else None,
    )
    return model, softmax, calibration, service


def _images(count: int) -> np.ndarray:
    """``count`` distinct tiny images (cycling would hand wins to a cache)."""
    dataset = SyntheticImageDataset(num_classes=TINY_VIT["num_classes"],
                                    image_size=TINY_VIT["image_size"], seed=7)
    _, test = dataset.splits(train_size=1, test_size=count)
    return test.images


def _latency_summary(latencies_ms) -> dict:
    latencies = np.asarray(latencies_ms, dtype=float)
    return {
        "p50_ms": float(np.percentile(latencies, 50)),
        "p95_ms": float(np.percentile(latencies, 95)),
        "p99_ms": float(np.percentile(latencies, 99)),
        "mean_ms": float(latencies.mean()),
        "max_ms": float(latencies.max()),
    }


# ---------------------------------------------------------------------------
# Load shapes
# ---------------------------------------------------------------------------


async def closed_loop(service: InferenceService, images: np.ndarray, clients: int) -> dict:
    """``clients`` concurrent closed-loop clients over disjoint image shards."""
    shards = np.array_split(np.arange(images.shape[0]), clients)
    latencies: list = []

    async def client(shard) -> None:
        for index in shard:
            result = await service.submit(images[index], index=int(index))
            latencies.append(result.latency_ms)

    start = time.perf_counter()
    await asyncio.gather(*[client(shard) for shard in shards if shard.size])
    elapsed = time.perf_counter() - start
    snapshot = service.stats_snapshot()
    return {
        "images": int(images.shape[0]),
        "clients": int(clients),
        "seconds": elapsed,
        "throughput_img_per_s": images.shape[0] / elapsed,
        "mean_batch_size": snapshot["batching"]["mean_batch_size"],
        "batch_histogram": snapshot["batching"]["histogram"],
        **_latency_summary(latencies),
    }


async def open_loop(service: InferenceService, images: np.ndarray, rate: float) -> dict:
    """Fixed-schedule arrivals at ``rate`` req/s (deterministic Poisson gaps)."""
    count = images.shape[0]
    gaps = np.random.default_rng(2024).exponential(1.0 / rate, size=count)
    arrivals = np.cumsum(gaps)
    loop = asyncio.get_running_loop()
    start = loop.time()
    results: list = []

    async def fire(position: int) -> None:
        delay = start + arrivals[position] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        results.append(await service.submit(images[position], index=int(position)))

    wall_start = time.perf_counter()
    await asyncio.gather(*[fire(position) for position in range(count)])
    elapsed = time.perf_counter() - wall_start
    return {
        "images": int(count),
        "offered_rate_per_s": float(rate),
        "seconds": elapsed,
        "throughput_img_per_s": count / elapsed,
        **_latency_summary([result.latency_ms for result in results]),
    }


async def sharded_scaling() -> dict:
    """Multi-client closed loop at 1 and 2 process shards.

    Each shard count gets a fresh engine and disjoint-shard clients; the
    section records the per-shard image/batch/error counters straight from
    :meth:`ShardedProcessEngine.stats_snapshot`, plus the ``scaling_2x``
    throughput ratio the floor gates on.
    """
    section: dict = {}
    images = _images(SHARDED_IMAGES)
    for shards in (1, 2):
        _, _, _, service = _build(cached=False, engine="process", shards=shards)
        async with service:
            run = await closed_loop(service, images, SHARDED_CLIENTS)
            engine_snapshot = service.engine.stats_snapshot()
        run["per_shard"] = engine_snapshot["per_shard"]
        run["lifecycle"] = engine_snapshot["lifecycle"]
        section[f"shards_{shards}"] = run
    section["scaling_2x"] = (
        section["shards_2"]["throughput_img_per_s"]
        / section["shards_1"]["throughput_img_per_s"]
    )
    return section


async def replay_loop(service: InferenceService, images: np.ndarray, workload) -> dict:
    """Paced replay of a :class:`repro.scenarios.Workload` request stream.

    Like :func:`open_loop` but the schedule and per-request image choice
    come from the workload (recorded or generated), so any arrival shape
    the scenario layer can describe is measurable here too.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    results: list = []

    async def fire(position: int) -> None:
        delay = start + float(workload.arrivals_s[position]) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        pool_index = int(workload.image_indices[position]) % images.shape[0]
        results.append(await service.submit(images[pool_index], index=pool_index))

    wall_start = time.perf_counter()
    await asyncio.gather(*[fire(position) for position in range(len(workload))])
    elapsed = time.perf_counter() - wall_start
    return {
        "requests": int(len(workload)),
        "trace_duration_s": float(workload.duration_s),
        "seconds": elapsed,
        "throughput_img_per_s": len(workload) / elapsed,
        **_latency_summary([result.latency_ms for result in results]),
    }


def run_replay(args) -> int:
    """The ``--replay`` entry point: one paced run over a scenario workload."""
    from repro.scenarios import WorkloadSpec, generate_workload, load_trace, save_trace, workload_digest

    if args.trace is not None:
        workload = load_trace(args.trace)
        source = f"trace {args.trace}"
    else:
        spec = WorkloadSpec(
            arrival=args.arrival, requests=args.requests, rate=args.rate,
            seed=args.seed, image_pool=REPLAY_POOL,
        )
        workload = generate_workload(spec)
        source = f"{args.arrival} (seed {args.seed})"
    if args.record_trace is not None:
        saved = save_trace(args.record_trace, workload)
        print(f"recorded trace {saved} ({len(workload)} requests)")

    async def measure() -> dict:
        _, _, _, service = _build(cached=False)
        async with service:
            return await replay_loop(service, _images(REPLAY_POOL), workload)

    section = asyncio.run(measure())
    section["source"] = source
    section["workload_digest"] = workload_digest(workload)
    print(f"\n=== trace replay: {source} ===")
    print(format_table(
        ["Requests", "Trace (s)", "Wall (s)", "img/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        [(
            section["requests"],
            round(section["trace_duration_s"], 2),
            round(section["seconds"], 2),
            round(section["throughput_img_per_s"], 1),
            round(section["p50_ms"], 2),
            round(section["p95_ms"], 2),
            round(section["p99_ms"], 2),
        )],
    ))
    print(f"workload digest {section['workload_digest'][:16]}… (byte-stable for a fixed seed)")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(section, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    return 0


#: Image-pool size the replay shape cycles over (indices come from the
#: workload, so a pool — unlike the bench shapes' distinct-image sets —
#: is the honest model: traces revisit images).
REPLAY_POOL = 64


# ---------------------------------------------------------------------------
# Harness entry points (also loaded by `repro bench --suite serve`)
# ---------------------------------------------------------------------------


def run_benchmarks() -> dict:
    """All load shapes on the tiny model, cache off; returns the payload."""

    async def measure() -> dict:
        _, _, _, service = _build(cached=False)
        async with service:
            closed = await closed_loop(service, _images(CLOSED_IMAGES), CLOSED_CLIENTS)
        _, _, _, service = _build(cached=False)
        async with service:
            opened = await open_loop(service, _images(OPEN_IMAGES), OPEN_RATE)
        sharded = await sharded_scaling()
        return {"closed_loop": closed, "open_loop": opened, "sharded": sharded}

    payload = asyncio.run(measure())
    payload["model"] = dict(TINY_VIT)
    payload["softmax"] = dict(TINY_SOFTMAX)
    payload["gelu_output_bsl"] = GELU_BSL
    payload["host"] = {"cpu_count": os.cpu_count()}
    payload["floors"] = {metric: dict(bounds) for metric, bounds in FLOORS.items()}
    return payload


def print_report(payload: dict) -> None:
    rows = []
    sections = [("closed_loop", payload["closed_loop"]), ("open_loop", payload["open_loop"])]
    sharded = payload.get("sharded", {})
    sections += [(name, sharded[name]) for name in ("shards_1", "shards_2") if name in sharded]
    for shape, section in sections:
        rows.append((
            shape,
            section["images"],
            round(section["throughput_img_per_s"], 1),
            round(section["p50_ms"], 2),
            round(section["p95_ms"], 2),
            round(section["p99_ms"], 2),
        ))
    print("\n=== serve load generator (tiny CI model) ===")
    print(format_table(
        ["Shape", "Images", "img/s", "p50 (ms)", "p95 (ms)", "p99 (ms)"], rows
    ))
    closed = payload["closed_loop"]
    print(
        f"closed-loop batching: mean size {closed['mean_batch_size']:.1f}, "
        f"histogram {closed['batch_histogram']}"
    )
    if "scaling_2x" in sharded:
        cpus = payload.get("host", {}).get("cpu_count")
        print(
            f"sharded scaling: 2 shards / 1 shard throughput = "
            f"{sharded['scaling_2x']:.2f}x on {cpus} CPU(s)"
        )


def save_report(payload: dict) -> Path:
    """Write the combined payload plus per-engine copies for CI artifacts.

    ``BENCH_serve.json`` is the canonical gated file; the thread-only and
    sharded-only views carry the same floors restricted to their sections,
    so each CI engine job uploads a payload whose floors all refer to
    measurements it actually made.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_serve.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    views = {
        "BENCH_serve_thread.json": ("closed_loop", "open_loop"),
        "BENCH_serve_sharded.json": ("sharded",),
    }
    shared = {key: payload[key] for key in ("model", "softmax", "gelu_output_bsl", "host")
              if key in payload}
    for name, keys in views.items():
        view = dict(shared)
        for key in keys:
            if key in payload:
                view[key] = payload[key]
        view["floors"] = {
            metric: dict(bounds)
            for metric, bounds in payload.get("floors", {}).items()
            if metric.split(".", 1)[0] in keys
        }
        (RESULTS_DIR / name).write_text(json.dumps(view, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# Smoke mode — the CI acceptance gate
# ---------------------------------------------------------------------------


def run_smoke(engine: str = "thread") -> int:
    """64 concurrent requests: bit-identity vs offline eval + warm-cache pass.

    ``engine="process"`` runs the same gate through a 2-shard
    :class:`ShardedProcessEngine` — the serve invariant must survive the
    process boundary unchanged.
    """
    images = _images(SMOKE_IMAGES)
    labels = np.zeros(SMOKE_IMAGES, dtype=np.int64)  # accuracy is irrelevant here
    split = DatasetSplit(images=images, labels=labels)
    failures = 0

    for flip_prob in (0.0, 0.05):
        model, softmax, calibration, service = _build(
            flip_prob=flip_prob, cached=True, max_batch=8, max_wait_ms=4.0,
            engine=engine, shards=2,
        )
        offline = ScViTEvalPipeline(
            model, softmax, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob,
            fault_seed=FAULT_SEED, calibration_logits=calibration,
        ).evaluate(split, batch_size=1)

        async def session():
            async with service:
                cold = await asyncio.gather(
                    *[service.submit(images[i], index=i) for i in range(SMOKE_IMAGES)]
                )
                warm = await asyncio.gather(
                    *[service.submit(images[i], index=i) for i in range(SMOKE_IMAGES)]
                )
                return cold, warm, service.stats_snapshot()

        cold, warm, snapshot = asyncio.run(session())
        served = np.array([result.prediction for result in cold], dtype=np.int64)
        if np.array_equal(served, offline.predictions):
            print(
                f"PASS smoke bit-identity (engine={engine}, flip_prob={flip_prob}, "
                f"{SMOKE_IMAGES} concurrent requests, mean batch "
                f"{snapshot['batching']['mean_batch_size']:.1f})"
            )
        else:
            diverged = int(np.sum(served != offline.predictions))
            print(
                f"FAIL smoke: {diverged}/{SMOKE_IMAGES} served predictions differ "
                f"from offline eval at engine={engine}, flip_prob={flip_prob}",
                file=sys.stderr,
            )
            failures += 1
        hits = sum(1 for result in warm if result.cached)
        if hits == SMOKE_IMAGES:
            print(f"PASS smoke warm pass 100% cache hits (engine={engine}, flip_prob={flip_prob})")
        else:
            print(
                f"FAIL smoke: warm pass served {hits}/{SMOKE_IMAGES} from cache "
                f"at engine={engine}, flip_prob={flip_prob}",
                file=sys.stderr,
            )
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: concurrent bit-identity vs offline eval + warm-cache pass",
    )
    parser.add_argument(
        "--engine", choices=["thread", "process", "both"], default="thread",
        help="engine family the smoke gate drives (process = 2 shards); "
             "'both' runs the gate once per family",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="trace-replay shape: pace requests per a scenario workload instead of the bench shapes",
    )
    parser.add_argument(
        "--arrival", choices=["poisson", "pareto", "flashcrowd", "diurnal"],
        default="poisson", help="synthetic arrival process for --replay",
    )
    parser.add_argument("--requests", type=int, default=256, help="replay request count")
    parser.add_argument("--rate", type=float, default=200.0, help="replay mean offered rate (req/s)")
    parser.add_argument("--seed", type=int, default=2024, help="replay workload seed")
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="replay a recorded serve/trace JSON file instead of generating",
    )
    parser.add_argument(
        "--record-trace", type=Path, default=None,
        help="save the replayed workload as a serve/trace file",
    )
    parser.add_argument("--out", type=Path, default=None, help="write the replay section as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        engines = ["thread", "process"] if args.engine == "both" else [args.engine]
        return max(run_smoke(engine=engine) for engine in engines)
    if args.replay:
        return run_replay(args)
    payload = run_benchmarks()
    print_report(payload)
    saved = save_report(payload)
    print(f"\nsaved {saved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
