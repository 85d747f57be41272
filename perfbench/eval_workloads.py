"""Offline eval workloads: the paper-scale BN-ViT through ``iter_batches``.

``eval-clean`` runs the SC softmax (k=3, by=8, s1=32, s2=8) and the SI GELU
at BSL 8 without faults; ``eval-faults`` adds bit flips at
``flip_prob=0.01`` with a fixed fault seed.  The model is built from a
:class:`~repro.serve.ServeSpec` through ``build_replica_factory``, the same
recipe the serving tier uses.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Tuple

import numpy as np
from repro.runner import array_digest

from common import SETUPS, UNTRACED_SHARE, Outcome, median, overhead, percentile, sliced_p99
from host import SpeedProbe, StealMeter, peak_rss_mb
from ledger import LayerClock, layer_table, model_counted, model_entry_points, model_layer_metrics

BATCH = 32
SPLIT_IMAGES = 256  # cycled through for as long as the run lasts
CHECK_IMAGES = 16  # batch-1 vs batch-32 invariance subset
DIGEST_IMAGES = 64
FAULT_SEED = 2024


def make_spec(workload: str):
    from repro.serve import ServeSpec

    spec = ServeSpec(layers=7, embed_dim=64, heads=4, gelu_bsl=8, k=3, by=8, s1=32, s2=8)
    if workload == "eval-faults":
        spec = spec.with_updates(flip_prob=0.01, fault_seed=FAULT_SEED)
    return spec


def make_inputs(seed: int):
    """The workload's test split: ``SPLIT_IMAGES`` images drawn from ``seed``."""
    from repro.training.datasets import synthetic_cifar10

    _, split = synthetic_cifar10(train_size=1, test_size=SPLIT_IMAGES, seed=seed)
    return split


def set_up(spec, split) -> Tuple[float, object]:
    """Build the pipeline and finish one warm batch; returns (seconds, pipeline)."""
    from repro.serve import build_replica_factory

    start = time.perf_counter()
    pipeline = build_replica_factory(spec)()
    list(pipeline.iter_batches(split, max_images=BATCH))
    return time.perf_counter() - start, pipeline


def timed_pass(
    pipeline, split, seconds: float, predictions: Dict[int, int], probe: SpeedProbe
) -> Dict[str, object]:
    """Stream the split through the pipeline, cycling, for ``seconds``.

    The speed probe runs between batches; each batch's wall and CPU time
    is scaled by the probes on either side of it (see ``SpeedProbe``).
    Every prediction is checked against the first one seen for its index,
    so repeated passes also test determinism.
    """
    raw_ms: List[float] = []
    batch_ms: List[float] = []
    cpu_ms: List[float] = []
    sizes: List[int] = []
    mismatches = 0
    steal = StealMeter()
    before = probe.run()
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        with contextlib.closing(pipeline.iter_batches(split, batch_size=BATCH)) as batches:
            mark, cpu_mark = time.perf_counter(), time.process_time()
            for batch in batches:
                wall_s, cpu_s = time.perf_counter() - mark, time.process_time() - cpu_mark
                after = probe.run()
                scale = probe.scale(before, after)
                before = after
                raw_ms.append(wall_s * 1e3)
                batch_ms.append(wall_s * 1e3 * scale)
                cpu_ms.append(cpu_s * 1e3 * scale)
                sizes.append(len(batch))
                for index, prediction in zip(batch.indices.tolist(), batch.predictions.tolist()):
                    if predictions.setdefault(index, prediction) != prediction:
                        mismatches += 1
                if time.perf_counter() >= deadline:
                    done = True
                    break
                mark, cpu_mark = time.perf_counter(), time.process_time()
    sizes_array = np.asarray(sizes, dtype=float)
    return {
        "images": int(sum(sizes)),
        "batches": len(sizes),
        "sizes": sizes,
        "raw_ms": raw_ms,
        "batch_ms": batch_ms,
        "img_s": (sizes_array * 1e3 / np.asarray(batch_ms)).tolist(),
        "cpu_ms_per_img": (np.asarray(cpu_ms) / sizes_array).tolist(),
        "steal_pct": steal.read(),
        "mismatches": mismatches,
    }


def check(pipeline, split, predictions: Dict[int, int]) -> Tuple[bool, List[str]]:
    """Untimed output checks: batch invariance, determinism and a digest."""
    info = []
    ok = True
    missing = [index for index in range(DIGEST_IMAGES) if index not in predictions]
    if missing:
        for batch in pipeline.iter_batches(split, max_images=DIGEST_IMAGES, batch_size=BATCH):
            for index, prediction in zip(batch.indices.tolist(), batch.predictions.tolist()):
                predictions.setdefault(index, prediction)
    single = [
        int(batch.predictions[0])
        for batch in pipeline.iter_batches(split, max_images=CHECK_IMAGES, batch_size=1)
    ]
    batched = [predictions[index] for index in range(CHECK_IMAGES)]
    if single != batched:
        ok = False
        info.append(f"check FAILED: batch-1 predictions {single} != batch-{BATCH} {batched}")
    else:
        info.append(f"check ok: batch-1 == batch-{BATCH} on {CHECK_IMAGES} images")
    head = np.asarray([predictions[index] for index in range(DIGEST_IMAGES)], dtype=np.int64)
    info.append(f"predictions digest (first {DIGEST_IMAGES} images): {array_digest(head)}")
    return ok, info


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import telemetry

    spec = make_spec(workload)
    split = make_inputs(seed)
    info = [f"inputs digest: {array_digest(split.images, split.labels)}"]

    probe = SpeedProbe()
    setups, raw_setups = [], []
    before = probe.run()
    for _ in range(SETUPS):
        seconds_taken, pipeline = set_up(spec, split)
        after = probe.run()
        raw_setups.append(seconds_taken)
        setups.append(seconds_taken * probe.scale(before, after))
        before = after

    predictions: Dict[int, int] = {}
    per_layer: Dict[str, float] = {}
    if trace:
        untraced = timed_pass(pipeline, split, seconds * UNTRACED_SHARE, predictions, probe)
        telemetry.enable()
        telemetry.get_profiler().clear()
        clock = LayerClock()
        try:
            with clock.patched(model_entry_points(), model_counted()):
                measured = timed_pass(pipeline, split, seconds * (1 - UNTRACED_SHARE), predictions, probe)
        finally:
            telemetry.disable()
        per_layer = model_layer_metrics(
            clock, measured["images"], measured["batches"], telemetry.get_profiler().table()
        )
        per_layer["trace.overhead_share"] = overhead(
            median(untraced["cpu_ms_per_img"]), median(measured["cpu_ms_per_img"])
        )
        info += layer_table(clock, measured["images"])
        measured["mismatches"] += untraced["mismatches"]
    else:
        measured = timed_pass(pipeline, split, seconds, predictions, probe)

    ok, check_info = check(pipeline, split, predictions)
    info += check_info
    if measured["mismatches"]:
        ok = False
        info.append(f"check FAILED: {measured['mismatches']} predictions changed between passes")
    info.append(f"host.steal_pct: {measured['steal_pct']:.2f}")

    images = measured["images"]
    batch_ms = np.asarray(measured["batch_ms"])
    per_image_ms = np.repeat(batch_ms, measured["sizes"])
    failed = 0 if ok else images
    end_to_end = {
        "throughput_img_s": median(measured["img_s"]),
        "cpu_ms_per_img": median(measured["cpu_ms_per_img"]),
        "batch_p50_ms": median(batch_ms),
        "latency_p50_ms": percentile(per_image_ms, 50.0),
        "latency_p99_ms": sliced_p99(per_image_ms),
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "completed_share": (images - failed) / images,
    }
    info.append(
        f"host.speed: probe p50 {median(probe.samples) * 1e3:.3f} ms against {probe.REFERENCE_S * 1e3:g} ms; "
        f"unscaled batch p50 {median(measured['raw_ms']):.2f} ms, setup p50 {median(raw_setups):.4f} s"
    )
    info.append(f"samples: {measured['batches']} batches, {images} images")
    return Outcome(ok, images, failed, end_to_end, per_layer, info)
