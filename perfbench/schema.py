"""The benchmark's workloads and metrics: the one source ``BENCHMARK.json`` mirrors.

``test_perfbench.py`` checks that ``BENCHMARK.json`` equals
:func:`benchmark_json`, and that every run prints exactly these metric
names with these units.
"""

from __future__ import annotations

from typing import Dict, List

RUN_SECONDS = 30

WORKLOADS: Dict[str, str] = {
    "eval-clean": "paper-scale BN-ViT offline at batch 32, no faults: the linears and the SC softmax do the work",
    "eval-faults": "the same model at flip_prob 0.01: per-image fault-mask draws dominate, the linears become minor",
    "serve-sharded": "closed loop, 64 clients, 2 shard processes, no cache: queue, batcher, frame codec and pipe IPC",
}

# name -> (unit, better, bound).  Timings get the largest bound allowed:
# on the 2-CPU reference host their unscaled run-to-run spread reached
# 0.33, because the host's speed drifts; they are reported scaled to
# reference speed (``host.SpeedProbe``), which takes most of that out.
END_TO_END: Dict[str, tuple] = {
    "throughput_img_s": ("img/s", "higher", 0.25),
    "cpu_ms_per_img": ("ms", "lower", 0.25),
    "batch_p50_ms": ("ms", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p99_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "completed_share": ("share", "higher", 0.02),
}

# name -> (unit, better)
PER_LAYER: Dict[str, tuple] = {
    "nn.linear.ms_per_img": ("ms", "lower"),
    "nn.attention.ms_per_img": ("ms", "lower"),
    "nn.norm.ms_per_img": ("ms", "lower"),
    "nn.other.ms_per_img": ("ms", "lower"),
    "blocks.softmax.ms_per_img": ("ms", "lower"),
    "blocks.softmax.rows_per_batch": ("count", "lower"),
    "blocks.gelu.ms_per_img": ("ms", "lower"),
    "blocks.gelu.elements_per_batch": ("count", "lower"),
    "eval_pipeline.faults.ms_per_img": ("ms", "lower"),
    "eval_pipeline.faults.sites_per_batch": ("count", "lower"),
    "eval_pipeline.faults.mask_draws_per_batch": ("count", "lower"),
    "sc.kernel.calls_per_batch": ("count", "lower"),
    "sc.kernel.ms_per_batch": ("ms", "lower"),
    "serve.batch_size.mean": ("count", "higher"),
    "serve.shard_balance": ("share", "higher"),
    "serve.engine_run_ms.p50": ("ms", "lower"),
    "serve.codec_us_per_batch": ("us", "lower"),
    "serve.frame_bytes_per_batch": ("bytes", "lower"),
    "serve.ipc_overhead_ms_per_batch": ("ms", "lower"),
    "serve.worker_forward_ms_per_batch": ("ms", "lower"),
    "serve.parent_cpu_ms_per_img": ("ms", "lower"),
    "serve.shard_cpu_ms_per_img": ("ms", "lower"),
    "serve.queue_wait_ms.p50": ("ms", "lower"),
    "trace.coverage_share": ("share", "higher"),
    "trace.overhead_share": ("share", "lower"),
}


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    workloads: List[Dict[str, str]] = [{"name": name, "why": why} for name, why in WORKLOADS.items()]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()
        ],
    }
