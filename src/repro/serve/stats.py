"""Service-side metrics: throughput, tail latency, batching, cache hits.

The numbers a serving operator actually watches — requests/s, p50/p95/p99
latency, how well the dynamic batcher is coalescing, how much the result
cache absorbs — collected with O(1) per-request cost and exposed as one
JSON-able snapshot (the ``/stats`` endpoint and the ``stats`` op of the
JSON-lines transport).

Latency percentiles are computed over a bounded reservoir of the most
recent samples (default 16384) so a long-running service neither grows
without bound nor loses sight of the current tail.  Counters are lifetime
totals; throughput is completed requests over service uptime.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Callable, Dict, Optional

import numpy as np

__all__ = ["ServiceStats"]

#: Percentiles reported by :meth:`ServiceStats.snapshot`.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


class ServiceStats:
    """Rolling request/batch/cache accounting for one service instance.

    Parameters
    ----------
    max_samples:
        Size of the latency reservoir (most recent samples kept).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, max_samples: int = 16384, clock: Optional[Callable[[], float]] = None) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self._clock = clock if clock is not None else time.monotonic
        self._started_at: Optional[float] = None
        self._latencies_ms: deque = deque(maxlen=int(max_samples))
        self._batch_sizes: Counter = Counter()
        self.submitted = 0
        self.completed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.batches = 0
        self.batched_images = 0

    # ------------------------------------------------------------- recording
    def start(self) -> None:
        """Mark service start; uptime and throughput are measured from here."""
        self._started_at = self._clock()

    def record_submitted(self) -> None:
        self.submitted += 1

    def record_completed(self, latency_ms: float, cached: bool = False, coalesced: bool = False) -> None:
        """One request finished (computed, served from cache, or coalesced)."""
        self.completed += 1
        if cached:
            self.cache_hits += 1
        if coalesced:
            self.coalesced += 1
        self._latencies_ms.append(float(latency_ms))

    def record_rejected(self) -> None:
        self.rejected += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    def record_error(self) -> None:
        self.errors += 1

    def record_batch(self, size: int) -> None:
        """One micro-batch dispatched to the worker pool."""
        self.batches += 1
        self.batched_images += int(size)
        self._batch_sizes[int(size)] += 1

    # -------------------------------------------------------------- snapshot
    @property
    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return max(0.0, self._clock() - self._started_at)

    def snapshot(self, queue_depth: int = 0, in_flight: int = 0) -> Dict:
        """One JSON-able view of the service's health (the ``/stats`` body)."""
        uptime = self.uptime_seconds
        latencies = np.asarray(self._latencies_ms, dtype=float)
        percentiles: Dict[str, Optional[float]] = {}
        for q in LATENCY_PERCENTILES:
            key = f"p{q:g}_ms"
            percentiles[key] = float(np.percentile(latencies, q)) if latencies.size else None
        mean_batch = self.batched_images / self.batches if self.batches else 0.0
        return {
            "uptime_seconds": uptime,
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "queue_depth": int(queue_depth),
                "in_flight": int(in_flight),
            },
            "throughput_per_s": self.completed / uptime if uptime > 0 else 0.0,
            "latency": percentiles,
            "batching": {
                "batches": self.batches,
                "batched_images": self.batched_images,
                "mean_batch_size": mean_batch,
                "histogram": {str(size): count for size, count in sorted(self._batch_sizes.items())},
            },
            "cache": {
                "hits": self.cache_hits,
                "coalesced": self.coalesced,
                "hit_rate": self.cache_hits / self.completed if self.completed else 0.0,
            },
        }
