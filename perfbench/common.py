"""Shared result type and small statistics helpers for the workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Share of a traced run spent untraced first, to price the tracing.
UNTRACED_SHARE = 0.3

#: Contiguous slices a run's latencies are cut into for ``latency_p99_ms``.
P99_SLICES = 8


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: List[str] = field(default_factory=list)


def percentile(values: Iterable[float], q: float) -> float:
    array = np.asarray(list(values), dtype=float)
    return float(np.percentile(array, q)) if array.size else 0.0


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def sliced_p99(latencies: Iterable[float]) -> float:
    """Median over ``P99_SLICES`` contiguous slices of each slice's p99.

    ``latencies`` are in completion order, so a slice is a stretch of the
    run.  The host's co-tenants steal CPU in bursts of 10-15 s; a burst
    sets the p99 of a whole run, but moves only the slices it overlaps,
    and the median of the slices only when it overlaps half of them.
    """
    array = np.asarray(list(latencies), dtype=float)
    if array.size == 0:
        return 0.0
    slices = np.array_split(array, min(P99_SLICES, array.size))
    return median([np.percentile(part, 99.0) for part in slices])


def overhead(untraced_cpu_ms_per_img: float, traced_cpu_ms_per_img: float) -> float:
    """Tracing overhead as a share of the untraced CPU cost per image."""
    if untraced_cpu_ms_per_img <= 0:
        return 0.0
    return traced_cpu_ms_per_img / untraced_cpu_ms_per_img - 1.0
