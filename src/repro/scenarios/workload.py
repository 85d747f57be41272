"""Deterministic request-stream generation for scenario replay.

A :class:`~repro.scenarios.specs.WorkloadSpec` expands into a
:class:`Workload` — arrival offsets (seconds from scenario start, float64,
non-decreasing) plus per-request image-pool indices — through
:func:`generate_workload`.  Generation is **byte-stable for a fixed
seed**: every draw goes through ``np.random.default_rng`` (the PCG64
streams are specified independently of platform), arrays carry pinned
dtypes, and :func:`workload_digest` content-addresses the result so the
property is testable (``tests/test_scenarios.py`` holds a golden digest).

Synthetic arrival processes (all with mean offered rate ``spec.rate``):

* ``poisson`` — i.i.d. exponential gaps; the memoryless baseline.
* ``pareto`` — heavy-tailed Lomax gaps scaled to the same mean; a few
  huge silences followed by dense clumps (the open-loop killer).
* ``flashcrowd`` — Poisson base load with ``flash_bursts`` windows at
  ``flash_factor`` x rate covering ``flash_frac`` of the requests.
* ``diurnal`` — exponential gaps whose instantaneous rate follows a
  sawtooth between ``diurnal_low`` x and 1 x rate with period
  ``diurnal_period_s`` (a compressed day/night cycle for soak runs).

``trace`` replays a recorded file instead: the JSON envelope
``{"kind": "serve/trace", "arrivals_s": [...], "image_indices": [...]}``
(write one with :func:`save_trace`; floats round-trip exactly through
``repr`` so a saved trace re-digests identically).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.utils.digests import array_digest
from repro.scenarios.specs import WorkloadSpec

__all__ = ["TRACE_KIND", "Workload", "generate_workload", "load_trace", "save_trace", "workload_digest"]

#: The ``kind`` tag of a recorded trace file.
TRACE_KIND = "serve/trace"


@dataclass
class Workload:
    """One concrete request stream: when each request arrives, which image."""

    #: Arrival offsets in seconds from scenario start (float64, sorted).
    arrivals_s: np.ndarray
    #: Image-pool index per request (int64, in ``[0, image_pool)``).
    image_indices: np.ndarray

    def __post_init__(self) -> None:
        self.arrivals_s = np.ascontiguousarray(self.arrivals_s, dtype=np.float64)
        self.image_indices = np.ascontiguousarray(self.image_indices, dtype=np.int64)
        if self.arrivals_s.ndim != 1 or self.arrivals_s.shape != self.image_indices.shape:
            raise ValueError("arrivals_s and image_indices must be 1-D and the same length")
        if self.arrivals_s.size and np.any(np.diff(self.arrivals_s) < 0):
            raise ValueError("arrivals_s must be non-decreasing")

    def __len__(self) -> int:
        return int(self.arrivals_s.size)

    @property
    def duration_s(self) -> float:
        return float(self.arrivals_s[-1]) if len(self) else 0.0


def workload_digest(workload: Workload) -> str:
    """Content digest of a workload (dtype + shape + bytes of both arrays).

    The byte-stability contract: the same :class:`WorkloadSpec` must
    produce the same digest on every platform and in every process.
    """
    return array_digest(workload.arrivals_s, workload.image_indices)


def _gaps_poisson(rng: np.random.Generator, spec: WorkloadSpec) -> np.ndarray:
    return rng.exponential(1.0 / spec.rate, spec.requests)


def _gaps_pareto(rng: np.random.Generator, spec: WorkloadSpec) -> np.ndarray:
    # np.random.Generator.pareto samples Lomax(shape) with mean 1/(shape-1)
    # for shape > 1; rescale so the mean gap is 1/rate like every other
    # process (heavier tail, same offered load).
    scale = (spec.pareto_shape - 1.0) / spec.rate
    return rng.pareto(spec.pareto_shape, spec.requests) * scale


def _gaps_flashcrowd(rng: np.random.Generator, spec: WorkloadSpec) -> np.ndarray:
    n = spec.requests
    per_request_rate = np.full(n, spec.rate, dtype=np.float64)
    burst_total = max(spec.flash_bursts, int(round(n * spec.flash_frac)))
    burst_len = max(1, burst_total // spec.flash_bursts)
    for burst in range(spec.flash_bursts):
        center = (burst + 0.5) / spec.flash_bursts
        start = int(round(center * n - burst_len / 2.0))
        start = min(max(start, 0), max(0, n - burst_len))
        per_request_rate[start : start + burst_len] = spec.rate * spec.flash_factor
    return rng.exponential(1.0, n) / per_request_rate


def _gaps_diurnal(rng: np.random.Generator, spec: WorkloadSpec) -> np.ndarray:
    # Sequential by construction: each gap depends on the arrival time so
    # far (the sawtooth is a function of wall-clock position).  Unit
    # exponentials are drawn up front in one vectorised call, so the RNG
    # consumption — and therefore the byte-stability digest — does not
    # depend on how the loop is scheduled.
    unit = rng.exponential(1.0, spec.requests)
    gaps = np.empty(spec.requests, dtype=np.float64)
    t = 0.0
    low = spec.diurnal_low
    for i in range(spec.requests):
        phase = (t / spec.diurnal_period_s) % 1.0
        rate = spec.rate * (low + (1.0 - low) * phase)
        gaps[i] = unit[i] / rate
        t += gaps[i]
    return gaps


_SYNTHETIC = {
    "poisson": _gaps_poisson,
    "pareto": _gaps_pareto,
    "flashcrowd": _gaps_flashcrowd,
    "diurnal": _gaps_diurnal,
}


def generate_workload(spec: WorkloadSpec, base_dir: Optional[Union[str, Path]] = None) -> Workload:
    """Expand ``spec`` into a concrete :class:`Workload`.

    Synthetic processes draw gaps first, then image indices, from one
    ``default_rng(spec.seed)`` stream (a fixed draw order is part of the
    stability contract).  ``trace`` loads the recorded file instead —
    ``trace_path`` resolves relative to ``base_dir`` (the scenario file's
    directory, typically) when it is not absolute.
    """
    if spec.arrival == "trace":
        path = Path(spec.trace_path)
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        return load_trace(path)
    rng = np.random.default_rng(spec.seed)
    gaps = np.asarray(_SYNTHETIC[spec.arrival](rng, spec), dtype=np.float64)
    indices = rng.integers(0, spec.image_pool, size=spec.requests, dtype=np.int64)
    return Workload(arrivals_s=np.cumsum(gaps), image_indices=indices)


def save_trace(path: Union[str, Path], workload: Workload) -> Path:
    """Record ``workload`` as a replayable JSON trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # JSON floats serialise via repr (shortest exact round-trip), so the
    # reloaded trace re-digests identically to the recorded workload.
    document = {
        "kind": TRACE_KIND,
        "arrivals_s": [float(t) for t in workload.arrivals_s],
        "image_indices": [int(i) for i in workload.image_indices],
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_trace(path: Union[str, Path]) -> Workload:
    """Load a trace recorded by :func:`save_trace` (exact float round-trip)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("kind") != TRACE_KIND:
        raise ValueError(f"{path}: not a {TRACE_KIND!r} trace file")
    arrivals = np.asarray([float(t) for t in document["arrivals_s"]], dtype=np.float64)
    indices = np.asarray(document["image_indices"], dtype=np.int64)
    return Workload(arrivals_s=arrivals, image_indices=indices)
