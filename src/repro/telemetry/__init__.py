"""Unified observability plane: tracing, metrics, logging.

The serving/scenario/fabric arc (PRs 5-9) built machinery with no way to
see inside it.  This package is the instrumentation layer they share:

* :mod:`repro.telemetry.tracer` — spans with an injected monotonic clock
  and explicit context propagation (service -> batcher -> engine -> shard
  worker in the pipe frame's metadata; scenario phases and chaos events),
  exported as Chrome-trace JSON (Perfetto-loadable) and JSONL,
* :mod:`repro.telemetry.metrics` — labelled counters and gauges
  with Prometheus text exposition (``GET /metrics`` on the HTTP
  transport) and a JSON snapshot,
* :mod:`repro.telemetry.logging` — the one structured-logging config site
  behind ``repro --log-level`` / ``--log-json``,
* :mod:`repro.telemetry.summary` — trace loading/summarising for
  ``repro trace``.

**Enablement and the inertness contract.**  Telemetry is off by default
and switched on by the ``REPRO_TELEMETRY`` environment variable (``1`` /
``true`` / ``on``), the ``telemetry`` field of a
:class:`~repro.serve.specs.ServeSpec` / scenario spec, or
:func:`enable`.  When off, the serve layers skip span creation behind
one boolean.  On or off, telemetry is *provably inert*: predictions stay
bit-identical, and no content-addressed cache key, engine fingerprint or
spec identity incorporates telemetry state (``repro verify`` and the
warm-cache re-run gate on exactly this).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.logging import StructuredLogger, configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
    publish_snapshot,
)
from repro.telemetry.summary import load_trace, summarize_trace
from repro.telemetry.tracer import Span, Tracer, current_context, push_context

__all__ = [
    "TELEMETRY_ENV_VAR",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "StructuredLogger",
    "Tracer",
    "configure_logging",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "get_logger",
    "get_profiler",
    "get_registry",
    "get_tracer",
    "load_trace",
    "publish_snapshot",
    "push_context",
    "reset",
    "run_scope",
    "summarize_trace",
]

#: Environment variable that switches the instrumentation plane on.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

_TRUTHY = ("1", "true", "on", "yes")

#: Explicit override: ``None`` follows the environment variable.
_forced: Optional[bool] = None

#: Process-wide tracer shared by the serve/scenario/fabric layers.
_default_tracer = Tracer()


def enabled() -> bool:
    """Is the instrumentation plane on for this process?"""
    if _forced is not None:
        return _forced
    return os.environ.get(TELEMETRY_ENV_VAR, "").strip().lower() in _TRUTHY


def enable() -> None:
    """Force telemetry on."""
    global _forced
    _forced = True


def disable() -> None:
    """Force telemetry off.

    Recorded spans and metrics are kept (use :func:`reset` to drop them);
    only *collection* stops.
    """
    global _forced
    _forced = False


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def reset() -> None:
    """Return the plane to its pristine state (tests / between runs).

    Clears the default tracer and registry and reverts enablement to
    follow the environment variable.
    """
    global _forced
    _forced = None
    _default_tracer.clear()
    get_registry().clear()


@contextmanager
def run_scope(force_on: bool = False) -> Iterator[None]:
    """One run's telemetry window (each scenario run is one).

    On entry the default tracer and registry are emptied, so what the run
    exports is its own; ``force_on`` forces the plane on.  On exit the
    enablement found on entry is restored, so a spec that switched
    telemetry on leaves later runs in the process untraced.
    """
    global _forced
    found = _forced
    _default_tracer.clear()
    get_registry().clear()
    if force_on:
        _forced = True
    try:
        yield
    finally:
        _forced = found


class _EmptyKernelProfile:
    def clear(self) -> None:
        pass

    def table(self) -> List[Dict[str, Any]]:
        return []


def get_profiler() -> _EmptyKernelProfile:
    """An always-empty kernel profile: ``clear()`` does nothing, ``table()`` is ``[]``.

    It exists only because perfbench calls it for its ``sc.kernel.*`` rows
    (which read 0: the eval and serve forwards run no packed SC kernel).
    ROADMAP item 5 deletes it, with those rows, in the next benchmark change.
    """
    return _EmptyKernelProfile()
