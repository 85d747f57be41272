"""Unified observability plane: tracing, metrics, kernel profiling, logging.

The serving/scenario/fabric arc (PRs 5-9) built machinery with no way to
see inside it.  This package is the instrumentation layer they share:

* :mod:`repro.telemetry.tracer` — spans with an injected monotonic clock
  and explicit context propagation (service -> batcher -> engine -> shard
  worker in the pipe frame's metadata; scenario phases and chaos events),
  exported as Chrome-trace JSON (Perfetto-loadable) and JSONL,
* :mod:`repro.telemetry.metrics` — labelled counters and gauges
  with Prometheus text exposition (``GET /metrics`` on the HTTP
  transport) and a JSON snapshot,
* :mod:`repro.telemetry.profiling` — per-kernel x per-backend call/word/
  wall-time profiling hooked into the :mod:`repro.sc.backends` seam,
* :mod:`repro.telemetry.logging` — the one structured-logging config site
  behind ``repro --log-level`` / ``--log-json``,
* :mod:`repro.telemetry.summary` — trace loading/summarising for
  ``repro trace``.

**Enablement and the inertness contract.**  Telemetry is off by default
and switched on by the ``REPRO_TELEMETRY`` environment variable (``1`` /
``true`` / ``on``), the ``telemetry`` field of a
:class:`~repro.serve.specs.ServeSpec` / scenario spec, or
:func:`enable`.  When off, the kernel seam costs one ``is None`` check
and the serve layers skip span creation behind one boolean.  On or off,
telemetry is *provably inert*: predictions stay bit-identical, and no
content-addressed cache key, engine fingerprint or spec identity
incorporates telemetry state (``repro verify`` and the warm-cache re-run
gate on exactly this).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.telemetry.logging import StructuredLogger, configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
    publish_snapshot,
)
from repro.telemetry.profiling import KernelProfiler, get_profiler
from repro.telemetry.profiling import install as _install_profiling
from repro.telemetry.profiling import uninstall as _uninstall_profiling
from repro.telemetry.summary import load_trace, summarize_trace
from repro.telemetry.tracer import Span, Tracer, current_context, push_context

__all__ = [
    "TELEMETRY_ENV_VAR",
    "Counter",
    "Gauge",
    "KernelProfiler",
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
    """Force telemetry on and install the kernel-profiling hook."""
    global _forced
    _forced = True
    _install_profiling()


def disable() -> None:
    """Force telemetry off and remove the kernel-profiling hook.

    Recorded spans/metrics/profiles are kept (use :func:`reset` to drop
    them); only *collection* stops.
    """
    global _forced
    _forced = False
    _uninstall_profiling()


def activate() -> bool:
    """Install the kernel hook iff :func:`enabled`; returns that state.

    The entry points (deploy, scenario runner) call this
    so an env-var-enabled run profiles kernels without anyone having
    called :func:`enable` explicitly.
    """
    if enabled():
        _install_profiling()
        return True
    return False


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def reset() -> None:
    """Return the plane to its pristine state (tests / between runs).

    Clears the default tracer, registry and profiler, removes the kernel
    hook, and reverts enablement to follow the environment variable.
    """
    global _forced
    _forced = None
    _uninstall_profiling()
    _default_tracer.clear()
    get_registry().clear()
    get_profiler().clear()
