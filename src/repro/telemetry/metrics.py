"""Labelled counters and gauges with Prometheus text exposition.

One :class:`MetricsRegistry` holds every metric the instrumentation plane
publishes: service request counters, cache hit/miss/store counts, engine
lifecycle counters (spawns, deaths, redispatches, autoscale actions,
fabric replacements) and the kernel profiler's per-kernel timings.  Two
read-outs of the same state:

* :meth:`MetricsRegistry.render_prometheus` — the standard text exposition
  format, served by the HTTP transport's ``GET /metrics`` route so any
  Prometheus-compatible scraper can watch a deployment,
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict, embedded in trace
  exports and usable from tests without a text parser.

Metrics here are *pull-published*: the serving layers keep their existing
plain-int counters (zero new cost on hot paths) and the scrape/summary
sites fold them into the registry via :func:`publish_snapshot` and the
metric ``set``/``inc`` APIs.  Nothing in this module feeds back into
compute, cache keys or fingerprints — telemetry is observational only.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_registry",
    "publish_snapshot",
]

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without the ``.0``."""
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in key)
    return "{" + body + "}"


class _Metric:
    """Shared machinery: one named metric holding per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._series: Dict[_LabelKey, Any] = {}
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing sample (``inc`` only)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; inc amount must be >= 0")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def set(self, value: float, **labels: Any) -> None:
        """Set the absolute value (for folding in externally-kept totals).

        Still monotone: lowering an existing sample raises, so a publisher
        that re-folds plain-int counters on every scrape cannot silently
        turn a counter into a gauge.
        """
        key = _label_key(labels)
        with self._lock:
            if float(value) < self._series.get(key, 0.0):
                raise ValueError(f"counter {self.name} cannot decrease")
            self._series[key] = float(value)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def _render(self) -> List[str]:
        lines = []
        with self._lock:
            for key in sorted(self._series):
                lines.append(f"{self.name}{_render_labels(key)} {_format_value(self._series[key])}")
        return lines

    def _snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [{"labels": dict(key), "value": value} for key, value in sorted(self._series.items())]


class Gauge(_Metric):
    """Point-in-time sample (set to anything, any direction)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    _render = Counter._render
    _snapshot = Counter._snapshot


class MetricsRegistry:
    """Get-or-create store of named metrics with one render/snapshot view."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help_text: str) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def render_prometheus(self) -> str:
        """The ``/metrics`` body: HELP/TYPE headers plus every sample line."""
        lines: List[str] = []
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            if metric.help_text:
                lines.append(f"# HELP {metric.name} {metric.help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view: metric name -> {kind, help, series}."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            name: {"kind": m.kind, "help": m.help_text, "series": m._snapshot()}
            for name, m in sorted(metrics.items())
        }

    def clear(self, prefix: str = "") -> None:
        """Drop every metric whose name starts with ``prefix`` (all of them by default)."""
        with self._lock:
            for name in [name for name in self._metrics if name.startswith(prefix)]:
                del self._metrics[name]


#: Process-wide default registry (what the HTTP ``/metrics`` route serves).
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _default_registry


def publish_snapshot(
    registry: MetricsRegistry, snapshot: Dict[str, Any], prefix: str = "repro", **labels: Any
) -> None:
    """Fold a nested numeric snapshot dict into gauges, one per scalar leaf.

    Keys join with ``_`` (``{"requests": {"completed": 3}}`` becomes gauge
    ``repro_requests_completed``); non-numeric and ``None`` leaves are
    skipped.  ``labels`` label every sample, so snapshots of like parts
    (one per shard) share gauge names.  This is how
    :meth:`ServiceStats.snapshot` (and engine lifecycle sub-dicts) become
    scrapeable without the stats layer knowing about the registry.
    """

    def walk(prefix_parts: List[str], node: Any) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                name = str(key).replace("-", "_").replace("/", "_").replace(".", "_")
                walk(prefix_parts + [name], value)
            return
        if isinstance(node, bool) or node is None:
            return
        if isinstance(node, (int, float)) and math.isfinite(float(node)):
            registry.gauge("_".join(prefix_parts)).set(float(node), **labels)

    walk([prefix], snapshot)
