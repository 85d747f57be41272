"""Load and summarize exported traces (the ``repro trace`` subcommand).

Works on both export formats of :class:`repro.telemetry.tracer.Tracer`:
the Chrome-trace JSON document (``{"traceEvents": [...], "otherData":
{...}}``) and the JSONL event stream.  The summary is pure data — the CLI
renders it as tables, tests assert on it directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["load_trace", "summarize_trace"]


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a trace file into ``{"traceEvents": [...], "otherData": {...}}``.

    ``.jsonl`` streams (one event per line) are wrapped into the same
    document shape with empty ``otherData``.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl":
        events = [json.loads(line) for line in text.splitlines() if line.strip()]
        return {"traceEvents": events, "otherData": {}}
    document = json.loads(text)
    if isinstance(document, list):  # bare Chrome event-array form
        return {"traceEvents": document, "otherData": {}}
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a trace file (no traceEvents)")
    document.setdefault("otherData", {})
    return document


def _span_stats(events: List[Dict[str, Any]], key_fn) -> List[Dict[str, Any]]:
    """Aggregate complete (``"X"``) events by ``key_fn``; sorted by time."""
    table: Dict[Any, List[float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = key_fn(event)
        if key is None:
            continue
        entry = table.setdefault(key, [0.0, 0.0, 0.0])  # count, total_us, max_us
        dur = float(event.get("dur", 0.0))
        entry[0] += 1
        entry[1] += dur
        entry[2] = max(entry[2], dur)
    rows = [
        {
            "key": key,
            "count": int(count),
            "total_ms": total_us / 1000.0,
            "mean_ms": (total_us / count) / 1000.0 if count else 0.0,
            "max_ms": max_us / 1000.0,
        }
        for key, (count, total_us, max_us) in table.items()
    ]
    rows.sort(key=lambda r: (-r["total_ms"], str(r["key"])))
    return rows


def summarize_trace(document: Dict[str, Any]) -> Dict[str, Any]:
    """One JSON-able digest of a trace document.

    Sections: event totals, per-span-name stats, per-process (shard
    worker) span stats and instant events.
    """
    events = [e for e in document.get("traceEvents", []) if isinstance(e, dict)]
    spans = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    pids = sorted({int(e.get("pid", 0)) for e in events})
    traces = {
        e.get("args", {}).get("trace_id")
        for e in spans
        if e.get("args", {}).get("trace_id") is not None
    }
    return {
        "events": len(events),
        "spans": len(spans),
        "instants": len(instants),
        "traces": len(traces),
        "processes": pids,
        "by_name": _span_stats(spans, lambda e: e.get("name")),
        "by_process": _span_stats(spans, lambda e: e.get("pid")),
        "instant_names": sorted({str(e.get("name")) for e in instants}),
    }
