"""Span tracing with context propagation and Chrome-trace export.

One :class:`Tracer` collects *spans* (named, timed intervals) and
*instants* (point events) from every layer of a run — service submit,
batcher collection, engine execution, shard dispatch, worker compute,
scenario phases and chaos events — and exports them as:

* **Chrome trace event JSON** (:meth:`Tracer.to_chrome` /
  :meth:`Tracer.export`) — loadable directly in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``; spans render as
  nested slices per process/thread track, and cross-layer parentage is
  carried in each event's ``args``.
* **JSONL** (:meth:`Tracer.to_jsonl` / :meth:`Tracer.export_jsonl`) — one
  event object per line, greppable and streamable.

Context propagation is explicit and transport-agnostic: a span's
:meth:`~Tracer.context_of` is a two-key JSON dict
(``{"trace_id", "span_id"}``) that travels in function arguments, a
thread-local (:func:`push_context`, for executor hops the caller wraps)
or the sharded engine's pipe frame metadata; :meth:`Tracer.begin` accepts a
span *or* such a dict as ``parent``.  Worker processes run their own
:class:`Tracer` and ship finished event records back in the reply frame
for :meth:`Tracer.ingest`.

The clock is injectable (monotonic by default) so tests are
deterministic.  Timestamps are microseconds on the tracer's own clock;
workers ingest with their own process id, so tracks stay separated even
though clocks differ across processes.  Tracing never feeds back into
compute: no cache key, fingerprint or prediction reads tracer state.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

__all__ = ["Span", "Tracer", "current_context", "push_context"]


class Span:
    """One open (or finished) interval; created via :meth:`Tracer.begin`."""

    __slots__ = ("name", "cat", "trace_id", "span_id", "parent_id", "pid", "tid", "start_us", "dur_us", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        pid: int,
        tid: int,
        start_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid
        self.start_us = start_us
        self.dur_us: Optional[float] = None
        self.args: Dict[str, Any] = dict(args) if args else {}

    @property
    def finished(self) -> bool:
        return self.dur_us is not None

    def to_event(self) -> Dict[str, Any]:
        """The span as a Chrome ``"X"`` (complete) trace event."""
        args = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        args.update(self.args)
        return {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "X",
            "ts": self.start_us,
            "dur": self.dur_us if self.dur_us is not None else 0.0,
            "pid": self.pid,
            "tid": self.tid,
            "args": args,
        }


# Thread-local propagation slot: lets a caller hand its span context across
# an executor hop without changing callee signatures (the sharded engine's
# dispatch threads read it as the parent of their dispatch spans).
_context_slot = threading.local()


def current_context() -> Optional[Dict[str, str]]:
    """The context dict installed on this thread, or ``None``."""
    return getattr(_context_slot, "ctx", None)


@contextmanager
def push_context(ctx: Optional[Dict[str, str]]):
    """Install ``ctx`` as this thread's current trace context."""
    previous = getattr(_context_slot, "ctx", None)
    _context_slot.ctx = ctx
    try:
        yield
    finally:
        _context_slot.ctx = previous


class Tracer:
    """Collects spans/instants; thread-safe; exports Chrome JSON and JSONL.

    Parameters
    ----------
    clock:
        Seconds-valued monotonic time source; injectable for tests.
    pid:
        Process id stamped on events (defaults to ``os.getpid()``).
    enabled:
        When ``False`` every recording call is a cheap no-op (``begin``
        still returns a usable :class:`Span` so call sites stay
        branch-free); exports are empty.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        pid: Optional[int] = None,
        enabled: bool = True,
    ) -> None:
        self._clock = clock if clock is not None else time.monotonic
        self.pid = int(os.getpid() if pid is None else pid)
        self.enabled = bool(enabled)
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._id_counter = 0

    # ----------------------------------------------------------------- ids
    def _next_id(self, kind: str) -> str:
        with self._lock:
            self._id_counter += 1
            counter = self._id_counter
        return f"{kind}-{self.pid:x}-{counter:x}"

    def new_trace_id(self) -> str:
        return self._next_id("t")

    @staticmethod
    def context_of(span: Span) -> Dict[str, str]:
        """The propagatable identity of ``span`` (JSON-able, two keys)."""
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    # ------------------------------------------------------------- recording
    def now_us(self) -> float:
        return self._clock() * 1e6

    def begin(
        self,
        name: str,
        cat: str = "",
        parent: Optional[Union[Span, Dict[str, str]]] = None,
        **args: Any,
    ) -> Span:
        """Open a span.  ``parent`` is a :class:`Span`, a context dict from
        :meth:`context_of` (possibly received over IPC), or ``None`` for a
        fresh trace root."""
        if isinstance(parent, Span):
            trace_id: Optional[str] = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        elif isinstance(parent, dict):
            trace_id = parent.get("trace_id")
            parent_id = parent.get("span_id")
        else:
            trace_id = parent_id = None
        if trace_id is None:
            trace_id = self.new_trace_id()
        return Span(
            name=name,
            cat=cat,
            trace_id=trace_id,
            span_id=self._next_id("s"),
            parent_id=parent_id,
            pid=self.pid,
            tid=threading.get_ident() & 0xFFFFFFFF,
            start_us=self.now_us(),
            args=args,
        )

    def end(self, span: Span, **args: Any) -> Span:
        """Close ``span`` and record it (idempotent: re-ending is a no-op)."""
        if span.finished:
            return span
        span.dur_us = max(0.0, self.now_us() - span.start_us)
        if args:
            span.args.update(args)
        if self.enabled:
            with self._lock:
                self._events.append(span.to_event())
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "",
        parent: Optional[Union[Span, Dict[str, str]]] = None,
        **args: Any,
    ):
        """``with tracer.span("engine.run"): ...`` — begin/end with cleanup."""
        opened = self.begin(name, cat=cat, parent=parent, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(
        self,
        name: str,
        cat: str = "",
        parent: Optional[Union[Span, Dict[str, str]]] = None,
        **args: Any,
    ) -> None:
        """Record a point event (Chrome ``"i"``, global scope)."""
        if not self.enabled:
            return
        event_args: Dict[str, Any] = {}
        if isinstance(parent, Span):
            event_args.update(trace_id=parent.trace_id, parent_id=parent.span_id)
        elif isinstance(parent, dict):
            event_args.update({k: v for k, v in parent.items() if k in ("trace_id", "span_id")})
        event_args.update(args)
        event = {
            "name": name,
            "cat": cat or "repro",
            "ph": "i",
            "s": "g",
            "ts": self.now_us(),
            "pid": self.pid,
            "tid": threading.get_ident() & 0xFFFFFFFF,
            "args": event_args,
        }
        with self._lock:
            self._events.append(event)

    def ingest(self, records: Iterable[Dict[str, Any]]) -> int:
        """Adopt finished event records (e.g. shipped back from a worker
        process in its reply frame); returns how many were taken."""
        taken = 0
        if not self.enabled:
            return taken
        with self._lock:
            for record in records:
                if isinstance(record, dict) and "ph" in record and "name" in record:
                    self._events.append(dict(record))
                    taken += 1
        return taken

    # --------------------------------------------------------------- readout
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def to_chrome(self, other_data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The Perfetto-loadable JSON object format document."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": dict(other_data) if other_data else {},
        }

    def to_jsonl(self) -> str:
        """One JSON event object per line (trailing newline when non-empty)."""
        events = self.events()
        if not events:
            return ""
        return "\n".join(json.dumps(event, sort_keys=True) for event in events) + "\n"

    def export(self, path: Union[str, Path], other_data: Optional[Dict[str, Any]] = None) -> Path:
        """Write the Chrome-trace JSON document to ``path`` (dirs created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome(other_data=other_data), indent=2) + "\n")
        return path

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the JSONL event stream to ``path`` (dirs created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path
