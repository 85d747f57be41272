"""Plain-text reporting helpers for the benchmark harness.

Every bench prints rows shaped like the paper's tables; these helpers keep
the formatting in one place so the output of ``pytest benchmarks/`` is easy
to diff against the recorded results under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, TypeVar, Union

T = TypeVar("T")


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        if magnitude >= 100:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Format an aligned plain-text table."""
    str_rows: List[List[str]] = [[_stringify(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Format a GitHub-flavoured Markdown table."""
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def save_json_report(path: Union[str, Path], payload: Mapping) -> Path:
    """Write a benchmark result payload as pretty-printed JSON.

    Nested numpy scalars/arrays are converted to plain Python types so the
    files stay tool-agnostic.
    """

    def convert(obj):
        import numpy as np

        if isinstance(obj, Mapping):
            return {str(k): convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        return obj

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(convert(payload), indent=2, sort_keys=True))
    return path


class ProgressReporter:
    """Incremental progress line for long sweeps.

    A sweep iterates its configs through :meth:`track`, which calls
    ``start(total)``, then ``update(done, total)`` per completed config,
    then ``finish(summary)``.  On a TTY
    the line rewrites in place (carriage return); on a pipe/CI log it prints
    a line roughly every 10% so logs stay readable.  ``quiet=True`` turns
    the reporter into a no-op sink, which keeps call-sites branch-free.

    The reporter also keeps wall-clock time: ``start`` arms a monotonic
    timer, ``finish`` freezes it, and :attr:`elapsed_seconds` reads it at
    any point in between — callers reuse this for throughput summaries
    (e.g. the images/s line of ``python -m repro eval``) instead of timing
    the same span twice.
    """

    def __init__(self, label: str, stream: Optional[TextIO] = None, quiet: bool = False) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.quiet = quiet
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_decile = -1
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None

    def _emit(self, text: str, final: bool = False) -> None:
        if self.quiet:
            return
        if self._is_tty:
            end = "\n" if final else ""
            self.stream.write("\r\x1b[2K" + text + end)
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since ``start`` (frozen at ``finish``; 0 before)."""
        if self._started_at is None:
            return 0.0
        end = self._finished_at if self._finished_at is not None else time.monotonic()
        return max(0.0, end - self._started_at)

    def start(self, total: int) -> None:
        self._last_decile = -1
        self._started_at = time.monotonic()
        self._finished_at = None
        self._emit(f"{self.label}: 0/{total}")

    def update(self, done: int, total: int) -> None:
        if self._is_tty:
            self._emit(f"{self.label}: {done}/{total}")
            return
        decile = (10 * done) // max(1, total)
        if decile > self._last_decile or done == total:
            self._last_decile = decile
            self._emit(f"{self.label}: {done}/{total}")

    def finish(self, summary: str = "") -> None:
        if self._started_at is not None and self._finished_at is None:
            self._finished_at = time.monotonic()
        text = f"{self.label}: done" + (f" — {summary}" if summary else "")
        self._emit(text, final=True)

    def track(self, configs: Sequence[T]) -> Iterator[T]:
        """Yield ``configs`` in order, reporting each as done when the next is asked for."""
        self.start(len(configs))
        for done, config in enumerate(configs, 1):
            yield config
            self.update(done, len(configs))
        self.finish(f"{len(configs)} configs")
