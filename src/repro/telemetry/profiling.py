"""Kernel profiling at the :mod:`repro.sc.backends` seam.

Every hot kernel of the packed SC engine resolves through
:func:`repro.sc.backends.active_backend` on each call, which makes that
function the one seam from which *all* kernel traffic can be observed.
:class:`KernelProfiler` wraps backend instances in a delegating proxy that
records, per ``(backend, kernel)`` pair: call count, input word volume
(summed ``ndarray.size`` over array arguments) and wall time.

Cost policy (the observability contract):

* **off** (the default): nothing is wrapped.  The only residue is a
  single ``is None`` check inside ``active_backend`` — no proxy, no
  timing call, no dict lookup on any kernel invocation.
* **on** (:func:`install` — what :func:`repro.telemetry.enable` does):
  each kernel call pays one ``perf_counter`` pair and one locked dict
  update.  Results are bit-identical either way: the proxy forwards
  arguments untouched and never re-orders RNG consumption.

The profile is per process.  The sharded engine's workers run no SC kernel
(the served forward works on thermometer counts), so they install no
profiler and ship no profile back.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["KernelProfiler", "ProfiledBackend", "get_profiler", "install", "uninstall"]

#: The kernel methods of :class:`repro.sc.backends.base.KernelBackend`.
KERNEL_NAMES = (
    "and_words",
    "or_words",
    "xor_words",
    "invert_words",
    "xnor_words",
    "mux_words",
    "popcount_words",
    "popcount_reduce",
    "multiply_popcount",
    "bernoulli_plane",
    "select_plane",
    "fsm_trajectory",
    "fsm_forward_bytes",
    "bsn_stage",
)


def _volume(args: Tuple[Any, ...]) -> int:
    """Input word volume of one kernel call: summed sizes of array args."""
    total = 0
    for arg in args:
        if isinstance(arg, np.ndarray):
            total += int(arg.size)
    return total


class ProfiledBackend:
    """Delegating proxy over one :class:`KernelBackend` instance.

    Kernel methods are timed and counted; everything else (``name``)
    passes through, so the proxy is a drop-in anywhere a backend instance
    is expected.
    """

    __slots__ = ("_backend", "_profiler")

    def __init__(self, backend: Any, profiler: "KernelProfiler") -> None:
        object.__setattr__(self, "_backend", backend)
        object.__setattr__(self, "_profiler", profiler)

    def __getattr__(self, name: str):
        target = getattr(self._backend, name)
        if name not in KERNEL_NAMES:
            return target
        profiler = self._profiler
        backend_name = getattr(self._backend, "name", "unknown")

        def timed(*args: Any, **kwargs: Any):
            started = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                profiler.record(
                    backend_name, name, time.perf_counter() - started, _volume(args)
                )

        return timed


class KernelProfiler:
    """Per-``(backend, kernel)`` call/volume/time accumulator."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], List[float]] = {}
        self._lock = threading.Lock()
        self._proxies: Dict[int, ProfiledBackend] = {}

    # ------------------------------------------------------------- recording
    def record(self, backend: str, kernel: str, seconds: float, words: int) -> None:
        key = (str(backend), str(kernel))
        with self._lock:
            entry = self._records.get(key)
            if entry is None:
                entry = [0.0, 0.0, 0.0]  # calls, words, seconds
                self._records[key] = entry
            entry[0] += 1
            entry[1] += words
            entry[2] += seconds

    def wrap(self, backend: Any) -> ProfiledBackend:
        """The (cached) profiling proxy for ``backend``; idempotent."""
        if isinstance(backend, ProfiledBackend):
            return backend
        key = id(backend)
        with self._lock:
            proxy = self._proxies.get(key)
            if proxy is None:
                proxy = ProfiledBackend(backend, self)
                self._proxies[key] = proxy
            return proxy

    # --------------------------------------------------------------- readout
    def table(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Rows sorted by total wall time, heaviest first."""
        with self._lock:
            rows = [
                {
                    "backend": backend,
                    "kernel": kernel,
                    "calls": int(calls),
                    "words": int(words),
                    "seconds": seconds,
                }
                for (backend, kernel), (calls, words, seconds) in self._records.items()
            ]
        rows.sort(key=lambda r: (-r["seconds"], r["backend"], r["kernel"]))
        return rows[:top] if top is not None else rows

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-able full table (alias of :meth:`table` without a limit)."""
        return self.table()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


#: Process-wide profiler the install hook and exports share.
_default_profiler = KernelProfiler()


def get_profiler() -> KernelProfiler:
    return _default_profiler


def install() -> None:
    """Route every backend resolution through the default profiler."""
    from repro.sc import backends

    backends.install_instrumentation(_default_profiler.wrap)


def uninstall() -> None:
    """Remove the profiling hook (recorded data is kept until ``clear``)."""
    from repro.sc import backends

    backends.install_instrumentation(None)
