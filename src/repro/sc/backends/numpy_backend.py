"""The numpy kernel engine: the reference kernels, unmodified.

:class:`KernelBackend` base-class bodies *are* the historical engine code
paths, so this subclass adds only its name, which labels kernel-profiler
rows and ``/metrics`` series.
"""

from __future__ import annotations

from repro.sc.backends.base import KernelBackend


class NumpyBackend(KernelBackend):
    """The engine's kernels — numpy on the calling thread, byte-identical
    to the pre-backend engine."""

    name = "numpy"
