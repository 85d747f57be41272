"""The kernel engine behind the packed SC simulation.

Every hot kernel of the engine (word-wise gate ops, popcount reductions,
Bernoulli/select plane generation, the FSM transition scan, BSN stages) is
a method of one process-wide :class:`NumpyBackend` instance, which the
engine reaches through :func:`active_backend`.  The seam exists for
observation, not selection: :func:`install_instrumentation` lets
:mod:`repro.telemetry.profiling` wrap the instance to count kernel calls.
"""

from __future__ import annotations

from repro.sc.backends.base import KernelBackend
from repro.sc.backends.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "active_backend",
    "install_instrumentation",
]

_BACKEND = NumpyBackend()

#: Optional instrumentation hook (``repro.telemetry`` kernel profiling):
#: a callable wrapping the backend instance.  ``None`` — the default —
#: keeps :func:`active_backend` on the raw instance with a single
#: ``is None`` check of overhead, which is the telemetry layer's
#: zero-cost-when-off contract at this seam.
_instrument = None


def install_instrumentation(wrapper) -> None:
    """Install (or with ``None`` remove) the backend instrumentation hook.

    ``wrapper`` receives the :class:`KernelBackend` instance on every
    :func:`active_backend` call and returns the instance to hand to the
    engine (typically a cached delegating proxy — see
    :mod:`repro.telemetry.profiling`).  Wrapped backends must stay
    bit-identical: the hook is observational only.
    """
    global _instrument
    _instrument = wrapper


def active_backend() -> KernelBackend:
    """The backend the engine's kernels are routed through.

    When an instrumentation hook is installed
    (:func:`install_instrumentation`), the instance passes through it;
    otherwise it is returned raw.
    """
    if _instrument is None:
        return _BACKEND
    return _instrument(_BACKEND)
