"""Compatibility home of :func:`array_digest` (now :mod:`repro.utils.digests`).

The paper's sweeps run serially in grid order where they are defined
(:mod:`repro.core.dse`, :mod:`repro.evaluation.sweeps`,
:mod:`repro.eval_pipeline`), so this package no longer holds a sweep
runner or a result cache.  It stays only because the benchmark harness
under ``perfbench/`` imports ``array_digest`` from here and is edited only
together with the benchmark it defines.
"""

from repro.utils.digests import array_digest

__all__ = ["array_digest"]
