"""The scenario assertion catalog: declarative checks over a run's outcome.

Every :class:`~repro.scenarios.specs.AssertionSpec` names an entry of
:data:`ASSERTION_CHECKS`; the runner condenses a finished run into one
:class:`ScenarioOutcome` and :func:`evaluate_assertions` turns the spec's
assertion list into pass/fail verdicts with the measured values attached —
what the CI scenario matrix gates on and what lands in the result JSON.

The catalog (suffix tells the comparison direction):

============================  ====================================================
``bit_identity``              every completed prediction equals the offline
                              per-image evaluation of the same ``(image, fault
                              index)`` pair — the paper's robustness claim; also
                              requires at least one completion (an all-failed run
                              must not vacuously pass)
``p50_ms_max``                median served latency ceiling (ms)
``p99_ms_max``                tail latency ceiling (ms)
``timeout_rate_max``          timeouts / offered ceiling
``reject_rate_max``           backpressure rejections / offered ceiling
``error_rate_max``            request errors / offered ceiling
``completed_min``             completed-request floor
``recovery_ms_max``           worst shard-kill recovery deadline (ms); passes
                              vacuously when the scenario kills nothing, fails if
                              any kill never recovered
``deaths_min``                engine-observed worker deaths floor (proves the
                              degradation schedule actually bit)
``uncached_after_kill_min``   floor on completed requests submitted at or
                              after the first shard kill that the engine, not
                              the prediction cache, answered (proves the kill
                              met live traffic; all-hit traffic reads 0)
``scale_actions_max``         autoscale up/retire action ceiling (flapping bound;
                              kill-driven respawns are excluded)
``replacements_min``          fabric re-place-and-route floor (proves dead-tile
                              recovery actually re-placed the schedule)
============================  ====================================================

This module is pure data + numpy; it imports nothing from the serving
stack so the spec layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["ASSERTION_CHECKS", "AssertionCheck", "ScenarioOutcome", "evaluate_assertions"]


@dataclass
class ScenarioOutcome:
    """Everything a finished scenario run exposes to the assertion layer."""

    offered: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Served latencies (ms) of completed requests.
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Completed predictions that differ from the offline reference.
    mismatches: int = 0
    #: Per-kill recovery times (ms); ``None`` entries never recovered.
    recovery_ms: Tuple[Optional[float], ...] = ()
    #: Engine-observed worker deaths (thread: pipeline rebuilds).
    deaths: int = 0
    #: Autoscale actions (scale-ups beyond kill respawns + retires).
    scale_actions: int = 0
    #: Fabric re-place-and-route cycles (dead-tile recoveries).
    replacements: int = 0
    #: Completed, engine-answered requests submitted at or after the first kill.
    uncached_after_kill: int = 0

    def rate(self, count: int) -> float:
        return count / self.offered if self.offered else 0.0

    def percentile(self, q: float) -> Optional[float]:
        if self.latencies_ms.size == 0:
            return None
        return float(np.percentile(np.asarray(self.latencies_ms, dtype=float), q))


@dataclass(frozen=True)
class AssertionCheck:
    """One catalog entry: how to measure and judge a check."""

    name: str
    needs_value: bool
    #: ``(outcome, value) -> (measured, passed)``; ``measured`` may be None
    #: when the run produced nothing to measure (which never passes a
    #: bounded check — absence of data must not read as compliance).
    evaluate: Callable[[ScenarioOutcome, Optional[float]], Tuple[Optional[float], bool]]


ASSERTION_CHECKS: Dict[str, AssertionCheck] = {}


def _register(name: str, needs_value: bool = True):
    def wrap(fn):
        ASSERTION_CHECKS[name] = AssertionCheck(name=name, needs_value=needs_value, evaluate=fn)
        return fn

    return wrap


@_register("bit_identity", needs_value=False)
def _bit_identity(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.mismatches), outcome.completed > 0 and outcome.mismatches == 0


@_register("p50_ms_max")
def _p50(outcome: ScenarioOutcome, value: Optional[float]):
    measured = outcome.percentile(50.0)
    return measured, measured is not None and measured <= float(value)


@_register("p99_ms_max")
def _p99(outcome: ScenarioOutcome, value: Optional[float]):
    measured = outcome.percentile(99.0)
    return measured, measured is not None and measured <= float(value)


@_register("timeout_rate_max")
def _timeout_rate(outcome: ScenarioOutcome, value: Optional[float]):
    measured = outcome.rate(outcome.timeouts)
    return measured, measured <= float(value)


@_register("reject_rate_max")
def _reject_rate(outcome: ScenarioOutcome, value: Optional[float]):
    measured = outcome.rate(outcome.rejected)
    return measured, measured <= float(value)


@_register("error_rate_max")
def _error_rate(outcome: ScenarioOutcome, value: Optional[float]):
    measured = outcome.rate(outcome.errors)
    return measured, measured <= float(value)


@_register("completed_min")
def _completed_min(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.completed), outcome.completed >= float(value)


@_register("recovery_ms_max")
def _recovery(outcome: ScenarioOutcome, value: Optional[float]):
    if not outcome.recovery_ms:
        return None, True  # nothing was killed: vacuously within deadline
    if any(r is None for r in outcome.recovery_ms):
        return None, False  # a kill never recovered
    measured = max(float(r) for r in outcome.recovery_ms)
    return measured, measured <= float(value)


@_register("deaths_min")
def _deaths_min(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.deaths), outcome.deaths >= float(value)


@_register("uncached_after_kill_min")
def _uncached_after_kill_min(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.uncached_after_kill), outcome.uncached_after_kill >= float(value)


@_register("scale_actions_max")
def _scale_actions(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.scale_actions), outcome.scale_actions <= float(value)


@_register("replacements_min")
def _replacements_min(outcome: ScenarioOutcome, value: Optional[float]):
    return float(outcome.replacements), outcome.replacements >= float(value)


def evaluate_assertions(assertions: Iterable[Any], outcome: ScenarioOutcome) -> List[Dict[str, Any]]:
    """Judge every assertion against ``outcome``.

    Returns one dict per assertion — ``{"check", "value", "measured",
    "passed"}`` — in spec order, JSON-able as-is (the ``assertions``
    section of a scenario result payload).
    """
    verdicts = []
    for spec in assertions:
        entry = ASSERTION_CHECKS[spec.check]
        measured, passed = entry.evaluate(outcome, spec.value)
        verdicts.append(
            {
                "check": spec.check,
                "value": spec.value,
                "measured": None if measured is None else float(measured),
                "passed": bool(passed),
            }
        )
    return verdicts
