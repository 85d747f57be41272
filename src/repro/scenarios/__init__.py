"""Declarative scenario / resilience layer for the serving tier.

A scenario is a frozen, JSON-round-trippable spec (``{"kind":
"serve/scenario"}``) composing three things:

* a **workload** — a recorded trace replay or a synthetic arrival
  process (Poisson, heavy-tail Pareto, flash-crowd, diurnal sawtooth)
  expanded deterministically from a seed;
* a **degradation schedule** — timed ``kill_shard`` / ``cache_loss`` /
  ``flip_storm`` / ``queue_burst`` events fired at request-ordinal
  fractions of the run;
* **assertions** — declarative checks (bit-identity vs offline eval,
  SLO ceilings, recovery deadlines, autoscale-flapping bounds) judged
  against the finished run.

:class:`ScenarioRunner` drives any :class:`~repro.serve.ServeSpec`
deployment through the public ``InferenceService``/``EngineProtocol``
seam and returns a JSON result payload with a per-phase
``ServiceStats`` timeline.  ``repro run`` sniffs scenario files like
deployments and routes them through ``repro scenario``, which drives a
fresh deployment on every run.
"""

from repro.scenarios.assertions import (
    ASSERTION_CHECKS,
    AssertionCheck,
    ScenarioOutcome,
    evaluate_assertions,
)
from repro.scenarios.runner import ScenarioError, ScenarioRunner
from repro.scenarios.specs import (
    ARRIVALS,
    EVENT_ACTIONS,
    SCENARIO_KIND,
    AssertionSpec,
    EventSpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.workload import (
    TRACE_KIND,
    Workload,
    generate_workload,
    load_trace,
    save_trace,
    workload_digest,
)

__all__ = [
    "ARRIVALS",
    "ASSERTION_CHECKS",
    "AssertionCheck",
    "AssertionSpec",
    "EVENT_ACTIONS",
    "EventSpec",
    "SCENARIO_KIND",
    "ScenarioError",
    "ScenarioOutcome",
    "ScenarioRunner",
    "ScenarioSpec",
    "TRACE_KIND",
    "Workload",
    "WorkloadSpec",
    "evaluate_assertions",
    "generate_workload",
    "load_trace",
    "save_trace",
    "workload_digest",
]
