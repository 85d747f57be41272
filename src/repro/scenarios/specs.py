"""Frozen, JSON-round-trippable scenario specs for the serving tier.

A *scenario* makes the paper's resilience claim executable: "SC inference
stays bit-identical under noise and component failure" is only a claim
until a file can state the traffic, the failures and the assertions — and
a runner can replay it deterministically.  :class:`ScenarioSpec` is that
file, in the format every spec shares (:mod:`repro.utils.specs`):

* **frozen dataclass** — immutable; derive variants with
  :meth:`ScenarioSpec.with_updates`.
* **exact JSON round-trip** — ``ScenarioSpec.from_json(spec.to_json())``
  reconstructs the spec field for field, and re-serialising produces the
  same bytes (the golden-file property ``tests/test_scenarios.py`` gates
  on for every shipped ``examples/specs/scenario_*.json``).
* **validation at construction** — a typo'd arrival process, an event
  window that ends before it starts, a ``"0.5"`` string for ``at_frac``
  or a ``flip_storm`` against a fault-free deployment all fail when the
  spec is *built* (or its file loaded), not an hour into a soak run.

The JSON envelope is ``{"kind": "serve/scenario", "params": {...}}`` with
four nested sections:

* ``deployment`` — the full :class:`~repro.serve.specs.ServeSpec` params
  of the service under test (the scenario drives it in-process, so the
  ``transport`` field is ignored),
* ``workload`` — :class:`WorkloadSpec`: a synthetic arrival process
  (Poisson, heavy-tail Pareto, flash-crowd, diurnal sawtooth) generated
  deterministically from a seed, or a recorded trace replay,
* ``events`` — :class:`EventSpec` entries: the timed degradation schedule
  (shard kills, prediction-cache loss, ``flip_prob`` storm windows,
  queue-saturation bursts), positioned by request-ordinal fraction so the
  same schedule scales with the workload size,
* ``assertions`` — :class:`AssertionSpec` entries from the catalog in
  :mod:`repro.scenarios.assertions` (bit-identity vs offline eval, SLO
  ceilings, recovery deadlines, autoscale-flapping bounds).

``repro run`` sniffs the ``kind`` tag and routes scenario files through
``repro scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.scenarios.assertions import ASSERTION_CHECKS
from repro.serve.specs import ServeSpec
from repro.utils.specs import Spec

__all__ = [
    "SCENARIO_KIND",
    "ARRIVALS",
    "EVENT_ACTIONS",
    "AssertionSpec",
    "EventSpec",
    "ScenarioSpec",
    "WorkloadSpec",
]

#: The ``kind`` tag of every serialised scenario spec (``repro run`` sniffs it).
SCENARIO_KIND = "serve/scenario"

#: Supported arrival processes (``"trace"`` replays a recorded file).
ARRIVALS = ("poisson", "pareto", "flashcrowd", "diurnal", "trace")

#: Supported degradation actions.
EVENT_ACTIONS = ("kill_shard", "cache_loss", "flip_storm", "queue_burst", "dead_tile")


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """One deterministic request stream: arrival process + image pool.

    ``requests`` arrivals are generated from ``seed`` alone
    (:func:`repro.scenarios.workload.generate_workload` is byte-stable for
    a fixed seed — a property tested across platforms), cycling over a
    pool of ``image_pool`` synthetic images drawn from ``image_seed``.
    ``rate`` is the mean offered rate in requests/s for every synthetic
    process; traces replay at their recorded timing and ignore it.

    Process-specific knobs: ``pareto_shape`` (> 1; smaller = heavier
    tail), the flash-crowd burst layout (``flash_bursts`` windows at
    ``flash_factor`` x rate covering ``flash_frac`` of the requests), and
    the diurnal sawtooth (period ``diurnal_period_s`` seconds, troughs at
    ``diurnal_low`` x rate).
    """

    arrival: str = "poisson"
    requests: int = 128
    rate: float = 200.0
    seed: int = 2024
    image_pool: int = 64
    image_seed: int = 7
    pareto_shape: float = 1.5
    flash_bursts: int = 2
    flash_factor: float = 8.0
    flash_frac: float = 0.2
    diurnal_period_s: float = 2.0
    diurnal_low: float = 0.25
    trace_path: Optional[str] = None

    def validate(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        for name in ("requests", "image_pool", "flash_bursts"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive int, got {getattr(self, name)!r}")
        for name in ("rate", "flash_factor", "diurnal_period_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.pareto_shape <= 1.0:
            # The mean inter-arrival gap is only finite above 1.
            raise ValueError(f"pareto_shape must be > 1, got {self.pareto_shape!r}")
        if not 0.0 < self.flash_frac < 1.0:
            raise ValueError(f"flash_frac must be in (0, 1), got {self.flash_frac!r}")
        if not 0.0 < self.diurnal_low <= 1.0:
            raise ValueError(f"diurnal_low must be in (0, 1], got {self.diurnal_low!r}")
        if self.arrival == "trace" and not self.trace_path:
            raise ValueError("arrival 'trace' requires trace_path")


@dataclass(frozen=True)
class EventSpec(Spec):
    """One timed degradation, positioned by request-ordinal fraction.

    ``at_frac`` in ``[0, 1]`` fires the event just before that fraction of
    the workload has been submitted (fractions, not wall-clock seconds, so
    the same schedule composes with any workload size or rate).  Actions:

    * ``kill_shard`` — SIGKILL a worker shard (process engine) or discard
      and rebuild the shared pipeline (thread engine); ``slot`` targets a specific
      shard, null kills the busiest.  ``every_frac`` repeats the kill
      periodically (soak scenarios).
    * ``cache_loss`` — simulated cache loss: the service's in-memory
      prediction cache forgets every entry.
    * ``flip_storm`` — from ``at_frac`` until ``until_frac``, submitted
      requests carry fault indices offset by ``index_offset``, selecting a
      fresh per-request bit-flip noise realisation through the engine's
      per-index fault seeding (requires a deployment with
      ``flip_prob > 0``); bit-identity stays checkable because offline
      evaluation applies the same offset.
    * ``queue_burst`` — inject ``count`` simultaneous extra requests on
      top of the paced stream (queue-saturation test; rejections are the
      expected backpressure response).
    * ``dead_tile`` — kill the fabric tile hosting schedule slot ``slot``
      (null kills slot 0) and assert recovery by re-place-and-route
      (requires the ``fabric`` engine; see
      :meth:`repro.fabric.engine.FabricEngine.kill_tile`).  The
      ``replacements_min`` assertion gates on the re-place count.
    """

    action: str = "kill_shard"
    at_frac: float = 0.5
    until_frac: Optional[float] = None
    every_frac: Optional[float] = None
    count: int = 32
    index_offset: int = 1000000
    slot: Optional[int] = None

    def validate(self) -> None:
        if self.action not in EVENT_ACTIONS:
            raise ValueError(f"action must be one of {EVENT_ACTIONS}, got {self.action!r}")
        if not 0.0 <= self.at_frac <= 1.0:
            raise ValueError(f"at_frac must be in [0, 1], got {self.at_frac!r}")
        if self.action == "flip_storm":
            if self.until_frac is None:
                raise ValueError("flip_storm requires until_frac (the storm window end)")
            if not self.at_frac < self.until_frac <= 1.0:
                raise ValueError(
                    f"until_frac must be in (at_frac, 1], got {self.until_frac!r}"
                )
        elif self.until_frac is not None:
            raise ValueError(f"until_frac only applies to flip_storm, not {self.action!r}")
        if self.every_frac is not None and not 0.0 < self.every_frac <= 1.0:
            raise ValueError(f"every_frac must be in (0, 1], got {self.every_frac!r}")
        if self.count <= 0:
            raise ValueError(f"count must be a positive int, got {self.count!r}")
        if self.index_offset <= 0:
            raise ValueError(f"index_offset must be a positive int, got {self.index_offset!r}")
        if self.slot is not None and self.slot < 0:
            raise ValueError(f"slot must be a non-negative int or null, got {self.slot!r}")


@dataclass(frozen=True)
class AssertionSpec(Spec):
    """One declarative pass/fail check over a scenario's outcome.

    ``check`` names an entry of the catalog in
    :mod:`repro.scenarios.assertions` (``bit_identity``, ``p99_ms_max``,
    ``timeout_rate_max``, ``recovery_ms_max``, ``deaths_min``,
    ``uncached_after_kill_min``, ``scale_actions_max``, ...).  ``value`` is the threshold for bounded
    checks and must be null for value-less ones (``bit_identity``).
    """

    check: str = "bit_identity"
    value: Optional[float] = None

    def validate(self) -> None:
        entry = ASSERTION_CHECKS.get(self.check)
        if entry is None:
            raise ValueError(
                f"unknown assertion check {self.check!r}; "
                f"expected one of {tuple(sorted(ASSERTION_CHECKS))}"
            )
        if entry.needs_value and self.value is None:
            raise ValueError(f"assertion {self.check!r} requires a value (its threshold)")
        if not entry.needs_value and self.value is not None:
            raise ValueError(f"assertion {self.check!r} takes no value")


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """One complete, reproducible resilience scenario.

    Composes a deployment under test, a deterministic workload, a timed
    degradation schedule and the assertions that make the run a gate.  See
    the module docstring for the JSON envelope and ``docs/scenarios.md``
    for the schema reference.
    """

    name: str = ""
    description: str = ""
    deployment: ServeSpec = field(default_factory=ServeSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    events: Tuple[EventSpec, ...] = ()
    assertions: Tuple[AssertionSpec, ...] = (AssertionSpec(),)

    kind = SCENARIO_KIND
    envelope = "kind"
    label = "scenario spec"

    def validate(self) -> None:
        if not self.assertions:
            raise ValueError("a scenario needs at least one assertion (it is a gate)")
        storms = [e for e in self.events if e.action == "flip_storm"]
        if storms and self.deployment.flip_prob <= 0.0:
            raise ValueError(
                "flip_storm events require a deployment with flip_prob > 0 "
                "(the storm offsets per-request fault indices; with faults off "
                "there is nothing to storm)"
            )
