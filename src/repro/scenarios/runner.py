"""Drive a deployment through a scenario: paced replay, chaos, assertions.

:class:`ScenarioRunner` is the execution layer behind ``repro scenario``
(and, via sniffing, ``repro run`` on a ``serve/scenario`` file).  One run:

1. The workload expands deterministically
   (:func:`~repro.scenarios.workload.generate_workload`) and the
   deployment builds through the normal
   :func:`~repro.serve.deploy.build_deployment` path — the scenario
   drives the *real* service and engine through the public
   :class:`~repro.serve.InferenceService`/``EngineProtocol`` seam, not a
   simulation of them.
2. A single scheduler coroutine submits requests at their recorded
   offsets (a bounded in-flight semaphore keeps a 100k-request soak from
   materialising 100k concurrent tasks), firing each degradation event
   just before the request ordinal its ``at_frac`` maps to.  Shard kills
   spawn a recovery watcher that measures time-to-respawn through the
   engine's ``workers`` property.
3. Every request records its terminal outcome (completed / rejected /
   timeout / error) and latency; a :class:`~repro.serve.stats.ServiceStats`
   snapshot is taken at start, at every event boundary, and at the end —
   the per-phase timeline the CI jobs upload.
4. After the service drains, the offline reference is computed: one
   batch-invariant :meth:`~repro.eval_pipeline.ScViTEvalPipeline.predict_batch`
   over the unique ``(image, fault index)`` pairs actually served (equal
   to per-image evaluation by PR 3's invariant), so ``bit_identity``
   checks every completed prediction against offline evaluation even when
   shards died or a flip storm rotated fault indices mid-trace.
5. The assertion catalog judges the outcome
   (:func:`~repro.scenarios.assertions.evaluate_assertions`) and
   everything lands in one JSON-able result payload.

The payload is deterministic in its *verdict-relevant* parts (workload
digest, predictions, mismatches); latencies and the timeline are honest
wall-clock measurements and vary run to run — which is why scenario specs
express SLOs as generous ceilings rather than exact values.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.scenarios.assertions import ScenarioOutcome, evaluate_assertions
from repro.scenarios.specs import EventSpec, ScenarioSpec
from repro.scenarios.workload import Workload, generate_workload, workload_digest
from repro.telemetry.logging import get_logger

__all__ = ["ScenarioError", "ScenarioRunner"]

_log = get_logger("scenario")

#: How long a recovery watcher waits for killed capacity to return.
RECOVERY_DEADLINE_S = 30.0


class ScenarioError(RuntimeError):
    """A scenario could not run as specified (e.g. missing chaos hook)."""


class ScenarioRunner:
    """Execute one :class:`ScenarioSpec` and judge its assertions.

    Parameters
    ----------
    spec:
        The scenario to run.  Its embedded deployment is built with
        :func:`~repro.serve.deploy.build_deployment` (the ``transport``
        field is ignored — the runner submits in-process).
    base_dir:
        Directory relative trace paths resolve against (typically the
        scenario file's directory).
    deployment:
        Test seam: a pre-built :class:`~repro.serve.deploy.Deployment` to
        drive instead of building one from the spec (stub engines make
        event/accounting tests fast).
    offline_predict:
        Test seam: ``(images, indices) -> predictions`` reference oracle
        for ``bit_identity``.  Defaults to a fresh offline pipeline built
        from the same :class:`~repro.serve.engine.ReplicaFactory` recipe
        the deployment's replicas use.
    max_inflight:
        Bound on concurrently awaited submissions (soak-run memory guard).
    trace_dir:
        Directory trace exports land in when telemetry is on (via the
        deployment's ``telemetry`` field or ``REPRO_TELEMETRY``); ``None``
        skips export.  The trace is a side artifact: it never enters the
        result payload.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        base_dir: Optional[Any] = None,
        deployment: Optional[Any] = None,
        offline_predict: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        max_inflight: int = 4096,
        trace_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.spec = spec
        self.base_dir = base_dir
        self._deployment = deployment
        self._offline_predict = offline_predict
        self.max_inflight = int(max_inflight)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.last_trace_path: Optional[Path] = None

    # ------------------------------------------------------------------- run
    def run(self) -> Dict[str, Any]:
        """Execute the scenario; returns the JSON-able result payload."""
        # Spec-driven telemetry must be live before the deployment builds
        # (also covers the pre-built-deployment test seam, which skips
        # build_deployment's own enablement).
        with telemetry.run_scope(force_on=self.spec.deployment.telemetry):
            workload = generate_workload(self.spec.workload, base_dir=self.base_dir)
            images = self._image_pool()
            result = asyncio.run(self._drive(workload, images))
            self._export_trace()
        return self._finalise(workload, images, result)

    def _export_trace(self) -> None:
        """Write the run's trace (Chrome JSON + JSONL) into ``trace_dir``."""
        self.last_trace_path = None
        if self.trace_dir is None or not telemetry.enabled():
            return
        tracer = telemetry.get_tracer()
        if len(tracer) == 0:
            return
        stem = (self.spec.name or "scenario").replace("/", "_")
        other_data = {
            "scenario": self.spec.name,
            "metrics": telemetry.get_registry().snapshot(),
        }
        self.last_trace_path = tracer.export(self.trace_dir / f"{stem}.trace.json", other_data=other_data)
        tracer.export_jsonl(self.trace_dir / f"{stem}.trace.jsonl")
        _log.info("trace_exported", path=str(self.last_trace_path), events=len(tracer))

    # ------------------------------------------------------------ components
    def _image_pool(self) -> np.ndarray:
        """The pool of synthetic images requests cycle over.

        Drawn from the deployment's dataset generator under the workload's
        own ``image_seed``, so the pool is independent of the calibration
        split but shaped exactly like the images the model serves.
        """
        from repro.training.datasets import synthetic_cifar10, synthetic_cifar100

        dataset_fn = {"cifar10": synthetic_cifar10, "cifar100": synthetic_cifar100}[
            self.spec.deployment.dataset
        ]
        _, test = dataset_fn(
            train_size=1,
            test_size=self.spec.workload.image_pool,
            seed=self.spec.workload.image_seed,
        )
        return test.images

    @staticmethod
    def _expand_events(events, n: int) -> List[Tuple[int, EventSpec]]:
        """``(request ordinal, event)`` schedule, sorted; repeats expanded."""
        schedule: List[Tuple[int, EventSpec]] = []
        for event in events:
            fracs = [event.at_frac]
            if event.every_frac is not None:
                frac = event.at_frac + event.every_frac
                while frac < 1.0:
                    fracs.append(frac)
                    frac += event.every_frac
            for frac in fracs:
                schedule.append((min(n - 1, int(round(frac * n))), event))
        schedule.sort(key=lambda item: item[0])
        return schedule

    def _storm_offset(self, ordinal: int, n: int) -> int:
        """Fault-index offset active at ``ordinal`` (0 outside storm windows)."""
        offset = 0
        for event in self.spec.events:
            if event.action != "flip_storm":
                continue
            start = int(round(event.at_frac * n))
            end = int(round(event.until_frac * n))
            if start <= ordinal < end:
                offset += event.index_offset
        return offset

    # ---------------------------------------------------------- async driver
    async def _drive(self, workload: Workload, images: np.ndarray) -> Dict[str, Any]:
        from repro.serve.service import RequestTimeout, ServiceOverloaded

        spec = self.spec
        if self._deployment is not None:
            deployment = self._deployment
        else:
            from repro.serve.deploy import build_deployment

            deployment = build_deployment(spec.deployment)

        tracer = telemetry.get_tracer()
        trace_on = telemetry.enabled()
        run_span = (
            tracer.begin("scenario.run", cat="scenario", scenario=spec.name) if trace_on else None
        )

        n = len(workload)
        schedule = self._expand_events(spec.events, n)
        records: List[Dict[str, Any]] = []
        burst_records: List[Dict[str, Any]] = []
        events_log: List[Dict[str, Any]] = []
        timeline: List[Dict[str, Any]] = []
        recoveries: List[Optional[float]] = []
        recovery_tasks: List[asyncio.Task] = []
        tasks: List[asyncio.Task] = []
        loop = asyncio.get_running_loop()
        inflight = asyncio.Semaphore(self.max_inflight)

        async def one(ordinal: int, pool_idx: int, fault_idx: int, bucket: List[Dict[str, Any]]) -> None:
            record: Dict[str, Any] = {"ordinal": ordinal, "pool": pool_idx, "index": fault_idx}
            try:
                result = await deployment.service.submit(images[pool_idx], index=fault_idx)
                record.update(
                    outcome="completed",
                    prediction=int(result.prediction),
                    cached=bool(result.cached),
                    latency_ms=float(result.latency_ms),
                )
            except ServiceOverloaded:
                record["outcome"] = "rejected"
            except RequestTimeout:
                record["outcome"] = "timeout"
            except Exception as exc:  # noqa: BLE001 - a failed request is data, not a crash
                record.update(outcome="error", detail=repr(exc))
            finally:
                bucket.append(record)
                inflight.release()

        async def watch_recovery(
            engine: Any,
            baseline: int,
            deaths_before: int,
            entry: Dict[str, Any],
            span: Optional[Any] = None,
        ) -> None:
            """Measure kill -> capacity-restored.

            Recovered means the engine both *observed* the death (its
            ``deaths`` counter moved past ``deaths_before``) and holds at
            least ``baseline`` workers again.  ``ensure_capacity`` (when the
            engine has it) is polled so recovery does not wait for the next
            cache miss to dispatch; the thread engine counts the kill
            synchronously and never drops capacity, so it recovers on the
            first poll.
            """
            killed_at = loop.time()
            ensure = getattr(engine, "ensure_capacity", None)
            while loop.time() - killed_at < RECOVERY_DEADLINE_S:
                if callable(ensure):
                    ensure()
                workers = int(getattr(engine, "workers", baseline))
                observed = int(getattr(engine, "deaths", deaths_before + 1)) > deaths_before
                if observed and workers >= baseline:
                    recovery = (loop.time() - killed_at) * 1000.0
                    entry["recovery_ms"] = recovery
                    recoveries.append(recovery)
                    if span is not None:
                        tracer.end(span, recovered=True, recovery_ms=recovery)
                    _log.info("recovered", recovery_ms=round(recovery, 3))
                    return
                await asyncio.sleep(0.005)
            entry["recovery_ms"] = None
            recoveries.append(None)
            if span is not None:
                tracer.end(span, recovered=False)
            _log.warning("recovery_deadline_missed", deadline_s=RECOVERY_DEADLINE_S)

        def snapshot_entry(label: str, at_request: int, started: float) -> Dict[str, Any]:
            snap = deployment.service.stats_snapshot()
            entry = {
                "label": label,
                "at_request": at_request,
                "t_s": round(loop.time() - started, 6),
                "completed": snap["requests"]["completed"],
                "rejected": snap["requests"]["rejected"],
                "timeouts": snap["requests"]["timeouts"],
                "errors": snap["requests"]["errors"],
                "queue_depth": snap["requests"]["queue_depth"],
                "throughput_per_s": snap["throughput_per_s"],
                "p99_ms": snap["latency"]["p99_ms"],
                "mean_batch_size": snap["batching"]["mean_batch_size"],
                "cache_hits": snap["cache"]["hits"],
            }
            engine_snap = snap.get("engine")
            if isinstance(engine_snap, dict) and "lifecycle" in engine_snap:
                entry["lifecycle"] = dict(engine_snap["lifecycle"])
            return entry

        async def fire_event(event: EventSpec, ordinal: int, started: float) -> None:
            entry: Dict[str, Any] = {
                "action": event.action,
                "at_request": ordinal,
                "t_s": round(loop.time() - started, 6),
            }
            _log.info("event_fired", action=event.action, at_request=ordinal)
            # Kill events get a span covering injection -> recovery (the
            # recovery watcher closes it); everything else is an instant.
            event_span = None
            if trace_on:
                if event.action in ("kill_shard", "dead_tile"):
                    event_span = tracer.begin(
                        f"chaos.{event.action}", cat="scenario", parent=run_span, at_request=ordinal
                    )
                else:
                    tracer.instant(
                        f"event.{event.action}", cat="scenario", parent=run_span, at_request=ordinal
                    )
            if event.action == "kill_shard":
                kill = getattr(deployment.engine, "kill_shard", None)
                if not callable(kill):
                    raise ScenarioError(
                        f"engine {type(deployment.engine).__name__} has no kill_shard "
                        "chaos hook; kill_shard events need one"
                    )
                engine = deployment.engine
                min_shards = getattr(engine, "min_shards", None)
                baseline = int(engine.workers)
                if min_shards is not None:
                    # An autoscaled engine only respawns back up to min_shards;
                    # demanding the pre-kill (possibly scaled-up) count would
                    # make recovery unreachable.
                    baseline = min(baseline, int(min_shards))
                deaths_before = int(getattr(engine, "deaths", 0))
                entry["slot"] = kill(event.slot)
                recovery_tasks.append(
                    asyncio.create_task(
                        watch_recovery(engine, baseline, deaths_before, entry, span=event_span)
                    )
                )
                event_span = None  # the watcher owns (and closes) it now
            elif event.action == "dead_tile":
                kill = getattr(deployment.engine, "kill_tile", None)
                if not callable(kill):
                    raise ScenarioError(
                        f"engine {type(deployment.engine).__name__} has no kill_tile "
                        "chaos hook; dead_tile events need the fabric engine"
                    )
                engine = deployment.engine
                baseline = int(engine.workers)
                deaths_before = int(getattr(engine, "deaths", 0))
                # Recovery is the re-place-and-route: deaths bumps once the
                # tile is replaced, workers never drop (the new block is
                # swapped into the shared pipeline), so the same watcher applies.
                entry["tile"] = kill(event.slot)
                recovery_tasks.append(
                    asyncio.create_task(
                        watch_recovery(engine, baseline, deaths_before, entry, span=event_span)
                    )
                )
                event_span = None  # the watcher owns (and closes) it now
            elif event.action == "cache_loss":
                if deployment.cache is not None:
                    entry["dropped_entries"] = len(deployment.cache)
                    deployment.cache.clear()
                else:
                    entry["dropped_entries"] = 0
            elif event.action == "flip_storm":
                entry["until_request"] = min(n, int(round(event.until_frac * n)))
                entry["index_offset"] = event.index_offset
            elif event.action == "queue_burst":
                # Simultaneous extras on top of the paced stream; rejections
                # here are the backpressure behaviour under test.
                offset = self._storm_offset(ordinal, n)
                for extra in range(event.count):
                    pool_idx = extra % len(images)
                    await inflight.acquire()
                    tasks.append(
                        asyncio.create_task(one(ordinal, pool_idx, pool_idx + offset, burst_records))
                    )
                entry["count"] = event.count
            if event_span is not None:
                # Non-recovery chaos (or a kill with nothing to kill): the
                # span covers just the injection itself.
                tracer.end(event_span)
            events_log.append(entry)
            timeline.append(snapshot_entry(f"event:{event.action}", ordinal, started))

        async with deployment:
            started = loop.time()
            timeline.append(snapshot_entry("start", 0, started))
            submit_span = (
                tracer.begin("scenario.submit", cat="scenario", parent=run_span, requests=n)
                if trace_on
                else None
            )
            pending_events = list(schedule)
            for i in range(n):
                while pending_events and pending_events[0][0] <= i:
                    ordinal, event = pending_events.pop(0)
                    await fire_event(event, ordinal, started)
                due = started + float(workload.arrivals_s[i])
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                pool_idx = int(workload.image_indices[i])
                await inflight.acquire()
                tasks.append(
                    asyncio.create_task(one(i, pool_idx, pool_idx + self._storm_offset(i, n), records))
                )
            for ordinal, event in pending_events:
                await fire_event(event, ordinal, started)
            if submit_span is not None:
                tracer.end(submit_span)
            drain_span = (
                tracer.begin("scenario.drain", cat="scenario", parent=run_span) if trace_on else None
            )
            if tasks:
                await asyncio.gather(*tasks)
            if recovery_tasks:
                await asyncio.gather(*recovery_tasks)
            if drain_span is not None:
                tracer.end(drain_span)
            elapsed = loop.time() - started
            timeline.append(snapshot_entry("end", n, started))
            final_stats = deployment.service.stats_snapshot()
            engine = deployment.engine
            deaths = int(getattr(engine, "deaths", 0))
            replacements = int(getattr(engine, "replacements", 0))
            min_shards = getattr(engine, "min_shards", None)
            if min_shards is not None:
                spawned = int(getattr(engine, "spawned", 0))
                retired = int(getattr(engine, "retired_count", 0))
                # Autoscale actions exclude the initial spawns and the
                # respawns that replace killed shards — those are recovery,
                # not flapping.
                scale_actions = max(0, spawned - int(min_shards) - deaths) + retired
            else:
                scale_actions = 0

        if run_span is not None:
            tracer.end(run_span, deaths=deaths, scale_actions=scale_actions)

        return {
            "records": records,
            "burst_records": burst_records,
            "events": events_log,
            "timeline": timeline,
            "final_stats": final_stats,
            "elapsed_s": elapsed,
            "deaths": deaths,
            "replacements": replacements,
            "scale_actions": scale_actions,
            "recoveries": recoveries,
        }

    # ------------------------------------------------------------- reference
    def _offline_reference(
        self, images: np.ndarray, completed: List[Dict[str, Any]]
    ) -> Dict[Tuple[int, int], int]:
        """Offline predictions for every unique ``(pool, fault index)`` served.

        One batched forward over the unique pairs equals per-image offline
        evaluation by the batch-invariance contract, so this is both the
        cheap and the strict reference.
        """
        pairs = sorted({(r["pool"], r["index"]) for r in completed})
        if not pairs:
            return {}
        predict = self._offline_predict
        if predict is None:
            from repro.serve.deploy import build_replica_factory

            pipeline = build_replica_factory(self.spec.deployment)()
            predict = pipeline.predict_batch
        pools = np.asarray([p for p, _ in pairs], dtype=np.int64)
        indices = np.asarray([i for _, i in pairs], dtype=np.int64)
        predictions = np.asarray(predict(images[pools], indices))
        return {pair: int(pred) for pair, pred in zip(pairs, predictions)}

    # -------------------------------------------------------------- finalise
    def _finalise(
        self, workload: Workload, images: np.ndarray, run: Dict[str, Any]
    ) -> Dict[str, Any]:
        all_records = run["records"] + run["burst_records"]
        completed = [r for r in all_records if r.get("outcome") == "completed"]
        reference = self._offline_reference(images, completed)
        mismatches = sum(
            1 for r in completed if reference[(r["pool"], r["index"])] != r["prediction"]
        )

        def count(outcome: str) -> int:
            return sum(1 for r in all_records if r.get("outcome") == outcome)

        kills = [e["at_request"] for e in run["events"] if e["action"] == "kill_shard"]
        uncached_after_kill = (
            sum(1 for r in completed if not r.get("cached") and r["ordinal"] >= min(kills)) if kills else 0
        )

        outcome = ScenarioOutcome(
            offered=len(all_records),
            completed=len(completed),
            rejected=count("rejected"),
            timeouts=count("timeout"),
            errors=count("error"),
            latencies_ms=np.asarray([r["latency_ms"] for r in completed], dtype=float),
            mismatches=mismatches,
            recovery_ms=tuple(run["recoveries"]),
            deaths=run["deaths"],
            scale_actions=run["scale_actions"],
            replacements=run.get("replacements", 0),
            uncached_after_kill=uncached_after_kill,
        )
        verdicts = evaluate_assertions(self.spec.assertions, outcome)
        latency = {
            "p50_ms": outcome.percentile(50.0),
            "p95_ms": outcome.percentile(95.0),
            "p99_ms": outcome.percentile(99.0),
            "mean_ms": float(np.mean(outcome.latencies_ms)) if completed else None,
            "max_ms": float(np.max(outcome.latencies_ms)) if completed else None,
        }
        return {
            "kind": "serve/scenario-result",
            "name": self.spec.name,
            "scenario": self.spec.to_dict(),
            "workload": {
                "arrival": self.spec.workload.arrival,
                "requests": len(workload),
                "duration_s": workload.duration_s,
                "digest": workload_digest(workload),
            },
            "requests": {
                "offered": outcome.offered,
                "completed": outcome.completed,
                "rejected": outcome.rejected,
                "timeouts": outcome.timeouts,
                "errors": outcome.errors,
                "cached": sum(1 for r in completed if r.get("cached")),
                "uncached_after_kill": uncached_after_kill,
                "bit_mismatches": mismatches,
            },
            "latency": latency,
            "elapsed_s": run["elapsed_s"],
            "throughput_per_s": outcome.completed / run["elapsed_s"] if run["elapsed_s"] > 0 else 0.0,
            "deaths": outcome.deaths,
            "replacements": outcome.replacements,
            "scale_actions": outcome.scale_actions,
            "recoveries_ms": list(outcome.recovery_ms),
            "events": run["events"],
            "timeline": run["timeline"],
            "final_stats": run["final_stats"],
            "assertions": verdicts,
            "ok": all(v["passed"] for v in verdicts),
        }
