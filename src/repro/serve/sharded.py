"""Multi-process sharded inference: per-process replicas behind one service.

:class:`~repro.serve.engine.PipelineEngine` is a thread pool inside one
Python process — its worker threads contend on the GIL everywhere numpy does not
release it, so one process caps throughput regardless of core count.
:class:`ShardedProcessEngine` is the scale-out tier behind the same
:class:`~repro.serve.engine.EngineProtocol` seam: N worker *processes*,
each owning a full pipeline replica built from a pickled
:class:`~repro.serve.engine.ReplicaFactory`, fed over
``multiprocessing.Pipe`` with one pickled frame per message (one
``send_bytes`` per micro-batch, one per reply).

Design points:

* **dispatch threads, compute processes** — the engine's ``executor`` is a
  small thread pool whose threads only serialise/route/deserialise; each
  dispatch picks the least-loaded live shard, so the service's batch loop
  is unchanged and micro-batches from one burst spread across shards.
* **worker-death recovery** — dispatchers poll the worker while waiting,
  so a SIGKILLed (or wedged past ``DISPATCH_TIMEOUT_S``) shard is detected
  mid-request; the shard is respawned and the in-flight micro-batch
  re-dispatched to a surviving shard.  Predictions are a pure function of
  ``(images, indices)``, so a re-dispatch is bit-identical by
  construction — the serve bit-identity guarantee survives crashes.
* **queue-depth autoscaling** — the service reports its backlog through
  :meth:`ShardedProcessEngine.observe_load`; sustained depth spawns spare
  shards up to ``max_shards``, an idle queue retires them back to the
  baseline.  The service re-syncs its worker slots against
  ``engine.workers`` every batch, so new shards take traffic immediately.
* **per-shard counters** — every shard counts the micro-batches and
  images it served and its errors; :meth:`stats_snapshot` reports them
  per live shard.  Request-level accounting (latency, cache hits) lives
  once, in the service's :class:`~repro.serve.stats.ServiceStats`, and
  per-shard dispatch latency in the ``shard.dispatch`` spans.
* **orphan-proof workers** — a worker waits on its parent's death as
  well as its pipe, so a SIGKILLed serving process takes its shards with
  it (a forked sibling holding the pipe's parent end keeps EOF from
  arriving on the pipe alone).

Worker errors are deliberately *not* retried: a raising
``predict_batch`` is deterministic (same batch would raise on every
shard), so the error propagates to the request futures instead of
cycling through — only process death and wedging re-dispatch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.serve.engine import ReplicaFactory, pipeline_fingerprint
from repro.telemetry.tracer import Tracer, current_context

__all__ = [
    "ShardedProcessEngine",
    "pack_frame",
    "unpack_frame",
]


# --------------------------------------------------------------------------
# Frames: the request/response wire format
# --------------------------------------------------------------------------


def pack_frame(op: str, arrays: Optional[Dict[str, np.ndarray]] = None, **meta: Any) -> bytes:
    """One IPC frame: ``op`` + named numpy arrays + metadata, pickled.

    Frames only cross the anonymous pipe between the engine and the worker
    processes it started itself, and ``multiprocessing`` already pickles
    the :class:`~repro.serve.engine.ReplicaFactory` into those same
    children, so unpickling a frame trusts no process the engine does not
    already trust.  Arrays ride pickle protocol 5 as raw buffers, with
    dtype and shape intact.
    """
    return pickle.dumps((op, dict(arrays or {}), meta), protocol=pickle.HIGHEST_PROTOCOL)


def unpack_frame(blob: bytes):
    """Inverse of :func:`pack_frame` -> ``(op, arrays, meta)``."""
    op, arrays, meta = pickle.loads(blob)
    return op, arrays, meta


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------


def _shard_main(conn, factory: ReplicaFactory) -> None:
    """Worker-process loop: build one replica, serve predict frames until stop.

    Runs in the child, which builds its replica from the factory it was
    handed and serves every frame from that one pipeline: a forward writes
    no shared state, and a process shares no memory with its siblings.
    Bit-identity across shards follows from :class:`ReplicaFactory`
    determinism.

    The loop waits on the parent's death as well as on the pipe: forked
    siblings inherit the pipe's parent end, so a parent killed without a
    ``stop`` frame never shows up as EOF here, and the shard would
    outlive it.
    """
    tracer: Optional[Tracer] = None
    try:
        pipeline = factory()
        conn.send_bytes(pack_frame("ready", pid=os.getpid()))
        watched = [conn, mp.parent_process().sentinel]
        while True:
            if conn not in wait(watched):
                break  # the parent died without sending stop
            op, arrays, meta = unpack_frame(conn.recv_bytes())
            if op == "stop":
                break
            if op != "predict":  # protocol error: surface, keep serving
                conn.send_bytes(pack_frame("error", job=meta.get("job"), error=f"unknown op {op!r}"))
                continue
            # The parent attaches a trace context only when telemetry is on;
            # its presence is the worker's whole enablement signal, so the
            # child needs no environment or spec plumbing of its own.
            ctx = meta.get("trace")
            span = None
            if ctx is not None:
                if tracer is None:
                    tracer = Tracer()
                span = tracer.begin(
                    "shard.predict",
                    cat="worker",
                    parent=ctx,
                    batch_size=int(len(arrays.get("indices", ()))),
                )
            try:
                predictions = pipeline.predict_batch(arrays["images"], arrays["indices"])
                extra = {}
                if span is not None:
                    tracer.end(span)
                    extra = {"spans": tracer.events()}
                    tracer.clear()
                conn.send_bytes(
                    pack_frame(
                        "result",
                        {"predictions": np.asarray(predictions, dtype=np.int64)},
                        job=meta["job"],
                        **extra,
                    )
                )
            except Exception as exc:  # deterministic failure -> report, don't die
                if span is not None:
                    tracer.end(span, outcome="error")
                    tracer.clear()
                conn.send_bytes(
                    pack_frame("error", job=meta["job"], error=f"{type(exc).__name__}: {exc}")
                )
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away (or is tearing down); exit quietly
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ShardDied(RuntimeError):
    """Internal: the target worker process died or wedged mid-dispatch."""


class _Shard:
    """Parent-side handle of one worker process."""

    __slots__ = (
        "slot", "generation", "process", "conn", "lock", "batches", "images", "errors",
        "in_flight", "dead", "ready", "retired",
    )

    def __init__(self, slot: int, generation: int, process, conn) -> None:
        self.slot = slot
        self.generation = generation
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()  # serialises use of `conn`
        self.batches = 0  # micro-batches answered
        self.images = 0  # images in those micro-batches
        self.errors = 0  # worker errors plus this shard's own death
        self.in_flight = 0
        self.dead = False
        self.ready = False
        self.retired = False

    @property
    def label(self) -> str:
        return f"{self.slot}/gen{self.generation}"

    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------

#: Worker start method: ``fork`` where available (the :mod:`repro.runner`
#: policy), since replicas ship pickled either way.
START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
#: Seconds the workers get to answer the ready handshake.
START_TIMEOUT_S = 120.0
#: Seconds a worker may stay silent on one micro-batch before it is wedged.
DISPATCH_TIMEOUT_S = 120.0


class ShardedProcessEngine:
    """N worker processes with per-process replicas, one engine surface.

    Parameters
    ----------
    replica_factory:
        Picklable :class:`~repro.serve.engine.ReplicaFactory`; each worker
        process calls it once at startup to build its replica.  Its
        ``flip_prob`` and ``image_shape()`` become the engine's, as in
        :class:`~repro.serve.engine.PipelineEngine`.
    shards:
        Baseline shard count (the autoscaler never goes below it).
    max_shards:
        Autoscale ceiling; defaults to ``shards`` (autoscaling off).
    scale_up_queue_depth:
        Queue depth reported via :meth:`observe_load` at which a spare
        shard is spawned (subject to ``scale_cooldown_s``).
    scale_cooldown_s:
        Minimum seconds between scaling actions, so one burst does not
        fork a shard per batch.
    respawn:
        Replace dead shards automatically (disable only in tests that
        assert on death handling itself).
    version:
        Cache-version token; the fingerprint of a replica built in the
        parent when omitted.

    Workers start with ``fork`` where available (:data:`START_METHOD`) and
    must answer the ready handshake within :data:`START_TIMEOUT_S`; a
    worker silent on one micro-batch for :data:`DISPATCH_TIMEOUT_S` is
    treated as wedged: killed, respawned, and the batch re-dispatched.
    """

    def __init__(
        self,
        replica_factory: ReplicaFactory,
        shards: int = 2,
        max_shards: Optional[int] = None,
        scale_up_queue_depth: int = 16,
        scale_cooldown_s: float = 2.0,
        respawn: bool = True,
        version: Optional[str] = None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if max_shards is not None and max_shards < shards:
            raise ValueError(f"max_shards must be >= shards ({shards})")
        if scale_up_queue_depth <= 0:
            raise ValueError("scale_up_queue_depth must be positive")
        self._factory = replica_factory
        self.min_shards = int(shards)
        self.max_shards = int(max_shards) if max_shards is not None else int(shards)
        self.scale_up_queue_depth = int(scale_up_queue_depth)
        self.scale_cooldown_s = float(scale_cooldown_s)
        self.respawn = bool(respawn)
        self.flip_prob = float(replica_factory.flip_prob)
        self.image_shape = tuple(replica_factory.image_shape())
        self._ctx = None
        self.executor: Optional[ThreadPoolExecutor] = None
        self._shards: Dict[int, _Shard] = {}
        self._graveyard: List[_Shard] = []  # dead/retired handles, joined at close()
        self._routing_lock = threading.Lock()
        self._job_counter = 0
        self._next_slot = 0
        self._last_scale_at = 0.0
        self._closed = False
        self.deaths = 0
        self.redispatches = 0
        self.spawned = 0
        self.retired_count = 0
        self.version = pipeline_fingerprint(replica_factory()) if version is None else version

    # ------------------------------------------------------------- lifecycle
    @property
    def workers(self) -> int:
        """Current routable shard count (the service sizes its slots on it)."""
        with self._routing_lock:
            live = sum(1 for s in self._shards.values() if s.alive() and not s.retired)
        return max(1, live)

    def start(self) -> None:
        if self.executor is not None:
            return
        self._closed = False
        self._ctx = mp.get_context(START_METHOD)
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_shards, thread_name_prefix="repro-shard-dispatch"
        )
        with self._routing_lock:
            for _ in range(self.min_shards):
                self._spawn_locked()
        deadline = time.monotonic() + START_TIMEOUT_S
        for shard in list(self._shards.values()):
            self._await_ready(shard, deadline)

    def _spawn_locked(self) -> _Shard:
        """Start one worker process (caller holds the routing lock)."""
        slot = self._next_slot
        self._next_slot += 1
        generation = self.spawned
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_main,
            args=(child_conn, self._factory),
            daemon=True,
            name=f"repro-shard-{slot}",
        )
        process.start()
        child_conn.close()
        shard = _Shard(slot, generation, process, parent_conn)
        self._shards[slot] = shard
        self.spawned += 1
        return shard

    def _await_ready(self, shard: _Shard, deadline: float) -> None:
        """Block until ``shard`` handshakes (only used during start())."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"shard {shard.label} did not become ready in time")
            if shard.conn.poll(min(remaining, 0.05)):
                op, _, _ = unpack_frame(shard.conn.recv_bytes())
                if op != "ready":
                    raise RuntimeError(f"shard {shard.label} sent {op!r} before ready")
                shard.ready = True
                return
            if not shard.process.is_alive():
                raise RuntimeError(
                    f"shard {shard.label} died during startup "
                    f"(exitcode {shard.process.exitcode})"
                )

    def close(self) -> None:
        if self.executor is None:
            return
        self._closed = True
        # In-flight dispatches drain first (the service already awaited its
        # batch tasks, but a direct engine user may not have).
        self.executor.shutdown(wait=True)
        self.executor = None
        with self._routing_lock:
            shards = list(self._shards.values()) + self._graveyard
            self._shards.clear()
        for shard in shards:
            if shard.process.is_alive():
                try:
                    shard.conn.send_bytes(pack_frame("stop"))
                except (BrokenPipeError, OSError):
                    pass
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            try:
                shard.conn.close()
            except OSError:
                pass

    # --------------------------------------------------------------- routing
    def _promote_ready_locked(self) -> None:
        """Consume pending ready handshakes (non-blocking; lock held).

        Only shards that have never been routable are polled here, so this
        read cannot race a dispatcher: dispatchers touch a shard's pipe
        only after ``ready`` flips, and it flips only under this lock.
        """
        for shard in self._shards.values():
            if not shard.ready and not shard.dead and shard.conn.poll(0):
                try:
                    op, _, _ = unpack_frame(shard.conn.recv_bytes())
                except (EOFError, OSError):
                    shard.dead = True
                    continue
                if op == "ready":
                    shard.ready = True

    def _reap_locked(self) -> None:
        """Bury shards that died while *idle* (lock held).

        A shard that crashes mid-batch is handled by its dispatcher
        (:meth:`_handle_death`); one that dies between batches has no
        dispatcher watching it, so the routing path sweeps for corpses.
        Shards with work in flight are left to their dispatcher — burying
        here too would double-count the death.
        """
        for slot, shard in list(self._shards.items()):
            if shard.dead or shard.retired or shard.in_flight > 0:
                continue
            if not shard.process.is_alive():
                shard.dead = True
                shard.errors += 1
                self.deaths += 1
                del self._shards[slot]
                self._graveyard.append(shard)
                if self.respawn and not self._closed:
                    live = sum(1 for s in self._shards.values() if s.alive() and not s.retired)
                    if live < self.min_shards:
                        self._spawn_locked()

    def _try_pick(self) -> Optional[_Shard]:
        with self._routing_lock:
            self._reap_locked()
            self._promote_ready_locked()
            candidates = [
                s for s in self._shards.values() if s.ready and not s.retired and s.alive()
            ]
            if not candidates:
                return None
            shard = min(candidates, key=lambda s: (s.in_flight, s.slot))
            shard.in_flight += 1
            return shard

    def _pick(self) -> _Shard:
        """A live shard to dispatch to; respawns through total loss."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            shard = self._try_pick()
            if shard is not None:
                return shard
            if self._closed:
                raise RuntimeError("engine is closed")
            if self.respawn:
                with self._routing_lock:
                    live = sum(1 for s in self._shards.values() if s.alive() and not s.retired)
                    if live < self.min_shards:
                        self._spawn_locked()
            if time.monotonic() > deadline:
                raise RuntimeError("no live shards available")
            time.sleep(0.01)

    def _handle_death(self, shard: _Shard, reason: str) -> None:
        """Bury a dead/wedged shard and (optionally) respawn its slot."""
        with self._routing_lock:
            if self._shards.get(shard.slot) is not shard:
                return  # already handled by a concurrent dispatcher
            shard.dead = True
            shard.errors += 1
            self.deaths += 1
            del self._shards[shard.slot]
            self._graveyard.append(shard)
            if self.respawn and not self._closed:
                live = sum(1 for s in self._shards.values() if s.alive() and not s.retired)
                if live < self.min_shards:
                    self._spawn_locked()
        # A wedged-but-alive process must die for real: its pipe may hold a
        # half-written frame that would desync any future reader.
        if shard.process.is_alive():
            shard.process.terminate()

    # ------------------------------------------------------------- execution
    def run(self, images: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Predict one micro-batch (called on a dispatcher thread).

        Retries across shards on worker death; a batch fails only if every
        respawn attempt is exhausted or the workers raise deterministically.
        """
        last_reason = "no shards"
        for _ in range(self.max_shards + 2):
            shard = self._pick()
            try:
                return self._dispatch(shard, images, indices)
            except _ShardDied as exc:
                last_reason = str(exc)
                self._handle_death(shard, last_reason)
                self.redispatches += 1
            finally:
                with self._routing_lock:
                    shard.in_flight -= 1
        raise RuntimeError(f"micro-batch failed after repeated shard deaths: {last_reason}")

    def _dispatch(self, shard: _Shard, images: np.ndarray, indices: np.ndarray) -> np.ndarray:
        with self._routing_lock:
            self._job_counter += 1
            job = self._job_counter
        deadline = time.monotonic() + DISPATCH_TIMEOUT_S
        # Trace context is installed thread-locally by the service's traced
        # engine.run closure; absent (tracing off / direct engine use) the
        # dispatch carries no telemetry at all.
        parent_ctx = current_context()
        tracer = telemetry.get_tracer() if parent_ctx is not None else None
        dispatch_span = (
            tracer.begin(
                "shard.dispatch", cat="engine", parent=parent_ctx, shard=shard.label, job=job
            )
            if tracer is not None
            else None
        )
        meta: Dict[str, Any] = {"job": job}
        if dispatch_span is not None:
            meta["trace"] = tracer.context_of(dispatch_span)
        outcome = "shard_died"
        try:
            with shard.lock:
                try:
                    shard.conn.send_bytes(
                        pack_frame(
                            "predict",
                            {
                                "images": np.ascontiguousarray(images, dtype=float),
                                "indices": np.asarray(indices, dtype=np.int64),
                            },
                            **meta,
                        )
                    )
                    # Poll in slices so a SIGKILLed worker is noticed in ~50ms
                    # instead of hanging the dispatcher on a dead pipe.
                    while not shard.conn.poll(0.05):
                        if not shard.process.is_alive():
                            raise _ShardDied(f"shard {shard.label} died mid-batch")
                        if time.monotonic() > deadline:
                            raise _ShardDied(
                                f"shard {shard.label} silent for {DISPATCH_TIMEOUT_S:g}s; presumed wedged"
                            )
                    blob = shard.conn.recv_bytes()
                except (BrokenPipeError, EOFError, OSError) as exc:
                    raise _ShardDied(f"shard {shard.label} pipe failed: {exc}") from None
                try:
                    op, arrays, reply = unpack_frame(blob)
                except Exception as exc:  # garbled or truncated frame from a dying worker
                    raise _ShardDied(f"shard {shard.label} sent a corrupt frame: {exc}") from None
                if reply.get("job") != job:
                    raise _ShardDied(f"shard {shard.label} desynced (job {reply.get('job')} != {job})")
                if op == "error":
                    shard.errors += 1
                    outcome = "worker_error"
                    raise RuntimeError(f"shard {shard.label}: {reply.get('error')}")
                predictions = arrays.get("predictions")
                if not (
                    op == "result"
                    and isinstance(predictions, np.ndarray)
                    and predictions.ndim == 1
                    and predictions.dtype.kind in "iu"
                    and len(predictions) == len(indices)
                ):
                    raise _ShardDied(f"shard {shard.label} sent a malformed {op!r} reply")
                shard.batches += 1
                shard.images += len(indices)
                if dispatch_span is not None:
                    # Adopt the worker's finished spans into the parent trace.
                    worker_spans = reply.get("spans")
                    if worker_spans:
                        tracer.ingest(worker_spans)
                outcome = "ok"
                return predictions.astype(np.int64, copy=False)
        finally:
            if dispatch_span is not None:
                tracer.end(dispatch_span, outcome=outcome)

    # ------------------------------------------------------------ autoscaling
    def observe_load(self, queue_depth: int) -> None:
        """Scale the shard set against the service's reported backlog.

        Called by the service's batch loop.  Sustained depth at or above
        ``scale_up_queue_depth`` spawns one spare shard (bounded by
        ``max_shards``); an empty queue retires one spare (never below
        ``min_shards``).  Both actions rate-limit on ``scale_cooldown_s``.
        A freshly spawned shard handshakes asynchronously and joins the
        routable set on its first ``_try_pick`` after ready.
        """
        if self.executor is None or self._closed or self.max_shards <= self.min_shards:
            return
        now = time.monotonic()
        if now - self._last_scale_at < self.scale_cooldown_s:
            return
        with self._routing_lock:
            present = [s for s in self._shards.values() if not s.retired and not s.dead]
            if queue_depth >= self.scale_up_queue_depth and len(present) < self.max_shards:
                self._spawn_locked()
                self._last_scale_at = now
                return
            if queue_depth == 0 and len(present) > self.min_shards:
                idle = [s for s in present if s.ready and s.in_flight == 0]
                if len(idle) > self.min_shards:
                    shard = max(idle, key=lambda s: s.slot)  # newest spare first
                    shard.retired = True
                    self.retired_count += 1
                    del self._shards[shard.slot]
                    self._graveyard.append(shard)
                    if shard.lock.acquire(blocking=False):
                        try:
                            shard.conn.send_bytes(pack_frame("stop"))
                        except (BrokenPipeError, OSError):
                            pass
                        finally:
                            shard.lock.release()
                    self._last_scale_at = now

    # --------------------------------------------------------------- chaos/testing
    def ensure_capacity(self) -> None:
        """Reap idle corpses and respawn below ``min_shards`` right now.

        Recovery normally rides the dispatch path (:meth:`_try_pick` reaps
        and respawns), which is fine under traffic but means a shard killed
        during a fully-cached lull stays buried until the next cache miss.
        The scenario layer's recovery watcher polls this instead of waiting
        for traffic, so recovery-deadline measurements reflect the engine,
        not the arrival process.
        """
        if self._closed:
            return
        with self._routing_lock:
            self._reap_locked()
            self._promote_ready_locked()

    def kill_shard(self, slot: Optional[int] = None) -> Optional[int]:
        """SIGKILL one worker process (fault-injection hook for tests).

        ``slot=None`` kills the busiest live shard.  Returns the killed
        slot, or ``None`` if nothing was killable.  Recovery is the
        production path: the next dispatch to the corpse re-dispatches and
        respawns.
        """
        with self._routing_lock:
            candidates = [s for s in self._shards.values() if s.alive() and not s.retired]
            if not candidates:
                return None
            if slot is None:
                shard = max(candidates, key=lambda s: (s.in_flight, -s.slot))
            else:
                matches = [s for s in candidates if s.slot == slot]
                if not matches:
                    return None
                shard = matches[0]
        shard.process.kill()
        shard.process.join(timeout=5.0)
        return shard.slot

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> Dict:
        """Per-shard counters and shard lifecycle (folded into ``/stats``).

        ``per_shard`` lists the live shards only; a buried shard's work
        stays in the service's own ``batching`` totals.
        """
        with self._routing_lock:
            current = sorted(self._shards.values(), key=lambda s: s.slot)
        return {
            "engine": "process",
            "per_shard": {
                s.label: {
                    "batching": {"batches": s.batches, "batched_images": s.images},
                    "errors": s.errors,
                    "in_flight": s.in_flight,
                }
                for s in current
            },
            "lifecycle": {
                "live": len(current),
                "min_shards": self.min_shards,
                "max_shards": self.max_shards,
                "spawned": self.spawned,
                "deaths": self.deaths,
                "redispatches": self.redispatches,
                "retired": self.retired_count,
            },
        }
