"""Serving on the fabric: a PipelineEngine whose softmax runs on tiles.

:class:`FabricEngine` is the ``"fabric"`` engine family of
:func:`repro.serve.deploy.build_deployment`.  It is a
:class:`~repro.serve.engine.PipelineEngine` (same worker threads, same
replica discipline) that additionally owns a **live**
:class:`~repro.fabric.simulator.Fabric`: at construction it
place-and-routes the deployment's calibrated softmax config onto the tile
grid, loads the bitstream and compiles; every worker replica's
``softmax_circuit`` is then replaced by (a per-thread copy of) the
*compiled fabric's* block.  Because the block revives
from the config-space payload (JSON round-trip, checksummed), serving
through the fabric is a genuine configure -> read -> decode -> execute
path — and the scenario layer's bit-identity assertion (online fabric vs
offline golden pipeline) becomes the end-to-end cross-check.

Chaos seam: :meth:`FabricEngine.kill_tile` is the ``dead_tile`` scenario
event.  It marks the hosting tile dead, re-place-and-routes around the
dead set, *partially reconfigures* (diff writes only) and recompiles;
``replacements`` counts the re-place cycles and ``last_reconfigure``
exposes the write/skip accounting the graceful-degradation assertions
check.
"""

from __future__ import annotations

import copy
import threading
from typing import Optional

from repro.fabric.place_route import FabricError, place_and_route
from repro.fabric.simulator import Fabric
from repro.fabric.specs import FabricSpec
from repro.serve.engine import PipelineEngine, ReplicaFactory

__all__ = ["FabricEngine"]


class FabricEngine(PipelineEngine):
    """Thread engine executing the softmax block on a configured fabric."""

    def __init__(
        self,
        pipeline_factory: ReplicaFactory,
        fabric_spec: Optional[FabricSpec] = None,
        workers: int = 1,
        version: Optional[str] = None,
    ) -> None:
        super().__init__(pipeline_factory, workers=workers, version=version)
        self.fabric_spec = fabric_spec or FabricSpec()
        # The fabric must host the *resolved* config (post-calibration,
        # post-clamp) or the bit-identity cross-check would be vacuous.
        probe = pipeline_factory()
        self._softmax_config = probe.softmax_circuit.config
        del probe
        self.fabric = Fabric(self.fabric_spec)
        self.replacements = 0
        self.last_reconfigure: dict = {}
        self._fabric_lock = threading.Lock()
        self._install()

    # ------------------------------------------------------------- placement
    def _install(self) -> None:
        """(Re-)place, partially reconfigure and recompile the fabric."""
        placement = place_and_route(
            self.fabric_spec,
            [self._softmax_config],
            seed=0,
            dead_tiles=self.fabric.dead_tiles,
        )
        self.last_reconfigure = self.fabric.reconfigure(placement.bitstream())
        self.placement = placement
        self._compiled = self.fabric.compile()

    # ----------------------------------------------------------------- chaos
    def kill_tile(self, slot: Optional[int] = None) -> int:
        """Kill the tile hosting ``slot`` and recover by re-place-and-route.

        Returns the dead tile's id.  Worker replicas rebuild on their next
        batch (generation bump) and pick up the re-placed block; ``deaths``
        and ``replacements`` record the event for the scenario assertions.
        """
        with self._fabric_lock:
            target = 0 if slot is None else int(slot) % len(self.placement.assignments)
            tile = self.placement.assignments[target]
            self.fabric.kill_tile(tile)
            try:
                self._install()
            except FabricError:
                # Fabric exhausted: no live tile can host the schedule.
                # Leave the dead mark in place and re-raise — the scenario
                # runner surfaces this as a failed recovery.
                raise
            self._generation += 1
            self.deaths += 1
            self.replacements += 1
            return tile

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> dict:
        """Fabric lifecycle counters (folded into ``/stats`` and ``/metrics``)."""
        with self._fabric_lock:
            reconfigure = dict(self.last_reconfigure)
        return {
            "engine": "fabric",
            "lifecycle": {
                "deaths": int(self.deaths),
                "replacements": int(self.replacements),
                "dead_tiles": len(self.fabric.dead_tiles),
                "workers": int(self.workers),
            },
            "reconfigure": reconfigure,
        }

    # ------------------------------------------------------------- execution
    def _pipeline(self):
        pipeline = super()._pipeline()
        if getattr(self._local, "fabric_generation", None) != self._generation:
            with self._fabric_lock:
                block = self._compiled.block_for_slot(0)
            # Per-thread copy: circuits may keep scratch state during a
            # forward, and two workers must never share one.
            pipeline.softmax_circuit = copy.deepcopy(block)
            self._local.fabric_generation = self._generation
        return pipeline
