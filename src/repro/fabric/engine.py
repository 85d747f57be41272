"""Serving on the fabric: a PipelineEngine whose softmax runs on tiles.

:class:`FabricEngine` is the ``"fabric"`` engine family of
:func:`repro.serve.deploy.build_deployment`.  It is a
:class:`~repro.serve.engine.PipelineEngine` (same worker threads sharing
one pipeline) that additionally owns a **live**
:class:`~repro.fabric.simulator.Fabric`: at construction it
place-and-routes the deployment's calibrated softmax config onto the tile
grid, loads the bitstream and compiles; the pipeline's
``softmax_circuit`` is then the *compiled fabric's* block, shared by
every worker thread (a forward writes nothing to it; the pipeline reads
it once per forward, so a swap never splits one).  Because the block revives
from the config-space payload (JSON round-trip, checksummed), serving
through the fabric is a genuine configure -> read -> decode -> execute
path — and the scenario layer's bit-identity assertion (online fabric vs
offline golden pipeline) becomes the end-to-end cross-check.

Chaos seam: :meth:`FabricEngine.kill_tile` is the ``dead_tile`` scenario
event.  It marks the hosting tile dead, re-place-and-routes around the
dead set, *partially reconfigures* (diff writes only), recompiles and
swaps the new block into the pipeline under ``_fabric_lock``;
``replacements`` counts the re-place cycles and ``last_reconfigure``
exposes the write/skip accounting the graceful-degradation assertions
check.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.fabric.place_route import place_and_route
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
        self._softmax_config = self._pipeline.softmax_circuit.config
        self.fabric = Fabric(self.fabric_spec)
        self.replacements = 0
        self.last_reconfigure: dict = {}
        self._fabric_lock = threading.Lock()
        self._install()

    # ------------------------------------------------------------- placement
    def _install(self) -> None:
        """(Re-)place, partially reconfigure and recompile the fabric; swap its block in."""
        placement = place_and_route(
            self.fabric_spec,
            [self._softmax_config],
            seed=0,
            dead_tiles=self.fabric.dead_tiles,
        )
        self.last_reconfigure = self.fabric.reconfigure(placement.bitstream())
        self.placement = placement
        self._compiled = self.fabric.compile()
        self._pipeline.softmax_circuit = self._compiled.block_for_slot(0)

    # ----------------------------------------------------------------- chaos
    def kill_tile(self, slot: Optional[int] = None) -> int:
        """Kill the tile hosting ``slot`` and recover by re-place-and-route.

        Returns the dead tile's id.  Forwards that start after the swap run
        on the re-placed block; ``deaths`` and ``replacements`` record the
        event for the scenario assertions.
        """
        with self._fabric_lock:
            target = 0 if slot is None else int(slot) % len(self.placement.assignments)
            tile = self.placement.assignments[target]
            self.fabric.kill_tile(tile)
            # An exhausted fabric raises FabricError with the dead mark left in
            # place; the scenario runner surfaces it as a failed recovery.
            self._install()
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

    def kill_shard(self, slot: Optional[int] = None) -> int:
        """:meth:`PipelineEngine.kill_shard`, the new pipeline's softmax on the fabric.

        The block goes in before the pipeline is published, under the lock,
        so no batch runs off the fabric and a concurrent :meth:`kill_tile`
        cannot swap the discarded pipeline's block instead.
        """
        with self._fabric_lock:
            pipeline = self._factory()
            pipeline.softmax_circuit = self._compiled.block_for_slot(0)
            self._pipeline = pipeline
            self.deaths += 1
        return 0
