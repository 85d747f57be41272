"""Bitstream-configurable accelerator-fabric simulator.

The execution layer the paper's cost model was missing: a tile grid (PE
tiles hosting :mod:`repro.blocks` families, memory feeders, switches)
whose behaviour is set purely by a configuration bitstream.  The flow is
configure-then-compile:

1. :class:`FabricSpec` (``fabric/design``) describes the physical grid.
2. :func:`place_and_route` deterministically maps a schedule of
   :class:`~repro.blocks.specs.BlockSpec` entries to tiles and emits a
   :class:`Bitstream` of ``configure(addr, data)`` writes.
3. :class:`Fabric` replays the writes into its sparse config space
   (``reconfigure`` diffs for partial reconfiguration), and
   :meth:`Fabric.compile` reads the space back — through any stuck-at
   faults, past dead tiles, over the pruned switch graph — into a
   runnable :class:`CompiledFabric` on the packed SC engine.
4. :func:`run_fabric` executes a :class:`FabricRunSpec`
   (``fabric/run``) and cross-checks every slot bit-for-bit against the
   golden ``blocks.build(...).evaluate(...)`` path, while
   :func:`reconcile_table6` ties the synthesized fabric cost back to the
   Table VI accelerator harness.

Serving integration lives in :class:`FabricEngine` (the ``"fabric"``
engine family of :mod:`repro.serve`), whose ``kill_tile`` chaos seam backs
the scenario layer's ``dead_tile`` event.
"""

from repro.fabric.bitstream import Bitstream, ConfigWrite
from repro.fabric.engine import FabricEngine
from repro.fabric.place_route import FabricError, Placement, place_and_route
from repro.fabric.simulator import (
    TABLE6_AREA_TOLERANCE,
    CompiledFabric,
    Fabric,
    PlacedBlock,
    fabric_mappable,
    mappable_families,
    reconcile_table6,
    run_fabric,
)
from repro.fabric.specs import FABRIC_DESIGN_KIND, FABRIC_RUN_KIND, FabricRunSpec, FabricSpec

__all__ = [
    "FABRIC_DESIGN_KIND",
    "FABRIC_RUN_KIND",
    "TABLE6_AREA_TOLERANCE",
    "Bitstream",
    "CompiledFabric",
    "ConfigWrite",
    "Fabric",
    "FabricEngine",
    "FabricError",
    "FabricRunSpec",
    "FabricSpec",
    "PlacedBlock",
    "Placement",
    "fabric_mappable",
    "mappable_families",
    "place_and_route",
    "reconcile_table6",
    "run_fabric",
]
