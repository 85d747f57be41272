"""Hardware cost model for SC circuit blocks.

The paper evaluates its circuits by writing RTL and synthesising it with
Synopsys Design Compiler on a TSMC 28 nm library.  Neither tool is available
here, so this package provides an analytical substitute:

* :mod:`repro.hw.cells` — a 28 nm-like standard-cell library (per-cell area
  and delay),
* :mod:`repro.hw.netlist` — structural descriptions of circuit blocks as
  hierarchical component inventories with an explicit critical path,
* :mod:`repro.hw.synthesis` — an analytical "synthesis" step that turns a
  structural description into area / delay / ADP numbers.

The SC blocks in :mod:`repro.sc` and :mod:`repro.core` each expose a
``build_hardware()`` constructor returning a :class:`~repro.hw.netlist.HardwareModule`,
so the benchmark harness evaluates every design through exactly the same
cost model the way the paper runs every design through the same synthesis
flow.
"""

from repro.hw.cells import CellLibrary, StandardCell, tsmc28_like_library
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.hw.synthesis import SynthesisReport, synthesize

__all__ = [
    "CellLibrary",
    "StandardCell",
    "tsmc28_like_library",
    "ComponentInventory",
    "HardwareModule",
    "SynthesisReport",
    "synthesize",
]
