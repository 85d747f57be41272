"""Analytical synthesis estimator.

``synthesize`` plays the role of the Synopsys Design Compiler run in the
paper's evaluation flow: it takes a structural :class:`HardwareModule` and a
cell library and produces a :class:`SynthesisReport` with area, delay and
derived metrics.  Because every block (ours and every baseline) goes through
the same estimator with the same library, the relative comparisons the paper
makes (ADP reductions, Pareto fronts, area fractions) are apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hw.cells import CellLibrary, default_library
from repro.hw.netlist import HardwareModule


@dataclass(frozen=True)
class SynthesisReport:
    """Result of estimating one hardware module.

    Attributes
    ----------
    name:
        Module name (copied from the module).
    area_um2:
        Total placed standard-cell area.
    delay_ns:
        Latency to produce one result (cycles x clock period).
    adp:
        Area-delay product in um^2 * ns — the paper's headline hardware
        efficiency metric.
    clock_period_ns:
        The clock period used (longest combinational path, possibly clamped
        to a minimum system clock).
    cycles:
        Number of clock cycles per result.
    cell_count:
        Total flattened standard-cell instances.
    leakage_nw:
        Total leakage power (used by the energy proxy).
    cell_breakdown:
        Flattened per-cell-type instance counts.
    metadata:
        The module's metadata, carried through for self-describing reports.
    """

    name: str
    area_um2: float
    delay_ns: float
    adp: float
    clock_period_ns: float
    cycles: int
    cell_count: int
    leakage_nw: float
    cell_breakdown: Dict[str, int] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)


def synthesize(
    module: HardwareModule,
    library: Optional[CellLibrary] = None,
    min_clock_ns: float = 0.05,
) -> SynthesisReport:
    """Estimate area/delay/ADP for ``module`` under ``library``.

    Parameters
    ----------
    module:
        Structural description of the block.
    library:
        Standard-cell library; defaults to the shared 28 nm-like library.
    min_clock_ns:
        Lower bound on the clock period.  Serial SC designs have tiny
        combinational paths but still cannot be clocked arbitrarily fast;
        50 ps (20 GHz) is a generous bound that keeps serial baselines from
        being unrealistically flattered, matching the per-bit time implied by
        the paper's serial-design delays.
    """
    library = library or default_library()
    if min_clock_ns < 0:
        raise ValueError("min_clock_ns must be non-negative")

    area = module.area_um2(library)
    period = max(module.combinational_delay_ns(library), min_clock_ns)
    delay = module.cycles * period
    inventory = module.total_inventory()

    return SynthesisReport(
        name=module.name,
        area_um2=area,
        delay_ns=delay,
        adp=area * delay,
        clock_period_ns=period,
        cycles=module.cycles,
        cell_count=inventory.total_instances(),
        leakage_nw=inventory.leakage(library),
        cell_breakdown=inventory.as_dict(),
        metadata=dict(module.metadata),
    )
