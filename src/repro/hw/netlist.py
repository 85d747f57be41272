"""Structural description of hardware blocks.

An SC block is described by:

* a :class:`ComponentInventory` — how many instances of each standard cell it
  contains,
* a *critical path* — the ordered list of cells a signal traverses in the
  longest combinational path,
* a cycle count — how many clock cycles the block needs to produce one
  result (1 for fully combinational/parallel blocks, the bitstream length for
  serial stochastic designs),
* optional submodules, so blocks compose hierarchically exactly like the RTL
  hierarchy in the paper (e.g. the softmax block of Fig. 5 instantiates ``m``
  compute units plus a global sorting network).

The synthesis estimator (:mod:`repro.hw.synthesis`) consumes these objects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.hw.cells import CellLibrary, default_library
from repro.utils.validation import check_positive_int


class ComponentInventory:
    """A multiset of standard-cell instances.

    Thin wrapper over :class:`collections.Counter` with validation and a few
    convenience constructors; keeping it a dedicated type makes the block
    generators read like a bill of materials.
    """

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        self._counts: Counter = Counter()
        if counts:
            for name, count in counts.items():
                self.add(name, count)

    def add(self, cell_name: str, count: int = 1) -> "ComponentInventory":
        """Add ``count`` instances of ``cell_name`` (returns self for chaining)."""
        if count < 0:
            raise ValueError(f"cannot add a negative count of {cell_name!r}")
        if count:
            self._counts[cell_name] += int(count)
        return self

    def merge(self, other: "ComponentInventory") -> "ComponentInventory":
        """Add every entry of ``other`` into this inventory (returns self)."""
        for name, count in other.items():
            self.add(name, count)
        return self

    def scaled(self, factor: int) -> "ComponentInventory":
        """Return a new inventory with every count multiplied by ``factor``."""
        check_positive_int(factor, "factor")
        return ComponentInventory({name: count * factor for name, count in self.items()})

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._counts.items()

    def count(self, cell_name: str) -> int:
        """Number of instances of ``cell_name`` (0 if absent)."""
        return self._counts.get(cell_name, 0)

    def total_instances(self) -> int:
        """Total number of cell instances across all cell types."""
        return sum(self._counts.values())

    def area(self, library: Optional[CellLibrary] = None) -> float:
        """Total area of the inventory in um^2 under ``library``."""
        library = library or default_library()
        return sum(library.cell(name).area_um2 * count for name, count in self.items())

    def leakage(self, library: Optional[CellLibrary] = None) -> float:
        """Total leakage in nW under ``library``."""
        library = library or default_library()
        return sum(library.cell(name).leakage_nw * count for name, count in self.items())

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComponentInventory):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{name}x{count}" for name, count in sorted(self.items()))
        return f"ComponentInventory({parts})"


@dataclass
class HardwareModule:
    """A structural hardware block ready for cost estimation.

    Attributes
    ----------
    name:
        Human-readable block name (shows up in reports).
    inventory:
        Cells owned directly by this module (excluding submodules).
    critical_path:
        Ordered cell names along the module's own longest combinational path.
        Submodule critical paths are accounted for separately, see
        :meth:`combinational_delay_ns`.
    cycles:
        Clock cycles needed to produce one result.  Combinational designs use
        1; bit-serial stochastic designs use the bitstream length; iterative
        designs use the iteration count times the cycles per iteration.
    submodules:
        Child modules with their instance counts, e.g. ``[(unit, 64)]`` for
        the 64 softmax compute units.
    pipelined:
        When True the module's latency is ``cycles`` clock periods with the
        clock period set by the slowest stage; when False (default) the
        stages of one result are executed back to back and the combinational
        delays add up along the hierarchy.
    metadata:
        Free-form details (BSLs, scaling factors, iteration counts) recorded
        so that synthesis reports are self-describing.
    """

    name: str
    inventory: ComponentInventory = field(default_factory=ComponentInventory)
    critical_path: Sequence[str] = field(default_factory=tuple)
    cycles: int = 1
    submodules: List[Tuple["HardwareModule", int]] = field(default_factory=list)
    pipelined: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.cycles, "cycles")
        for _, count in self.submodules:
            check_positive_int(count, "submodule count")

    # ------------------------------------------------------------------ area
    def total_inventory(self) -> ComponentInventory:
        """Flattened inventory including all submodules."""
        total = ComponentInventory(self.inventory.as_dict())
        for module, count in self.submodules:
            total.merge(module.total_inventory().scaled(count))
        return total

    def area_um2(self, library: Optional[CellLibrary] = None) -> float:
        """Total placed area of the module hierarchy."""
        return self.total_inventory().area(library)

    def leakage_nw(self, library: Optional[CellLibrary] = None) -> float:
        """Total leakage power of the module hierarchy."""
        return self.total_inventory().leakage(library)

    # ----------------------------------------------------------------- delay
    def own_path_delay_ns(self, library: Optional[CellLibrary] = None) -> float:
        """Delay of this module's own critical path (excluding submodules)."""
        library = library or default_library()
        return sum(library.cell(name).delay_ns for name in self.critical_path)

    def combinational_delay_ns(self, library: Optional[CellLibrary] = None) -> float:
        """Longest combinational delay through the module hierarchy.

        For a non-pipelined module the submodule on the critical path feeds
        this module's own logic, so delays add; the slowest submodule is the
        one that matters.  For a pipelined module each stage is registered,
        so the relevant number is the slowest single stage.
        """
        library = library or default_library()
        own = self.own_path_delay_ns(library)
        child = max(
            (module.combinational_delay_ns(library) for module, _ in self.submodules),
            default=0.0,
        )
        if self.pipelined:
            return max(own, child)
        return own + child

    # ------------------------------------------------------------- structure

    def describe(self) -> str:
        """One-line human readable summary used in benchmark output."""
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return f"{self.name} [{meta}]" if meta else self.name
