"""Frozen, JSON-round-trippable specs for the accelerator-fabric simulator.

Two kinds, in the file format every spec shares (:mod:`repro.utils.specs`):

* :class:`FabricSpec` (``{"kind": "fabric/design"}``) describes the
  *physical* fabric: a ``rows x cols`` grid of tiles, the leftmost
  ``mem_cols`` columns being memory (stream-feeder) tiles and the rest PE
  tiles, plus one switch per grid cell.  Behaviour is set purely by a
  configuration bitstream written into the sparse config space the spec
  lays out (see :mod:`repro.fabric.bitstream` for the address map).
* :class:`FabricRunSpec` (``{"kind": "fabric/run"}``) is one executable
  workload: a fabric design plus a *schedule* of
  :class:`~repro.blocks.specs.BlockSpec` entries to place-and-route, the
  test-vector row count, the placement seed and the fault-injection knobs.

Both are frozen dataclasses with exact JSON round-trips: ``from_json(
spec.to_json())`` reconstructs the spec field for field and re-serialising
produces the same bytes (the golden-file property the examples smoke test
gates on for every shipped ``examples/specs/fabric_*.json``).  Validation
runs at construction, so a zero-width grid, a fractional ``rows`` or an
unknown schedule family fails when the spec is *built*, not mid-compile.

``repro run`` sniffs both ``kind`` tags and routes the files through the
``repro fabric`` subcommand, which shares the content-addressed sweep
cache — a fabric run is a cacheable artifact exactly like a DSE row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.blocks.specs import BlockSpec
from repro.utils.specs import Spec

__all__ = [
    "FABRIC_DESIGN_KIND",
    "FABRIC_RUN_KIND",
    "FabricRunSpec",
    "FabricSpec",
]

#: ``kind`` tag of a serialised fabric design (``repro run`` sniffs it).
FABRIC_DESIGN_KIND = "fabric/design"

#: ``kind`` tag of a serialised fabric workload (``repro run`` sniffs it).
FABRIC_RUN_KIND = "fabric/run"

#: Word widths the config space supports (bytes per word must be integral).
_WORD_BITS = (8, 16, 32)


@dataclass(frozen=True)
class FabricSpec(Spec):
    """The physical fabric: tile grid geometry + config-space word layout.

    ``rows x cols`` grid cells, row-major tile ids ``r * cols + c``.  Cells
    with ``c < mem_cols`` are memory tiles (they source the input streams);
    the remaining cells are PE tiles that can each host one configured
    block.  Every cell also owns one switch whose single config word
    encodes the enabled routing links (see :mod:`repro.fabric.bitstream`).

    Each PE/memory tile owns a ``4 + payload_words``-word config window
    (mode, slot, payload length, checksum, then the block-spec payload as
    packed little-endian JSON bytes); the per-tile payload capacity in
    bytes, ``payload_words * word_bits // 8``, is what decides whether a
    block family is *fabric-mappable* (its all-defaults spec JSON must
    fit — derived from the registry, never hand-maintained).
    """

    name: str = "fabric"
    description: str = ""
    rows: int = 4
    cols: int = 4
    mem_cols: int = 1
    word_bits: int = 32
    payload_words: int = 96

    kind = FABRIC_DESIGN_KIND
    envelope = "kind"
    label = "fabric design"

    def validate(self) -> None:
        for attr in ("rows", "cols", "mem_cols", "payload_words"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be a positive int, got {getattr(self, attr)!r}")
        if self.mem_cols >= self.cols:
            raise ValueError(
                f"mem_cols must leave at least one PE column (mem_cols={self.mem_cols}, cols={self.cols})"
            )
        if self.word_bits not in _WORD_BITS:
            raise ValueError(f"word_bits must be one of {_WORD_BITS}, got {self.word_bits!r}")

    # ------------------------------------------------------------- geometry
    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def pe_tiles(self) -> Tuple[int, ...]:
        """Row-major ids of the PE cells (everything right of the memory columns)."""
        return tuple(
            r * self.cols + c
            for r in range(self.rows)
            for c in range(self.mem_cols, self.cols)
        )

    @property
    def word_bytes(self) -> int:
        return self.word_bits // 8

    @property
    def payload_capacity_bytes(self) -> int:
        """Per-tile block-spec payload capacity (decides fabric mappability)."""
        return self.payload_words * self.word_bytes

    def tile_position(self, tile: int) -> Tuple[int, int]:
        """``(row, col)`` of a row-major tile id."""
        if not 0 <= tile < self.n_cells:
            raise ValueError(f"tile {tile} outside the {self.rows}x{self.cols} grid")
        return divmod(tile, self.cols)


@dataclass(frozen=True)
class FabricRunSpec(Spec):
    """One executable fabric workload: design + schedule + vectors + faults.

    ``schedule`` is the ordered list of block specs to place-and-route
    (slot ``i`` of the placement runs ``schedule[i]``); each serialises in
    its canonical ``{"family", "params"}`` form and revives through
    :func:`repro.blocks.specs.spec_from_dict`, so an unknown family or a
    typo'd param fails at spec load.  ``rows`` sizes the shared test
    vectors, ``seed`` rotates the deterministic placement (and seeds the
    vectors), and ``flip_prob``/``fault_seed`` arm the same
    :class:`~repro.eval_pipeline.faults.BitFlipFaultModel` on the fabric
    and the golden path, so bit-identity is asserted *under* faults too.
    """

    name: str = "fabric-run"
    description: str = ""
    fabric: FabricSpec = field(default_factory=FabricSpec)
    schedule: Tuple[BlockSpec, ...] = ()
    rows: int = 16
    seed: int = 0
    flip_prob: float = 0.0
    fault_seed: int = 0

    kind = FABRIC_RUN_KIND
    envelope = "kind"
    label = "fabric run"

    def validate(self) -> None:
        if not self.schedule:
            raise ValueError("schedule must name at least one block spec")
        if self.rows <= 0:
            raise ValueError(f"rows must be a positive int, got {self.rows!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must lie in [0, 1], got {self.flip_prob!r}")
