"""The fabric simulator: sparse config space -> compiled functional model.

:class:`Fabric` is the configured machine.  Its entire behaviour lives in
a sparse config space (absent address = 0) written one word at a time by
``configure(addr, data)`` — typically by replaying a
:class:`~repro.fabric.bitstream.Bitstream` emitted by
:func:`~repro.fabric.place_route.place_and_route`.  ``compile()`` then
*reads the space back* (through any injected stuck-at faults), decodes
each active PE tile's block-spec payload, verifies checksums and routing
reachability over the pruned switch graph, and builds the runnable
:class:`CompiledFabric` whose blocks are ordinary
:func:`repro.blocks.build` products — so execution rides the packed SC
engine through the existing backend seam, and fabric outputs are
bit-identical to the golden path by construction *if and only if* the
whole configure -> read -> decode -> rebuild loop is lossless (which the
golden tests assert for every mappable family).

Fault injection is config-level, matching real fabric failure modes:

* ``set_stuck_at(addr, bit, value)`` pins one config bit at read time; a
  stuck payload/checksum bit makes ``compile`` fail the checksum, a stuck
  route bit breaks reachability — both are *detected*, never silent.
* ``kill_tile(tile)`` marks a tile dead; compiling a configuration that
  still uses it fails, and a re-place-and-route around the dead set plus
  ``reconfigure`` (which diffs against the live config space and writes
  only changed words) is the recovery path the scenario layer asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

import repro.blocks as blocks
from repro.fabric.bitstream import (
    HEADER_WORDS,
    LINK_DROP_PE,
    LINK_RECV_W,
    LINK_SEND_E,
    MODE_MEM,
    MODE_PE,
    REG_CHECKSUM,
    REG_MODE,
    REG_PAYLOAD_LEN,
    REG_SLOT,
    Bitstream,
    config_space_words,
    decode_payload,
    payload_checksum,
    switch_base,
    tile_addr,
    tile_stride,
)
from repro.fabric.place_route import FabricError, Placement, place_and_route
from repro.fabric.specs import FabricRunSpec, FabricSpec

__all__ = [
    "CompiledFabric",
    "Fabric",
    "PlacedBlock",
    "TABLE6_AREA_TOLERANCE",
    "fabric_mappable",
    "mappable_families",
    "reconcile_table6",
    "run_fabric",
]

#: Documented Table VI reconciliation tolerance: the synthesized area of a
#: fabric tile hosting the softmax block must stay within this factor of
#: the accelerator harness's dedicated softmax block (the fabric pays for
#: config registers, payload SRAM and switch muxes on top of the block).
TABLE6_AREA_TOLERANCE = 1.5


@dataclass(frozen=True)
class PlacedBlock:
    """One compiled, executable tile: slot order + provenance + block."""

    slot: int
    tile: int
    family: str
    block: Any
    spec: Any


class Fabric:
    """A configurable tile grid; behaviour is the config space, nothing else."""

    def __init__(self, spec: FabricSpec) -> None:
        self.spec = spec
        self._space: Dict[int, int] = {}
        self._stuck: Dict[Tuple[int, int], int] = {}
        self._dead: set = set()
        #: Lifetime count of ``configure`` calls (reconfiguration accounting).
        self.config_writes = 0

    # -------------------------------------------------------- configuration
    def configure(self, addr: int, data: int) -> None:
        """Write one config word (the only way to change fabric behaviour)."""
        if not 0 <= addr < config_space_words(self.spec):
            raise FabricError(f"config address {addr} outside the fabric's space")
        data = int(data) & ((1 << self.spec.word_bits) - 1)
        if data:
            self._space[addr] = data
        else:
            self._space.pop(addr, None)
        self.config_writes += 1

    def load_bitstream(self, bitstream: Bitstream) -> int:
        """Replay every write of ``bitstream``; returns the write count."""
        for write in bitstream:
            self.configure(write.addr, write.data)
        return len(bitstream)

    def reconfigure(self, bitstream: Bitstream) -> Dict[str, int]:
        """Partial reconfiguration: diff the target against the live space.

        Only words that differ are written, and stale addresses (set now,
        absent from the target) are cleared — so moving between two
        schedules that share a placement prefix re-writes nothing for the
        shared slots.  Returns ``{"written", "skipped", "cleared"}``.
        """
        target: Dict[int, int] = {}
        for write in bitstream:
            data = int(write.data) & ((1 << self.spec.word_bits) - 1)
            if data:
                target[write.addr] = data
            else:
                target.pop(write.addr, None)
        written = skipped = cleared = 0
        for addr in sorted(set(self._space) - set(target)):
            self.configure(addr, 0)
            cleared += 1
        for addr, data in sorted(target.items()):
            if self._space.get(addr, 0) == data:
                skipped += 1
            else:
                self.configure(addr, data)
                written += 1
        return {"written": written, "skipped": skipped, "cleared": cleared}

    def read(self, addr: int) -> int:
        """Read one config word *through* any injected stuck-at faults."""
        if not 0 <= addr < config_space_words(self.spec):
            raise FabricError(f"config address {addr} outside the fabric's space")
        word = self._space.get(addr, 0)
        for (stuck_addr, bit), value in self._stuck.items():
            if stuck_addr == addr:
                if value:
                    word |= 1 << bit
                else:
                    word &= ~(1 << bit)
        return word

    # ------------------------------------------------------ fault injection
    def set_stuck_at(self, addr: int, bit: int, value: int) -> None:
        """Pin config bit ``bit`` of ``addr`` to ``value`` at read time."""
        if not 0 <= bit < self.spec.word_bits:
            raise FabricError(f"bit {bit} outside a {self.spec.word_bits}-bit word")
        self._stuck[(int(addr), int(bit))] = 1 if value else 0

    def clear_faults(self) -> None:
        self._stuck.clear()

    def kill_tile(self, tile: int) -> None:
        """Mark a tile dead; placement avoids it, compiling over it fails."""
        if not 0 <= tile < self.spec.n_cells:
            raise FabricError(f"tile {tile} outside the {self.spec.rows}x{self.spec.cols} grid")
        self._dead.add(int(tile))

    @property
    def dead_tiles(self) -> FrozenSet[int]:
        return frozenset(self._dead)

    # -------------------------------------------------------------- compile
    def compile(self) -> "CompiledFabric":
        """Read the config space back into a runnable functional model.

        The three failure modes are all loud: a dead-but-configured tile,
        a payload/checksum mismatch (stuck-at corruption), and a placed PE
        unreachable over the pruned switch graph.
        """
        spec = self.spec
        placed: List[PlacedBlock] = []
        active_tiles: List[int] = []
        for tile in range(spec.n_cells):
            mode = self.read(tile_addr(spec, tile, REG_MODE))
            if mode != MODE_PE:
                continue
            if tile in self._dead:
                raise FabricError(f"tile {tile} is configured active but marked dead")
            slot_word = self.read(tile_addr(spec, tile, REG_SLOT))
            if slot_word == 0:
                raise FabricError(f"tile {tile} is in PE mode but has no schedule slot")
            length = self.read(tile_addr(spec, tile, REG_PAYLOAD_LEN))
            if not 0 < length <= spec.payload_capacity_bytes:
                raise FabricError(f"tile {tile} has an invalid payload length {length}")
            n_words = -(-length // spec.word_bytes)
            words = tuple(self.read(tile_addr(spec, tile, HEADER_WORDS + i)) for i in range(n_words))
            checksum = payload_checksum(spec, words, length)
            if checksum != self.read(tile_addr(spec, tile, REG_CHECKSUM)):
                raise FabricError(
                    f"tile {tile} payload checksum mismatch (stuck-at corruption detected)"
                )
            try:
                payload = decode_payload(spec, words, length)
                block_spec = blocks.spec_from_dict(payload)
                family = payload["family"]
                block = blocks.build(family, spec=block_spec)
            except FabricError:
                raise
            except Exception as exc:  # noqa: BLE001 - any decode failure is a config fault
                raise FabricError(f"tile {tile} payload does not decode to a block: {exc}") from exc
            placed.append(
                PlacedBlock(slot=slot_word - 1, tile=tile, family=family, block=block, spec=block_spec)
            )
            active_tiles.append(tile)
        if not placed:
            raise FabricError("no PE tile is configured; load a bitstream first")
        slots = sorted(block.slot for block in placed)
        if slots != list(range(len(placed))):
            raise FabricError(f"configured slots {slots} are not contiguous from 0")
        switch_words = self._verify_routing(active_tiles)
        placed.sort(key=lambda entry: entry.slot)
        return CompiledFabric(fabric=spec, placed=tuple(placed), switch_words=switch_words)

    def _verify_routing(self, active_tiles: Sequence[int]) -> Dict[int, int]:
        """Prune the switch graph to enabled links; every PE must be fed."""
        spec = self.spec
        base = switch_base(spec)
        words = {
            cell: self.read(base + cell) for cell in range(spec.n_cells) if self.read(base + cell)
        }
        feeder_col = spec.mem_cols - 1
        for tile in active_tiles:
            row, col = spec.tile_position(tile)
            feeder = row * spec.cols + feeder_col
            if self.read(tile_addr(spec, feeder, REG_MODE)) != MODE_MEM:
                raise FabricError(f"tile {tile} has no memory feeder configured in row {row}")
            # Walk the pruned graph east from the feeder; each hop needs
            # SEND_E on the sender and RECV_W on the receiver.
            cell = feeder
            while cell != tile:
                east = cell + 1
                if not words.get(cell, 0) & LINK_SEND_E:
                    raise FabricError(f"route to tile {tile} is broken at cell {cell} (no SEND_E)")
                if not words.get(east, 0) & LINK_RECV_W:
                    raise FabricError(f"route to tile {tile} is broken at cell {east} (no RECV_W)")
                cell = east
            if not words.get(tile, 0) & LINK_DROP_PE:
                raise FabricError(f"route reaches tile {tile} but does not drop into the PE")
        return words


@dataclass(frozen=True)
class CompiledFabric:
    """The pruned, runnable model a configured fabric compiles into."""

    fabric: FabricSpec
    placed: Tuple[PlacedBlock, ...]
    switch_words: Dict[int, int] = field(default_factory=dict)

    def block_for_slot(self, slot: int):
        return self.placed[slot].block

    def evaluate_slot(self, slot: int, values: np.ndarray) -> np.ndarray:
        """Run one slot's block on ``values`` (the packed-engine path)."""
        return self.placed[slot].block.evaluate(np.asarray(values))

    def run(self, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Run every slot on its own input array, in schedule order."""
        if len(inputs) != len(self.placed):
            raise FabricError(f"expected {len(self.placed)} input arrays, got {len(inputs)}")
        return [self.evaluate_slot(slot, values) for slot, values in enumerate(inputs)]

    # ------------------------------------------------------------ resources
    def resource_counts(self) -> Dict[str, int]:
        """Physical accounting of the configured fabric (costing input)."""
        spec = self.fabric
        return {
            "pe_tiles": len(self.placed),
            "mem_tiles": len({spec.tile_position(entry.tile)[0] for entry in self.placed}),
            "switches": len(self.switch_words),
            "config_words": len(self.placed) * tile_stride(spec) + len(self.switch_words),
        }

    def build_hardware(self, library=None):
        """The fabric as a :class:`~repro.hw.netlist.HardwareModule` tree.

        Each active tile contributes its hosted block's own netlist (when
        the family exposes ``build_hardware``) plus the tile overhead —
        config DFFs for the header, SRAM bits for the payload store — and
        the top level pays config DFFs + word-wide muxes per enabled
        switch.  Feeding this to :func:`repro.hw.synthesis.synthesize` is
        how the costed fabric reconciles with Table VI (see
        :func:`reconcile_table6`).
        """
        from repro.hw.netlist import ComponentInventory, HardwareModule

        spec = self.fabric
        submodules = []
        for entry in self.placed:
            overhead = ComponentInventory()
            overhead.add("DFF", HEADER_WORDS * spec.word_bits)
            overhead.add("SRAM_BIT", spec.payload_words * spec.word_bits)
            tile_subs = []
            build_hw = getattr(entry.block, "build_hardware", None)
            if callable(build_hw):
                tile_subs.append((build_hw(), 1))
            tile = HardwareModule(
                name=f"fabric_tile{entry.tile}_{entry.family.replace('/', '_')}",
                inventory=overhead,
                critical_path=("DFF",),
                cycles=1,
                submodules=tile_subs,
                metadata={"tile": entry.tile, "slot": entry.slot, "family": entry.family},
            )
            submodules.append((tile, 1))
        switch_inv = ComponentInventory()
        if self.switch_words:
            switch_inv.add("DFF", len(self.switch_words) * spec.word_bits)
            switch_inv.add("MUX2", len(self.switch_words) * spec.word_bits)
        return HardwareModule(
            name=f"fabric_{spec.rows}x{spec.cols}",
            inventory=switch_inv,
            critical_path=("MUX2",),
            cycles=1,
            submodules=submodules,
            metadata={"design": spec.name, "resources": self.resource_counts()},
        )


# ---------------------------------------------------------------------------
# Registry-derived mappability (Table I's ``fabric_mappable`` column).
# ---------------------------------------------------------------------------


def fabric_mappable(family: str, fabric: Optional[FabricSpec] = None) -> bool:
    """True when the family's all-defaults spec fits a tile payload.

    Derived purely from the registry (default spec -> canonical JSON ->
    byte length vs the design's payload capacity); no hand-maintained
    list, so a new family gets its Table I column for free.
    """
    from repro.fabric.bitstream import encode_payload

    fabric = fabric or FabricSpec()
    try:
        spec = blocks.default_spec(family)
        encode_payload(fabric, spec.to_dict())
    except Exception:  # noqa: BLE001 - any failure means "not mappable"
        return False
    return True


def mappable_families(fabric: Optional[FabricSpec] = None) -> Dict[str, bool]:
    """``{family: fabric_mappable}`` over the whole registry."""
    fabric = fabric or FabricSpec()
    return {name: fabric_mappable(name, fabric) for name in blocks.names()}


# ---------------------------------------------------------------------------
# Golden cross-check execution (the `repro fabric` / FabricTask payload).
# ---------------------------------------------------------------------------


def _test_vectors(function: str, block_spec: Any, rows: int, seed: int) -> np.ndarray:
    """Deterministic shared test vectors for one block function."""
    if function == "softmax":
        from repro.evaluation.vectors import attention_logit_vectors

        return attention_logit_vectors(rows, int(getattr(block_spec, "m", 64)), seed=seed)
    if function == "gelu":
        from repro.evaluation.vectors import gelu_input_vectors

        return gelu_input_vectors(rows, seed=seed)
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=rows)


def _evaluate_block(block: Any, values: np.ndarray, flip_prob: float, fault_seed: int) -> np.ndarray:
    """Evaluate through the fault seam when the block exposes one.

    Only the iterative softmax has a ``forward(x, faults=)`` seam, so only
    it takes injected flips; the fault model is armed identically on the
    fabric and golden sides, so bit-identity holds under faults too.  The
    seam is selected by capability, so an error raised inside a faulted
    forward propagates rather than passing as a fault-free re-run.
    """
    from repro.eval_pipeline.faults import BitFlipFaultModel

    values = np.asarray(values)
    forward = getattr(block, "forward", None)
    if flip_prob > 0.0 and callable(forward):
        faults = BitFlipFaultModel(flip_prob, seed=fault_seed).armed(np.arange(values.shape[0]))
        return forward(values, faults=faults)
    return block.evaluate(values)


def run_fabric(spec: FabricRunSpec) -> Dict[str, Any]:
    """Place, route, configure, compile and execute one fabric workload.

    The returned payload is JSON-able (the :class:`FabricTask` cache
    contract): compile timings, the bitstream digest and write counts, the
    per-slot output digests, the resource/cost summary, and the outcome of
    the golden cross-check (every slot's fabric output compared
    bit-for-bit against ``blocks.build(...)`` on the same vectors).
    """
    from repro.runner.cache import array_digest

    fabric = Fabric(spec.fabric)
    t0 = time.perf_counter()
    placement = place_and_route(spec.fabric, spec.schedule, seed=spec.seed)
    bitstream = placement.bitstream()
    t_place = time.perf_counter()
    fabric.load_bitstream(bitstream)
    compiled = fabric.compile()
    t_compile = time.perf_counter()

    slots = []
    bit_identical = True
    for slot, entry in enumerate(compiled.placed):
        family = entry.family
        function = blocks.get(family).function
        values = _test_vectors(function, entry.spec, spec.rows, spec.seed)
        fabric_out = _evaluate_block(entry.block, values, spec.flip_prob, spec.fault_seed)
        golden_block = blocks.build(family, spec=spec.schedule[slot])
        golden_out = _evaluate_block(golden_block, values, spec.flip_prob, spec.fault_seed)
        identical = bool(np.array_equal(fabric_out, golden_out))
        bit_identical &= identical
        slots.append(
            {
                "slot": slot,
                "tile": entry.tile,
                "family": family,
                "rows": int(np.asarray(values).shape[0]),
                "output_digest": array_digest(np.asarray(fabric_out, dtype=np.float64)),
                "bit_identical": identical,
            }
        )
    t_run = time.perf_counter()

    module = compiled.build_hardware()
    return {
        "name": spec.name,
        "fabric": spec.fabric.name,
        "grid": [spec.fabric.rows, spec.fabric.cols],
        "schedule": [entry.to_dict() for entry in spec.schedule],
        "seed": spec.seed,
        "flip_prob": spec.flip_prob,
        "bitstream": {
            "writes": len(bitstream),
            "bytes": len(bitstream.to_bytes()),
            "digest": bitstream.digest(),
        },
        "timings_ms": {
            "place_route": (t_place - t0) * 1e3,
            "configure_compile": (t_compile - t_place) * 1e3,
            "execute": (t_run - t_compile) * 1e3,
        },
        "resources": compiled.resource_counts(),
        "area_um2": module.area_um2(),
        "slots": slots,
        "bit_identical": bit_identical,
    }


# ---------------------------------------------------------------------------
# Table VI reconciliation.
# ---------------------------------------------------------------------------


def reconcile_table6(
    softmax_config=None, fabric: Optional[FabricSpec] = None, library=None
) -> Dict[str, Any]:
    """Cost a fabric tile hosting the softmax block against Table VI.

    Synthesizes (via :func:`repro.hw.synthesis.synthesize`) a one-slot
    fabric configured with the accelerator's softmax config and compares
    the tile's area against the dedicated softmax block of
    :class:`~repro.core.accelerator.AscendAccelerator` — the Table VI
    harness.  The fabric must cost *at least* the block (it embeds the
    same netlist) and no more than :data:`TABLE6_AREA_TOLERANCE` times it
    (config registers + payload SRAM + switch muxes are the documented
    overhead).
    """
    from repro.blocks.specs import SoftmaxCircuitConfig
    from repro.core.accelerator import AcceleratorConfig, AscendAccelerator
    from repro.hw.synthesis import synthesize

    softmax_config = softmax_config or SoftmaxCircuitConfig()
    fabric = fabric or FabricSpec()

    machine = Fabric(fabric)
    placement = place_and_route(fabric, [softmax_config], seed=0)
    machine.load_bitstream(placement.bitstream())
    compiled = machine.compile()
    tile_module = compiled.build_hardware(library)
    # The tile alone (block + per-tile config overhead), without the
    # shared switch fabric, is what maps onto one accelerator block.
    tile_only = tile_module.submodules[0][0]
    fabric_report = synthesize(tile_only, library=library)

    accelerator = AscendAccelerator(AcceleratorConfig(softmax=softmax_config))
    golden_area = accelerator.softmax_block_report().area_um2
    ratio = fabric_report.area_um2 / golden_area
    return {
        "fabric_tile_area_um2": fabric_report.area_um2,
        "accelerator_block_area_um2": golden_area,
        "ratio": ratio,
        "tolerance": TABLE6_AREA_TOLERANCE,
        "reconciles": bool(1.0 <= ratio <= TABLE6_AREA_TOLERANCE),
    }
