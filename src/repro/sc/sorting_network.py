"""Bitonic sorting networks (BSNs).

In deterministic (thermometer-coded) SC, addition is performed by
concatenating the operand bitstreams and sorting the result so the output is
again a valid thermometer code (Section II-A, citing Zhang et al. DATE'20).
The sorting network itself is pure wiring plus compare-exchange elements;
for single-bit payloads each compare-exchange is just an AND gate (max) and
an OR gate (min).

This module provides both views of a BSN:

* a *functional* view — :meth:`BitonicSortingNetwork.sort_bits` actually runs
  the compare-exchange schedule on explicit bit vectors (used by tests and
  the didactic examples; the emulation fast-path adds one-counts directly),
* a *structural* view — :meth:`BitonicSortingNetwork.build_hardware` reports
  the compare-exchange count and depth so the cost model can price the BSNs
  inside the softmax block of Fig. 5 and the accumulation trees of the
  accelerator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.utils.validation import check_binary_array, check_positive_int


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


@lru_cache(maxsize=None)
def _schedule_for(n: int) -> List[List[Tuple[int, int]]]:
    """Module-level memo of compare-exchange schedules, shared by all
    :class:`BitonicSortingNetwork` instances of the same padded width.

    Sweeps construct thousands of sorter objects for a handful of distinct
    widths; memoising here means each stage schedule is computed once per
    process.  Treat the returned lists as read-only.
    """
    return BitonicSortingNetwork._build_schedule(n)


@lru_cache(maxsize=None)
def _stage_indices(n: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Per-stage (hi, lo) index arrays for vectorised compare-exchange.

    Within a stage every lane appears in exactly one pair, so all pairs of
    the stage can be gathered/scattered with two fancy-indexing ops instead
    of a Python loop over individual compare-exchange elements.
    """
    stages = []
    for stage in _schedule_for(n):
        hi = np.fromiter((pair[0] for pair in stage), dtype=np.intp, count=len(stage))
        lo = np.fromiter((pair[1] for pair in stage), dtype=np.intp, count=len(stage))
        stages.append((hi, lo))
    return tuple(stages)


class BitonicSortingNetwork:
    """A bitonic sorter over ``width`` single-bit lanes.

    Widths that are not powers of two are padded up to the next power of two
    (padding lanes are tied to constant 0 in hardware and cost nothing on
    the critical path, but the compare-exchange count uses the padded width,
    which is what a synthesised design would contain).
    """

    def __init__(self, width: int) -> None:
        check_positive_int(width, "width")
        self.width = width
        self.padded_width = _next_power_of_two(width)

    # --------------------------------------------------------------- schedule
    @staticmethod
    def _build_schedule(n: int) -> List[List[Tuple[int, int]]]:
        """Compare-exchange schedule of a bitonic sorter of power-of-two width.

        Returns a list of stages; each stage is a list of (i, j) index pairs
        that can operate in parallel.  Descending order (1s first) so the
        output is a thermometer pattern.
        """
        stages: List[List[Tuple[int, int]]] = []
        k = 2
        while k <= n:
            j = k // 2
            while j >= 1:
                stage: List[Tuple[int, int]] = []
                for i in range(n):
                    partner = i ^ j
                    if partner > i:
                        # Direction: descending when the k-block index is even.
                        if (i & k) == 0:
                            stage.append((i, partner))
                        else:
                            stage.append((partner, i))
                stage.sort()
                stages.append(stage)
                j //= 2
            k *= 2
        return stages

    @property
    def _schedule(self) -> List[List[Tuple[int, int]]]:
        """Compare-exchange schedule (module-level memo, shared per width)."""
        return _schedule_for(self.padded_width)

    @property
    def num_compare_exchange(self) -> int:
        """Total compare-exchange elements in the network.

        For a padded width ``n = 2**p`` a bitonic sorter has ``p (p + 1) / 2``
        stages of ``n / 2`` elements each; the closed form avoids building the
        explicit schedule when only costs are needed.
        """
        n = self.padded_width
        if n == 1:
            return 0
        p = int(np.log2(n))
        return n * p * (p + 1) // 4

    @property
    def depth(self) -> int:
        """Number of compare-exchange stages on the critical path."""
        n = self.padded_width
        if n == 1:
            return 0
        p = int(np.log2(n))
        return p * (p + 1) // 2

    # -------------------------------------------------------------- functional
    def sort_bits(self, bits: np.ndarray) -> np.ndarray:
        """Sort bit vectors descending (1s first) through the CE schedule.

        ``bits`` has shape ``(..., width)``; the returned array has the same
        shape and is a valid thermometer pattern per lane batch.
        """
        arr = np.asarray(bits)
        if arr.shape[-1] != self.width:
            raise ValueError(f"expected last axis of size {self.width}, got {arr.shape[-1]}")
        check_binary_array(arr, "bits")
        work = np.zeros(arr.shape[:-1] + (self.padded_width,), dtype=np.int8)
        work[..., : self.width] = arr
        # All pairs of a stage are independent, so each stage is two gathers
        # and two scatters.  For single-bit payloads: max = OR, min = AND;
        # the "hi" index keeps the larger value so 1s bubble to the front.
        for hi, lo in _stage_indices(self.padded_width):
            a = work[..., hi]
            b = work[..., lo]
            work[..., hi] = a | b
            work[..., lo] = a & b
        return work[..., : self.width]

    def sort_values(self, values: np.ndarray) -> np.ndarray:
        """Sort arbitrary numeric lanes descending (reference implementation).

        Used by tests to check the schedule is a correct sorting network for
        any payload (the zero-one principle then guarantees bit correctness).
        """
        arr = np.asarray(values, dtype=float)
        if arr.shape[-1] != self.width:
            raise ValueError(f"expected last axis of size {self.width}, got {arr.shape[-1]}")
        pad_shape = arr.shape[:-1] + (self.padded_width - self.width,)
        work = np.concatenate([arr, np.full(pad_shape, -np.inf)], axis=-1)
        for hi, lo in _stage_indices(self.padded_width):
            a = work[..., hi]
            b = work[..., lo]
            work[..., hi] = np.maximum(a, b)
            work[..., lo] = np.minimum(a, b)
        return work[..., : self.width]

    # -------------------------------------------------------------- structural
    def build_hardware(self, name: str = "bsn", pipeline_every: int = 0) -> HardwareModule:
        """Structural description: one SORT_CE cell per compare-exchange.

        ``pipeline_every`` inserts a register bank (one DFF per lane) after
        every that many compare-exchange stages.  A bitonic sorter is a pure
        feed-forward network, so pipelining it is routine; the module is then
        marked ``pipelined`` and its critical path is a single pipeline stage
        (the registers are charged to the inventory, so the area/ADP cost of
        the pipelining is not hidden).  With ``pipeline_every=0`` the sorter
        is reported as one combinational block.
        """
        if pipeline_every < 0:
            raise ValueError("pipeline_every must be non-negative")
        inventory = ComponentInventory({"SORT_CE": self.num_compare_exchange})
        if pipeline_every and self.depth > pipeline_every:
            banks = int(np.ceil(self.depth / pipeline_every)) - 1
            inventory.add("DFF", banks * self.padded_width)
            critical_path = tuple(["SORT_CE"] * min(pipeline_every, self.depth) + ["DFF"])
            pipelined = True
        else:
            critical_path = tuple(["SORT_CE"] * self.depth)
            pipelined = False
        return HardwareModule(
            name=f"{name}_w{self.width}",
            inventory=inventory,
            critical_path=critical_path,
            cycles=1,
            pipelined=pipelined,
            metadata={
                "width": self.width,
                "padded_width": self.padded_width,
                "compare_exchange": self.num_compare_exchange,
                "depth": self.depth,
                "pipeline_every": pipeline_every,
            },
        )
