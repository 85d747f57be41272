"""Naive selective interconnect (SI) units (baseline family #3).

SI designs for thermometer coding (Zhang et al. DATE'20, Hu et al. DATE'23 —
the paper's [5], [15]) read the whole input bitstream in parallel and build
the output by *selecting* input bit positions, so the output transition
points can be placed anywhere and the function is computed deterministically
in a single pass.  Because each output bit is a selected copy of an input
bit, the number of output 1s can only grow with the number of input 1s:
naive SI is restricted to monotonic (non-decreasing) functions.

For GELU — which dips below zero before rising — the best a naive SI block
can do is the monotone envelope of the target, which is exactly the error
visible in Fig. 2(c) of the paper (:class:`NaiveSIGeluBlock`, the
``gelu/naive-si`` registry family).  ASCEND's gate-assisted SI
(:mod:`repro.core.gelu_si`) removes that restriction with a few extra gates.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.specs import NaiveSIGeluSpec
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import gelu_exact
from repro.sc.bitstream import ThermometerStream
from repro.utils.validation import check_positive_int


def monotone_envelope(levels: np.ndarray) -> np.ndarray:
    """Best non-decreasing approximation reachable by selection-only wiring.

    The running maximum of the target output levels: once the output has
    risen it can never fall again, mirroring the structural constraint of
    selection without assist gates.
    """
    return np.maximum.accumulate(np.asarray(levels))


class NaiveSelectiveInterconnect:
    """A selection-only SI block computing a (forcibly monotone) function.

    Parameters
    ----------
    target:
        The real function being approximated.
    input_length, input_scale:
        Thermometer format of the input stream.
    output_length, output_scale:
        Thermometer format of the output stream.
    """

    #: :meth:`process` is the stream datapath (read by the block protocol).
    supports_stream_process = True

    def __init__(
        self,
        target: Callable[[np.ndarray], np.ndarray],
        input_length: int,
        input_scale: float,
        output_length: int,
        output_scale: float,
    ) -> None:
        check_positive_int(input_length, "input_length")
        check_positive_int(output_length, "output_length")
        if input_scale <= 0 or output_scale <= 0:
            raise ValueError("scales must be positive")
        self.target = target
        self.input_length = input_length
        self.input_scale = input_scale
        self.output_length = output_length
        self.output_scale = output_scale
        self.table = self._build_table()

    def _build_table(self) -> np.ndarray:
        """Output one-count for every possible input one-count (monotone)."""
        counts = np.arange(self.input_length + 1)
        x = self.input_scale * (counts - self.input_length / 2.0)
        y = np.asarray(self.target(x), dtype=float)
        levels = np.round(y / self.output_scale).astype(np.int64)
        # Clip symmetrically to ±(L // 2): for odd L, ``-L // 2`` floors to
        # -(L + 1) // 2 and the later +L // 2 shift would leave a -1 count
        # (same convention as GateAssistedSIBlock._quantize_levels).
        levels = np.clip(levels, -(self.output_length // 2), self.output_length // 2)
        monotone = monotone_envelope(levels)
        return (monotone + self.output_length // 2).astype(np.int64)

    # -------------------------------------------------------------- simulate
    def process(self, stream: ThermometerStream) -> ThermometerStream:
        """Map an input thermometer stream through the selection table."""
        if stream.length != self.input_length:
            raise ValueError(
                f"block expects input length {self.input_length}, got {stream.length}"
            )
        counts = self.table[stream.counts]
        return ThermometerStream(counts=counts, length=self.output_length, scale=self.output_scale)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """End-to-end: encode values, run the block, decode the outputs."""
        stream = ThermometerStream.encode(values, self.input_length, self.input_scale)
        return self.process(stream).decode()

    def reference(self, values: np.ndarray) -> np.ndarray:
        """The target function the block approximates."""
        return self.target(np.asarray(values, dtype=float))

    def transition_count(self) -> int:
        """Number of output transitions across the input range.

        Each transition requires one selection tap in hardware; the count is
        what the hardware builder prices.
        """
        return int(np.abs(np.diff(self.table)).sum())

    # -------------------------------------------------------------- hardware
    def build_hardware(self, include_input_sorter: bool = True) -> HardwareModule:
        """Selection taps plus (optionally) the BSN that sorts the raw input.

        In the end-to-end accelerator the activation block ingests the
        parallel partial-sum bits coming out of the preceding matrix-multiply
        tile and sorting them is part of the activation unit's job, so the
        input sorter is included by default (the same convention is used for
        the gate-assisted SI block, keeping the baseline comparison fair).
        """
        from repro.sc.sorting_network import BitonicSortingNetwork

        inventory = ComponentInventory(
            {
                "BUF": self.output_length,
                "DFF": self.output_length,
            }
        )
        submodules = []
        critical_path = ["BUF", "DFF"]
        if include_input_sorter:
            sorter = BitonicSortingNetwork(self.input_length).build_hardware(name="si_input_sorter")
            submodules.append((sorter, 1))
        return HardwareModule(
            name=f"naive_si_{self.input_length}to{self.output_length}",
            inventory=inventory,
            critical_path=tuple(critical_path),
            cycles=1,
            submodules=submodules,
            metadata={
                "input_length": self.input_length,
                "output_length": self.output_length,
                "input_scale": self.input_scale,
                "output_scale": self.output_scale,
                "transitions": self.transition_count(),
            },
        )


class NaiveSIGeluBlock(NaiveSelectiveInterconnect, NonlinearBlock):
    """Selection-only SI GELU — the monotone envelope of Fig. 2(c).

    Omitted formats resolve to the Fig. 2 protocol: a ``32x`` input
    expansion, an input grid covering ``[-8, 8]`` and an output step of
    ``1.2 / output_length``.
    """

    def __init__(
        self,
        output_length: int = 8,
        input_length: Optional[int] = None,
        input_scale: Optional[float] = None,
        output_scale: Optional[float] = None,
    ) -> None:
        if input_length is None:
            input_length = 32 * output_length
        if input_scale is None:
            input_scale = 8.0 / input_length
        if output_scale is None:
            output_scale = 1.2 / output_length
        super().__init__(
            gelu_exact,
            input_length=input_length,
            input_scale=input_scale,
            output_length=output_length,
            output_scale=output_scale,
        )

    def to_spec(self) -> NaiveSIGeluSpec:
        return NaiveSIGeluSpec(
            output_length=self.output_length,
            input_length=self.input_length,
            input_scale=self.input_scale,
            output_scale=self.output_scale,
        )
