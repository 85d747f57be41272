"""Gate-assisted selective interconnect (SI) blocks — Section IV-A.

Naive SI can place output transitions anywhere but can only ever *add* 1s as
the input grows, so it is limited to monotonic functions.  ASCEND's
gate-assisted SI outputs the *logical combination* of selected input bits
instead of the bits themselves: a NOT and an AND gate are enough to make an
output bit rise, fall and rise again as the input sweeps — exactly what the
non-monotonic GELU needs (Fig. 4 of the paper).

Because the input bitstream is deterministic (thermometer) and read in
parallel, the block's output is a pure function of the input one-count with
no random fluctuation at all; the only error left is the quantisation of the
input/output grids.  Fig. 2(d) of the paper and the ``bench_fig2`` benchmark
show this.

Classes
-------
``GateAssistedSIBlock``
    Generic block computing an arbitrary scalar function of a thermometer
    input; this is the reusable primitive.
``TernaryGeluBlock``
    The worked example of Fig. 4(b): 8-bit input stream, 2-bit (ternary)
    output, assist logic ``y[1] = !s[2] & s[1]``, ``y[0] = s[0]``; the
    ``gelu/si-ternary`` registry family.
``GeluSIBlock``
    GELU-specialised block with automatic output-scale calibration, the
    configuration evaluated in Table III / Fig. 7; the ``gelu/si`` registry
    family.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.specs import GeluSISpec, TernaryGeluSpec
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import gelu_exact
from repro.sc.bitstream import ThermometerStream
from repro.sc.encodings import thermometer_decode_counts, thermometer_encode_counts
from repro.sc.sorting_network import BitonicSortingNetwork
from repro.utils.validation import check_positive_int


class GateAssistedSIBlock:
    """SI block with assist gates: computes any scalar function of the input.

    The block is defined by a lookup ``table[c]`` giving the output one-count
    for every input one-count ``c``; unlike
    :class:`repro.sc.selective_interconnect.NaiveSelectiveInterconnect` the
    table is *not* forced to be monotone, because assist gates can turn
    selected bits off again.

    Parameters
    ----------
    target:
        Real scalar function the block implements.
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
        # The decoded output value of every input count: a fault-free
        # evaluation is one gather from it, with no decode pass per call.
        self.value_table = thermometer_decode_counts(self.table, output_length, output_scale)
        self.value_table.setflags(write=False)
        # The decoded value of every output count, for faulted evaluations.
        self.level_values = thermometer_decode_counts(np.arange(output_length + 1), output_length, output_scale)
        self.level_values.setflags(write=False)

    # ----------------------------------------------------------------- table
    def _build_table(self) -> np.ndarray:
        """Output one-count for every possible input one-count (no constraint)."""
        counts = np.arange(self.input_length + 1)
        x = self.input_scale * (counts - self.input_length / 2.0)
        y = np.asarray(self.target(x), dtype=float)
        levels = np.round(y / self.output_scale).astype(np.int64)
        # Clip symmetrically to ±(L // 2): for odd L, ``-L // 2`` floors to
        # -(L + 1)//2, which would let table counts go negative.
        levels = np.clip(levels, -(self.output_length // 2), self.output_length // 2)
        return (levels + self.output_length // 2).astype(np.int64)

    def quantized_function(self, values: np.ndarray) -> np.ndarray:
        """The exact function the circuit realises (including both grids).

        Equal to encode -> :meth:`process` -> decode, as one gather from
        :attr:`value_table`.
        """
        return self.value_table[thermometer_encode_counts(values, self.input_length, self.input_scale)]

    # -------------------------------------------------------------- simulate
    def process(self, stream: ThermometerStream) -> ThermometerStream:
        """Map an input thermometer stream through the block."""
        if stream.length != self.input_length:
            raise ValueError(
                f"block expects input length {self.input_length}, got {stream.length}"
            )
        counts = self.table[stream.counts]
        # Table entries are clipped onto [0, output_length] at build time, so
        # the constructor's range scan is skipped on this per-call hot path
        # (the SC-ViT evaluator routes every GELU activation through here).
        return ThermometerStream(
            counts=counts, length=self.output_length, scale=self.output_scale, validate=False
        )

    def evaluate(self, values: np.ndarray, faults=None) -> np.ndarray:
        """End-to-end: encode real values, run the block, decode the outputs.

        ``faults``, an armed :class:`~repro.eval_pipeline.faults.BitFlipFaultModel`,
        flips bits of the input and output streams, sampled as one composed site.
        """
        if faults is None:
            return self.quantized_function(np.asarray(values, dtype=float))
        counts = thermometer_encode_counts(values, self.input_length, self.input_scale)
        counts = faults.perturb_counts(counts, self.input_length, through=(self.table, self.output_length))
        return self.level_values.take(counts)

    def reference(self, values: np.ndarray) -> np.ndarray:
        """The target function the block approximates."""
        return self.target(np.asarray(values, dtype=float))

    # ------------------------------------------------------------ complexity
    def output_bit_transitions(self) -> np.ndarray:
        """Number of 0/1 transitions of each output bit across the input sweep.

        Output bit ``b`` of the thermometer code is 1 exactly when the output
        count exceeds ``b``; every transition of that indicator as the input
        count sweeps needs one selection tap (and the falling ones need
        assist gates).  This is the quantity the hardware model prices.
        """
        transitions = np.empty(self.output_length, dtype=np.int64)
        for bit in range(self.output_length):
            indicator = (self.table > bit).astype(np.int8)
            transitions[bit] = int(np.abs(np.diff(indicator)).sum())
        return transitions

    def is_monotonic(self) -> bool:
        """True when the realised table happens to be non-decreasing."""
        return bool(np.all(np.diff(self.table) >= 0))

    #: Register banks are inserted into the input sorter after this many
    #: compare-exchange stages; the activation unit is a feed-forward
    #: pipeline, so throughput is one result per cycle at this stage depth.
    SORTER_PIPELINE_STAGES = 6

    # -------------------------------------------------------------- hardware
    def build_hardware(self, include_input_sorter: bool = True, name: Optional[str] = None) -> HardwareModule:
        """Structural model of the block.

        Per output bit: one selection tap (buffer) per table transition, one
        assist gate per *falling* transition (the NOT/AND pair of Fig. 4a),
        and an output register.  The optional input sorter is the BSN that
        turns the parallel partial-sum bits arriving from the preceding
        matrix-multiply tile into a thermometer stream; it is included by
        default so the comparison against serial baselines prices the whole
        activation unit (the same convention is applied to the naive-SI
        baseline).  The sorter is pipelined (its register banks are charged
        to the inventory) and the reported delay is the per-result initiation
        interval, matching how the serial baselines are also credited with
        their pipelined per-cycle period.
        """
        transitions = self.output_bit_transitions()
        total_transitions = int(transitions.sum())
        falling = max(0, (total_transitions - self.output_length) // 2)
        inventory = ComponentInventory(
            {
                "BUF": max(1, total_transitions),
                "AND2": max(1, falling + self.output_length),
                "INV": max(1, falling),
                "DFF": self.output_length,
            }
        )
        submodules = []
        critical_path = ["BUF", "INV", "AND2", "DFF"]
        if include_input_sorter:
            sorter = BitonicSortingNetwork(self.input_length).build_hardware(
                name="si_input_sorter", pipeline_every=self.SORTER_PIPELINE_STAGES
            )
            submodules.append((sorter, 1))
            critical_path = ["SORT_CE"] * min(self.SORTER_PIPELINE_STAGES, sorter.metadata["depth"]) + critical_path
        return HardwareModule(
            name=name or f"gate_assisted_si_{self.input_length}to{self.output_length}",
            inventory=inventory,
            critical_path=tuple(critical_path),
            cycles=1,
            submodules=submodules,
            pipelined=True,
            metadata={
                "input_length": self.input_length,
                "output_length": self.output_length,
                "input_scale": self.input_scale,
                "output_scale": self.output_scale,
                "transitions": total_transitions,
                "monotonic": self.is_monotonic(),
            },
        )


class TernaryGeluBlock(GateAssistedSIBlock, NonlinearBlock):
    """The Fig. 4(b) worked example: 8-bit input, ternary (2-bit) output.

    The selection signals ``s[2:0]`` fire at the input counts where the
    quantised GELU changes level; the assist logic
    ``y[1] = !s[2] & s[1]``, ``y[0] = s[0]`` realises the 0 → -1 → 0 → +1
    staircase of ternary GELU.

    The default scaling factors (input grid covering roughly ``[-3, 3]``,
    output step ~0.2) are the ones for which the ternary staircase actually
    exhibits GELU's negative dip, matching the transfer curve plotted in the
    paper's Fig. 4(b).
    """

    def __init__(self, input_scale: float = 0.75, output_scale: float = 0.2) -> None:
        super().__init__(
            target=gelu_exact,
            input_length=8,
            input_scale=input_scale,
            output_length=2,
            output_scale=output_scale,
        )

    def to_spec(self) -> TernaryGeluSpec:
        return TernaryGeluSpec(input_scale=self.input_scale, output_scale=self.output_scale)

    def selection_signals(self, stream: ThermometerStream) -> np.ndarray:
        """The three selection signals of Fig. 4, for inspection and tests.

        ``s[2]`` marks the entry into the negative dip, ``s[1]`` the return
        to zero, ``s[0]`` the rise to +1; each is 1 once the input count has
        passed the corresponding transition.
        """
        diffs = np.diff(self.table)
        change_points = np.nonzero(diffs != 0)[0] + 1  # input counts where the level changes
        signals = np.zeros(stream.shape + (3,), dtype=np.int8)
        for idx, point in enumerate(change_points[:3]):
            signals[..., 2 - idx] = (stream.counts >= point).astype(np.int8)
        return signals


def calibrate_output_scale(
    target: Callable[[np.ndarray], np.ndarray],
    input_samples: np.ndarray,
    output_length: int,
    input_length: int,
    input_scale: float,
    candidate_scales: Optional[Sequence[float]] = None,
) -> float:
    """Pick the output scaling factor minimising MAE on a sample distribution.

    This mirrors what a designer does when fixing the fixed-point formats of
    an accelerator: the representable output range (``scale * L / 2``) is
    traded against resolution (``scale``), using the actual operand
    distribution collected from the network.
    """
    check_positive_int(output_length, "output_length")
    input_samples = np.asarray(input_samples, dtype=float).reshape(-1)
    reference = np.asarray(target(input_samples), dtype=float)
    max_abs = max(np.abs(reference).max(), 1e-6)
    if candidate_scales is None:
        # From "range exactly covered" down to fine resolution.
        full = 2.0 * max_abs / output_length
        candidate_scales = full * np.geomspace(0.05, 1.5, 40)
    best_scale, best_mae = None, np.inf
    for scale in candidate_scales:
        block = GateAssistedSIBlock(
            target, input_length, input_scale, output_length, float(scale)
        )
        mae = float(np.mean(np.abs(block.evaluate(input_samples) - reference)))
        if mae < best_mae:
            best_scale, best_mae = float(scale), mae
    return best_scale


class GeluSIBlock(GateAssistedSIBlock, NonlinearBlock):
    """GELU block via gate-assisted SI, the design evaluated in Table III.

    ``output_length`` is the BSL reported in the paper's table (2, 4 or 8
    bits).  The input stream is the accumulated pre-activation arriving from
    the preceding linear layer; its length defaults to ``32x`` the output
    BSL, the ratio used throughout the accelerator model.  When
    ``output_scale`` is omitted it is calibrated on ``calibration_samples``
    (or a standard-normal proxy of the MLP pre-activation distribution).
    """

    #: Ratio between the accumulated input BSL and the output BSL.
    INPUT_EXPANSION = 32

    def __init__(
        self,
        output_length: int,
        input_length: Optional[int] = None,
        input_scale: Optional[float] = None,
        output_scale: Optional[float] = None,
        calibration_samples: Optional[np.ndarray] = None,
        input_range: float = 4.0,
    ) -> None:
        check_positive_int(output_length, "output_length")
        if input_length is None:
            input_length = self.INPUT_EXPANSION * output_length
        if input_scale is None:
            input_scale = 2.0 * input_range / input_length
        if calibration_samples is None:
            calibration_samples = np.linspace(-input_range, input_range, 2048)
        if output_scale is None:
            output_scale = calibrate_output_scale(
                gelu_exact,
                calibration_samples,
                output_length,
                input_length,
                input_scale,
            )
        super().__init__(
            target=gelu_exact,
            input_length=input_length,
            input_scale=input_scale,
            output_length=output_length,
            output_scale=output_scale,
        )
        self.input_range = input_range

    def to_spec(self) -> GeluSISpec:
        return GeluSISpec(
            output_length=self.output_length,
            input_length=self.input_length,
            input_scale=self.input_scale,
            output_scale=self.output_scale,
            input_range=self.input_range,
        )

    # Bound in this class body as well as inherited, so instrumentation that
    # patches the gelu/si family class's own methods (perfbench's layer
    # ledger) sees every call the eval pipeline makes.
    evaluate = GateAssistedSIBlock.evaluate
    process = GateAssistedSIBlock.process
