"""FSM-based SC nonlinear function units (baseline family #1).

The classical way to compute a nonlinear function on a stochastic bitstream
is a finite state machine built around a saturating up/down counter (Brown &
Card; used for tanh/sigmoid/ReLU by the CNN-oriented SC accelerators the
paper cites as [6]-[9]).  The input stream drives the counter up on 1s and
down on 0s; an output rule maps the current state (and optionally the input
bit) to the output bit.

These designs have the two weaknesses Section III-A describes:

* they process the stream serially, so latency grows linearly with the BSL
  and the output exhibits random fluctuation that only long streams average
  out,
* for GELU-like functions the output saturates at zero over the negative
  input range, which is a *systematic* error no BSL can remove (Fig. 2a).

The implementations here are functional bit-level simulations plus the
structural hardware description used by the cost model.  The tanh, ReLU
and GELU units are the ``tanh/fsm``, ``relu/fsm`` and ``gelu/fsm`` registry
families.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.specs import FsmGeluSpec, FsmReluSpec, FsmTanhSpec
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.sc.bitstream import StochasticStream
from repro.sc.packed import PackedBitPlane, _NATIVE_LITTLE_ENDIAN, _kernels
from repro.sc.sng import StochasticNumberGenerator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


@lru_cache(maxsize=32)
def _fsm_scan_tables(num_states: int):
    """Byte-granular transition tables of the saturating up/down counter.

    The counter recurrence ``s' = clip(s + 2b - 1, 0, N - 1)`` depends only
    on ``num_states``, so the whole trajectory through 8 input bits can be
    tabulated once per state and input byte:

    * ``pre[s, byte, i]`` — counter value *before* consuming bit ``i`` of
      ``byte`` (little-endian, matching the packed-bitplane byte layout)
      when the byte is entered in state ``s``,
    * ``nxt[s, byte]`` — state after all 8 bits.

    A bitstream of length L is then scanned in ``ceil(L / 8)`` vectorised
    table lookups instead of L Python-level clip/update steps.  Returns
    ``None`` for counters too large to tabulate (> 256 states), where the
    per-cycle fallback is used.
    """
    if num_states > 256:
        return None
    pre = np.empty((num_states, 256, 8), dtype=np.uint8)
    nxt = np.empty((num_states, 256), dtype=np.uint8)
    states = np.arange(num_states, dtype=np.int64)
    for byte in range(256):
        current = states.copy()
        for i in range(8):
            bit = (byte >> i) & 1
            pre[:, byte, i] = current
            current = np.clip(current + (2 * bit - 1), 0, num_states - 1)
        nxt[:, byte] = current
    return pre, nxt


class FsmNonlinearUnit:
    """Generic saturating-counter FSM processing a bipolar bitstream.

    Parameters
    ----------
    num_states:
        Number of counter states; the classic stanh(N/2 * x) uses the state
        threshold rule with ``N`` states.
    output_rule:
        Callable ``(state, input_bit, cycle) -> output_bit`` evaluated every
        cycle.  ``state`` is the counter value *before* the update.
    name:
        Unit name used for hardware reports.
    vectorized_rule:
        When True, ``output_rule`` is guaranteed to broadcast over the whole
        stream at once (``state``/``input_bit`` of shape ``(..., L)`` and
        ``cycle`` an ``arange(L)``), letting :meth:`process` skip the
        per-cycle Python loop entirely.  The built-in tanh/ReLU/GELU units
        opt in; arbitrary user rules keep the exact cycle-by-cycle calling
        convention.
    bitstream_length, seed, input_scale:
        The stochastic parameters of :meth:`evaluate` (stream length, the
        seed every call encodes with, and the real value of a full-scale
        bipolar input); :meth:`build_hardware` is priced at
        ``bitstream_length``.
    """

    #: :meth:`process` is the stream datapath (read by the block protocol).
    supports_stream_process = True

    def __init__(
        self,
        num_states: int,
        output_rule: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
        name: str = "fsm_unit",
        vectorized_rule: bool = False,
        bitstream_length: int = 256,
        seed: SeedLike = 0,
        input_scale: float = 1.0,
    ) -> None:
        check_positive_int(num_states, "num_states")
        if num_states < 2:
            raise ValueError("an FSM unit needs at least 2 states")
        check_positive_int(bitstream_length, "bitstream_length")
        self.num_states = num_states
        self.output_rule = output_rule
        self.name = name
        self.vectorized_rule = bool(vectorized_rule)
        self.bitstream_length = bitstream_length
        self.seed = seed
        self.input_scale = input_scale
        #: Period (in cycles) of the output rule's dependence on ``cycle``,
        #: or ``None`` when unknown.  Built-in units declare theirs; when the
        #: period divides 8 the whole forward pass can run on byte-granular
        #: output tables (see :meth:`_outbyte_table`).  Custom rules keep
        #: ``None`` and always take the exact per-cycle path.
        self.cycle_period: Optional[int] = None
        self._outbyte_cache: Optional[np.ndarray] = None

    # -------------------------------------------------------------- simulate
    def _state_trajectory(self, stream: StochasticStream, initial_state: int) -> np.ndarray:
        """Counter value before every cycle, shape ``value_shape + (L,)``.

        Uses the byte-granular transition-table scan on the packed input
        bitplanes; the zero-padded tail bytes of the packed representation
        are scanned too (cheap) and their trajectory entries sliced away.
        """
        length = stream.length
        tables = _fsm_scan_tables(self.num_states)
        if tables is None:  # giant counters: legacy per-cycle update
            bits = stream.bits
            state = np.full(stream.value_shape, initial_state, dtype=np.int64)
            trajectory = np.empty(bits.shape, dtype=np.int64)
            for cycle in range(length):
                trajectory[..., cycle] = state
                state = np.clip(state + (2 * bits[..., cycle] - 1), 0, self.num_states - 1)
            return trajectory
        pre, nxt = tables
        stream_bytes = stream.packed.byte_view()
        num_bytes = stream_bytes.shape[-1]
        trajectory = _kernels().fsm_trajectory(
            stream_bytes, pre, nxt, initial_state, self.num_states
        )
        return trajectory.reshape(stream.value_shape + (num_bytes * 8,))[..., :length]

    def _outbyte_table(self) -> Optional[np.ndarray]:
        """``outbyte[s, byte]``: the 8 output bits emitted while consuming
        ``byte`` entered in state ``s``, packed little-endian.

        Only defined when the output rule's cycle dependence has a declared
        period dividing 8 — then every byte starts at cycle phase 0 and the
        rule evaluated on ``arange(8)`` matches its value at any global
        cycle, so one table gather per byte replaces the per-cycle rule
        evaluation over the whole stream.  Returns ``None`` otherwise.
        """
        if self._outbyte_cache is not None:
            return self._outbyte_cache
        if not self.vectorized_rule or self.cycle_period is None or 8 % self.cycle_period:
            return None
        tables = _fsm_scan_tables(self.num_states)
        if tables is None:
            return None
        pre, _ = tables
        # Input bit i of every byte value, broadcast against the state axis.
        bits_in = ((np.arange(256)[None, :, None] >> np.arange(8)) & 1).astype(np.int8)
        out_bits = np.asarray(self.output_rule(pre, bits_in, np.arange(8)))
        outbyte = np.packbits(out_bits.astype(np.uint8), axis=-1, bitorder="little")
        self._outbyte_cache = outbyte[..., 0]
        return self._outbyte_cache

    def process(self, stream: StochasticStream, initial_state: Optional[int] = None) -> StochasticStream:
        """Run the FSM over a bipolar input stream, producing a bipolar stream."""
        if stream.encoding != "bipolar":
            raise ValueError("FSM nonlinear units operate on bipolar streams")
        length = stream.length
        if initial_state is None:
            initial_state = self.num_states // 2
        outbyte = self._outbyte_table()
        if outbyte is not None:
            # Fused path: state scan and output-rule evaluation collapse into
            # byte-table gathers; bit-identical to the vectorized-rule path
            # (the constructor re-masks rule output on the zero-padded tail).
            pre, nxt = _fsm_scan_tables(self.num_states)
            stream_bytes = stream.packed.byte_view()
            out_bytes = _kernels().fsm_forward_bytes(
                stream_bytes, nxt, outbyte, initial_state, self.num_states
            )
            words = np.ascontiguousarray(out_bytes).view(np.uint64)
            if not _NATIVE_LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
                words = words.byteswap()
            packed = PackedBitPlane(words, length)
            return StochasticStream(packed=packed, encoding="bipolar")
        states = self._state_trajectory(stream, initial_state)
        bits = stream.bits
        if self.vectorized_rule:
            cycles = np.arange(length)
            out = np.asarray(self.output_rule(states, bits, cycles))
        else:
            out = np.empty_like(bits)
            states = states.astype(np.int64, copy=False)
            for cycle in range(length):
                out[..., cycle] = self.output_rule(states[..., cycle], bits[..., cycle], cycle)
        # A unit declaring vectorized_rule guarantees 0/1 outputs, so the
        # full-array re-scan is skipped on that hot path; arbitrary per-cycle
        # rules keep the constructor's check (the seed behaviour).
        return StochasticStream(bits=out, encoding="bipolar", validate=not self.vectorized_rule)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """End-to-end: encode values, run the FSM, decode the outputs.

        ``input_scale`` maps real values into the bipolar range: the encoded
        stream represents ``value / input_scale`` and the decoded output is
        multiplied back, mirroring how scaling factors bracket an SC unit.
        Every call encodes with a generator seeded from ``seed``.
        """
        values = np.asarray(values, dtype=float)
        rng = as_generator(self.seed)
        scaled = np.clip(values / self.input_scale, -1.0, 1.0)
        stream = StochasticStream.encode(scaled, self.bitstream_length, encoding="bipolar", seed=rng)
        out_stream = self.process(stream)
        return out_stream.decode() * self.input_scale

    def _spec_fields(self) -> dict:
        """The fields every FSM unit spec shares."""
        return {
            "num_states": self.num_states,
            "bitstream_length": self.bitstream_length,
            "seed": self.seed,
            "input_scale": self.input_scale,
        }

    # -------------------------------------------------------------- hardware
    def build_hardware(self) -> HardwareModule:
        """Counter bits + output logic + the 8-bit-LFSR SNG that feeds the unit.

        The counter update is a cycle-to-cycle recurrence, so the design
        cannot be pipelined across cycles; producing one result takes
        ``bitstream_length`` clock periods of the counter's critical path.
        """
        bitstream_length = self.bitstream_length
        counter_bits = max(1, int(np.ceil(np.log2(self.num_states))))
        inventory = ComponentInventory(
            {
                "COUNTER_BIT": counter_bits,
                "AND2": 2,
                "OR2": 1,
                "MUX2": 1,
                "DFF": 1,
            }
        )
        sng = StochasticNumberGenerator(length=bitstream_length, encoding="bipolar", lfsr_width=8)
        return HardwareModule(
            name=f"{self.name}_L{bitstream_length}",
            inventory=inventory,
            critical_path=("COUNTER_BIT", "AND2", "MUX2"),
            cycles=bitstream_length,
            submodules=[(sng.build_hardware(), 1)],
            metadata={
                "num_states": self.num_states,
                "counter_bits": counter_bits,
                "bitstream_length": bitstream_length,
            },
        )


class FsmTanhUnit(FsmNonlinearUnit, NonlinearBlock):
    """The classic stanh FSM: output 1 when the counter is in the upper half.

    Approximates ``tanh(num_states / 2 * x)`` on bipolar inputs.
    """

    def __init__(
        self, num_states: int = 8, bitstream_length: int = 256, seed: SeedLike = 0, input_scale: float = 1.0
    ) -> None:
        half = num_states // 2

        def rule(state, in_bit, cycle):
            # Broadcasts over a whole (..., L) trajectory or a single cycle.
            return (state >= half).astype(np.int8)

        super().__init__(
            num_states=num_states,
            output_rule=rule,
            name="fsm_tanh",
            vectorized_rule=True,
            bitstream_length=bitstream_length,
            seed=seed,
            input_scale=input_scale,
        )
        self.cycle_period = 1  # the rule ignores the cycle index entirely

    def to_spec(self) -> FsmTanhSpec:
        return FsmTanhSpec(**self._spec_fields())

    def reference(self, values: np.ndarray) -> np.ndarray:
        """The mathematical function the unit approximates."""
        x = np.asarray(values, dtype=float) / self.input_scale
        return np.tanh(self.num_states / 2.0 * x) * self.input_scale


class FsmReluUnit(FsmNonlinearUnit, NonlinearBlock):
    """FSM-based ReLU (the SC-DCNN / HEIF style design).

    While the counter estimates the sign of the running input, the output
    follows the input bit in the positive region and an alternating 0/1
    pattern (value 0 in bipolar coding) in the negative region.
    """

    def __init__(
        self, num_states: int = 16, bitstream_length: int = 256, seed: SeedLike = 0, input_scale: float = 1.0
    ) -> None:
        half = num_states // 2

        def rule(state, in_bit, cycle):
            # ``cycle`` may be a scalar or the full arange(L); the 0/1
            # alternation broadcasts against the trajectory either way.
            positive = state >= half
            zero_bit = np.asarray(cycle) % 2
            return np.where(positive, in_bit, zero_bit).astype(np.int8)

        super().__init__(
            num_states=num_states,
            output_rule=rule,
            name="fsm_relu",
            vectorized_rule=True,
            bitstream_length=bitstream_length,
            seed=seed,
            input_scale=input_scale,
        )
        self.cycle_period = 2  # only the 0/1 alternation depends on the cycle

    def to_spec(self) -> FsmReluSpec:
        return FsmReluSpec(**self._spec_fields())

    @staticmethod
    def reference(values: np.ndarray) -> np.ndarray:
        """The mathematical function the unit approximates (ReLU)."""
        return np.maximum(np.asarray(values, dtype=float), 0.0)


class FsmGeluUnit(FsmNonlinearUnit, NonlinearBlock):
    """FSM baseline for GELU.

    No published FSM design computes GELU exactly; the closest achievable
    behaviour (and the one Fig. 2a of the paper illustrates) gates the input
    stream by a smooth sign estimate: the output follows the input bit with a
    probability that ramps up with the counter state, approximating
    ``x * sigmoid(1.702 x)`` for positive inputs but saturating at zero for
    negative inputs — the systematic error ASCEND's gate-assisted SI removes.
    """

    def __init__(
        self, num_states: int = 16, bitstream_length: int = 256, seed: SeedLike = 0, input_scale: float = 4.0
    ) -> None:
        def rule(state, in_bit, cycle):
            # The gate opens gradually across the upper half of the counter
            # range, emulating the sigmoid factor of GELU; cycling through
            # the threshold pattern avoids correlation with the input bit.
            # ``cycle`` may be a scalar or the full arange(L).
            cycle = np.asarray(cycle)
            threshold = (cycle % (num_states // 2)) + num_states // 2
            gate = state >= threshold
            zero_bit = cycle % 2
            return np.where(gate, in_bit, zero_bit).astype(np.int8)

        super().__init__(
            num_states=num_states,
            output_rule=rule,
            name="fsm_gelu",
            vectorized_rule=True,
            bitstream_length=bitstream_length,
            seed=seed,
            input_scale=input_scale,
        )
        # The threshold ramp repeats every num_states // 2 cycles and the
        # 0/1 alternation every 2; the fused byte path engages only when
        # this combined period divides 8 (true for the default 16 states).
        self.cycle_period = int(np.lcm(num_states // 2, 2))

    def to_spec(self) -> FsmGeluSpec:
        return FsmGeluSpec(**self._spec_fields())

    @staticmethod
    def reference(values: np.ndarray) -> np.ndarray:
        """Exact GELU, the target the baseline is measured against."""
        from repro.nn.functional_math import gelu_exact

        return gelu_exact(np.asarray(values, dtype=float))
