"""Stochastic number generators (SNGs).

Traditional (non-deterministic) SC designs convert a binary number into a
stochastic bitstream by comparing it against a pseudo-random sequence every
cycle; the pseudo-random source is almost always a maximal-length linear
feedback shift register (LFSR).  The FSM- and Bernstein-polynomial baselines
in this reproduction use these generators, and their hardware cost (many
LFSR bits and comparators) is part of why the paper's deterministic designs
win on area-delay product.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.sc.bitstream import StochasticStream
from repro.sc.encodings import bipolar_encode, unipolar_encode
from repro.sc.packed import PackedBitPlane, bernoulli_plane
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_choices, check_positive_int

#: Feedback tap positions (1-indexed from the output bit) of maximal-length
#: Fibonacci LFSRs for common widths.  Source: standard m-sequence tables.
_MAXIMAL_TAPS: Dict[int, Tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
}


@lru_cache(maxsize=64)
def _lfsr_cycle(width: int, taps: Tuple[int, ...]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Precomputed state cycle of a Galois LFSR, shared across instances.

    Returns ``(cycle, pos)`` where ``cycle[i]`` is the state reached after
    ``i + 1`` steps from state 1 and ``pos[s]`` is the index of state ``s``
    in that cycle (-1 when ``s`` is not on it).  Because the successor of a
    state is state-autonomous, any register whose current state lies on the
    cycle can read its whole future from this table; for maximal-length taps
    that is every nonzero state, i.e. the full m-sequence.

    ``None`` is returned when no clean cycle through state 1 exists (only
    possible for user-supplied non-maximal taps, where the all-zero lockup
    guard would make the trajectory instance-dependent); callers then fall
    back to scalar stepping.
    """
    tap_mask = 0
    for tap in taps:
        tap_mask |= 1 << (tap - 1)
    states = []
    state = 1
    for _ in range(1 << width):
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= tap_mask
        if state == 0:
            return None
        states.append(state)
        if state == 1:
            break
    else:
        return None
    cycle = np.array(states, dtype=np.int64)
    pos = np.full(1 << width, -1, dtype=np.int64)
    pos[cycle] = np.arange(len(cycle))
    return cycle, pos


@lru_cache(maxsize=64)
def _lfsr_threshold_cycle(
    width: int, taps: Tuple[int, ...]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Unit-interval comparator thresholds of the whole LFSR cycle.

    ``(thresholds, pos)`` where ``thresholds[i] = cycle[i] / 2**width`` —
    the float each generated bit is compared against.  Caching the float
    conversion here (once per ``(width, taps)``) instead of converting per
    :meth:`StochasticNumberGenerator.generate` call batches the LFSR gather
    work across a whole eval batch: per call only the window gather and the
    broadcasted comparison remain.
    """
    cached = _lfsr_cycle(width, taps)
    if cached is None:
        return None
    cycle, pos = cached
    return cycle.astype(np.float64) / float(1 << width), pos


class LinearFeedbackShiftRegister:
    """A Galois LFSR producing a maximal-length pseudo-random sequence.

    The register state is interpreted as an unsigned integer in
    ``[1, 2**width - 1]`` (the all-zero state is excluded, as in hardware).
    The tap positions correspond to the exponents of the primitive feedback
    polynomial (the table above lists maximal-length polynomials), realised
    in the Galois form: when the shifted-out bit is 1, the tap mask is XORed
    into the state.
    """

    def __init__(self, width: int, seed_state: int = 1, taps: Optional[Sequence[int]] = None) -> None:
        check_positive_int(width, "width")
        if taps is None:
            if width not in _MAXIMAL_TAPS:
                raise ValueError(
                    f"no default maximal-length taps for width {width}; "
                    f"supported widths: {sorted(_MAXIMAL_TAPS)}"
                )
            taps = _MAXIMAL_TAPS[width]
        self.width = width
        self.taps = tuple(taps)
        if any(t < 1 or t > width for t in self.taps):
            raise ValueError(f"tap positions must lie in [1, {width}]")
        if not 1 <= seed_state <= (1 << width) - 1:
            raise ValueError(f"seed_state must lie in [1, {(1 << width) - 1}]")
        self._tap_mask = 0
        for tap in self.taps:
            self._tap_mask |= 1 << (tap - 1)
        self.state = int(seed_state)
        self._initial_state = int(seed_state)

    @property
    def period(self) -> int:
        """Sequence period of a maximal-length LFSR: ``2**width - 1``."""
        return (1 << self.width) - 1

    def reset(self) -> None:
        """Restore the register to its seed state."""
        self.state = self._initial_state

    def step(self) -> int:
        """Advance one clock cycle; return the new state as an integer."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= self._tap_mask
        if self.state == 0:  # unreachable for maximal taps, but stay safe
            self.state = self._initial_state
        return self.state

    def sequence(self, length: int) -> np.ndarray:
        """Return the next ``length`` states as an integer array.

        Fast path: the whole state cycle is precomputed once per
        ``(width, taps)`` (LRU-cached at module level) and the requested
        window is gathered from it in one vectorised take — identical
        states to scalar stepping, without the per-cycle Python loop.
        """
        check_positive_int(length, "length")
        cached = _lfsr_cycle(self.width, self.taps)
        if cached is not None:
            cycle, pos = cached
            start = pos[self.state]
            if start >= 0:
                idx = (start + 1 + np.arange(length, dtype=np.int64)) % len(cycle)
                out = cycle[idx]
                self.state = int(out[-1])
                return out
        out = np.empty(length, dtype=np.int64)
        for i in range(length):
            out[i] = self.step()
        return out

    def build_hardware(self) -> HardwareModule:
        """Structural description: one LFSR bit cell per register stage."""
        inventory = ComponentInventory({"LFSR_BIT": self.width})
        return HardwareModule(
            name=f"lfsr{self.width}",
            inventory=inventory,
            critical_path=("XOR2", "DFF"),
            cycles=1,
            metadata={"width": self.width, "taps": self.taps},
        )


class StochasticNumberGenerator:
    """Converts real values into stochastic bitstreams.

    Two modes:

    * ``mode="lfsr"`` — hardware-faithful: each cycle the value's quantised
      probability is compared against the LFSR state.  The generated stream
      is deterministic given the LFSR seed, with the correlation artefacts
      real SC hardware exhibits.
    * ``mode="ideal"`` — i.i.d. Bernoulli bits from a software RNG, the usual
      idealisation in SC error analyses.
    """

    def __init__(
        self,
        length: int,
        encoding: str = "unipolar",
        mode: str = "lfsr",
        lfsr_width: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive_int(length, "length")
        check_in_choices(encoding, ("unipolar", "bipolar"), "encoding")
        check_in_choices(mode, ("lfsr", "ideal"), "mode")
        self.length = length
        self.encoding = encoding
        self.mode = mode
        if lfsr_width is None:
            lfsr_width = max(3, int(np.ceil(np.log2(length + 1))))
        self.lfsr_width = lfsr_width
        self._rng = as_generator(seed)

    def _probabilities(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.encoding == "unipolar":
            return unipolar_encode(values)
        return bipolar_encode(values)

    def generate(self, values: np.ndarray) -> StochasticStream:
        """Generate one bitstream per input value.

        Both modes hand the comparator output (a boolean tensor over the
        whole value batch, produced by one broadcasted numpy op) straight to
        the packed-bitplane representation — the explicit ``int8`` bits are
        only materialised if a caller asks for them.
        """
        values = np.asarray(values, dtype=float)
        probs = self._probabilities(values)
        if self.mode == "ideal":
            packed = bernoulli_plane(probs.shape, self.length, probs, self._rng)
            return StochasticStream(packed=packed, encoding=self.encoding)

        # LFSR mode: every value in the batch shares the LFSR sequence, the
        # way a hardware SNG bank shares one pseudo-random source per lane.
        seed_state = int(self._rng.integers(1, (1 << self.lfsr_width) - 1))
        lfsr = LinearFeedbackShiftRegister(self.lfsr_width, seed_state=seed_state)
        cached = _lfsr_threshold_cycle(self.lfsr_width, lfsr.taps)
        thresholds = None
        if cached is not None:
            threshold_cycle, pos = cached
            start = int(pos[seed_state])
            if start >= 0:
                idx = (start + 1 + np.arange(self.length, dtype=np.int64)) % len(threshold_cycle)
                thresholds = threshold_cycle[idx]
        if thresholds is None:  # non-maximal user taps: scalar stepping
            states = lfsr.sequence(self.length).astype(float)
            thresholds = states / float(lfsr.period + 1)
        bits = thresholds[None, ...] < probs.reshape(-1, 1)
        bits = bits.reshape(probs.shape + (self.length,))
        return StochasticStream(packed=PackedBitPlane.from_bits(bits), encoding=self.encoding)

    def build_hardware(self) -> HardwareModule:
        """One LFSR plus a comparator of the LFSR width."""
        lfsr = LinearFeedbackShiftRegister(self.lfsr_width)
        inventory = ComponentInventory({"CMP_BIT": self.lfsr_width})
        return HardwareModule(
            name=f"sng_w{self.lfsr_width}",
            inventory=inventory,
            critical_path=("CMP_BIT",),
            cycles=1,
            submodules=[(lfsr.build_hardware(), 1)],
            metadata={
                "length": self.length,
                "encoding": self.encoding,
                "lfsr_width": self.lfsr_width,
            },
        )
