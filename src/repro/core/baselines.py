"""The softmax baseline the paper compares ASCEND against (Table IV).

:class:`FsmSoftmaxBaseline` is the FSM + binary-unit softmax architecture
of Hu et al. (the paper's reference [17]) and the ``softmax/fsm`` registry
family.  Each input is exponentiated with a stochastic FSM unit, the
resulting probabilities are estimated by counting over the bitstream (which
is where the random error comes from), and the normalisation is done with
binary adders and a divider.  The design's area is independent of the BSL
while its delay and error scale with it, which is exactly the trade-off
visible in Table IV.

The GELU baselines (FSM, Bernstein polynomial, naive SI) are general
nonlinear units and live in :mod:`repro.sc`; the Table I capability matrix
is generated from registry metadata (:func:`repro.blocks.capability_matrix`).
"""

from __future__ import annotations

import numpy as np

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.specs import FsmSoftmaxSpec
from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.nn.functional_math import softmax_exact
from repro.sc.bitstream import StochasticStream
from repro.sc.sng import StochasticNumberGenerator
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


class FsmSoftmaxBaseline(NonlinearBlock):
    """FSM-based softmax (reference [17] of the paper).

    Functional model: each logit is shifted so the row maximum is zero (the
    binary pre-processing step of [17]), the exponential of each shifted
    logit is estimated by counting the output of a stochastic exponentiation
    FSM over ``bitstream_length`` cycles, and the normalisation is performed
    exactly in binary.  The estimate of each exponential therefore carries
    binomial counting noise with variance ``p (1 - p) / L`` plus the FSM's
    own approximation error — the reason Table IV shows the design's MAE
    barely improving from 128 to 1024 bits.

    The counting noise comes from one generator seeded at construction, so
    successive :meth:`evaluate` calls draw fresh noise.
    """

    #: Gain of the stochastic exponentiation FSM (Brown & Card's sexp unit
    #: approximates exp(-2 G x) for x in [0, 1]); logits are scaled into that
    #: domain before encoding, so logit differences beyond ``2 * FSM_GAIN``
    #: saturate — one of the design's systematic error sources.
    FSM_GAIN = 2

    def __init__(
        self,
        m: int,
        bitstream_length: int,
        num_states: int = 32,
        seed: SeedLike = 0,
        bit_level: bool = False,
    ) -> None:
        check_positive_int(m, "m")
        check_positive_int(bitstream_length, "bitstream_length")
        check_positive_int(num_states, "num_states")
        self.m = m
        self.bitstream_length = bitstream_length
        self.num_states = num_states
        self.seed = seed
        self.bit_level = bool(bit_level)
        self._rng = as_generator(seed)

    def to_spec(self) -> FsmSoftmaxSpec:
        return FsmSoftmaxSpec(
            m=self.m,
            bitstream_length=self.bitstream_length,
            num_states=self.num_states,
            seed=self.seed,
            bit_level=self.bit_level,
        )

    def _counted_fraction(self, probs: np.ndarray) -> np.ndarray:
        """Fraction of 1s a binary counter reads off an L-bit stream.

        The default samples the count directly from its exact binomial law.
        ``bit_level=True`` instead materialises the streams on the packed
        bitplane engine and popcounts them — statistically identical, but
        exercises the same datapath as the hardware (useful for cross-checks
        and for scaling studies of the packed representation).
        """
        if self.bit_level:
            stream = StochasticStream.encode(probs, self.bitstream_length, seed=self._rng)
            return stream.ones_count() / self.bitstream_length
        return self._rng.binomial(self.bitstream_length, probs) / self.bitstream_length

    # -------------------------------------------------------------- simulate
    def _fsm_exponential_estimate(self, shifted: np.ndarray) -> np.ndarray:
        """Noisy estimate of ``exp(shifted)`` for shifted <= 0.

        The FSM's steady-state output probability approximates the target
        exponential; the value actually observed by the downstream binary
        logic is the fraction of 1s counted over the finite bitstream, i.e. a
        binomial sample around that probability.  Three error sources of the
        real design are modelled: the limited exponent range of the sexp unit
        (inputs saturate at ``-2 * FSM_GAIN``), the granularity of the
        saturating counter (only ``num_states`` distinct output levels), and
        the binomial counting noise of the finite bitstream.
        """
        x = np.clip(shifted / (2.0 * self.FSM_GAIN), -1.0, 0.0)
        ideal = np.exp(2.0 * self.FSM_GAIN * x)
        # FSM granularity: the counter only realises num_states output levels.
        levels = np.round(ideal * (self.num_states - 1)) / (self.num_states - 1)
        probs = np.clip(levels, 0.0, 1.0)
        return self._counted_fraction(probs)

    @staticmethod
    def _saturating_normalise(estimates: np.ndarray) -> np.ndarray:
        """The range normalisation the SC design actually performs.

        A true division by ``sum(exp)`` is not available (SC dividers are the
        very blocks Section III-B rules out); instead the design's gain is set
        so the *largest* exponential occupies the full stochastic range [0, 1]
        — enough for the classification use-case of [16]/[17], where only the
        relative order matters.  The outputs therefore track
        ``exp(x_i - x_max)`` rather than the softmax, which preserves the
        order but leaves a large systematic value error; this is exactly the
        behaviour the paper describes ("only the relative order of outputs is
        preserved while the computed values still exhibit a large error").
        """
        peak = estimates.max(axis=-1, keepdims=True)
        peak = np.where(peak <= 0, 1.0, peak)
        return np.clip(estimates / peak, 0.0, 1.0)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Run the baseline on a batch of logit rows of shape ``(..., m)``."""
        x = np.asarray(values, dtype=float)
        if x.shape[-1] != self.m:
            raise ValueError(f"expected rows of length {self.m}, got {x.shape[-1]}")
        # The logits arrive as stochastic bitstreams; the binary units of the
        # design first estimate each logit by counting the stream, which adds
        # BSL-dependent conversion noise on top of the systematic errors.
        input_scale = max(1.0, float(np.abs(x).max()))
        probs = np.clip((x / input_scale + 1.0) / 2.0, 0.0, 1.0)
        counted = self._counted_fraction(probs)
        x_estimate = (2.0 * counted - 1.0) * input_scale
        shifted = x_estimate - x_estimate.max(axis=-1, keepdims=True)
        estimates = self._fsm_exponential_estimate(shifted)
        return self._saturating_normalise(estimates)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return softmax_exact(np.asarray(values, dtype=float), axis=-1)

    # -------------------------------------------------------------- hardware
    def build_hardware(self) -> HardwareModule:
        """Structural model of the [17]-style architecture.

        Per element: an SNG, the exponentiation FSM (saturating counter plus
        output decode), and an output counter that converts the stochastic
        stream back to binary.  Shared: a binary adder tree over the ``m``
        8-bit counts, a 16-bit divider, an exponent lookup correction table
        and control.  The area does not depend on the BSL; the latency is one
        clock per bit plus the binary normalisation tail.
        """
        counter_bits = max(1, int(np.ceil(np.log2(self.num_states))))
        per_element = HardwareModule(
            name="fsm_softmax_lane",
            inventory=ComponentInventory(
                {
                    "COUNTER_BIT": counter_bits + 10,  # FSM counter + output accumulator
                    "AND2": 4,
                    "MUX2": 2,
                    "DFF": 4,
                }
            ),
            critical_path=("COUNTER_BIT", "AND2", "MUX2"),
            cycles=1,
            submodules=[(StochasticNumberGenerator(self.bitstream_length, "bipolar").build_hardware(), 1)],
        )
        adder_tree_cells = 12 * max(1, self.m - 1)  # 12-bit adders in a binary tree
        shared = ComponentInventory(
            {
                "FULL_ADDER": adder_tree_cells + 16 * 18,  # tree + restoring divider
                "DFF": 16 * 4,
                "SRAM_BIT": 256 * 16,  # exponent correction LUT
                "MUX2": 64,
            }
        )
        tree_depth = max(1, int(np.ceil(np.log2(self.m))))
        path = ["CMP_BIT", "COUNTER_BIT", "AND2", "MUX2"] + ["FULL_ADDER"] * (tree_depth + 16) + ["DFF"]
        return HardwareModule(
            name=f"fsm_softmax_m{self.m}_L{self.bitstream_length}",
            inventory=shared,
            critical_path=tuple(path),
            cycles=self.bitstream_length,
            submodules=[(per_element, self.m)],
            pipelined=True,
            metadata={
                "m": self.m,
                "bitstream_length": self.bitstream_length,
                "num_states": self.num_states,
            },
        )
