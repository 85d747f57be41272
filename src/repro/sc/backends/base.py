"""The :class:`KernelBackend` protocol and its pure-numpy reference kernels.

A backend owns the handful of hot kernels the packed SC engine is built
from: word-wise gate ops, popcount reduction, Bernoulli/select plane
generation, the FSM transition scan and the BSN compare-exchange stage.
The base class *is* the reference implementation — every method body here
is the exact algorithm the engine used before the backend seam existed, so
:class:`~repro.sc.backends.numpy_backend.NumpyBackend` is a trivial
subclass and stays byte-identical to the historical code paths (the
packed-vs-legacy property suite in ``tests/test_sc_packed.py`` pins this).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class KernelBackend:
    """Kernel provider for the packed SC engine (reference implementations).

    Instances are stateless; one :class:`NumpyBackend` is shared
    process-wide (:func:`repro.sc.backends.active_backend`).
    """

    #: Label of profiler rows and ``/metrics`` series; subclasses override.
    name = "base"

    # ------------------------------------------------------------- word ops
    def and_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise AND of two word planes (unipolar multiply)."""
        return a & b

    def or_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise OR of two word planes."""
        return a | b

    def xor_words(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bitwise XOR of two word planes."""
        return a ^ b

    def invert_words(self, words: np.ndarray, last_word_mask: np.uint64) -> np.ndarray:
        """Bitwise NOT with the tail of the last word re-masked to zero."""
        out = ~words
        out[..., -1] &= last_word_mask
        return out

    def xnor_words(self, a: np.ndarray, b: np.ndarray, last_word_mask: np.uint64) -> np.ndarray:
        """Word-wise XNOR (bipolar multiply) with the tail re-masked."""
        out = ~(a ^ b)
        out[..., -1] &= last_word_mask
        return out

    def mux_words(self, sel: np.ndarray, on_one: np.ndarray, on_zero: np.ndarray) -> np.ndarray:
        """Per-bit 2:1 MUX (the SC scaled adder)."""
        return (sel & on_one) | (~sel & on_zero)

    # ------------------------------------------------------------- popcount
    def popcount_words(self, words: np.ndarray) -> np.ndarray:
        """Population count per word.

        Delegates to :func:`repro.sc.packed.popcount_words` so the
        ``HAVE_BITWISE_COUNT`` feature switch (and its byte-LUT fallback)
        stays a single module-level knob.
        """
        from repro.sc import packed

        return packed.popcount_words(words)

    def popcount_reduce(self, words: np.ndarray) -> np.ndarray:
        """Number of set bits per stream: popcount summed over the word axis."""
        return self.popcount_words(words).sum(axis=-1, dtype=np.int64)

    def multiply_popcount(
        self, a: np.ndarray, b: np.ndarray, op: str, last_word_mask: np.uint64
    ) -> np.ndarray:
        """Fused multiply + decode: gate two planes and popcount in one pass.

        ``op`` is ``"and"`` (unipolar) or ``"xnor"`` (bipolar).  Fusing skips
        the intermediate product plane the separate multiply/decode calls
        materialise; the counts are bit-identical to popcounting the product.
        """
        if op == "and":
            return self.popcount_reduce(a & b)
        if op == "xnor":
            prod = ~(a ^ b)
            prod[..., -1] &= last_word_mask
            return self.popcount_reduce(prod)
        raise ValueError(f"unknown multiply op {op!r} (expected 'and' or 'xnor')")

    # ------------------------------------------------------ plane generation
    def bernoulli_plane(
        self, value_shape: Tuple[int, ...], length: int, probs, rng: np.random.Generator
    ):
        """Packed plane of Bernoulli draws: bit ``t`` of value ``v`` is
        ``rng.random() < probs[v]``.

        This is the canonical encode draw: one uniform per (value, cycle) in
        C order, consumed from ``rng`` exactly as the explicit-bit
        implementation always has, so seeded streams are reproducible across
        versions.  ``probs`` is a scalar or an array of shape
        ``value_shape``.
        """
        from repro.sc.packed import PackedBitPlane

        draws = rng.random(tuple(value_shape) + (length,))
        p = np.asarray(probs, dtype=float)
        bits = draws < (p[..., None] if p.ndim else p)
        return PackedBitPlane.from_bits(bits)

    def select_plane(self, value_shape: Tuple[int, ...], length: int, rng: np.random.Generator):
        """Packed fair-coin select plane for the MUX scaled adder.

        The canonical draw is ``rng.integers(0, 2, size=value_shape + (L,))``
        — kept verbatim so seeded ``mux_scaled_add`` results never move.
        """
        from repro.sc.packed import PackedBitPlane

        select = rng.integers(0, 2, size=tuple(value_shape) + (length,)).astype(np.uint8)
        return PackedBitPlane.from_bits(select)

    # ------------------------------------------------------------------- FSM
    def fsm_trajectory(
        self,
        stream_bytes: np.ndarray,
        pre: np.ndarray,
        nxt: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        """Counter state before every cycle, shape ``(..., num_bytes, 8)``.

        ``stream_bytes`` is the packed plane's byte view (8 stream bits per
        byte, zero tail included); ``pre``/``nxt`` are the byte-granular
        transition tables of the saturating counter (see
        :func:`repro.sc.fsm._fsm_scan_tables`).
        """
        num_bytes = stream_bytes.shape[-1]
        state = np.full(stream_bytes.shape[:-1], initial_state, dtype=np.intp)
        trajectory = np.empty(stream_bytes.shape[:-1] + (num_bytes, 8), dtype=np.uint8)
        for t in range(num_bytes):
            chunk = stream_bytes[..., t]
            trajectory[..., t, :] = pre[state, chunk]
            state = nxt[state, chunk].astype(np.intp)
        return trajectory

    def fsm_forward_bytes(
        self,
        stream_bytes: np.ndarray,
        nxt: np.ndarray,
        outbyte: np.ndarray,
        initial_state: int,
        num_states: int,
    ) -> np.ndarray:
        """Fused FSM forward: output *bytes* straight from the byte scan.

        ``outbyte[s, b]`` packs the 8 output bits the unit emits while
        consuming input byte ``b`` entered in state ``s`` (valid whenever the
        output rule's cycle dependence has period dividing 8, which the
        caller checks).  Skips materialising the per-cycle trajectory and the
        rule evaluation over the whole stream.
        """
        num_bytes = stream_bytes.shape[-1]
        state = np.full(stream_bytes.shape[:-1], initial_state, dtype=np.intp)
        out = np.empty_like(stream_bytes)
        for t in range(num_bytes):
            chunk = stream_bytes[..., t]
            out[..., t] = outbyte[state, chunk]
            state = nxt[state, chunk].astype(np.intp)
        return out

    # ------------------------------------------------------------------- BSN
    def bsn_stage(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One compare-exchange stage on single-bit lanes: (max, min) = (OR, AND)."""
        return a | b, a & b
