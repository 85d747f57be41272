"""Packed-bitplane representation for stochastic bitstreams.

The seed implementation stored one ``int8`` per stream bit and stepped every
gate cycle-by-cycle, which made the stochastic baselines (and everything
built on them) the slowest part of the reproduction.  This module packs the
time axis of a bitstream into ``uint64`` words — 64 stream bits per word —
so that all gate-level SC arithmetic becomes word-wise bitwise machine ops:

* AND multiply (unipolar) / XNOR multiply (bipolar) touch 64 bits per
  instruction instead of one,
* MUX scaled addition is three bitwise ops on words,
* decoding is a population count (``np.bitwise_count`` where available, a
  byte lookup table otherwise) over ~L/64 words instead of a float mean over
  L ``int8`` entries.

Packing uses ``np.packbits`` with **little-endian bit order**: stream cycle
``t`` lives at bit ``t % 64`` of word ``t // 64``.  Bits past the logical
length (the tail of the last word) are always kept at zero; every operation
that could set them (NOT, XNOR) re-masks the tail, so popcounts never see
phantom bits and representations stay canonical (equal streams have equal
words).

:class:`PackedBitPlane` is deliberately a thin container: the public SC API
remains :class:`repro.sc.bitstream.StochasticStream`, which now carries a
packed plane internally and materialises ``int8`` bits only when somebody
actually asks for them.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

#: Word values are normalised so stream bit ``t % 64`` is integer bit
#: ``t % 64`` regardless of host endianness (byteswap on big-endian hosts).
_NATIVE_LITTLE_ENDIAN = sys.byteorder == "little"

#: Number of stream bits stored per packed word.
WORD_BITS = 64

#: Whether the fast native popcount ufunc is available (numpy >= 2.0).
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Byte-indexed popcount lookup table, the fallback for older numpy.
_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.uint8)

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _words_for(length: int) -> int:
    """Number of uint64 words needed for ``length`` bits."""
    return (length + WORD_BITS - 1) // WORD_BITS


def tail_mask(length: int) -> np.uint64:
    """Mask of the valid bits in the last word of an ``length``-bit plane."""
    rem = length % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Population count per word (vectorised; LUT fallback without numpy 2)."""
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(words)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    counts = _POPCOUNT_LUT[as_bytes].astype(np.uint64)
    return counts.reshape(words.shape + (8,)).sum(axis=-1)


class PackedBitPlane:
    """A batch of bitstreams packed 64 bits per ``uint64`` word.

    ``words`` has shape ``value_shape + (num_words,)``; ``length`` is the
    logical number of bits per stream.  Tail bits (positions ``>= length``
    in the last word) are an invariant zero.
    """

    __slots__ = ("words", "length")

    def __init__(self, words: np.ndarray, length: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        if length < 1:
            raise ValueError("length must be positive")
        if words.ndim < 1 or words.shape[-1] != _words_for(length):
            raise ValueError(
                f"expected {_words_for(length)} words on the last axis for "
                f"{length} bits, got shape {words.shape}"
            )
        # Enforce the zero-tail invariant on externally supplied words so
        # popcounts/decodes can never see phantom bits.  Internal ops always
        # hand over clean tails, so the common case is one cheap reduction.
        mask = tail_mask(length)
        if mask != _ALL_ONES and words.size:
            dirty = words[..., -1] & ~mask
            if np.any(dirty):
                words = words.copy()
                words[..., -1] &= mask
        self.words = words
        self.length = int(length)

    # ------------------------------------------------------------ properties
    @property
    def value_shape(self) -> Tuple[int, ...]:
        """Shape of the batch of streams (everything but the word axis)."""
        return self.words.shape[:-1]

    @property
    def num_words(self) -> int:
        return int(self.words.shape[-1])

    # ------------------------------------------------------------- packing
    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "PackedBitPlane":
        """Pack an explicit 0/1 array (any dtype) along its last axis."""
        arr = np.asarray(bits)
        if arr.ndim < 1:
            raise ValueError("bits must have at least one (stream) axis")
        if arr.dtype != np.uint8 and arr.dtype != bool:
            arr = arr.astype(np.uint8)
        length = arr.shape[-1]
        pad = _words_for(length) * WORD_BITS - length
        if pad:
            pad_block = np.zeros(arr.shape[:-1] + (pad,), dtype=np.uint8)
            arr = np.concatenate([arr, pad_block], axis=-1)
        packed_bytes = np.packbits(arr, axis=-1, bitorder="little")
        words = np.ascontiguousarray(packed_bytes).view(np.uint64)
        if not _NATIVE_LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            words = words.byteswap()
        return cls(words, length)

    @classmethod
    def zeros(cls, value_shape: Tuple[int, ...], length: int) -> "PackedBitPlane":
        """All-zero plane for a batch of ``length``-bit streams."""
        return cls(np.zeros(tuple(value_shape) + (_words_for(length),), np.uint64), length)

    @classmethod
    def from_thermometer_counts(cls, counts: np.ndarray, length: int) -> "PackedBitPlane":
        """Pack a batch of thermometer streams directly from their one-counts.

        A thermometer stream with one-count ``c`` has its first ``c`` bits set,
        so each packed word can be computed arithmetically: word ``w`` holds
        ``min(max(c - 64w, 0), 64)`` leading 1s.  This builds the plane without
        ever materialising the ``value_shape + (length,)`` bit array — packing
        is one vectorised op per batch, not per stream.
        """
        counts = np.asarray(counts)
        if counts.size and (counts.min() < 0 or counts.max() > length):
            raise ValueError(f"counts must lie in [0, {length}]")
        num_words = _words_for(length)
        word_base = np.arange(num_words, dtype=np.int64) * WORD_BITS
        in_word = np.clip(counts[..., None].astype(np.int64) - word_base, 0, WORD_BITS)
        # (1 << 64) overflows a uint64 shift, so full words are patched in
        # afterwards instead of shifted into existence.
        partial = in_word.astype(np.uint64)
        words = np.where(
            in_word >= WORD_BITS,
            _ALL_ONES,
            (np.uint64(1) << (partial % np.uint64(WORD_BITS))) - np.uint64(1),
        )
        words[..., -1] &= tail_mask(length)
        return cls(words, length)

    @classmethod
    def random(
        cls, value_shape: Tuple[int, ...], length: int, p: float, rng: np.random.Generator
    ) -> "PackedBitPlane":
        """Plane whose bits are independent Bernoulli(``p``) draws.

        XORed onto a thermometer plane it is the bit-level form of the
        bit-flip fault law (the test oracle of
        :class:`~repro.eval_pipeline.faults.BitFlipFaultModel`, which samples
        net flip counts directly); tail bits stay zero.  Draws
        consume ``prod(value_shape) * length`` uniforms from ``rng`` in C
        order, so the plane is a pure function of the generator state.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if p == 0.0:
            return cls.zeros(value_shape, length)
        return bernoulli_plane(tuple(value_shape), length, p, rng)

    def to_bits(self, dtype=np.int8) -> np.ndarray:
        """Materialise the explicit bit array, shape ``value_shape + (length,)``."""
        bits = np.unpackbits(self.byte_view(), axis=-1, count=self.length, bitorder="little")
        return bits.astype(dtype)

    def byte_view(self) -> np.ndarray:
        """The packed plane as little-endian bytes (8 stream bits per byte).

        Shape ``value_shape + (num_words * 8,)``.  Bytes past
        ``ceil(length / 8)`` belong to the zero tail.  This is the view the
        FSM transition-table scanner consumes.
        """
        words = self.words
        if not _NATIVE_LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts
            words = words.byteswap()
        return np.ascontiguousarray(words).view(np.uint8)

    def copy(self) -> "PackedBitPlane":
        return PackedBitPlane(self.words.copy(), self.length)

    # ------------------------------------------------------------ decoding
    def popcount(self) -> np.ndarray:
        """Number of 1s per stream, shape ``value_shape`` (int64)."""
        return popcount_words(self.words).sum(axis=-1, dtype=np.int64)

    # ------------------------------------------------------------ gate ops
    def _check_mate(self, other: "PackedBitPlane") -> None:
        if self.length != other.length:
            raise ValueError("planes must have equal bit length")

    def __and__(self, other: "PackedBitPlane") -> "PackedBitPlane":
        self._check_mate(other)
        return PackedBitPlane(self.words & other.words, self.length)

    def __or__(self, other: "PackedBitPlane") -> "PackedBitPlane":
        self._check_mate(other)
        return PackedBitPlane(self.words | other.words, self.length)

    def __xor__(self, other: "PackedBitPlane") -> "PackedBitPlane":
        self._check_mate(other)
        return PackedBitPlane(self.words ^ other.words, self.length)

    def __invert__(self) -> "PackedBitPlane":
        words = ~self.words
        words[..., -1] &= tail_mask(self.length)
        return PackedBitPlane(words, self.length)

    def xnor(self, other: "PackedBitPlane") -> "PackedBitPlane":
        """Word-wise XNOR with the tail re-masked to zero."""
        self._check_mate(other)
        words = ~(self.words ^ other.words)
        words[..., -1] &= tail_mask(self.length)
        return PackedBitPlane(words, self.length)

    def mux(self, on_one: "PackedBitPlane", on_zero: "PackedBitPlane") -> "PackedBitPlane":
        """Per-bit 2:1 MUX with ``self`` as the select plane.

        Output bit = ``on_one`` where the select bit is 1, ``on_zero`` where
        it is 0 — the SC scaled adder.  The zero tail of ``on_zero`` keeps
        the output tail clean without an extra mask.
        """
        self._check_mate(on_one)
        self._check_mate(on_zero)
        words = (self.words & on_one.words) | (~self.words & on_zero.words)
        return PackedBitPlane(words, self.length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedBitPlane(value_shape={self.value_shape}, length={self.length})"


def bernoulli_plane(
    value_shape: Tuple[int, ...], length: int, probs, rng: np.random.Generator
) -> PackedBitPlane:
    """Packed plane of Bernoulli draws: bit ``t`` of value ``v`` is
    ``rng.random() < probs[v]``.

    This is the canonical encode draw: one uniform per (value, cycle) in
    C order, consumed from ``rng`` exactly as the explicit-bit
    implementation always has, so seeded streams are reproducible across
    versions.  ``probs`` is a scalar or an array of shape
    ``value_shape``.
    """
    draws = rng.random(tuple(value_shape) + (length,))
    p = np.asarray(probs, dtype=float)
    bits = draws < (p[..., None] if p.ndim else p)
    return PackedBitPlane.from_bits(bits)


def select_plane(
    value_shape: Tuple[int, ...], length: int, rng: np.random.Generator
) -> PackedBitPlane:
    """Packed fair-coin select plane for the MUX scaled adder.

    The canonical draw is ``rng.integers(0, 2, size=value_shape + (L,))``
    — kept verbatim so seeded ``mux_scaled_add`` results never move.
    """
    select = rng.integers(0, 2, size=tuple(value_shape) + (length,)).astype(np.uint8)
    return PackedBitPlane.from_bits(select)
