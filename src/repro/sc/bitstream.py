"""Bitstream containers for stochastic and thermometer coding.

Two containers cover everything the paper needs:

* :class:`StochasticStream` stores explicit random bit arrays for the
  traditional unipolar/bipolar encodings used by the FSM and Bernstein
  baselines.  Bits are materialised because those designs process them
  serially and their error *is* the random fluctuation of the bits.

* :class:`ThermometerStream` stores only the one-count per value, because a
  thermometer (deterministic) stream is fully described by how many leading
  1s it has.  All deterministic SC arithmetic (truth-table multiply, BSN
  add, re-scaling) is exact arithmetic on these counts, which keeps the
  emulation fast enough to run inside a ViT forward pass.

Both containers are batch-first: a single object holds a whole tensor of SC
values, mirroring how a parallel SC accelerator processes a whole tile at
once.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sc.encodings import (
    bipolar_decode,
    bipolar_encode,
    thermometer_decode_counts,
    thermometer_encode_counts,
    unipolar_decode,
    unipolar_encode,
)
from repro.sc.packed import PackedBitPlane
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_binary_array, check_in_choices, check_positive_int

_ENCODINGS = ("unipolar", "bipolar")


def counts_in_range(counts: np.ndarray, length: int) -> bool:
    """True when every count lies in ``[0, length]`` (an empty array passes).

    int64 counts take one pass: viewed as uint64 a negative count wraps
    above every valid length, so ``max() <= length`` is the whole check.
    """
    if not counts.size:
        return True
    if counts.dtype == np.int64:
        return bool(counts.view(np.uint64).max() <= length)
    return not (counts.min() < 0 or counts.max() > length)


class StochasticStream:
    """A batch of stochastic bitstreams (unipolar or bipolar encoding).

    ``bits`` has shape ``values.shape + (length,)``; the last axis is the
    bitstream (time) axis.

    Internally the stream holds at least one of two equivalent
    representations and converts between them lazily:

    * an explicit ``int8`` bit array (the seed representation, still what
      the public ``bits`` attribute exposes), and
    * a :class:`repro.sc.packed.PackedBitPlane` storing 64 bits per
      ``uint64`` word, which is what the SC arithmetic fast paths operate
      on (word-wise AND/XNOR/MUX, popcount decode).

    Construction from explicit bits validates them by default; internal fast
    paths that produce bits by construction pass ``validate=False``.  The two
    representations are bit-for-bit interchangeable; converting never changes
    a single bit.  (The cached packed view assumes ``bits`` is not mutated in
    place afterwards — assign a fresh array to ``bits`` instead.)
    """

    def __init__(
        self,
        bits: Optional[np.ndarray] = None,
        encoding: str = "unipolar",
        *,
        packed: Optional[PackedBitPlane] = None,
        validate: bool = True,
    ) -> None:
        check_in_choices(encoding, _ENCODINGS, "encoding")
        self.encoding = encoding
        self._bits: Optional[np.ndarray] = None
        self._packed: Optional[PackedBitPlane] = None
        if packed is not None:
            if bits is not None:
                raise ValueError("pass either bits or packed, not both")
            self._packed = packed
        else:
            if bits is None:
                raise TypeError("StochasticStream needs bits or packed")
            arr = np.asarray(bits)
            if arr.ndim < 1:
                raise ValueError("bits must have at least one (stream) axis")
            if validate:
                check_binary_array(arr, "bits")
            self._bits = arr.astype(np.int8)

    # ------------------------------------------------------------ properties
    @property
    def bits(self) -> np.ndarray:
        """Explicit ``int8`` bit array (materialised on first access)."""
        if self._bits is None:
            self._bits = self._packed.to_bits(np.int8)
        return self._bits

    @bits.setter
    def bits(self, value: np.ndarray) -> None:
        arr = np.asarray(value)
        if arr.ndim < 1:
            raise ValueError("bits must have at least one (stream) axis")
        check_binary_array(arr, "bits")
        self._bits = arr.astype(np.int8)
        self._packed = None

    @property
    def packed(self) -> PackedBitPlane:
        """Packed-word view of the same bits (built on first access)."""
        if self._packed is None:
            self._packed = PackedBitPlane.from_bits(self._bits)
        return self._packed

    @property
    def length(self) -> int:
        """Bitstream length (BSL)."""
        if self._bits is not None:
            return int(self._bits.shape[-1])
        return self._packed.length

    @property
    def value_shape(self) -> Tuple[int, ...]:
        """Shape of the encoded value tensor."""
        if self._bits is not None:
            return self._bits.shape[:-1]
        return self._packed.value_shape

    # -------------------------------------------------------------- codecs
    @classmethod
    def from_packed(cls, packed: PackedBitPlane, encoding: str = "unipolar") -> "StochasticStream":
        """Wrap an existing packed plane without materialising bits."""
        return cls(packed=packed, encoding=encoding)

    @classmethod
    def encode(
        cls,
        values: np.ndarray,
        length: int,
        encoding: str = "unipolar",
        seed: SeedLike = None,
    ) -> "StochasticStream":
        """Encode real values into random bitstreams of the given length.

        Each bit is an independent Bernoulli draw with the probability given
        by the encoding — exactly what a comparator-based SNG produces with
        an ideal random source.  Use :class:`repro.sc.sng.StochasticNumberGenerator`
        for LFSR-driven (correlated, hardware-faithful) generation.
        """
        check_positive_int(length, "length")
        check_in_choices(encoding, _ENCODINGS, "encoding")
        rng = as_generator(seed)
        values = np.asarray(values, dtype=float)
        probs = unipolar_encode(values) if encoding == "unipolar" else bipolar_encode(values)
        from repro.sc.packed import _kernels

        packed = _kernels().bernoulli_plane(values.shape, length, probs, rng)
        return cls(packed=packed, encoding=encoding)

    def probabilities(self) -> np.ndarray:
        """Empirical probability of a 1 along the stream axis."""
        return self.ones_count() / self.length

    def decode(self) -> np.ndarray:
        """Decode the streams back to real values (empirical estimate)."""
        probs = self.probabilities()
        if self.encoding == "unipolar":
            return unipolar_decode(probs)
        return bipolar_decode(probs)

    def ones_count(self) -> np.ndarray:
        """Number of 1s per stream (popcount on the packed fast path)."""
        if self._packed is not None:
            return self._packed.popcount()
        return self._bits.sum(axis=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "packed" if self._bits is None else "bits"
        return (
            f"StochasticStream(value_shape={self.value_shape}, "
            f"length={self.length}, encoding={self.encoding!r}, backing={backing})"
        )


class ThermometerStream:
    """A batch of deterministic thermometer-coded values.

    A value ``x`` is represented as ``x = scale * (count - length / 2)``
    where ``count`` is the number of leading 1s in the L-bit stream
    (Section II-A of the paper).  Only the counts are stored.
    """

    def __init__(self, counts: np.ndarray, length: int, scale: float, *, validate: bool = True) -> None:
        if validate:
            check_positive_int(length, "length")
            if scale <= 0:
                raise ValueError("scale must be positive")
        counts = np.asarray(counts)
        if validate:
            if not counts_in_range(counts, length):
                raise ValueError(f"counts must lie in [0, {length}]")
            if not np.issubdtype(counts.dtype, np.integer):
                if not np.allclose(counts, np.round(counts)):
                    raise ValueError("counts must be integers")
        # Unvalidated counts come from the hot loops, which never write a
        # stream's counts in place, so int64 ones are shared, not copied.
        self.counts = counts.astype(np.int64, copy=not validate)
        self.length = int(length)
        self.scale = float(scale)

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the encoded value tensor."""
        return self.counts.shape

    @property
    def resolution(self) -> float:
        """Value difference between adjacent levels (= scale)."""
        return self.scale

    # -------------------------------------------------------------- codecs
    @classmethod
    def encode(cls, values: np.ndarray, length: int, scale: float) -> "ThermometerStream":
        """Quantise real values onto the thermometer grid (saturating)."""
        counts = thermometer_encode_counts(values, length, scale)
        # The encoder clips onto [0, length], so re-validating the counts
        # would only re-scan the array the hot loops just produced.
        return cls(counts=counts, length=length, scale=scale, validate=False)

    @classmethod
    def from_quantized(
        cls,
        signed_levels: np.ndarray,
        length: int,
        scale: float,
        *,
        validate: bool = True,
    ) -> "ThermometerStream":
        """Build a stream from signed integer levels in ``[-L/2, L/2]``.

        Useful when an upstream quantizer (e.g. LSQ in the network substrate)
        already produced integer levels and no further rounding is wanted.
        Internal callers whose levels are bounded by construction may pass
        ``validate=False`` to skip the range scan.
        """
        levels = np.asarray(signed_levels)
        counts = levels + length // 2
        return cls(counts=counts, length=length, scale=scale, validate=validate)

    def decode(self) -> np.ndarray:
        """Return the represented real values."""
        return thermometer_decode_counts(self.counts, self.length, self.scale)

    def signed_levels(self) -> np.ndarray:
        """Signed integer levels ``count - L/2`` in ``[-L/2, L/2]``."""
        return self.counts - self.length // 2

    # ------------------------------------------------------------ utilities
    def copy(self) -> "ThermometerStream":
        """Deep copy (counts array is copied)."""
        return ThermometerStream(self.counts.copy(), self.length, self.scale, validate=False)

    def with_counts(self, counts: np.ndarray) -> "ThermometerStream":
        """New stream sharing length/scale but holding different counts."""
        return ThermometerStream(counts, self.length, self.scale)

    def compatible_with(self, other: "ThermometerStream", rtol: float = 1e-9) -> bool:
        """True when two streams share scale (requirement for BSN addition)."""
        return bool(np.isclose(self.scale, other.scale, rtol=rtol))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThermometerStream(shape={self.shape}, length={self.length}, "
            f"scale={self.scale:g})"
        )


def expand_thermometer_bits(stream: ThermometerStream) -> np.ndarray:
    """Materialise the explicit bit patterns of a thermometer stream.

    Shape: ``stream.shape + (length,)``.  Exponential in memory for long
    streams — intended for tests, visualisation and the didactic examples,
    not for the accelerator emulation path.
    """
    counts = stream.counts[..., None]
    positions = np.arange(stream.length)
    return (positions < counts).astype(np.int8)
