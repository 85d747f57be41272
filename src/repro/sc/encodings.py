"""Value <-> probability mappings for the SC encodings used in the paper.

Three encodings appear in ASCEND and its baselines:

* **unipolar** — a value in [0, 1] is the probability of a 1 in the stream,
* **bipolar** — a value in [-1, 1] is ``2 p - 1`` where ``p`` is the
  probability of a 1,
* **thermometer** — a deterministic format where all 1s appear at the start
  of the stream; an L-bit stream with ``n`` ones represents
  ``alpha * (n - L / 2)`` for a scaling factor ``alpha`` (Section II-A).

The functions here convert between real values, probabilities and integer
one-counts.  The stream containers in :mod:`repro.sc.bitstream` use them.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int


def unipolar_encode(values: np.ndarray) -> np.ndarray:
    """Map real values in [0, 1] to 1-probabilities (identity with checks)."""
    arr = np.asarray(values, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("unipolar encoding requires values in [0, 1]")
    return arr


def unipolar_decode(probabilities: np.ndarray) -> np.ndarray:
    """Map 1-probabilities back to values (identity)."""
    return np.asarray(probabilities, dtype=float)


def bipolar_encode(values: np.ndarray) -> np.ndarray:
    """Map real values in [-1, 1] to 1-probabilities ``(x + 1) / 2``."""
    arr = np.asarray(values, dtype=float)
    if arr.size and (arr.min() < -1.0 or arr.max() > 1.0):
        raise ValueError("bipolar encoding requires values in [-1, 1]")
    return (arr + 1.0) / 2.0


def bipolar_decode(probabilities: np.ndarray) -> np.ndarray:
    """Map 1-probabilities back to bipolar values ``2 p - 1``."""
    return 2.0 * np.asarray(probabilities, dtype=float) - 1.0


def thermometer_encode_counts(values: np.ndarray, length: int, scale: float) -> np.ndarray:
    """Quantise real values to thermometer one-counts.

    Returns integer counts in ``[0, length]``; values outside the
    representable range saturate (the hardware clamps the same way).

    Counts round half away from zero, like the hardware quantizer.  On the
    count axis ``v = x / scale + L / 2`` that is ``floor(v + 0.5)`` for
    ``v >= 0``, and every ``v < 0`` clips to 0 under either rounding, so
    the sign/abs form of :func:`repro.utils.numeric.round_half_away_from_zero`
    is not needed here.
    """
    check_positive_int(length, "length")
    if scale <= 0:
        raise ValueError("scale must be positive")
    arr = np.asarray(values, dtype=float)
    # ``clip(floor(arr / scale + L / 2 + 0.5))`` in the same order, in one
    # buffer; ``[()]`` keeps a 0-d input's result an ``np.int64`` scalar.
    counts = np.divide(arr, scale, out=np.empty(arr.shape))
    counts += length / 2.0
    counts += 0.5
    np.floor(counts, out=counts)
    np.clip(counts, 0, length, out=counts)
    return counts.astype(np.int64)[()]


def thermometer_decode_counts(counts: np.ndarray, length: int, scale: float) -> np.ndarray:
    """Map thermometer one-counts back to real values."""
    check_positive_int(length, "length")
    if scale <= 0:
        raise ValueError("scale must be positive")
    arr = np.asarray(counts, dtype=float)
    if arr.size and (arr.min() < 0 or arr.max() > length):
        raise ValueError(f"counts must lie in [0, {length}]")
    return scale * (arr - length / 2.0)


def thermometer_bits_from_count(count: int, length: int) -> np.ndarray:
    """Expand a one-count into the explicit L-bit thermometer pattern.

    Only used by tests and didactic examples; the arithmetic blocks operate
    on counts directly because the bit patterns are fully determined by them.
    """
    check_positive_int(length, "length")
    if not 0 <= count <= length:
        raise ValueError(f"count must lie in [0, {length}], got {count}")
    bits = np.zeros(length, dtype=np.int8)
    bits[:count] = 1
    return bits


def count_from_thermometer_bits(bits: np.ndarray) -> int:
    """Recover the one-count from an explicit thermometer bit pattern.

    Raises when the pattern is not a valid thermometer code (a 1 after a 0).
    """
    arr = np.asarray(bits).astype(np.int8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D bit pattern")
    count = int(arr.sum())
    if not np.array_equal(arr, thermometer_bits_from_count(count, arr.size)):
        raise ValueError("bit pattern is not a valid thermometer code")
    return count
