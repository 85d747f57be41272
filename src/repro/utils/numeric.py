"""Generic numeric helpers shared by the SC and NN substrates."""

from __future__ import annotations

import numpy as np


def clamp(values, lo: float, hi: float):
    """Clamp ``values`` (scalar or array) to the closed range [lo, hi]."""
    if hi < lo:
        raise ValueError(f"invalid clamp range [{lo}, {hi}]")
    return np.clip(values, lo, hi)


def round_half_away_from_zero(values):
    """Round to nearest integer with ties going away from zero.

    Hardware quantizers round this way (a simple adder + truncate), while
    ``numpy.round`` uses banker's rounding; the SC emulation must match the
    hardware convention so that the functional model and the circuit model
    agree bit for bit.
    """
    arr = np.asarray(values, dtype=float)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)
