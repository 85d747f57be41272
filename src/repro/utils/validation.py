"""Argument validation helpers.

Raising early with a precise message is much cheaper than debugging a wrong
bitstream length three layers down an SC circuit, so the substrate modules
validate their structural parameters aggressively through these helpers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is a positive integer, else raise ``ValueError``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_eval_mode(model, name: str) -> None:
    """Raise ``ValueError`` on a training-mode model (its forward rewrites BatchNorm statistics)."""
    if model.training:
        raise ValueError(f"{name} needs a model in eval mode; call model.eval() first")


def check_binary_array(values: np.ndarray, name: str) -> np.ndarray:
    """Return ``values`` after checking every entry is exactly 0 or 1.

    Unlike ``np.isin(values, (0, 1)).all()`` — which materialises a
    full-size boolean temporary per membership candidate — this runs two
    reduction passes (min/max) with no temporaries for boolean and integer
    arrays; only the rare float input pays for an exactness check.
    """
    arr = np.asarray(values)
    if arr.size == 0 or arr.dtype == bool:
        return arr
    mn, mx = arr.min(), arr.max()
    # NaNs make both comparisons False, which correctly falls through to the
    # error (NaN is not a valid bit).
    if not (mn >= 0 and mx <= 1):
        raise ValueError(f"{name} must contain only 0s and 1s")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.array_equal(arr, arr.astype(np.int8)):
            raise ValueError(f"{name} must contain only 0s and 1s")
    return arr


def check_in_choices(value, choices: Iterable, name: str):
    """Return ``value`` if it is one of ``choices``, else raise ``ValueError``."""
    options: Sequence = tuple(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value
