"""Deterministic random-number handling.

Every stochastic component in the library (stochastic number generators,
dataset synthesis, weight initialisation, training) accepts either an integer
seed or a ``numpy.random.Generator``.  Centralising the conversion here keeps
experiments reproducible end to end: a single seed at the top of a benchmark
fixes the whole pipeline.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``None`` produces a non-deterministic generator, an ``int`` produces a
    deterministic one, and an existing generator is passed through unchanged
    so that callers can share RNG state.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
