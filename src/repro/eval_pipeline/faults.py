"""Bit-flip fault injection on thermometer streams, one draw per element.

Every thermometer-stream interface of the SC-ViT (softmax ``x``/``y``, GELU
input/output) passes through :meth:`BitFlipFaultModel.perturb_stream`.  Each
of a stream's ``L`` bits flips with probability ``p``; the next bitonic
sorter re-sorts the stream, whose value is its popcount, so only the *net*
flip count survives: count ``c`` becomes ``c - Bin(c, p) + Bin(L - c, p)``.
That law is sampled exactly from one uniform per element, inverted through a
memoised per-``(L, p)`` CDF and guide table; no mask bits are drawn.

**Determinism.** :meth:`~BitFlipFaultModel.begin_batch` seeds one generator
per image with ``derive_seed(seed, global image index)``; sites draw from it
in model order, so an image's draws depend only on ``(seed, image index,
site)``, never on its batch, and batched == per-image holds with faults on.
:attr:`~BitFlipFaultModel.VERSION` 2 is this sampler (version 1 XORed
per-bit masks: same law, other draws); it enters the prediction-cache
identity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runner.runner import derive_seed
from repro.sc.bitstream import ThermometerStream

__all__ = ["BitFlipFaultModel"]


def net_flip_pmf(length: int, flip_prob: float) -> np.ndarray:
    """``pmf[c, n]``: probability that count ``c`` reads ``n`` after faults."""
    binom = np.zeros((length + 1, length + 1))  # binom[n, k] = P(Bin(n, p) = k)
    binom[0, 0] = 1.0
    for n in range(1, length + 1):
        binom[n, : n + 1] = (1.0 - flip_prob) * binom[n - 1, : n + 1]
        binom[n, 1 : n + 1] += flip_prob * binom[n - 1, :n]
    # Surviving ones Bin(c, 1 - p) (row c reversed) plus flipped zeros Bin(L - c, p).
    return np.stack([np.convolve(binom[c, c::-1], binom[length - c, : length - c + 1]) for c in range(length + 1)])


@lru_cache(maxsize=16)
def _inverse_tables(length: int, flip_prob: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(cdf, guide)``; ``guide[c, j]`` counts the ``cdf[c]`` entries ``<= j / M``."""
    cdf = np.minimum(np.cumsum(net_flip_pmf(length, flip_prob), axis=1), 1.0)
    cdf[:, -1] = 1.0
    buckets = 1 << max(10, int(length).bit_length())  # M: a power of two, so u * M is exact
    edges = np.ceil(cdf * buckets).astype(np.intp) + np.arange(length + 1)[:, None] * (buckets + 1)
    guide = np.bincount(edges.ravel(), minlength=(length + 1) * (buckets + 1))
    return cdf, np.cumsum(guide.reshape(length + 1, buckets + 1), axis=1)


def sample_net_flips(counts: np.ndarray, length: int, flip_prob: float, uniforms: np.ndarray) -> np.ndarray:
    """Post-fault counts: ``uniforms`` (``counts``' shape, in ``[0, 1)``) through the CDF."""
    cdf, guide = _inverse_tables(length, flip_prob)
    buckets = guide.shape[1] - 1
    rows = counts.reshape(-1).astype(np.intp, copy=False)
    u = uniforms.reshape(-1)
    # The answer lies in [guide[c, j], guide[c, j + 1]] for bucket j; bisect
    # that range where it is non-empty (under 1% of elements).  In-place index
    # arithmetic keeps the temporaries few, which matters at this size.
    start = (u * buckets).astype(np.intp)
    start += rows * (buckets + 1)
    lo = guide.take(start)
    start += 1
    hi = guide.take(start)
    todo = np.flatnonzero(lo < hi)
    while todo.size:
        mid = (lo[todo] + hi[todo]) >> 1
        below = cdf.take(rows[todo] * (length + 1) + mid) <= u[todo]
        lo[todo[below]] = mid[below] + 1
        hi[todo[~below]] = mid[~below]
        todo = todo[lo[todo] < hi[todo]]
    return lo.reshape(counts.shape)


class BitFlipFaultModel:
    """Per-image bit flips at rate ``flip_prob``, seeded from ``seed``."""

    VERSION = 2

    def __init__(self, flip_prob: float, seed: int = 0) -> None:
        if not 0.0 <= flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        self.flip_prob = float(flip_prob)
        self.seed = int(seed)
        self._rngs: Optional[List[np.random.Generator]] = None
        self._site = 0  # sites perturbed in the current forward

    @property
    def enabled(self) -> bool:
        return self.flip_prob > 0.0

    def begin_batch(self, image_indices: Sequence[int]) -> None:
        """Arm the model for one forward pass over the given global indices."""
        self._rngs = [np.random.default_rng(derive_seed(self.seed, int(index))) for index in image_indices]
        self._site = 0

    def perturb_counts(self, counts: np.ndarray, length: int) -> np.ndarray:
        """Post-fault counts (axis 0: the armed images; ``counts`` itself at ``flip_prob`` 0)."""
        self._site += 1
        if not self.enabled:
            return counts
        if self._rngs is None:
            raise RuntimeError("begin_batch must be called before perturbing streams")
        counts = np.asarray(counts)
        if counts.shape[0] != len(self._rngs):
            raise ValueError(f"site {self._site}: axis 0 is {counts.shape[0]}, not the armed {len(self._rngs)} images")
        if counts.size and (counts.min() < 0 or counts.max() > length):
            raise ValueError(f"counts must lie in [0, {length}]")
        uniforms = np.empty(counts.shape)
        for rng, row in zip(self._rngs, uniforms.reshape(len(self._rngs), -1)):
            rng.random(out=row)
        return sample_net_flips(counts, length, self.flip_prob, uniforms)

    def perturb_stream(self, stream: ThermometerStream) -> ThermometerStream:
        """Stream-level wrapper around :meth:`perturb_counts`."""
        counts = self.perturb_counts(stream.counts, stream.length)
        if counts is stream.counts:
            return stream
        return ThermometerStream(counts, stream.length, stream.scale, validate=False)
