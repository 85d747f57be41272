"""Bit-flip fault injection on thermometer streams, at a cost per flip.

Every thermometer-stream interface of the SC-ViT (softmax ``x``/``y``, GELU
input/output) passes through :meth:`BitFlipFaultModel.perturb_stream`.  Each
of a stream's ``L`` bits flips with probability ``p``; the next bitonic
sorter re-sorts the stream, whose value is its popcount, so only the *net*
flip count survives: count ``c`` becomes ``c - Bin(c, p) + Bin(L - c, p)``.
A site samples that law exactly by one of two branches, chosen from
``(L, p)`` alone:

* **sparse** (``L·p <= 1``): walk the site's ``n·L`` bit positions per image
  by geometric skips, so the work follows the expected number of flips,
  and move each flipped bit's element count by -1 (a one flipped) or +1 (a
  zero flipped);
* **dense** (``L·p > 1``): one uniform per element, inverted through a
  memoised per-``(L, p)`` CDF.  One lookup in an answer-or--1 guide resolves
  almost every draw; a bisection within the guide bucket does the rest.

**Determinism.** :meth:`~BitFlipFaultModel.begin_batch` seeds one generator
per image with ``derive_seed(seed, global image index)``; sites draw from it
in model order.  A sparse site takes a fixed window of
``ceil(mu + 6·sqrt(mu) + 8)`` uniforms per image (``mu = n·L·p``) and an
image whose walk has not passed the end continues from its own generator,
so an image's draws depend only on ``(seed, image index, site)``, never on
its batch, and batched == per-image holds with faults on.
:attr:`~BitFlipFaultModel.VERSION` 3 is this sampler (version 2 inverted
every element's draw; version 1 XORed per-bit masks: same law, other
draws); it enters the cache identity of every faulted prediction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runner.runner import derive_seed
from repro.sc.bitstream import ThermometerStream, counts_in_range

__all__ = ["BitFlipFaultModel"]

# A sparse site's per-image window of uniforms is ceil(mu + _WINDOW_SIGMAS *
# sqrt(mu) + _WINDOW_SLACK) for mu expected flips: the walk rarely needs more.
_WINDOW_SIGMAS = 6.0
_WINDOW_SLACK = 8


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
def _inverse_tables(length: int, flip_prob: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cdf, guide, answer)`` for inverting the net-flip law of ``(length, flip_prob)``.

    ``guide[c, j]`` counts the ``cdf[c]`` entries ``<= j / M``, so a draw in
    bucket ``j`` reads a count in ``[guide[c, j], guide[c, j + 1]]``;
    ``answer[c * M + j]`` is that count where the range is one value, else -1.
    """
    cdf = np.minimum(np.cumsum(net_flip_pmf(length, flip_prob), axis=1), 1.0)
    cdf[:, -1] = 1.0
    buckets = 1 << max(10, int(length).bit_length())  # M: a power of two, so u * M is exact
    edges = np.ceil(cdf * buckets).astype(np.intp) + np.arange(length + 1)[:, None] * (buckets + 1)
    guide = np.bincount(edges.ravel(), minlength=(length + 1) * (buckets + 1))
    guide = np.cumsum(guide.reshape(length + 1, buckets + 1), axis=1)
    dtype = np.promote_types(np.int16, np.min_scalar_type(-length - 1))  # small: the lookup is memory-bound
    answer = np.where(guide[:, 1:] == guide[:, :-1], guide[:, :-1], -1).astype(dtype).ravel()
    return cdf, guide, answer


def sample_net_flips(counts: np.ndarray, length: int, flip_prob: float, uniforms: np.ndarray) -> np.ndarray:
    """Post-fault counts: ``uniforms`` (``counts``' shape, in ``[0, 1)``) through the CDF."""
    cdf, guide, answer = _inverse_tables(length, flip_prob)
    buckets = guide.shape[1] - 1
    rows = counts.reshape(-1).astype(np.intp, copy=False)
    u = uniforms.reshape(-1)
    index = (u * buckets).astype(np.intp)
    index += rows * buckets
    out = answer.take(index).astype(np.int64)
    todo = np.flatnonzero(out < 0)
    if todo.size:
        # Bisect [guide[c, j], guide[c, j + 1]], the bucket's range of counts.
        rows, u = rows[todo], u[todo]
        index = index[todo] + rows  # from c * M + j to c * (M + 1) + j
        lo, hi = guide.take(index), guide.take(index + 1)
        while todo.size:
            mid = (lo + hi) >> 1
            below = cdf.take(rows * (length + 1) + mid) <= u
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
            open_ = lo < hi
            out[todo[~open_]] = lo[~open_]
            todo, rows, u, lo, hi = todo[open_], rows[open_], u[open_], lo[open_], hi[open_]
    return out.reshape(counts.shape)


def _walk(uniforms: np.ndarray, flip_prob: float, end: int) -> np.ndarray:
    """Flipped bit positions (0-based, increasing along the last axis) of geometric skips.

    Each uniform is one skip: ``floor(log1p(-u) / log1p(-p))`` unflipped bits,
    then a flipped one.  Positions at or past ``end`` are past the stream.
    """
    skips = np.log1p(-uniforms)
    skips /= math.log1p(-flip_prob) if flip_prob < 1.0 else -math.inf  # p = 1: every skip is 0
    np.minimum(skips, end, out=skips)  # keeps the cumulative sum far from overflow
    steps = skips.astype(np.int64)  # truncation is floor: skips >= 0
    steps += 1
    positions = np.cumsum(steps, axis=-1, out=steps)
    positions -= 1
    return positions


def _sparse_flips(counts: np.ndarray, length: int, flip_prob: float, rngs: List[np.random.Generator]) -> np.ndarray:
    """Post-fault ``counts`` (one row per image) by walking each image's bit positions."""
    images, per_image = counts.shape
    end = per_image * length  # bit positions per image
    mean = end * flip_prob
    window = max(1, math.ceil(mean + _WINDOW_SIGMAS * math.sqrt(mean) + _WINDOW_SLACK))
    uniforms = np.empty((images, window))
    for rng, row in zip(rngs, uniforms):
        rng.random(out=row)
    positions = _walk(uniforms, flip_prob, end)
    inside = positions < end
    unfinished = np.flatnonzero(inside[:, -1])
    positions += np.arange(0, images * end, end)[:, None]  # bit index over the whole site
    bits = [positions[inside]]
    for image in unfinished:
        # This image's walk has not passed the end: continue it from its own
        # generator, so its draws never depend on the other images.
        last, stop = positions[image, -1], (image + 1) * end
        while last < stop:
            more = last + 1 + _walk(rngs[image].random(window), flip_prob, end)
            bits.append(more[more < stop])
            last = more[-1]
    bits = np.concatenate(bits)
    elements = bits // length
    bits -= elements * length  # bit within its element's stream
    out = counts.astype(np.int64).reshape(-1)
    moves = np.where(bits < out.take(elements), -1, 1)  # a one flipped off, or a zero on
    np.add.at(out, elements, moves)  # unbuffered: two bits of one element may both flip
    return out.reshape(counts.shape)


class BitFlipFaultModel:
    """Per-image bit flips at rate ``flip_prob``, seeded from ``seed``."""

    VERSION = 3

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
        if not counts_in_range(counts, length):
            raise ValueError(f"counts must lie in [0, {length}]")
        if not counts.size:
            return counts.astype(np.int64)
        rows = counts.reshape(len(self._rngs), -1)
        if length * self.flip_prob <= 1.0:
            return _sparse_flips(rows, length, self.flip_prob, self._rngs).reshape(counts.shape)
        uniforms = np.empty(rows.shape)
        for rng, row in zip(self._rngs, uniforms):
            rng.random(out=row)
        return sample_net_flips(counts, length, self.flip_prob, uniforms)

    def perturb_stream(self, stream: ThermometerStream) -> ThermometerStream:
        """Stream-level wrapper around :meth:`perturb_counts`."""
        counts = self.perturb_counts(stream.counts, stream.length)
        if counts is stream.counts:
            return stream
        return ThermometerStream(counts, stream.length, stream.scale, validate=False)
