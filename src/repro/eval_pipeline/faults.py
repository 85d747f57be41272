"""Bit-flip fault injection on thermometer streams, at one draw per element at most.

Every thermometer-stream interface of the SC-ViT (softmax ``x``/``y``, GELU
input/output) passes through :meth:`BitFlipFaultModel.perturb_counts`.  Each
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

**Composed sites.**  The SI GELU maps input counts to output counts through
a fixed table, so fault -> table -> fault is one Markov kernel
``K = F(L_in, p) · onehot(table) · F(L_out, p)`` (:func:`composed_kernel`,
``F`` the net-flip law), sampled as one site by the dense branch's inversion:
``perturb_counts(..., through=(table, L_out))``.

**Uniforms** are counter-based: the ``j``-th draw of image ``i`` at the
forward's ``s``-th site mixes ``seed -> i -> s -> j`` with SplitMix64 (each
step mixes its parent key plus the counter times the golden gamma), a few
``uint64`` numpy operations over the whole site.  No generator carries
state, so an image's draws depend only on ``(seed, image index, site)``
and batched == per-image holds by construction.  A sparse site reads a
window of ``ceil(mu + 6·sqrt(mu) + 8)`` counters per image (``mu = n·L·p``)
and a walk that has not passed the end reads the next window, so the
window sizes the work, never the result.

:attr:`~BitFlipFaultModel.VERSION` 4 is this sampler (version 3 drew from
one generator per image and sampled the GELU's two sites apart; version 2
inverted every element's draw; version 1 XORed per-bit masks: same law,
other draws); it enters the cache identity of every faulted prediction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.sc.bitstream import counts_in_range

__all__ = ["BitFlipFaultModel"]

# A sparse site's per-image window of uniforms is ceil(mu + _WINDOW_SIGMAS *
# sqrt(mu) + _WINDOW_SLACK) for mu expected flips: the walk rarely needs more.
_WINDOW_SIGMAS = 6.0
_WINDOW_SLACK = 8

# SplitMix64: the golden gamma that spaces counters, and the output function's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

# ``(cdf, guide, answer)``: an inversion table of a row-stochastic matrix.
Tables = Tuple[np.ndarray, np.ndarray, np.ndarray]


def net_flip_pmf(length: int, flip_prob: float) -> np.ndarray:
    """``pmf[c, n]``: probability that count ``c`` reads ``n`` after faults."""
    binom = np.zeros((length + 1, length + 1))  # binom[n, k] = P(Bin(n, p) = k)
    binom[0, 0] = 1.0
    for n in range(1, length + 1):
        binom[n, : n + 1] = (1.0 - flip_prob) * binom[n - 1, : n + 1]
        binom[n, 1 : n + 1] += flip_prob * binom[n - 1, :n]
    # Surviving ones Bin(c, 1 - p) (row c reversed) plus flipped zeros Bin(L - c, p).
    return np.stack([np.convolve(binom[c, c::-1], binom[length - c, : length - c + 1]) for c in range(length + 1)])


def composed_kernel(table: np.ndarray, length: int, out_length: int, flip_prob: float) -> np.ndarray:
    """``K[c, o]``: probability that input count ``c`` reads ``o`` after fault -> ``table`` -> fault."""
    table = np.asarray(table)
    if table.shape != (length + 1,) or not counts_in_range(table, out_length):
        raise ValueError(f"table must map the {length + 1} counts of [0, {length}] into [0, {out_length}]")
    onehot = np.eye(out_length + 1)[table]
    return net_flip_pmf(length, flip_prob) @ onehot @ net_flip_pmf(out_length, flip_prob)


@lru_cache(maxsize=16)
def _tables(length: int, flip_prob: float, table: Optional[bytes] = None, out_length: int = 0) -> Tables:
    """``(cdf, guide, answer)`` inverting the net-flip law, or :func:`composed_kernel` of an ``int64`` table's bytes.

    ``guide[c, j]`` counts the ``cdf[c]`` entries ``<= j / M``, so a draw in
    bucket ``j`` reads an outcome in ``[guide[c, j], guide[c, j + 1]]``;
    ``answer[c * M + j]`` is that outcome where the range is one value, else -1.
    """
    if table is None:
        pmf = net_flip_pmf(length, flip_prob)
    else:
        pmf = composed_kernel(np.frombuffer(table, np.int64), length, out_length, flip_prob)
    rows, outcomes = pmf.shape
    cdf = np.minimum(np.cumsum(pmf, axis=1), 1.0)
    cdf[:, -1] = 1.0
    buckets = 1 << max(10, int(outcomes - 1).bit_length())  # M: a power of two, so u * M is exact
    edges = np.ceil(cdf * buckets).astype(np.intp) + np.arange(rows)[:, None] * (buckets + 1)
    guide = np.bincount(edges.ravel(), minlength=rows * (buckets + 1))
    guide = np.cumsum(guide.reshape(rows, buckets + 1), axis=1)
    dtype = np.promote_types(np.int8, np.min_scalar_type(-outcomes))  # small: the lookup is memory-bound
    answer = np.where(guide[:, 1:] == guide[:, :-1], guide[:, :-1], -1).astype(dtype).ravel()
    return cdf, guide, answer


def sample_rows(tables: Tables, counts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Outcomes of the rows ``counts`` selects, one ``uint64`` word each (``counts``' shape).

    A word ``w`` is the uniform ``u = (w >> 11) · 2^-53``, inverted through the
    row's CDF: its top ``log2 M`` bits are ``floor(u · M)``, the guide bucket,
    and only draws whose bucket holds a CDF edge convert ``u`` to bisect.
    """
    cdf, guide, answer = tables
    outcomes = cdf.shape[1]
    buckets = guide.shape[1] - 1
    rows = counts.reshape(-1).astype(np.intp, copy=False)
    words = words.reshape(-1)
    index = (words >> (65 - buckets.bit_length())).view(np.intp)
    index += rows * buckets
    picked = answer.take(index)
    todo = np.flatnonzero(picked < 0)
    out = picked.astype(np.int64)
    if todo.size:
        # Bisect [guide[c, j], guide[c, j + 1]], the bucket's range of outcomes.
        rows = rows[todo]
        u = (words[todo] >> 11).astype(np.float64) * 2.0**-53
        index = index[todo] + rows  # from c * M + j to c * (M + 1) + j
        lo, hi = guide.take(index), guide.take(index + 1)
        rows *= outcomes
        for _ in range(int((hi - lo).max()).bit_length()):  # a settled draw keeps lo == hi
            mid = (lo + hi) >> 1
            below = cdf.take(rows + mid) <= u
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        out[todo] = lo
    return out.reshape(counts.shape)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a ``uint64`` array."""
    shifted = z >> 30
    z ^= shifted
    z *= _MIX_1
    z ^= np.right_shift(z, 27, out=shifted)
    z *= _MIX_2
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def counter_words(keys: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Mixed ``uint64`` words at counters ``[start, stop)`` of each key: ``(len(keys), stop - start)``."""
    return _mix(keys[:, None] + np.arange(start, stop, dtype=np.uint64) * _GAMMA)


def _walk(words: np.ndarray, flip_prob: float, end: int) -> np.ndarray:
    """Flipped bit positions (0-based, increasing along the last axis) of geometric skips.

    Each word's uniform ``u = (w >> 11) · 2^-53`` is one skip:
    ``floor(log1p(-u) / log1p(-p))`` unflipped bits, then a flipped one.
    Positions at or past ``end`` are past the stream.
    """
    skips = (words >> 11).view(np.int64).astype(np.float64)
    skips *= -(2.0**-53)
    np.log1p(skips, out=skips)
    skips /= math.log1p(-flip_prob) if flip_prob < 1.0 else -math.inf  # p = 1: every skip is 0
    np.minimum(skips, end, out=skips)  # keeps the cumulative sum far from overflow
    steps = skips.astype(np.int64)  # truncation is floor: skips >= 0
    steps += 1
    positions = np.cumsum(steps, axis=-1, out=steps)
    positions -= 1
    return positions


def _sparse_flips(counts: np.ndarray, length: int, flip_prob: float, keys: np.ndarray) -> np.ndarray:
    """Post-fault ``counts`` (one row per image, one key per row) by walking each image's bit positions."""
    images, per_image = counts.shape
    end = per_image * length  # bit positions per image
    mean = end * flip_prob
    window = max(1, math.ceil(mean + _WINDOW_SIGMAS * math.sqrt(mean) + _WINDOW_SLACK))
    first = np.arange(0, images * end, end)  # each image's first bit over the whole site
    positions = _walk(counter_words(keys, 0, window), flip_prob, end)
    bits = [(positions + first[:, None])[positions < end]]
    todo = np.flatnonzero(positions[:, -1] < end)
    last, start = positions[todo, -1], window
    while todo.size:
        # Walks that have not passed the end read their images' next counters.
        more = _walk(counter_words(keys[todo], start, start + window), flip_prob, end)
        more += last[:, None] + 1
        bits.append((more + first[todo, None])[more < end])
        last, start = more[:, -1], start + window
        todo, last = todo[last < end], last[last < end]
    bits = np.concatenate(bits)
    elements = bits // length
    bits -= elements * length  # bit within its element's stream
    out = counts.astype(np.int64).reshape(-1)
    moves = np.where(bits < out.take(elements), -1, 1)  # a one flipped off, or a zero on
    np.add.at(out, elements, moves)  # unbuffered: two bits of one element may both flip
    return out.reshape(counts.shape)


class BitFlipFaultModel:
    """Per-image bit flips at rate ``flip_prob``, seeded from ``seed``."""

    VERSION = 4

    def __init__(self, flip_prob: float, seed: int = 0) -> None:
        if not 0.0 <= flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        self.flip_prob = float(flip_prob)
        self.seed = int(seed)
        self._seed_key = _mix(np.array([self.seed % 2**64], dtype=np.uint64))
        self._keys: Optional[np.ndarray] = None  # one per armed image
        self._site = 0  # sites perturbed in the current forward

    @property
    def enabled(self) -> bool:
        return self.flip_prob > 0.0

    def begin_batch(self, image_indices: Sequence[int]) -> None:
        """Arm the model for one forward pass over the given global indices."""
        indices = np.asarray(image_indices, dtype=np.int64).reshape(-1).astype(np.uint64)
        self._keys = _mix(self._seed_key + indices * _GAMMA)
        self._site = 0

    def perturb_counts(
        self, counts: np.ndarray, length: int, through: Optional[Tuple[np.ndarray, int]] = None
    ) -> np.ndarray:
        """Post-fault counts (axis 0: the armed images; ``counts`` itself at ``flip_prob`` 0).

        ``through=(table, out_length)`` maps the faulted counts through
        ``table`` and faults the mapped stream too, sampled as one site of
        :func:`composed_kernel`; the result is post-fault output counts.
        """
        self._site += 1
        if not self.enabled:
            return counts if through is None else np.asarray(through[0]).take(counts)
        if self._keys is None:
            raise RuntimeError("begin_batch must be called before perturbing streams")
        counts = np.asarray(counts)
        if counts.shape[0] != len(self._keys):
            raise ValueError(f"site {self._site}: axis 0 is {counts.shape[0]}, not the armed {len(self._keys)} images")
        if not counts_in_range(counts, length):
            raise ValueError(f"counts must lie in [0, {length}]")
        if not counts.size:
            return counts.astype(np.int64)
        keys = counter_words(self._keys, self._site, self._site + 1)[:, 0]
        rows = counts.reshape(len(keys), -1)
        if through is not None:
            table, out_length = through
            tables = _tables(length, self.flip_prob, np.asarray(table, np.int64).tobytes(), out_length)
        elif length * self.flip_prob <= 1.0:
            return _sparse_flips(rows, length, self.flip_prob, keys).reshape(counts.shape)
        else:
            tables = _tables(length, self.flip_prob)
        return sample_rows(tables, counts, counter_words(keys, 0, rows.shape[1]))
