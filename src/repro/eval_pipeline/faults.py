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
  zero flipped).  The positions do not depend on the counts, so
  :meth:`~BitFlipFaultModel.sparse_flips` walks several sites at once;
* **dense** (``L·p > 1``): one uniform per element, inverted through a
  memoised per-``(L, p)`` CDF.  One lookup in an answer-or--1 guide resolves
  almost every draw (its bucket is the uniform's top bits); a bisection
  within the guide bucket does the rest.

**Composed sites.**  The SI GELU maps input counts to output counts through
a fixed table, so fault -> table -> fault is one Markov kernel
``K = F(L_in, p) · onehot(table) · F(L_out, p)`` (:func:`composed_kernel`,
``F`` the net-flip law), sampled as one site by the dense branch's inversion:
``perturb_counts(..., through=(table, L_out))``.

**Uniforms** are counter-based and 32 bits wide: word ``j`` of image ``i``
at the forward's ``s``-th site mixes ``seed -> i -> s -> j`` with SplitMix64
(each step mixes its parent key plus the counter times the golden gamma),
a few ``uint64`` numpy operations over the whole site, and carries uniforms
``2j`` (its low half) and ``2j + 1`` (its high half).  A uniform ``u`` in
``[0, 2^32)`` is inverted as ``u · 2^-32`` (guide bucket: its top bits) and
is one geometric skip ``floor(log((u + 1) · 2^-32) / log1p(-p))``, so each
draw's law is exact to ``2^-32``.  No generator carries state, so an
image's draws depend only on ``(seed, image index, site)`` and batched ==
per-image holds by construction.  A sparse site reads a window of
``ceil(mu + _WINDOW_SIGMAS·sqrt(mu) + _WINDOW_SLACK)`` uniforms per image
(``mu = n·L·p``, rounded up to whole words) and a walk that has not passed
the end reads the next window, so the window sizes the work, never the
result.

:attr:`~BitFlipFaultModel.VERSION` 5 is this sampler (version 4 drew one
53-bit uniform per word; version 3 drew from one generator per image and
sampled the GELU's two sites apart; version 2 inverted every element's
draw; version 1 XORed per-bit masks: same law, other draws); it enters the
cache identity of every faulted prediction.
"""

from __future__ import annotations

import copy
import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sc.bitstream import counts_in_range

__all__ = ["BitFlipFaultModel"]

# A sparse site's per-image window of uniforms is ceil(mu + _WINDOW_SIGMAS *
# sqrt(mu) + _WINDOW_SLACK) for mu expected flips, sized by timing the faulted
# softmax: a few walks read a second window, which costs less than a wider first.
_WINDOW_SIGMAS = 3.0
_WINDOW_SLACK = 3

# SplitMix64: the golden gamma that spaces counters, and the output function's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

# ``(cdf, guide, answer)``: an inversion table of a row-stochastic matrix.
Tables = Tuple[np.ndarray, np.ndarray, np.ndarray]
Flips = Tuple[np.ndarray, np.ndarray]  # ``(elements, bits)``: flat element indices, bit positions in them


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


def sample_rows(tables: Tables, counts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Outcomes of the rows ``counts`` selects, one ``uint32`` uniform each (``counts``' shape).

    A uniform ``u`` is inverted as ``u · 2^-32`` through the row's CDF: its
    top ``log2 M`` bits are the guide bucket, and only draws whose bucket
    holds a CDF edge convert ``u`` to bisect.
    """
    cdf, guide, answer = tables
    outcomes = cdf.shape[1]
    buckets = guide.shape[1] - 1
    rows = counts.reshape(-1).astype(np.intp, copy=False)
    uniforms = uniforms.reshape(-1)
    index = (uniforms >> (33 - buckets.bit_length())).astype(np.intp)
    index += rows * buckets
    picked = answer.take(index)
    todo = np.flatnonzero(picked < 0)
    out = picked.astype(np.int64)
    if todo.size:
        # Bisect [guide[c, j], guide[c, j + 1]], the bucket's range of outcomes.
        rows = rows[todo]
        u = uniforms[todo] * 2.0**-32
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


def counter_uniforms(keys: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``uint32`` uniforms ``[start, stop)`` of each key (``start`` even).

    Uniform ``2j`` is word ``j``'s low 32 bits and uniform ``2j + 1`` its high 32 bits.
    """
    words = counter_words(keys, start // 2, (stop + 1) // 2)
    return words.astype("<u8", copy=False).view("<u4")[:, : stop - start]  # low half first on any host


def _walk(uniforms: np.ndarray, flip_prob: float, end: int) -> np.ndarray:
    """Flipped bit positions (0-based, increasing along the last axis) of geometric skips.

    Each ``uint32`` uniform ``u`` is one skip:
    ``floor(log((u + 1) · 2^-32) / log1p(-p))`` unflipped bits, then a flipped one.
    Positions at or past ``end`` are past the stream.
    """
    skips = uniforms * 2.0**-32
    skips += 2.0**-32  # (u + 1) · 2^-32, exact in float64
    np.log(skips, out=skips)
    skips /= math.log1p(-flip_prob) if flip_prob < 1.0 else -math.inf  # p = 1: every skip is 0
    np.minimum(skips, end, out=skips)  # keeps the cumulative sum far from overflow
    steps = skips.astype(np.int64)  # truncation is floor: skips >= 0
    steps += 1
    positions = np.cumsum(steps, axis=-1, out=steps)
    positions -= 1
    return positions


def _sparse_flips(keys: np.ndarray, per_image: int, length: int, flip_prob: float) -> List[Flips]:
    """Each site's flipped ``(element, bit)`` pairs, walking its images' bit positions (``keys``: one per site, image).

    A site's ``elements`` index its ``images × per_image`` counts, in increasing order.
    """
    sites, images = keys.shape
    keys = keys.reshape(-1)
    end = per_image * length  # bit positions per image
    mean = end * flip_prob
    window = 2 * max(1, math.ceil((mean + _WINDOW_SIGMAS * math.sqrt(mean) + _WINDOW_SLACK) / 2))  # whole words
    first = np.arange(keys.size) * end  # each walk's first bit over all the sites
    positions = _walk(counter_uniforms(keys, 0, window), flip_prob, end)
    chunks = [(positions + first[:, None])[positions < end]]
    todo = np.flatnonzero(positions[:, -1] < end)
    last, start = positions[todo, -1], window
    while todo.size:
        # Walks that have not passed the end read their images' next counters.
        more = _walk(counter_uniforms(keys[todo], start, start + window), flip_prob, end)
        more += last[:, None] + 1
        chunks.append((more + first[todo, None])[more < end])
        last, start = more[:, -1], start + window
        todo, last = todo[last < end], last[last < end]
    bits = chunks[0]  # sorted: the walks in site order, each increasing
    if len(chunks) > 1:  # sort only the continued walks' bits, then merge them into place
        extra = np.sort(np.concatenate(chunks[1:]))
        bits = np.insert(bits, np.searchsorted(bits, extra), extra)
    elements = bits // length
    bits -= elements * length  # bit within its element's stream
    size = images * per_image
    cuts = np.searchsorted(elements, np.arange(sites + 1) * size).tolist()
    return [(elements[a:b] - site * size, bits[a:b]) for site, a, b in zip(range(sites), cuts, cuts[1:])]


class BitFlipFaultModel:
    """Per-image bit flips at rate ``flip_prob``, seeded from ``seed``."""

    VERSION = 5

    def __init__(self, flip_prob: float, seed: int = 0) -> None:
        if not 0.0 <= flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        self.flip_prob = float(flip_prob)
        self.seed = int(seed)
        self._seed_key = _mix(np.array([self.seed % 2**64], dtype=np.uint64))
        self._keys: Optional[np.ndarray] = None  # one per armed image
        self._site = 0  # sites perturbed in the armed forward

    @property
    def enabled(self) -> bool:
        return self.flip_prob > 0.0

    def armed(self, image_indices: Sequence[int]) -> "BitFlipFaultModel":
        """A copy armed for one forward over the given global indices; ``self`` is unchanged."""
        indices = np.asarray(image_indices, dtype=np.int64).reshape(-1).astype(np.uint64)
        armed = copy.copy(self)
        armed._keys = _mix(self._seed_key + indices * _GAMMA)
        armed._site = 0
        return armed

    def sparse_flips(self, shape: Tuple[int, ...], length: int, sites: int) -> Optional[List[Flips]]:
        """The flips of the next ``sites`` sites of ``shape``-shaped counts, drawn as one walk.

        A flipped bit below the site's pre-fault count moves it by -1, any other by +1.
        ``None`` (dense sites, or faults off): perturb each through :meth:`perturb_counts`.
        """
        if not self.enabled or length * self.flip_prob > 1.0:
            return None
        return _sparse_flips(self._site_keys(shape[0], sites), math.prod(shape[1:]), length, self.flip_prob)

    def _site_keys(self, images: int, sites: int) -> np.ndarray:
        """``(sites, images)`` keys of the next ``sites`` sites; advances the site counter."""
        if self._keys is None:
            raise RuntimeError("perturb streams through armed(image_indices), not the unarmed model")
        if images != len(self._keys):
            raise ValueError(f"site {self._site + 1}: axis 0 is {images}, not the armed {len(self._keys)} images")
        self._site += sites
        return counter_words(self._keys, self._site - sites + 1, self._site + 1).T

    def perturb_counts(
        self, counts: np.ndarray, length: int, through: Optional[Tuple[np.ndarray, int]] = None
    ) -> np.ndarray:
        """Post-fault counts (axis 0: the armed images; ``counts`` itself at ``flip_prob`` 0).

        ``through=(table, out_length)`` maps the faulted counts through
        ``table`` and faults the mapped stream too, sampled as one site of
        :func:`composed_kernel`; the result is post-fault output counts.
        """
        if not self.enabled:
            self._site += 1
            return counts if through is None else np.asarray(through[0]).take(counts)
        counts = np.asarray(counts)
        keys = self._site_keys(counts.shape[0], 1)
        if not counts_in_range(counts, length):
            raise ValueError(f"counts must lie in [0, {length}]")
        if not counts.size:
            return counts.astype(np.int64)
        if through is not None:
            table, out_length = through
            tables = _tables(length, self.flip_prob, np.asarray(table, np.int64).tobytes(), out_length)
        elif length * self.flip_prob <= 1.0:
            [(elements, bits)] = _sparse_flips(keys, counts.size // len(counts), length, self.flip_prob)
            out = counts.astype(np.int64).reshape(-1)
            np.add.at(out, elements, np.where(bits < out.take(elements), -1, 1))  # unbuffered: repeated elements
            return out.reshape(counts.shape)
        else:
            tables = _tables(length, self.flip_prob)
        return sample_rows(tables, counts, counter_uniforms(keys[0], 0, counts.size // len(counts)))
