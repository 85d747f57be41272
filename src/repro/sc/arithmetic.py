"""SC arithmetic primitives.

Stochastic (random) encodings:

* unipolar multiplication — AND gate on two independent streams,
* bipolar multiplication — XNOR gate,
* scaled addition — MUX gate with a 0.5-probability select stream.

Deterministic thermometer encoding (Section II-A):

* multiplication — truth-table unit producing the exact product of the two
  quantised operands at the product scale,
* addition — concatenation of the operand streams followed by a bitonic
  sorting network (BSN); on one-counts this is exact integer addition,
* negation — bitwise inversion (count -> L - count),
* division by a constant — a pure scaling-factor change, no logic at all
  (the property the iterative softmax circuit exploits for its ``/k``).

Each primitive also has a ``*_hardware`` builder so the cost model can price
larger blocks out of the same pieces the functional emulation uses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.sc.bitstream import StochasticStream, ThermometerStream
from repro.sc.encodings import bipolar_decode, unipolar_decode
from repro.sc.packed import PackedBitPlane, popcount_words, select_plane, tail_mask
from repro.sc.sorting_network import BitonicSortingNetwork
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

# --------------------------------------------------------------------------
# Stochastic (random) encodings
# --------------------------------------------------------------------------


def unipolar_multiply(a: StochasticStream, b: StochasticStream) -> StochasticStream:
    """Multiply two unipolar streams with a bitwise AND.

    Runs word-wise on the packed bitplanes (64 stream bits per machine op);
    the result is bit-identical to ANDing the explicit ``int8`` arrays.
    """
    if a.encoding != "unipolar" or b.encoding != "unipolar":
        raise ValueError("unipolar_multiply requires unipolar streams")
    if a.length != b.length:
        raise ValueError("streams must have equal length")
    return StochasticStream(packed=a.packed & b.packed, encoding="unipolar")


def bipolar_multiply(a: StochasticStream, b: StochasticStream) -> StochasticStream:
    """Multiply two bipolar streams with a bitwise XNOR (packed fast path)."""
    if a.encoding != "bipolar" or b.encoding != "bipolar":
        raise ValueError("bipolar_multiply requires bipolar streams")
    if a.length != b.length:
        raise ValueError("streams must have equal length")
    return StochasticStream(packed=a.packed.xnor(b.packed), encoding="bipolar")


def mux_scaled_add(
    a: StochasticStream,
    b: StochasticStream,
    seed: SeedLike = None,
    *,
    select: Optional[PackedBitPlane] = None,
) -> StochasticStream:
    """Scaled addition ``(a + b) / 2`` with a MUX and a fair select stream.

    The select stream is drawn exactly as in the explicit-bit implementation
    (one Bernoulli draw per cycle, so seeded results are reproducible across
    versions); the MUX itself runs as three word-wise ops on the packed
    planes.  Callers adding many pairs with the same shape should draw the
    select planes once per batch with :func:`draw_select_planes` and pass
    each via ``select=`` — bit-identical to per-call draws from the same
    generator, but the RNG work is batched (and ``seed`` is then ignored).
    """
    if a.encoding != b.encoding:
        raise ValueError("streams must share an encoding")
    if a.length != b.length:
        raise ValueError("streams must have equal length")
    if select is None:
        rng = as_generator(seed)
        # Same draw as the explicit-bit implementation (one integers(0, 2)
        # per cycle) so seeded results stay reproducible across versions.
        select = select_plane(a.value_shape, a.length, rng)
    else:
        if select.length != a.length:
            raise ValueError("select plane must match the operand length")
        if select.value_shape != a.value_shape:
            raise ValueError("select plane must match the operand value shape")
    return StochasticStream(packed=select.mux(a.packed, b.packed), encoding=a.encoding)


def draw_select_planes(
    value_shape: Tuple[int, ...],
    length: int,
    count: int,
    seed: SeedLike = None,
) -> List[PackedBitPlane]:
    """Draw ``count`` fair-coin select planes in one batched RNG pass.

    Bit-identical to ``count`` sequential :func:`mux_scaled_add` draws from
    the same generator (the batched ``integers`` call consumes the uniform
    stream in the same C order), but generation is amortised across the
    whole batch — one RNG call instead of ``count``, which is where the
    per-call overhead of `mux_scaled_add` lived.
    """
    check_positive_int(length, "length")
    check_positive_int(count, "count")
    rng = as_generator(seed)
    batched = select_plane((count,) + tuple(value_shape), length, rng)
    return [PackedBitPlane(batched.words[i], length) for i in range(count)]


def fused_multiply_decode(a: StochasticStream, b: StochasticStream) -> np.ndarray:
    """Multiply two streams and decode the product in one popcount pass.

    Equivalent to ``unipolar_multiply(a, b).decode()`` (or the bipolar
    pair) but popcounts the gated words directly, without wrapping them in
    a :class:`PackedBitPlane` (whose constructor re-checks the tail).
    """
    if a.encoding != b.encoding:
        raise ValueError("streams must share an encoding")
    if a.length != b.length:
        raise ValueError("streams must have equal length")
    if a.encoding == "unipolar":
        prod = a.packed.words & b.packed.words
        decode = unipolar_decode
    else:
        prod = ~(a.packed.words ^ b.packed.words)
        prod[..., -1] &= tail_mask(a.length)
        decode = bipolar_decode
    return decode(popcount_words(prod).sum(axis=-1, dtype=np.int64) / a.length)


# --------------------------------------------------------------------------
# Deterministic thermometer encoding
# --------------------------------------------------------------------------


def thermometer_multiply(a: ThermometerStream, b: ThermometerStream) -> ThermometerStream:
    """Exact product of two thermometer-coded operands.

    The truth-table multiplier of the deterministic SC literature produces
    the product of the two signed quantised levels.  The natural output
    format has length ``La * Lb / 2`` (so its signed range ``±La*Lb/4``
    covers every possible product) and scale ``scale_a * scale_b``.
    """
    out_length = a.length * b.length // 2
    if out_length * 2 != a.length * b.length:
        raise ValueError("operand lengths must have an even product")
    product_levels = a.signed_levels() * b.signed_levels()
    out_scale = a.scale * b.scale
    counts = product_levels + out_length // 2
    # For even operand lengths the signed levels are symmetric (±L/2), so
    # products provably land on [0, out_length] and the range scan can be
    # skipped.  An odd operand length has asymmetric levels whose products
    # can overflow the output grid — keep the constructor's check there.
    needs_check = bool(a.length % 2 or b.length % 2)
    return ThermometerStream(counts=counts, length=out_length, scale=out_scale, validate=needs_check)


def thermometer_add(a: ThermometerStream, b: ThermometerStream) -> ThermometerStream:
    """Exact sum of two thermometer operands sharing a scaling factor.

    Implemented in hardware by concatenating the streams and re-sorting with
    a BSN; on one-counts that is plain integer addition.
    """
    if not a.compatible_with(b):
        raise ValueError(
            f"BSN addition requires equal scales, got {a.scale} and {b.scale}; "
            "re-scale one operand first (repro.sc.rescaling.align_scales)"
        )
    return ThermometerStream(
        counts=a.counts + b.counts,
        length=a.length + b.length,
        scale=a.scale,
        validate=False,
    )


def bsn_add(streams: Sequence[ThermometerStream]) -> ThermometerStream:
    """Sum an arbitrary number of thermometer streams with one wide BSN."""
    if not streams:
        raise ValueError("bsn_add needs at least one stream")
    result = streams[0]
    for stream in streams[1:]:
        result = thermometer_add(result, stream)
    return result


# --------------------------------------------------------------------------
# Hardware builders
# --------------------------------------------------------------------------


def thermometer_multiplier_hardware(
    length_a: int,
    length_b: int,
    name: str = "tt_mul",
) -> HardwareModule:
    """Structural model of the truth-table thermometer multiplier.

    The unit ANDs every input-bit pair (``La * Lb`` gates) and re-sorts the
    partial products into a thermometer output with a BSN over the output
    width.  This is the dominant per-unit cost inside the softmax block.
    """
    check_positive_int(length_a, "length_a")
    check_positive_int(length_b, "length_b")
    out_width = max(2, length_a * length_b // 2)
    inventory = ComponentInventory(
        {
            "AND2": length_a * length_b,
            "XOR2": length_a + length_b,  # sign handling of the signed levels
        }
    )
    bsn = BitonicSortingNetwork(out_width).build_hardware(name=f"{name}_sorter")
    return HardwareModule(
        name=f"{name}_{length_a}x{length_b}",
        inventory=inventory,
        critical_path=("AND2", "XOR2"),
        cycles=1,
        submodules=[(bsn, 1)],
        metadata={"length_a": length_a, "length_b": length_b, "out_length": out_width},
    )
