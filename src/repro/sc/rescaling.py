"""Re-scaling (sub-sampling) blocks for thermometer streams.

After multiplications and BSN additions, thermometer streams grow long and
their scaling factors diverge.  The re-scaling block of Hu et al. (DATE'23),
which the ASCEND softmax circuit instantiates twice per compute unit
(Fig. 5), shortens a stream by keeping every ``r``-th bit; because the
stream is sorted, the surviving bits are again a thermometer code whose
count is roughly ``count / r`` and whose scale grows by ``r``.

Sub-sampling is the *only* lossy step in the deterministic SC pipeline, so
the sub-sample rates ``s1`` and ``s2`` of Table II are first-order knobs in
the accuracy/ADP design space that Fig. 8 explores.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hw.netlist import ComponentInventory, HardwareModule
from repro.sc.bitstream import ThermometerStream
from repro.utils.validation import check_positive_int


def subsampled_count(counts: np.ndarray, length: int, rate: int, phase: Optional[int] = None) -> np.ndarray:
    """One-counts after keeping bit positions ``phase, phase + rate, ...``.

    Position ``p`` of a thermometer stream is 1 exactly when ``p < count``,
    so the surviving count is the number of selected positions below
    ``count``.  The default phase ``(rate - 1) // 2`` taps the middle of each
    group, which gives (near) round-to-nearest behaviour and the lowest bias.
    """
    check_positive_int(rate, "rate")
    if phase is None:
        phase = (rate - 1) // 2
    if not 0 <= phase < rate:
        raise ValueError(f"phase must lie in [0, {rate}), got {phase}")
    counts = np.asarray(counts)
    out_length = length // rate
    kept = np.ceil((counts - phase) / rate).astype(np.int64)
    return np.clip(kept, 0, out_length)


def rescale(stream: ThermometerStream, rate: int, phase: Optional[int] = None) -> ThermometerStream:
    """Sub-sample ``stream`` by ``rate``: length /= rate, scale *= rate.

    ``rate`` must divide the stream length; a rate of 1 returns a copy.
    """
    check_positive_int(rate, "rate")
    if rate == 1:
        return stream.copy()
    if stream.length % rate != 0:
        raise ValueError(
            f"rate {rate} does not divide the stream length {stream.length}"
        )
    new_length = stream.length // rate
    new_counts = subsampled_count(stream.counts, stream.length, rate, phase)
    # subsampled_count clips onto [0, new_length], so skip the range re-scan.
    return ThermometerStream(
        counts=new_counts, length=new_length, scale=stream.scale * rate, validate=False
    )


def align_scales(a: ThermometerStream, b: ThermometerStream) -> tuple:
    """Re-scale the finer-grained of two streams so both share a scale.

    Returns the pair ``(a', b')`` with equal scales, ready for BSN addition.
    The coarser stream is never touched (precision can only be dropped, not
    invented).  Raises when the scale ratio is not a usable integer.
    """
    if np.isclose(a.scale, b.scale):
        return a, b
    if a.scale < b.scale:
        ratio = b.scale / a.scale
        if not np.isclose(ratio, round(ratio)):
            raise ValueError(f"scale ratio {ratio} is not an integer; cannot align")
        return rescale(a, int(round(ratio))), b
    ratio = a.scale / b.scale
    if not np.isclose(ratio, round(ratio)):
        raise ValueError(f"scale ratio {ratio} is not an integer; cannot align")
    return a, rescale(b, int(round(ratio)))


class RescalingBlock:
    """A fixed-rate re-scaling block with its hardware description.

    The functional behaviour is :func:`rescale`; the structural view is the
    selection wiring plus an output register per surviving bit.
    """

    def __init__(self, input_length: int, rate: int, phase: Optional[int] = None) -> None:
        check_positive_int(input_length, "input_length")
        check_positive_int(rate, "rate")
        if input_length % rate != 0:
            raise ValueError(f"rate {rate} does not divide input length {input_length}")
        self.input_length = input_length
        self.rate = rate
        self.phase = (rate - 1) // 2 if phase is None else phase
        if not 0 <= self.phase < rate:
            raise ValueError(f"phase must lie in [0, {rate})")
        self.output_length = input_length // rate

    def __call__(self, stream: ThermometerStream) -> ThermometerStream:
        if stream.length != self.input_length:
            raise ValueError(
                f"block expects input length {self.input_length}, got {stream.length}"
            )
        return rescale(stream, self.rate, self.phase)

    def build_hardware(self, name: str = "rescale") -> HardwareModule:
        """Selection wiring is free; count one buffer per surviving output bit."""
        inventory = ComponentInventory({"BUF": self.output_length})
        return HardwareModule(
            name=f"{name}_r{self.rate}",
            inventory=inventory,
            critical_path=("BUF",),
            cycles=1,
            metadata={
                "input_length": self.input_length,
                "output_length": self.output_length,
                "rate": self.rate,
                "phase": self.phase,
            },
        )
