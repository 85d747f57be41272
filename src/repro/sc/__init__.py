"""Stochastic-computing (SC) substrate.

This package provides everything below the ASCEND-specific blocks:

* bitstream containers for the three encodings used in the paper —
  unipolar, bipolar and deterministic thermometer coding
  (:mod:`repro.sc.bitstream`, :mod:`repro.sc.encodings`),
* stochastic number generators built from linear-feedback shift registers
  (:mod:`repro.sc.sng`),
* SC arithmetic: AND/XNOR stochastic multipliers, MUX scaled adders, the
  thermometer truth-table multiplier and the bitonic-sorting-network (BSN)
  adder (:mod:`repro.sc.arithmetic`, :mod:`repro.sc.sorting_network`),
* re-scaling / sub-sampling blocks used to align scaling factors
  (:mod:`repro.sc.rescaling`),
* the three families of baseline nonlinear-function designs the paper
  compares against: FSM-based units, Bernstein-polynomial units and naive
  selective interconnect (:mod:`repro.sc.fsm`, :mod:`repro.sc.bernstein`,
  :mod:`repro.sc.selective_interconnect`),
* the packed engine's numpy kernels behind one observable seam
  (:mod:`repro.sc.backends`).

Every functional block also knows how to describe itself structurally for
the hardware cost model via a ``build_hardware()`` method.
"""

from repro.sc.bitstream import StochasticStream, ThermometerStream
from repro.sc.packed import PackedBitPlane
from repro.sc.encodings import (
    bipolar_decode,
    bipolar_encode,
    unipolar_decode,
    unipolar_encode,
)
from repro.sc.sng import LinearFeedbackShiftRegister, StochasticNumberGenerator
from repro.sc.arithmetic import (
    bsn_add,
    draw_select_planes,
    fused_multiply_decode,
    thermometer_add,
    thermometer_multiply,
    unipolar_multiply,
    bipolar_multiply,
    mux_scaled_add,
)
from repro.sc.rescaling import RescalingBlock, align_scales, rescale
from repro.sc.sorting_network import BitonicSortingNetwork
from repro.sc.fsm import FsmNonlinearUnit, FsmGeluUnit, FsmTanhUnit, FsmReluUnit
from repro.sc.bernstein import BernsteinGeluUnit, BernsteinPolynomialUnit, fit_bernstein_coefficients
from repro.sc.selective_interconnect import NaiveSelectiveInterconnect, NaiveSIGeluBlock

__all__ = [
    "StochasticStream",
    "PackedBitPlane",
    "ThermometerStream",
    "unipolar_encode",
    "unipolar_decode",
    "bipolar_encode",
    "bipolar_decode",
    "LinearFeedbackShiftRegister",
    "StochasticNumberGenerator",
    "thermometer_multiply",
    "thermometer_add",
    "bsn_add",
    "unipolar_multiply",
    "bipolar_multiply",
    "mux_scaled_add",
    "draw_select_planes",
    "fused_multiply_decode",
    "RescalingBlock",
    "align_scales",
    "rescale",
    "BitonicSortingNetwork",
    "FsmNonlinearUnit",
    "FsmGeluUnit",
    "FsmTanhUnit",
    "FsmReluUnit",
    "BernsteinPolynomialUnit",
    "BernsteinGeluUnit",
    "fit_bernstein_coefficients",
    "NaiveSelectiveInterconnect",
    "NaiveSIGeluBlock",
]
