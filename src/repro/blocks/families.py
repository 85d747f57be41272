"""Builtin block families: protocol adapters over the circuit implementations.

Each adapter wraps the historical implementation class *by composition* and
delegates to it, so the new API is bit-identical to the old one (the golden
equivalence tests assert exactly that).  This module is imported lazily by
the registry — never at ``import repro.blocks`` time — so it may import
:mod:`repro.core` and :mod:`repro.sc` freely without re-creating the import
cycle the registry exists to break.

The adapters are also where the historical ``evaluate`` signature drift is
retired: stochastic lifecycle parameters (``bitstream_length``, ``seed``,
``input_scale``) live in the spec, and every family exposes the same
``evaluate(values)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blocks.protocol import NonlinearBlock
from repro.blocks.registry import get as _get_entry
from repro.blocks.specs import (
    BernsteinGeluSpec,
    FsmGeluSpec,
    FsmReluSpec,
    FsmSoftmaxSpec,
    FsmTanhSpec,
    GeluSISpec,
    NaiveSIGeluSpec,
    SoftmaxCircuitConfig,
    TernaryGeluSpec,
)
from repro.core.baselines import FsmSoftmaxBaseline
from repro.core.gelu_si import GeluSIBlock, TernaryGeluBlock
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.nn.functional_math import gelu_exact, softmax_exact
from repro.sc.bernstein import BernsteinPolynomialUnit
from repro.sc.fsm import FsmGeluUnit, FsmNonlinearUnit, FsmReluUnit, FsmTanhUnit
from repro.sc.selective_interconnect import NaiveSelectiveInterconnect

__all__ = [
    "IterativeSoftmaxBlock",
    "FsmSoftmaxBlock",
    "SIGeluBlock",
    "TernarySIGeluBlock",
    "NaiveSIGeluBlock",
    "FsmGeluBlock",
    "FsmTanhBlock",
    "FsmReluBlock",
    "BernsteinGeluBlock",
]


def _bind(cls: type) -> type:
    """Attach registry metadata (family, spec_cls, encodings) to an adapter."""
    entry = _get_entry(cls._family_name)
    cls.family = entry.name
    cls.spec_cls = entry.spec_cls
    cls.input_encoding = entry.input_encoding
    cls.output_encoding = entry.output_encoding
    entry.block_cls = cls
    return cls


# ---------------------------------------------------------------------------
# Softmax families
# ---------------------------------------------------------------------------


@_bind
class IterativeSoftmaxBlock(NonlinearBlock):
    """ASCEND's iterative approximate softmax circuit (``softmax/iterative``)."""

    _family_name = "softmax/iterative"

    def __init__(self, spec: SoftmaxCircuitConfig) -> None:
        self.circuit = IterativeSoftmaxCircuit(spec)

    @property
    def config(self) -> SoftmaxCircuitConfig:
        return self.circuit.config

    def to_spec(self) -> SoftmaxCircuitConfig:
        return self.circuit.config

    def forward(self, x: np.ndarray, stream_hook=None) -> np.ndarray:
        """The circuit dataflow; see :meth:`IterativeSoftmaxCircuit.forward`."""
        return self.circuit.forward(x, stream_hook=stream_hook)

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.circuit.forward(values)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return softmax_exact(np.asarray(values, dtype=float), axis=-1)

    def build_hardware(self):
        return self.circuit.build_hardware()


@_bind
class FsmSoftmaxBlock(NonlinearBlock):
    """The FSM + binary-unit softmax baseline of [17] (``softmax/fsm``)."""

    _family_name = "softmax/fsm"

    def __init__(self, spec: FsmSoftmaxSpec) -> None:
        self._spec = spec
        self.baseline = FsmSoftmaxBaseline(
            m=spec.m,
            bitstream_length=spec.bitstream_length,
            num_states=spec.num_states,
            seed=spec.seed,
            bit_level=spec.bit_level,
        )

    def to_spec(self) -> FsmSoftmaxSpec:
        return self._spec

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.baseline.forward(values)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return softmax_exact(np.asarray(values, dtype=float), axis=-1)

    def build_hardware(self):
        return self.baseline.build_hardware()


# ---------------------------------------------------------------------------
# GELU families
# ---------------------------------------------------------------------------


class _ThermometerFormats:
    """Declared stream formats of a thermometer-coded block (``self.block``).

    Part of the public adapter surface: consumers (the eval pipeline, fault
    injection) encode against these instead of reaching into the wrapped
    implementation.
    """

    @property
    def input_length(self) -> int:
        return self.block.input_length

    @property
    def input_scale(self) -> float:
        return self.block.input_scale

    @property
    def output_length(self) -> int:
        return self.block.output_length

    @property
    def output_scale(self) -> float:
        return self.block.output_scale


@_bind
class SIGeluBlock(_ThermometerFormats, NonlinearBlock):
    """ASCEND's gate-assisted SI GELU (``gelu/si``)."""

    _family_name = "gelu/si"
    supports_stream_process = True

    def __init__(self, spec: GeluSISpec, calibration_samples: Optional[np.ndarray] = None) -> None:
        self.block = GeluSIBlock(
            output_length=spec.output_length,
            input_length=spec.input_length,
            input_scale=spec.input_scale,
            output_scale=spec.output_scale,
            calibration_samples=calibration_samples,
            input_range=spec.input_range,
        )
        self._spec = GeluSISpec(
            output_length=self.block.output_length,
            input_length=self.block.input_length,
            input_scale=self.block.input_scale,
            output_scale=self.block.output_scale,
            input_range=spec.input_range,
        )

    def to_spec(self) -> GeluSISpec:
        return self._spec

    def evaluate(self, values: np.ndarray, faults=None) -> np.ndarray:
        return self.block.evaluate(values, faults=faults)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return gelu_exact(np.asarray(values, dtype=float))

    def process(self, stream):
        return self.block.process(stream)

    def build_hardware(self):
        return self.block.build_hardware()


@_bind
class TernarySIGeluBlock(_ThermometerFormats, NonlinearBlock):
    """The Fig. 4(b) worked ternary example (``gelu/si-ternary``)."""

    _family_name = "gelu/si-ternary"
    supports_stream_process = True

    def __init__(self, spec: TernaryGeluSpec) -> None:
        self._spec = spec
        self.block = TernaryGeluBlock(input_scale=spec.input_scale, output_scale=spec.output_scale)

    def to_spec(self) -> TernaryGeluSpec:
        return self._spec

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.block.evaluate(values)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return gelu_exact(np.asarray(values, dtype=float))

    def process(self, stream):
        return self.block.process(stream)

    def build_hardware(self):
        return self.block.build_hardware()


@_bind
class NaiveSIGeluBlock(_ThermometerFormats, NonlinearBlock):
    """Selection-only SI GELU — the monotone envelope (``gelu/naive-si``)."""

    _family_name = "gelu/naive-si"
    supports_stream_process = True

    def __init__(self, spec: NaiveSIGeluSpec) -> None:
        # Resolve the Fig. 2 defaults: 32x input expansion, [-8, 8] input
        # grid, 1.2 output range.
        input_length = spec.input_length
        if input_length is None:
            input_length = 32 * spec.output_length
        input_scale = spec.input_scale
        if input_scale is None:
            input_scale = 8.0 / input_length
        output_scale = spec.output_scale
        if output_scale is None:
            output_scale = 1.2 / spec.output_length
        self._spec = NaiveSIGeluSpec(
            output_length=spec.output_length,
            input_length=input_length,
            input_scale=input_scale,
            output_scale=output_scale,
        )
        self.block = NaiveSelectiveInterconnect(
            gelu_exact,
            input_length=input_length,
            input_scale=input_scale,
            output_length=spec.output_length,
            output_scale=output_scale,
        )

    def to_spec(self) -> NaiveSIGeluSpec:
        return self._spec

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.block.evaluate(values)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return gelu_exact(np.asarray(values, dtype=float))

    def process(self, stream):
        return self.block.process(stream)

    def build_hardware(self):
        return self.block.build_hardware()


class _FsmUnitBlock(NonlinearBlock):
    """Shared adapter plumbing of the saturating-counter FSM families."""

    supports_stream_process = True

    def __init__(self, spec) -> None:
        self._spec = spec
        self.unit: FsmNonlinearUnit = self._make_unit(spec)

    def _make_unit(self, spec) -> FsmNonlinearUnit:
        raise NotImplementedError

    def to_spec(self):
        return self._spec

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.unit.evaluate(
            values,
            self._spec.bitstream_length,
            seed=self._spec.seed,
            input_scale=self._spec.input_scale,
        )

    def process(self, stream):
        return self.unit.process(stream)

    def build_hardware(self):
        return self.unit.build_hardware(self._spec.bitstream_length)


@_bind
class FsmGeluBlock(_FsmUnitBlock):
    """FSM GELU baseline — saturates at zero on negatives (``gelu/fsm``)."""

    _family_name = "gelu/fsm"

    def _make_unit(self, spec: FsmGeluSpec) -> FsmNonlinearUnit:
        return FsmGeluUnit(num_states=spec.num_states)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return gelu_exact(np.asarray(values, dtype=float))


@_bind
class FsmTanhBlock(_FsmUnitBlock):
    """Classic stanh FSM unit (``tanh/fsm``)."""

    _family_name = "tanh/fsm"

    def _make_unit(self, spec: FsmTanhSpec) -> FsmNonlinearUnit:
        return FsmTanhUnit(num_states=spec.num_states)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return self.unit.reference(values, input_scale=self._spec.input_scale)


@_bind
class FsmReluBlock(_FsmUnitBlock):
    """FSM ReLU unit (``relu/fsm``)."""

    _family_name = "relu/fsm"

    def _make_unit(self, spec: FsmReluSpec) -> FsmNonlinearUnit:
        return FsmReluUnit(num_states=spec.num_states)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return FsmReluUnit.reference(values)


@_bind
class BernsteinGeluBlock(NonlinearBlock):
    """ReSC-style Bernstein-polynomial GELU of [18] (``gelu/bernstein``)."""

    _family_name = "gelu/bernstein"

    def __init__(self, spec: BernsteinGeluSpec) -> None:
        self._spec = spec
        self.unit = BernsteinPolynomialUnit(
            gelu_exact, num_terms=spec.num_terms, input_range=spec.input_range
        )

    def to_spec(self) -> BernsteinGeluSpec:
        return self._spec

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        return self.unit.evaluate(values, self._spec.bitstream_length, seed=self._spec.seed)

    def reference(self, values: np.ndarray) -> np.ndarray:
        return gelu_exact(np.asarray(values, dtype=float))

    def polynomial(self, values: np.ndarray) -> np.ndarray:
        """Deterministic (infinite-BSL) output of the fitted polynomial."""
        return self.unit.polynomial(values)

    def build_hardware(self):
        return self.unit.build_hardware(self._spec.bitstream_length)
