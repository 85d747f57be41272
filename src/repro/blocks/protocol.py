"""The uniform circuit-block protocol: :class:`NonlinearBlock`.

Every nonlinear SC design family the paper compares (Tables I/III/IV) is
one class implementing one lifecycle:

* ``from_spec(spec)`` / ``to_spec()`` — build from / serialise to a frozen
  :class:`~repro.blocks.specs.BlockSpec` (``to_spec()`` is fully resolved:
  re-building from it reproduces the block bit-for-bit);
* ``evaluate(values)`` — end-to-end real-valued evaluation: encode, run the
  circuit model, decode.  Stochastic parameters (BSL, seed, input scale)
  are constructor arguments (spec fields), never per-call arguments;
* ``reference(values)`` — the mathematical function the block approximates;
* ``process(stream)`` — the stream-level datapath, for block families that
  expose one (``supports_stream_process``);
* ``build_hardware()`` — the structural model for the :mod:`repro.hw` cost
  flow.

Blocks also declare their input/output encodings (``"thermometer"``,
``"bipolar"``, ``"unipolar"``, ``"value"``) — the registry sets these, with
the family name and spec class, when it loads the class, renders them in
``python -m repro blocks`` and regenerates the Table I capability matrix
from its metadata.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Type

import numpy as np

from repro.blocks.specs import BlockSpec

if TYPE_CHECKING:  # structural types only; keeps this layer import-light
    from repro.hw.netlist import HardwareModule

__all__ = ["NonlinearBlock", "StreamProcessingUnsupported"]


class StreamProcessingUnsupported(NotImplementedError):
    """Raised by ``process`` on block families without a stream datapath."""


class NonlinearBlock(abc.ABC):
    """Abstract base of every registered circuit block family."""

    #: Registry family name; the registry sets it when it loads the class.
    family: ClassVar[str] = ""
    #: Spec dataclass this block family is built from.
    spec_cls: ClassVar[Type[BlockSpec]] = BlockSpec
    #: Encoding of the block input: "thermometer" | "bipolar" | "unipolar"
    #: | "value" (binary/real interface, e.g. the FSM softmax normaliser).
    input_encoding: ClassVar[str] = "value"
    #: Encoding of the block output.
    output_encoding: ClassVar[str] = "value"
    #: Whether :meth:`process` is implemented for this family.
    supports_stream_process: ClassVar[bool] = False

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def from_spec(cls, spec: BlockSpec, **build_options: Any) -> "NonlinearBlock":
        """Build a block from its spec: ``cls(**spec fields, **build_options)``.

        A family's constructor takes its spec's fields as keyword
        arguments.  ``build_options`` carries non-serialisable build inputs
        (e.g. ``calibration_samples``); everything they influence must land
        in the resolved spec so ``from_spec(block.to_spec())`` reproduces the
        block without them.
        """
        cls._check_spec(spec)
        fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
        return cls(**fields, **build_options)

    @classmethod
    def _check_spec(cls, spec: BlockSpec) -> None:
        """Raise ``TypeError`` unless ``spec`` belongs to this class's family.

        Checked through the registry rather than ``cls.spec_cls``, which is
        unset on a class imported directly before the registry loads it.
        """
        from repro.blocks.registry import get  # the registry imports this module

        family_cls = get(spec.family).load() if isinstance(spec, BlockSpec) else None
        if family_cls is None or not issubclass(cls, family_cls):
            raise TypeError(f"{cls.__name__} builds from its own family's spec, got {type(spec).__name__}")

    @abc.abstractmethod
    def to_spec(self) -> BlockSpec:
        """The fully resolved spec of this block instance."""

    # -------------------------------------------------------------- behaviour
    @abc.abstractmethod
    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """End-to-end: encode real values, run the block, decode the outputs."""

    @abc.abstractmethod
    def reference(self, values: np.ndarray) -> np.ndarray:
        """The mathematical function the block approximates."""

    def process(self, stream: Any) -> Any:
        """Map an input bitstream through the block's stream datapath."""
        raise StreamProcessingUnsupported(
            f"{type(self).__name__} ({self.family or 'unregistered'}) has no "
            "stream-level datapath; use evaluate(values)"
        )

    @abc.abstractmethod
    def build_hardware(self) -> "HardwareModule":
        """Structural model of the block for the hardware cost flow."""

    # ------------------------------------------------------------ conveniences
    def mean_absolute_error(self, values: np.ndarray) -> float:
        """MAE of the block against its reference on a batch of values."""
        values = np.asarray(values, dtype=float)
        return float(np.mean(np.abs(self.evaluate(values) - self.reference(values))))

    def hardware_summary(self, library: Any = None) -> Dict[str, float]:
        """Synthesis cost of the block: area / delay / ADP."""
        from repro.hw.synthesis import synthesize

        report = synthesize(self.build_hardware(), library)
        return {
            "area_um2": float(report.area_um2),
            "delay_ns": float(report.delay_ns),
            "adp": float(report.adp),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_spec()!r})"
