"""Frozen, JSON-round-trippable specs for every circuit-block family.

A *spec* is the serialisable identity of one nonlinear circuit block: a
frozen dataclass whose fields are plain JSON types, type- and
range-checked on construction; the file format is the codec every spec
shares (:mod:`repro.utils.specs`).  Specs are the bottom layer of the block API — this module
imports nothing from :mod:`repro.core`, :mod:`repro.sc` or
:mod:`repro.eval_pipeline`, which is what lets every other layer (the
evaluation pipeline, the sweep tasks, the CLI) exchange block identities
without importing circuit implementations.

The contract, enforced for every family by the hypothesis round-trip tests:

* ``spec == type(spec)(**dataclasses.asdict(spec))`` — specs are pure data;
* ``spec == spec_from_json(spec.to_json())`` — JSON round-trips exactly
  (floats serialise via ``repr``, which is lossless);
* ``block.to_spec()`` of a block built from a spec is *fully resolved*: any
  ``None`` field a builder fills in (calibrated scales, derived lengths)
  comes back as its concrete value, so re-building from ``to_spec()``
  reproduces the block bit-for-bit (``make api-check`` compares the
  rebuilt block's outputs with the original's for every family).

:class:`SoftmaxCircuitConfig` — historically defined in
:mod:`repro.core.softmax_circuit` and still re-exported from there — now
lives here as the spec of the ``softmax/iterative`` family, together with
its ``alpha_x`` / ``alpha_y`` calibration helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional

import numpy as np

from repro.utils.specs import Spec
from repro.utils.validation import check_positive_int

__all__ = [
    "BlockSpec",
    "SoftmaxCircuitConfig",
    "FsmSoftmaxSpec",
    "GeluSISpec",
    "TernaryGeluSpec",
    "NaiveSIGeluSpec",
    "FsmGeluSpec",
    "FsmTanhSpec",
    "FsmReluSpec",
    "BernsteinGeluSpec",
    "spec_from_dict",
    "spec_from_json",
    "spec_families",
    "calibrate_alpha_x",
    "calibrate_alpha_y",
    "sc_vit_softmax",
]


#: family name -> spec class; populated by :func:`_spec_family`.
_SPEC_FAMILIES: Dict[str, type] = {}


def _spec_family(name: str):
    """Class decorator registering a spec dataclass under its family name."""

    def register(cls):
        cls.family = cls.label = name
        _SPEC_FAMILIES[name] = cls
        return cls

    return register


def spec_families() -> Dict[str, type]:
    """Mapping of family name -> spec class (a copy; mutation-safe)."""
    return dict(_SPEC_FAMILIES)


class BlockSpec(Spec):
    """Base of every circuit-block spec: the ``{"family", "params"}`` envelope.

    Subclasses are frozen dataclasses registered by ``_spec_family``; the
    shared spec codec (:mod:`repro.utils.specs`) gives them the exact JSON
    round-trip.  Decoding through this base (:func:`spec_from_dict`)
    picks the class from the family tag.
    """

    #: Registry family this spec builds (set by the ``_spec_family`` decorator).
    family: ClassVar[str] = ""
    envelope = "family"
    label = "block-spec"

    def to_json(self, indent: Optional[int] = None) -> str:
        """Exact JSON serialisation (compact by default; floats round-trip via ``repr``)."""
        return super().to_json(indent)

    @classmethod
    def tagged_class(cls, payload: Any) -> type:
        """The registered spec class of a payload's family tag."""
        try:
            family = payload["family"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"not a block-spec payload: {payload!r}") from exc
        spec_cls = _SPEC_FAMILIES.get(family) if isinstance(family, str) else None
        if spec_cls is None:
            known = ", ".join(sorted(_SPEC_FAMILIES))
            raise KeyError(f"unknown block family {family!r} (known: {known})")
        if not issubclass(spec_cls, cls):
            raise ValueError(f"expected a {cls.__name__} family, got {family!r}")
        return spec_cls


def spec_from_dict(payload: Dict[str, Any]) -> BlockSpec:
    """Inverse of :meth:`BlockSpec.to_dict`."""
    return BlockSpec.from_dict(payload)


def spec_from_json(text: str) -> BlockSpec:
    """Inverse of :meth:`BlockSpec.to_json`."""
    return BlockSpec.from_json(text)


def _check_positive_scale(value: Optional[float], name: str) -> None:
    if value is not None and value <= 0:
        raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# softmax/iterative — the ASCEND circuit of Fig. 5 (Table II parameters)
# ---------------------------------------------------------------------------


@_spec_family("softmax/iterative")
@dataclass(frozen=True)
class SoftmaxCircuitConfig(BlockSpec):
    """Parameters of the iterative softmax circuit block (Table II).

    Attributes
    ----------
    m:
        Length of the softmax row vector.  The default 64 is the DSE and
        Table IV setting; the eval pipeline clamps it to the model's token
        count (17 for the paper-scale ViT) with
        :meth:`clamped_to_vector_length`.
    iterations:
        Iteration count ``k`` of Algorithm 1.
    bx, alpha_x:
        Bitstream length and scaling factor of the input ``x``.
    by, alpha_y:
        Bitstream length and scaling factor of the output ``y``.
    s1:
        Sub-sample rate applied to ``sum(z)`` after BSN ①.
    s2:
        Sub-sample rate applied to ``y * sum(z)`` after MUL ②.
    """

    m: int = 64
    iterations: int = 3
    bx: int = 4
    alpha_x: float = 2.0
    by: int = 8
    alpha_y: float = 0.03125
    s1: int = 32
    s2: int = 8

    def validate(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.iterations, "iterations")
        check_positive_int(self.bx, "bx")
        check_positive_int(self.by, "by")
        check_positive_int(self.s1, "s1")
        check_positive_int(self.s2, "s2")
        if self.alpha_x <= 0 or self.alpha_y <= 0:
            raise ValueError("scaling factors must be positive")

    # ------------------------------------------------------------ geometry
    @property
    def z_length(self) -> int:
        """BSL of each product ``z_i = x_i * y_i``."""
        return self.bx * self.by // 2

    @property
    def sum_length_raw(self) -> int:
        """BSL of ``sum(z)`` before sub-sampling (concatenation of m products)."""
        return self.m * self.z_length

    @property
    def sum_length(self) -> int:
        """BSL of ``sum(z)`` after the ``s1`` sub-sampling.

        When ``s1`` does not divide the raw length the stream is padded up to
        the next multiple (constant bits cost nothing in a sorted stream), so
        the result is the ceiling division.
        """
        return max(1, -(-self.sum_length_raw // self.s1))

    @property
    def prod_length_raw(self) -> int:
        """BSL of ``y_i * sum(z)`` before the ``s2`` sub-sampling."""
        return max(1, self.by * self.sum_length // 2)

    @property
    def prod_length(self) -> int:
        """BSL of ``y_i * sum(z)`` after the ``s2`` sub-sampling."""
        return max(1, -(-self.prod_length_raw // self.s2))

    def is_feasible(self) -> bool:
        """True when the configuration can be built.

        Only configurations whose multiplier output widths collapse to
        nothing (odd ``Bx * By`` products) or whose sub-sample rates exceed
        the streams they shorten are rejected; sub-sample rates that do not
        divide a stream exactly are handled by padding, as in the hardware.
        """
        if self.bx * self.by % 2 != 0:
            return False
        if self.s1 > self.sum_length_raw:
            return False
        if self.s2 > self.prod_length_raw:
            return False
        return True

    def clamped_to_vector_length(self, m: int) -> "SoftmaxCircuitConfig":
        """Retarget the block to vectors of length ``m``.

        The sub-sample rates are upper-bounded by the streams they shorten:
        a smaller attention matrix (fewer tokens) produces shorter ``sum(z)``
        streams, so the Table VI parameters saturate at full sub-sampling
        rather than becoming unbuildable.
        """
        check_positive_int(m, "m")
        retargeted = self.with_updates(m=m)
        s1 = min(self.s1, retargeted.sum_length_raw)
        retargeted = retargeted.with_updates(s1=s1)
        s2 = min(self.s2, retargeted.prod_length_raw)
        return retargeted.with_updates(s2=s2)

    def describe(self) -> str:
        """Short form used by the benches: ``[By, s1, s2, k]`` as in Table VI."""
        return f"[{self.by}, {self.s1}, {self.s2}, {self.iterations}]"


# ---------------------------------------------------------------------------
# softmax/fsm — the FSM + binary-unit baseline of [17]
# ---------------------------------------------------------------------------


@_spec_family("softmax/fsm")
@dataclass(frozen=True)
class FsmSoftmaxSpec(BlockSpec):
    """Parameters of the FSM softmax baseline (Table IV rows of [17])."""

    m: int = 64
    bitstream_length: int = 256
    num_states: int = 32
    seed: int = 0
    bit_level: bool = False

    def validate(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.bitstream_length, "bitstream_length")
        check_positive_int(self.num_states, "num_states")


# ---------------------------------------------------------------------------
# gelu/si — ASCEND's gate-assisted selective interconnect GELU
# ---------------------------------------------------------------------------


@_spec_family("gelu/si")
@dataclass(frozen=True)
class GeluSISpec(BlockSpec):
    """Parameters of the gate-assisted SI GELU block (Table III).

    ``input_length`` / ``input_scale`` / ``output_scale`` may be ``None`` in
    a hand-written spec, in which case the builder derives or calibrates
    them exactly as :class:`repro.core.gelu_si.GeluSIBlock` always has; the
    built block's ``to_spec()`` returns the resolved values.
    """

    output_length: int = 8
    input_length: Optional[int] = None
    input_scale: Optional[float] = None
    output_scale: Optional[float] = None
    input_range: float = 4.0

    def validate(self) -> None:
        check_positive_int(self.output_length, "output_length")
        if self.input_length is not None:
            check_positive_int(self.input_length, "input_length")
        _check_positive_scale(self.input_scale, "input_scale")
        _check_positive_scale(self.output_scale, "output_scale")
        _check_positive_scale(self.input_range, "input_range")


@_spec_family("gelu/si-ternary")
@dataclass(frozen=True)
class TernaryGeluSpec(BlockSpec):
    """The Fig. 4(b) worked example: 8-bit input, ternary (2-bit) output."""

    input_scale: float = 0.75
    output_scale: float = 0.2

    def validate(self) -> None:
        _check_positive_scale(self.input_scale, "input_scale")
        _check_positive_scale(self.output_scale, "output_scale")


@_spec_family("gelu/naive-si")
@dataclass(frozen=True)
class NaiveSIGeluSpec(BlockSpec):
    """Naive (selection-only) SI GELU — the monotone-envelope baseline.

    Defaults mirror the Fig. 2 protocol: the input stream is ``32x`` the
    output BSL, its grid covers ``[-8, 8]`` and the output step is
    ``1.2 / output_length``.  ``None`` fields resolve at build time.
    """

    output_length: int = 8
    input_length: Optional[int] = None
    input_scale: Optional[float] = None
    output_scale: Optional[float] = None

    def validate(self) -> None:
        check_positive_int(self.output_length, "output_length")
        if self.input_length is not None:
            check_positive_int(self.input_length, "input_length")
        _check_positive_scale(self.input_scale, "input_scale")
        _check_positive_scale(self.output_scale, "output_scale")


# ---------------------------------------------------------------------------
# FSM nonlinear units (tanh / relu / gelu) — stochastic baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FsmUnitSpec(BlockSpec):
    """Shared fields of the saturating-counter FSM units.

    The stochastic lifecycle parameters (bitstream length, encode seed,
    input scale) live in the spec so the uniform ``evaluate(values)``
    protocol needs no extra arguments — the fix for the historical
    ``evaluate`` signature drift between the block families.
    """

    num_states: int = 16
    bitstream_length: int = 256
    seed: int = 0
    input_scale: float = 1.0

    def validate(self) -> None:
        check_positive_int(self.num_states, "num_states")
        if self.num_states < 2:
            raise ValueError("an FSM unit needs at least 2 states")
        check_positive_int(self.bitstream_length, "bitstream_length")
        _check_positive_scale(self.input_scale, "input_scale")


@_spec_family("gelu/fsm")
@dataclass(frozen=True)
class FsmGeluSpec(_FsmUnitSpec):
    """FSM GELU baseline (Fig. 2a); inputs span roughly ``[-4, 4]``."""

    input_scale: float = 4.0


@_spec_family("tanh/fsm")
@dataclass(frozen=True)
class FsmTanhSpec(_FsmUnitSpec):
    """Classic stanh FSM: approximates ``tanh(num_states / 2 * x)``."""

    num_states: int = 8


@_spec_family("relu/fsm")
@dataclass(frozen=True)
class FsmReluSpec(_FsmUnitSpec):
    """FSM ReLU (the SC-DCNN / HEIF style design)."""

    num_states: int = 16


# ---------------------------------------------------------------------------
# gelu/bernstein — the ReSC-style polynomial baseline of [18]
# ---------------------------------------------------------------------------


@_spec_family("gelu/bernstein")
@dataclass(frozen=True)
class BernsteinGeluSpec(BlockSpec):
    """Bernstein-polynomial GELU (Table III / Fig. 7 baseline)."""

    num_terms: int = 4
    input_range: float = 3.0
    bitstream_length: int = 1024
    seed: int = 0

    def validate(self) -> None:
        check_positive_int(self.num_terms, "num_terms")
        if self.num_terms < 2:
            raise ValueError("a Bernstein unit needs at least 2 terms")
        check_positive_int(self.bitstream_length, "bitstream_length")
        _check_positive_scale(self.input_range, "input_range")


# ---------------------------------------------------------------------------
# Calibration helpers (spec-parameter fitting; pure numpy)
# ---------------------------------------------------------------------------


def calibrate_alpha_x(logits: np.ndarray, bx: int, coverage: float = 0.999) -> float:
    """Choose the input scaling factor so the given coverage of logits fits.

    The attention logits collected from the ViT have a heavy-tailed
    distribution; clipping the extreme tail (rather than covering the
    absolute max) gives a finer grid and lower overall MAE, the usual
    calibration practice for post-training quantisation.
    """
    check_positive_int(bx, "bx")
    logits = np.abs(np.asarray(logits, dtype=float)).reshape(-1)
    if logits.size == 0:
        raise ValueError("need at least one logit sample")
    bound = float(np.quantile(logits, coverage))
    bound = max(bound, 1e-6)
    return 2.0 * bound / bx


def calibrate_alpha_y(by: int, m: int, headroom: float = 2.0) -> float:
    """Choose the output scaling factor for softmax values.

    Softmax outputs over an ``m``-long row concentrate around ``1/m`` with a
    few dominant entries, so the representable range is set to a small
    multiple of ``8/m`` and widened slowly (fourth root) as the BSL grows:
    longer streams spend most of their extra levels on resolution, which is
    what minimises MAE on realistic attention rows.  The DSE sweep of Fig. 8
    additionally treats a multiplier on this value as a free parameter.
    """
    check_positive_int(by, "by")
    check_positive_int(m, "m")
    if headroom <= 0:
        raise ValueError("headroom must be positive")
    base_range = min(0.5, headroom * 8.0 / m)
    target_max = base_range * (by / 8.0) ** 0.25
    return 2.0 * target_max / by


def sc_vit_softmax(by: int, s1: int, s2: int, k: int, alpha_x: float = 2.0) -> SoftmaxCircuitConfig:
    """The ``[By, s1, s2, k]`` softmax circuit of the paper's SC-ViT tables.

    Table IV's "ours" rows, Table VI and every SC-ViT evaluation and
    deployment build their circuit here: ``m = 64``, ``Bx = 4`` and
    ``alpha_y`` from :func:`calibrate_alpha_y`.  ``alpha_x`` comes from
    :func:`repro.eval_pipeline.sc_vit_alpha_x`; area-only uses keep the 2.0.
    """
    return SoftmaxCircuitConfig(
        m=64,
        iterations=k,
        bx=4,
        alpha_x=alpha_x,
        by=by,
        alpha_y=calibrate_alpha_y(by, 64),
        s1=s1,
        s2=s2,
    )
