"""Learned Step Size Quantization (LSQ) and the W/A/R precision schemes.

The paper quantises weights and activations to a 2-bit BSL and the residual
stream to a 16-bit BSL ("W2-A2-R16", following Hu et al. DATE'23) using LSQ
(Esser et al., ICLR'20).  An L-bit thermometer bitstream represents ``L + 1``
levels, so a BSL of ``L`` maps to the symmetric integer grid
``[-L/2, L/2]`` — ternary for L = 2, 17 levels for L = 16.

:class:`LsqQuantizer` implements the LSQ fake-quantisation with the learned
step size and its gradient; :class:`QuantizedLinear` wraps a linear layer
with weight + input quantisers; :class:`PrecisionScheme` describes a full
W/A/R assignment and knows how to apply itself to a model built with the
``QuantizedLinear`` layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.autograd import Tensor, parameter
from repro.nn.layers import Linear, Module
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class PrecisionScheme:
    """A W/A/R bitstream-length assignment, e.g. W2-A2-R16.

    ``None`` for a field means full precision (no quantiser inserted); the
    progressive-quantisation pipeline of Section V walks through
    FP -> W16-A16-R16 -> W16-A2-R16 -> W2-A2-R16 by changing these fields.
    """

    weight_bsl: Optional[int] = None
    activation_bsl: Optional[int] = None
    residual_bsl: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("weight_bsl", "activation_bsl", "residual_bsl"):
            value = getattr(self, name)
            if value is not None:
                check_positive_int(value, name)
                if value % 2 != 0:
                    raise ValueError(f"{name} must be even (symmetric thermometer grid)")

    @property
    def is_full_precision(self) -> bool:
        return self.weight_bsl is None and self.activation_bsl is None and self.residual_bsl is None

    def describe(self) -> str:
        """The paper's naming convention, e.g. ``"W2-A2-R16"`` or ``"FP"``."""
        if self.is_full_precision:
            return "FP"

        def fmt(prefix: str, value: Optional[int]) -> str:
            return f"{prefix}{value}" if value is not None else f"{prefix}fp"

        return "-".join(
            [fmt("W", self.weight_bsl), fmt("A", self.activation_bsl), fmt("R", self.residual_bsl)]
        )

    @classmethod
    def parse(cls, text: str) -> "PrecisionScheme":
        """Parse strings like ``"W2-A2-R16"`` / ``"FP"`` back into a scheme."""
        text = text.strip().upper()
        if text in ("FP", "FP32", "FULL"):
            return cls()
        parts = dict()
        for token in text.split("-"):
            if not token:
                continue
            prefix, value = token[0], token[1:]
            if prefix not in ("W", "A", "R"):
                raise ValueError(f"unknown precision token {token!r}")
            parts[prefix] = None if value in ("FP", "") else int(value)
        return cls(
            weight_bsl=parts.get("W"),
            activation_bsl=parts.get("A"),
            residual_bsl=parts.get("R"),
        )


#: The progressive-quantisation ladder of Fig. 6.
PROGRESSIVE_SCHEDULE = (
    PrecisionScheme(),  # FP
    PrecisionScheme(weight_bsl=16, activation_bsl=16, residual_bsl=16),
    PrecisionScheme(weight_bsl=16, activation_bsl=2, residual_bsl=16),
    PrecisionScheme(weight_bsl=2, activation_bsl=2, residual_bsl=16),
)


class LsqQuantizer(Module):
    """LSQ fake quantiser with a learnable step size.

    Forward: ``q = clip(round(v / s), qn, qp) * s``.
    Backward: straight-through estimator for ``v`` inside the clipping range,
    and the LSQ gradient for the step size ``s`` (Esser et al., eq. 3),
    scaled by ``1 / sqrt(numel * qp)``.
    """

    def __init__(self, bsl: int, per_tensor_init: float = 1.0) -> None:
        super().__init__()
        check_positive_int(bsl, "bsl")
        if bsl % 2 != 0:
            raise ValueError("bsl must be even (symmetric grid)")
        self.bsl = bsl
        self.qn = -(bsl // 2)
        self.qp = bsl // 2
        self.step = self.register_parameter("step", parameter(np.array(per_tensor_init)))
        self._initialised = False

    def initialise_from(self, values: np.ndarray) -> None:
        """LSQ initialisation: ``s = 2 <|v|> / sqrt(qp)``."""
        values = np.asarray(values, dtype=float)
        mean_abs = float(np.mean(np.abs(values))) if values.size else 1.0
        init = 2.0 * mean_abs / np.sqrt(self.qp) if mean_abs > 0 else 1.0
        self.step.data[...] = max(init, 1e-8)
        self._initialised = True

    @property
    def initialised(self) -> bool:
        return self._initialised

    def forward(self, x: Tensor) -> Tensor:
        if not self._initialised:
            self.initialise_from(x.data)
        step = self.step
        qn, qp = float(self.qn), float(self.qp)
        grad_scale = 1.0 / np.sqrt(max(x.size, 1) * qp)

        s = float(step.data)
        scaled = x.data / s
        clipped = np.clip(scaled, qn, qp)
        rounded = np.round(clipped)
        out_data = rounded * s

        below = scaled < qn
        above = scaled > qp
        inside = ~(below | above)

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(grad * inside)
            if step.requires_grad:
                # d(out)/d(s): qn/qp outside the range, (round(v/s) - v/s) inside.
                ds = np.where(below, qn, np.where(above, qp, rounded - scaled))
                step._accumulate(np.sum(grad * ds) * grad_scale)

        return Tensor.custom(out_data, (x, step), backward)


class QuantizedLinear(Module):
    """A linear layer with optional LSQ quantisers on weights and inputs.

    Quantisers are created lazily by :meth:`configure`; with no quantisers
    configured the layer behaves exactly like :class:`~repro.nn.layers.Linear`,
    which is what the progressive pipeline relies on when it starts from the
    full-precision model.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: SeedLike = None) -> None:
        super().__init__()
        self.inner = Linear(in_features, out_features, bias=bias, seed=seed)
        self.weight_quantizer: Optional[LsqQuantizer] = None
        self.input_quantizer: Optional[LsqQuantizer] = None

    @property
    def weight(self) -> Tensor:
        return self.inner.weight

    @property
    def bias(self) -> Optional[Tensor]:
        return self.inner.bias

    def configure(self, weight_bsl: Optional[int], activation_bsl: Optional[int]) -> None:
        """Attach/detach quantisers according to the precision scheme."""
        if weight_bsl is None:
            self.weight_quantizer = None
            self._modules.pop("weight_quantizer", None)
        else:
            quantizer = LsqQuantizer(weight_bsl)
            quantizer.initialise_from(self.inner.weight.data)
            self.weight_quantizer = quantizer
        if activation_bsl is None:
            self.input_quantizer = None
            self._modules.pop("input_quantizer", None)
        else:
            self.input_quantizer = LsqQuantizer(activation_bsl)

    def forward(self, x: Tensor) -> Tensor:
        if self.input_quantizer is not None:
            x = self.input_quantizer(x)
        weight = self.inner.weight
        if self.weight_quantizer is not None:
            weight = self.weight_quantizer(weight)
        return F.linear(x, weight, self.inner.bias)


class ResidualQuantizer(Module):
    """LSQ quantiser applied to the residual stream (the R in W-A-R).

    A no-op until configured with a BSL; the encoder block applies it right
    after each residual addition, mirroring where the accelerator's 16-bit
    residual bitstreams live.
    """

    def __init__(self) -> None:
        super().__init__()
        self.quantizer: Optional[LsqQuantizer] = None

    def configure(self, residual_bsl: Optional[int]) -> None:
        if residual_bsl is None:
            self.quantizer = None
            self._modules.pop("quantizer", None)
        else:
            self.quantizer = LsqQuantizer(residual_bsl)

    def forward(self, x: Tensor) -> Tensor:
        if self.quantizer is None:
            return x
        return self.quantizer(x)


def apply_precision_scheme(model: Module, scheme: PrecisionScheme) -> None:
    """Walk ``model`` and configure every quantised layer for ``scheme``."""
    for module in model.modules():
        if isinstance(module, QuantizedLinear):
            module.configure(scheme.weight_bsl, scheme.activation_bsl)
        elif isinstance(module, ResidualQuantizer):
            module.configure(scheme.residual_bsl)
