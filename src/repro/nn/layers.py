"""Neural-network layers (Module system) for the compact ViT.

A small PyTorch-like module system: modules own parameters and submodules,
expose ``parameters()`` / ``named_parameters()`` / ``state_dict()`` and a
train/eval switch.  Only the layers the ASCEND pipeline needs are provided:
Linear, LayerNorm, BatchNorm (the LN -> BN substitution of Section V),
Dropout, GELU, Identity and Sequential.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.autograd import Tensor, no_grad, parameter
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ----------------------------------------------------------- registration
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Register a trainable tensor under ``name`` and return it."""
        if not isinstance(tensor, Tensor):
            raise TypeError("parameters must be Tensors")
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        """Register a non-trainable array (e.g. BN running statistics)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        return self._buffers[name]

    def add_module(self, name: str, module: "Module") -> "Module":
        """Register a child module under ``name`` and return it."""
        if not isinstance(module, Module):
            raise TypeError("child must be a Module")
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module) and name not in ("_modules",):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -------------------------------------------------------------- traversal
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> List[Tensor]:
        return [param for _, param in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------- train/eval
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ----------------------------------------------------------- state dicts
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({f"buffer::{name}": buf.copy() for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = []
        for name, param in own_params.items():
            if name in state:
                if param.data.shape != state[name].shape:
                    raise ValueError(f"shape mismatch for parameter {name!r}")
                param.data[...] = state[name]
            else:
                missing.append(name)
        for name, buf in own_buffers.items():
            key = f"buffer::{name}"
            if key in state:
                buf[...] = state[key]
            elif strict:
                missing.append(key)
        if strict and missing:
            raise KeyError(f"missing entries in state dict: {missing}")

    # ----------------------------------------------------------------- call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Identity(Module):
    """Pass-through layer."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with truncated-normal initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: SeedLike = None) -> None:
        super().__init__()
        check_positive_int(in_features, "in_features")
        check_positive_int(out_features, "out_features")
        self.in_features = in_features
        self.out_features = out_features
        rng = as_generator(seed)
        std = float(np.sqrt(2.0 / (in_features + out_features)))
        weight = rng.normal(0.0, std, size=(out_features, in_features))
        self.weight = self.register_parameter("weight", parameter(weight))
        if bias:
            self.bias: Optional[Tensor] = self.register_parameter("bias", parameter(np.zeros(out_features)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class GELU(Module):
    """Exact GELU activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Dropout(Module):
    """Inverted dropout (active only in training mode)."""

    def __init__(self, rate: float = 0.0, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._rng = as_generator(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self.training, seed=self._rng)


class LayerNorm(Module):
    """Layer normalisation with learnable affine parameters."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        check_positive_int(normalized_shape, "normalized_shape")
        self.eps = eps
        self.weight = self.register_parameter("weight", parameter(np.ones(normalized_shape)))
        self.bias = self.register_parameter("bias", parameter(np.zeros(normalized_shape)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class BatchNorm(Module):
    """Batch normalisation over all axes except the last (feature) axis.

    This is the SC-friendly replacement for LayerNorm (Section V): at
    inference time the normalisation folds into a per-feature scale and
    offset, which the accelerator implements with cheap binary units instead
    of computing per-token statistics on bitstreams.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        check_positive_int(num_features, "num_features")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = self.register_parameter("weight", parameter(np.ones(num_features)))
        self.bias = self.register_parameter("bias", parameter(np.zeros(num_features)))
        self.running_mean = self.register_buffer("running_mean", np.zeros(num_features))
        self.running_var = self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected last axis of size {self.num_features}, got {x.shape[-1]}"
            )
        if self.training:
            axes = tuple(range(x.ndim - 1))
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            with no_grad():
                self.running_mean *= 1.0 - self.momentum
                self.running_mean += self.momentum * mean.data.reshape(-1)
                self.running_var *= 1.0 - self.momentum
                self.running_var += self.momentum * var.data.reshape(-1)
        elif not x._needs_graph(self.weight, self.bias):
            # The graph path's operations in the same order, on one buffer
            # (``x + (-m)`` is ``x - m`` in IEEE arithmetic).
            out = x.data - self.running_mean
            out /= np.sqrt(self.running_var + self.eps)
            out *= self.weight.data
            out += self.bias.data
            return Tensor(out)
        else:
            mean = Tensor(self.running_mean)
            var = Tensor(self.running_var)
        normalised = (x - mean) / (var + self.eps).sqrt()
        return normalised * self.weight + self.bias

    def folded_scale_offset(self) -> Tuple[np.ndarray, np.ndarray]:
        """Inference-time per-feature scale and offset (what the hardware uses)."""
        scale = self.weight.data / np.sqrt(self.running_var + self.eps)
        offset = self.bias.data - scale * self.running_mean
        return scale, offset


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for idx, module in enumerate(modules):
            self.add_module(str(idx), module)
            self._ordered.append(module)

    def __iter__(self):
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x
