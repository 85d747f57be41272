"""Neural-network substrate: a numpy autograd engine, layers and a compact ViT.

PyTorch is not available in this environment, so the network side of ASCEND
(the compact ViT, LSQ quantisation, knowledge distillation and the two-stage
training pipeline of Section V) runs on this from-scratch substrate:

* :mod:`repro.nn.autograd` — reverse-mode automatic differentiation over
  numpy arrays (:class:`Tensor`),
* :mod:`repro.nn.functional` — differentiable ops (matmul, softmax, GELU,
  normalisation, attention helpers),
* :mod:`repro.nn.functional_math` — the pure-numpy reference math shared
  with the SC substrate,
* :mod:`repro.nn.layers` — Module/Linear/BatchNorm/LayerNorm/etc.,
* :mod:`repro.nn.attention` — multi-head self-attention with pluggable
  softmax (exact or iterative-approximate),
* :mod:`repro.nn.vit` — the compact vision transformer (7 layers, 4 heads),
* :mod:`repro.nn.quantization` — learned step size quantisation (LSQ) and
  the W/A/R precision schemes,
* :mod:`repro.nn.optim` — AdamW and SGD,
* :mod:`repro.nn.losses` — cross-entropy, KL-divergence and MSE losses,
* :mod:`repro.nn.serialization` — parameter state dicts save/load.
"""

from repro.nn.autograd import Tensor, no_grad, parameter
from repro.nn.layers import (
    BatchNorm,
    Dropout,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.vit import CompactVisionTransformer, ModelTrace, ViTConfig
from repro.nn.quantization import (
    LsqQuantizer,
    PrecisionScheme,
    PROGRESSIVE_SCHEDULE,
    QuantizedLinear,
    ResidualQuantizer,
    apply_precision_scheme,
)
from repro.nn.optim import AdamW, CosineSchedule, SGD
from repro.nn.losses import accuracy, cross_entropy, distillation_loss, kl_divergence_with_logits, mse_loss
from repro.nn.serialization import load_model, load_state_dict, save_model, save_state_dict

__all__ = [
    "Tensor",
    "no_grad",
    "parameter",
    "Module",
    "Linear",
    "LayerNorm",
    "BatchNorm",
    "Dropout",
    "GELU",
    "ReLU",
    "Identity",
    "Sequential",
    "MultiHeadSelfAttention",
    "CompactVisionTransformer",
    "ViTConfig",
    "ModelTrace",
    "LsqQuantizer",
    "PrecisionScheme",
    "PROGRESSIVE_SCHEDULE",
    "QuantizedLinear",
    "ResidualQuantizer",
    "apply_precision_scheme",
    "AdamW",
    "SGD",
    "CosineSchedule",
    "accuracy",
    "cross_entropy",
    "distillation_loss",
    "kl_divergence_with_logits",
    "mse_loss",
    "save_model",
    "load_model",
    "save_state_dict",
    "load_state_dict",
]
