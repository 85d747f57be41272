"""Compact Vision Transformer (the network evaluated in the paper).

The paper's network-level experiments use a lightweight ViT with 7 layers
and 4 heads (following Hassani et al.'s compact transformers) on CIFAR-10 /
CIFAR-100.  This module provides a configurable compact ViT on the numpy
autograd substrate with the knobs ASCEND's co-design needs:

* **normalisation** — LayerNorm (the vanilla ViT) or BatchNorm (the
  SC-friendly substitution of Section V),
* **softmax** — exact or iterative-approximate (Algorithm 1), switchable on
  a trained model for the approximate-softmax-aware fine-tuning stage,
* **precision** — every projection is a :class:`QuantizedLinear` and every
  residual addition passes through a :class:`ResidualQuantizer`, so the
  W/A/R precision schemes of the progressive-quantisation pipeline can be
  applied to the same weights at any point,
* **tracing** — ``forward(images, trace=ModelTrace())`` fills the caller's
  trace with every layer's pre-softmax attention logits and pre-GELU
  activations (the test vectors of the paper's circuit-error methodology)
  and every block's output (the KD feature targets); no module keeps any
  of it,
* **circuits** — ``forward(images, softmax=f, gelu=g)`` runs every block's
  softmax and GELU through ``f`` and ``g`` for that call only (the
  evaluator's SC circuits), so one frozen model serves concurrent forwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.autograd import Tensor, parameter
from repro.nn.layers import BatchNorm, Dropout, GELU, LayerNorm, Module
from repro.nn.quantization import PrecisionScheme, QuantizedLinear, ResidualQuantizer, apply_precision_scheme
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_choices, check_positive_int


@dataclass(frozen=True)
class ViTConfig:
    """Hyper-parameters of the compact ViT."""

    image_size: int = 16
    patch_size: int = 4
    in_channels: int = 3
    num_classes: int = 10
    embed_dim: int = 64
    num_layers: int = 7
    num_heads: int = 4
    mlp_ratio: float = 2.0
    dropout: float = 0.0
    norm: str = "ln"  # "ln" (vanilla) or "bn" (SC-friendly)
    softmax_mode: str = "exact"  # "exact" or "iterative"
    softmax_iterations: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.image_size, "image_size")
        check_positive_int(self.patch_size, "patch_size")
        check_positive_int(self.in_channels, "in_channels")
        check_positive_int(self.num_classes, "num_classes")
        check_positive_int(self.embed_dim, "embed_dim")
        check_positive_int(self.num_layers, "num_layers")
        check_positive_int(self.num_heads, "num_heads")
        check_in_choices(self.norm, ("ln", "bn"), "norm")
        check_in_choices(self.softmax_mode, ("exact", "iterative"), "softmax_mode")
        if self.image_size % self.patch_size != 0:
            raise ValueError("patch_size must divide image_size")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide embed_dim")
        if self.mlp_ratio <= 0:
            raise ValueError("mlp_ratio must be positive")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        """Patch tokens plus the class token."""
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.in_channels

    @property
    def mlp_hidden_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)

    def with_updates(self, **kwargs) -> "ViTConfig":
        return replace(self, **kwargs)


@dataclass
class ModelTrace:
    """Per-layer values a traced forward appends, one entry per encoder block.

    ``attention_logits`` and ``gelu_inputs`` are copies of the pre-softmax
    scores and pre-GELU activations.  ``block_outputs`` are the blocks'
    output Tensors themselves, so a loss on them backpropagates into the
    model (the KD feature term).  A field set to ``None`` is not filled.
    """

    attention_logits: Optional[List[np.ndarray]] = field(default_factory=list)
    gelu_inputs: Optional[List[np.ndarray]] = field(default_factory=list)
    block_outputs: Optional[List[Tensor]] = field(default_factory=list)

Substitution = Optional[Callable[[Tensor], Tensor]]  # replaces a softmax or GELU on the whole tensor


def _make_norm(kind: str, dim: int) -> Module:
    return LayerNorm(dim) if kind == "ln" else BatchNorm(dim)


class PatchEmbedding(Module):
    """Split the image into patches and project them to the embedding dim."""

    def __init__(self, config: ViTConfig, seed: SeedLike = None) -> None:
        super().__init__()
        self.config = config
        self.projection = QuantizedLinear(config.patch_dim, config.embed_dim, seed=seed)

    def forward(self, images: Tensor) -> Tensor:
        cfg = self.config
        batch = images.shape[0]
        expected = (batch, cfg.image_size, cfg.image_size, cfg.in_channels)
        if images.shape != expected:
            raise ValueError(f"expected images of shape {expected}, got {images.shape}")
        grid = cfg.image_size // cfg.patch_size
        patches = images.reshape(
            batch, grid, cfg.patch_size, grid, cfg.patch_size, cfg.in_channels
        )
        patches = patches.transpose(0, 1, 3, 2, 4, 5)
        patches = patches.reshape(batch, grid * grid, cfg.patch_dim)
        return self.projection(patches)


class MlpBlock(Module):
    """The transformer MLP: Linear -> GELU -> Linear.

    Given a ``trace``, ``forward`` appends a copy of the pre-GELU
    activations to ``trace.gelu_inputs``; a given ``gelu`` replaces the
    exact GELU for that call.
    """

    def __init__(self, embed_dim: int, hidden_dim: int, dropout: float = 0.0, seed: SeedLike = None) -> None:
        super().__init__()
        rng = as_generator(seed)
        self.fc1 = QuantizedLinear(embed_dim, hidden_dim, seed=rng)
        self.fc2 = QuantizedLinear(hidden_dim, embed_dim, seed=rng)
        self.activation = GELU()
        self.drop = Dropout(dropout, seed=rng)

    def forward(self, x: Tensor, trace: Optional[ModelTrace] = None, gelu: Substitution = None) -> Tensor:
        hidden = self.fc1(x)
        if trace is not None and trace.gelu_inputs is not None:
            trace.gelu_inputs.append(hidden.data.copy())
        hidden = self.activation(hidden) if gelu is None else gelu(hidden)
        hidden = self.drop(hidden)
        return self.drop(self.fc2(hidden))


def _residual_add(x: Tensor, branch: Tensor) -> Tensor:
    """``x + branch``; without a graph, summed into ``branch``'s buffer.

    The attention and MLP branches end in a linear, so ``branch`` is an
    array the block has just allocated; IEEE addition commutes, so the sum
    has the same bits either way.
    """
    if x._needs_graph(branch):
        return x + branch
    branch.data += x.data
    return branch


class EncoderBlock(Module):
    """One transformer encoder block (Fig. 1): MSA + MLP with residuals."""

    def __init__(self, config: ViTConfig, seed: SeedLike = None) -> None:
        super().__init__()
        rng = as_generator(seed)
        self.norm1 = _make_norm(config.norm, config.embed_dim)
        self.attention = MultiHeadSelfAttention(
            config.embed_dim,
            config.num_heads,
            dropout=config.dropout,
            softmax_mode=config.softmax_mode,
            softmax_iterations=config.softmax_iterations,
            seed=rng,
        )
        self.norm2 = _make_norm(config.norm, config.embed_dim)
        self.mlp = MlpBlock(config.embed_dim, config.mlp_hidden_dim, dropout=config.dropout, seed=rng)
        self.residual1 = ResidualQuantizer()
        self.residual2 = ResidualQuantizer()
        # The attention projections are QuantizedLinear only through the
        # quantization machinery; swap the plain Linears for quantisable ones.
        self.attention.qkv = QuantizedLinear(config.embed_dim, 3 * config.embed_dim, seed=rng)
        self.attention.proj = QuantizedLinear(config.embed_dim, config.embed_dim, seed=rng)

    def forward(
        self, x: Tensor, trace: Optional[ModelTrace] = None, softmax: Substitution = None, gelu: Substitution = None
    ) -> Tensor:
        attended = self.attention(self.norm1(x), trace=trace, softmax=softmax)
        x = self.residual1(_residual_add(x, attended))
        mlp_out = self.mlp(self.norm2(x), trace=trace, gelu=gelu)
        x = self.residual2(_residual_add(x, mlp_out))
        return x


class CompactVisionTransformer(Module):
    """The compact ViT used throughout the paper's network-level evaluation."""

    def __init__(self, config: ViTConfig) -> None:
        super().__init__()
        self.config = config
        rng = as_generator(config.seed)
        self.patch_embedding = PatchEmbedding(config, seed=rng)
        self.class_token = self.register_parameter(
            "class_token", parameter(rng.normal(0.0, 0.02, size=(1, 1, config.embed_dim)))
        )
        self.positional_embedding = self.register_parameter(
            "positional_embedding",
            parameter(rng.normal(0.0, 0.02, size=(1, config.num_tokens, config.embed_dim))),
        )
        self.dropout = Dropout(config.dropout, seed=rng)
        self.blocks: List[EncoderBlock] = []
        for idx in range(config.num_layers):
            block = EncoderBlock(config, seed=rng)
            self.add_module(f"block{idx}", block)
            self.blocks.append(block)
        self.final_norm = _make_norm(config.norm, config.embed_dim)
        self.head = QuantizedLinear(config.embed_dim, config.num_classes, seed=rng)

    # --------------------------------------------------------------- forward
    def forward(
        self, images: Tensor, trace: Optional[ModelTrace] = None, softmax: Substitution = None, gelu: Substitution = None
    ) -> Tensor:
        """Class logits; a given ``trace`` is filled with every block's values, and a
        given ``softmax``/``gelu`` replaces every block's own for this call."""
        tokens = self.patch_embedding(images)
        cls = Tensor(np.ones((tokens.shape[0], 1, 1))) * self.class_token
        tokens = Tensor.concatenate([cls, tokens], axis=1)
        tokens = self.dropout(tokens + self.positional_embedding)
        for block in self.blocks:
            tokens = block(tokens, trace=trace, softmax=softmax, gelu=gelu)
            if trace is not None and trace.block_outputs is not None:
                trace.block_outputs.append(tokens)
        tokens = self.final_norm(tokens)
        return self.head(tokens[:, 0, :])

    # ------------------------------------------------------------ co-design
    def set_softmax_mode(self, mode: str, iterations: Optional[int] = None) -> None:
        """Switch every attention block between exact / iterative softmax."""
        for block in self.blocks:
            block.attention.set_softmax_mode(mode, iterations)

    def apply_precision(self, scheme: PrecisionScheme) -> None:
        """Configure every quantised layer of the model for ``scheme``."""
        apply_precision_scheme(self, scheme)
