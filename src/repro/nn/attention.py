"""Multi-head self-attention with a pluggable softmax implementation.

The attention block is where ASCEND's two network-level changes meet:

* the softmax over attention scores can be the exact one or the iterative
  approximation of Algorithm 1 (selected per-model, so the same weights can
  be evaluated/fine-tuned under either), or any function the caller passes
  to one forward (the evaluator's SC softmax circuit),
* the Q/K/V and output projections are plain :class:`~repro.nn.layers.Linear`
  layers here and are swapped for LSQ-quantised versions by the precision
  scheme machinery in :mod:`repro.nn.quantization`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.nn import functional as F
from repro.nn.autograd import Tensor
from repro.nn.layers import Dropout, Linear, Module
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_choices, check_positive_int

if TYPE_CHECKING:
    from repro.nn.vit import ModelTrace


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention (Fig. 1 of the paper, MSA block)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        dropout: float = 0.0,
        softmax_mode: str = "exact",
        softmax_iterations: int = 3,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        check_positive_int(embed_dim, "embed_dim")
        check_positive_int(num_heads, "num_heads")
        check_in_choices(softmax_mode, ("exact", "iterative"), "softmax_mode")
        check_positive_int(softmax_iterations, "softmax_iterations")
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.softmax_mode = softmax_mode
        self.softmax_iterations = softmax_iterations
        rng = as_generator(seed)
        self.qkv = Linear(embed_dim, 3 * embed_dim, seed=rng)
        self.proj = Linear(embed_dim, embed_dim, seed=rng)
        self.attn_dropout = Dropout(dropout, seed=rng)
        self.proj_dropout = Dropout(dropout, seed=rng)

    # -------------------------------------------------------------- softmax
    def set_softmax_mode(self, mode: str, iterations: Optional[int] = None) -> None:
        """Switch between the exact and the iterative approximate softmax."""
        check_in_choices(mode, ("exact", "iterative"), "mode")
        self.softmax_mode = mode
        if iterations is not None:
            check_positive_int(iterations, "iterations")
            self.softmax_iterations = iterations

    # -------------------------------------------------------------- forward
    def forward(self, x: Tensor, trace: Optional["ModelTrace"] = None, softmax: Optional[Callable] = None) -> Tensor:
        """Attention output; a given ``trace`` gets a copy of the pre-softmax scores
        (shape ``(batch, heads, tokens, tokens)``) appended to its ``attention_logits``.
        A given ``softmax`` replaces ``softmax_mode``'s for this call."""
        batch, tokens, dim = x.shape
        if dim != self.embed_dim:
            raise ValueError(f"expected embedding dim {self.embed_dim}, got {dim}")
        qkv = self.qkv(x)  # (batch, tokens, 3 * dim)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, batch, heads, tokens, head_dim)
        query, key, value = qkv[0], qkv[1], qkv[2]

        scores = F.scaled_dot_product_scores(query, key)
        if trace is not None and trace.attention_logits is not None:
            trace.attention_logits.append(scores.data.copy())
        if softmax is not None:
            weights = softmax(scores)
        elif self.softmax_mode == "exact":
            weights = F.softmax(scores, axis=-1)
        else:
            weights = F.iterative_softmax(scores, iterations=self.softmax_iterations, axis=-1)
        weights = self.attn_dropout(weights)

        context = weights @ value  # (batch, heads, tokens, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        return self.proj_dropout(self.proj(context))
