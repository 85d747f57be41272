"""Knowledge distillation for the SC-friendly ViT (Section V).

The KD objective the paper uses at every quantisation step is

.. math::
    \\mathcal{L} = \\ell_{KL}(Z_s, Z_t)
        + \\beta \\cdot \\frac{1}{M} \\sum_{i=1}^{M} \\ell_{MSE}(S_i, T_i)

where ``Z`` are logits, ``S_i`` / ``T_i`` the per-layer (residual-stream)
outputs of student and teacher, ``M`` the number of layers and ``beta = 2``.
The teacher is the full-precision model for the first progressive step and
the W16-A16-R16 model for the later steps, "which is closer to the resulting
model and provides sufficient information for the student to learn".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy, kl_divergence_with_logits, mse_loss
from repro.nn.vit import CompactVisionTransformer, ModelTrace


@dataclass(frozen=True)
class DistillationConfig:
    """Hyper-parameters of the KD objective."""

    beta: float = 2.0  # weight of the feature (MSE) term, the paper's setting
    temperature: float = 1.0
    hard_label_weight: float = 0.5  # CE mixed in so KD also works on synthetic data

    def __post_init__(self) -> None:
        if self.beta < 0 or self.hard_label_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


class KnowledgeDistiller:
    """Builds the KD loss function used by :class:`repro.training.trainer.Trainer`."""

    def __init__(
        self,
        teacher: CompactVisionTransformer,
        config: Optional[DistillationConfig] = None,
        match_features: bool = True,
    ) -> None:
        self.teacher = teacher
        self.config = config or DistillationConfig()
        self.match_features = match_features
        self.teacher.eval()

    def _teacher_outputs(self, images: Tensor):
        trace = ModelTrace(attention_logits=None, gelu_inputs=None)  # the block outputs only
        with no_grad():
            teacher_logits = self.teacher(images, trace=trace)
        return teacher_logits.data, [layer.data for layer in trace.block_outputs]

    def loss(self, student: CompactVisionTransformer, images: Tensor, labels: np.ndarray):
        """KD loss + student logits (the Trainer's ``loss_fn`` contract)."""
        cfg = self.config
        teacher_logits, teacher_layers = self._teacher_outputs(images)

        trace = ModelTrace(attention_logits=None, gelu_inputs=None)
        student_logits = student(images, trace=trace)
        student_layers = trace.block_outputs

        loss = kl_divergence_with_logits(student_logits, teacher_logits, temperature=cfg.temperature)
        if self.match_features and teacher_layers and len(teacher_layers) == len(student_layers):
            feature_terms = [
                mse_loss(student_layer, teacher_layer)
                for student_layer, teacher_layer in zip(student_layers, teacher_layers)
            ]
            feature_loss = feature_terms[0]
            for term in feature_terms[1:]:
                feature_loss = feature_loss + term
            loss = loss + cfg.beta * feature_loss * (1.0 / len(feature_terms))
        if cfg.hard_label_weight > 0:
            loss = loss + cfg.hard_label_weight * cross_entropy(student_logits, labels)
        return loss, student_logits

    def as_loss_fn(self):
        """Adapter returning a Trainer-compatible callable."""

        def loss_fn(model: Module, images: Tensor, labels: np.ndarray):
            if not isinstance(model, CompactVisionTransformer):
                raise TypeError("the distiller expects a CompactVisionTransformer student")
            return self.loss(model, images, labels)

        return loss_fn
