"""Training substrate: datasets, trainer, distillation and the ASCEND pipeline.

* :mod:`repro.training.datasets` — synthetic CIFAR-like image-classification
  datasets (the offline stand-in for CIFAR-10/100),
* :mod:`repro.training.trainer` — a plain mini-batch training loop with
  evaluation, used by every stage,
* :mod:`repro.training.distillation` — the knowledge-distillation objective
  of Section V (KL on logits + MSE on per-layer features, beta = 2),
* :mod:`repro.training.pipeline` — the two-stage SC-friendly low-precision
  ViT pipeline: progressive quantisation followed by approximate-softmax-
  aware fine-tuning (Fig. 6), plus the baseline direct-quantisation recipe
  it is compared against in Table V.
"""

from repro.training.datasets import DatasetSplit, SyntheticImageDataset, synthetic_cifar10, synthetic_cifar100
from repro.training.distillation import DistillationConfig, KnowledgeDistiller
from repro.training.pipeline import (
    AscendTrainingPipeline,
    PipelineConfig,
    PipelineResult,
    StageResult,
    train_baseline_low_precision,
)
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory

__all__ = [
    "DatasetSplit",
    "SyntheticImageDataset",
    "synthetic_cifar10",
    "synthetic_cifar100",
    "DistillationConfig",
    "KnowledgeDistiller",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "AscendTrainingPipeline",
    "PipelineConfig",
    "PipelineResult",
    "StageResult",
    "train_baseline_low_precision",
]
