"""The two-stage SC-friendly low-precision ViT training pipeline (Fig. 6).

Stage 1 — **progressive quantisation**: starting from a full-precision
BN-ViT, the precision is lowered in three steps
(FP -> W16-A16-R16 -> W16-A2-R16 -> W2-A2-R16), each step initialised from
the previous one and trained with knowledge distillation.  The FP model
teaches the first step; the W16-A16-R16 model teaches the last two steps.

Stage 2 — **approximate-softmax-aware fine-tuning**: the exact softmax in
the quantised model is replaced by the iterative approximation (Algorithm 1)
and the model is fine-tuned briefly so it adapts to the approximation.

The module also provides the *baseline* recipe the paper compares against in
Table V: direct quantisation to W2-A2-R16 in one shot (with KD), which loses
a large amount of accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nn.quantization import PROGRESSIVE_SCHEDULE, PrecisionScheme
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.training.datasets import DatasetSplit
from repro.training.distillation import DistillationConfig, KnowledgeDistiller
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory, evaluate_accuracy
from repro.utils.validation import check_positive_int


@dataclass
class StageResult:
    """Outcome of one pipeline stage."""

    name: str
    scheme: str
    accuracy: float
    history: Optional[TrainingHistory] = None


@dataclass
class PipelineResult:
    """Outcome of a full pipeline run (the rows of Table V)."""

    stages: List[StageResult] = field(default_factory=list)
    final_model: Optional[CompactVisionTransformer] = None

    def accuracy_of(self, stage_name: str) -> float:
        for stage in self.stages:
            if stage.name == stage_name:
                return stage.accuracy
        raise KeyError(f"no stage named {stage_name!r}")

    def summary(self) -> Dict[str, float]:
        return {stage.name: stage.accuracy for stage in self.stages}


@dataclass
class PipelineConfig:
    """Knobs of the pipeline (stage lengths are scaled-down paper settings)."""

    vit: ViTConfig = field(default_factory=ViTConfig)
    softmax_iterations: int = 3
    fp_epochs: int = 12
    progressive_epochs: int = 6
    finetune_epochs: int = 3
    batch_size: int = 128
    learning_rate: float = 7.5e-4
    progressive_learning_rate: Optional[float] = None  # defaults to learning_rate
    finetune_learning_rate: float = 5e-5
    distillation: DistillationConfig = field(default_factory=DistillationConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.fp_epochs, "fp_epochs")
        check_positive_int(self.progressive_epochs, "progressive_epochs")
        check_positive_int(self.finetune_epochs, "finetune_epochs")
        if self.progressive_learning_rate is None:
            # The paper trains every progressive step with the same schedule
            # as the full-precision stage (300 epochs at 7.5e-4); the knob is
            # exposed for the training ablations.
            object.__setattr__(self, "progressive_learning_rate", self.learning_rate)

    def training_config(self, epochs: int, learning_rate: Optional[float] = None) -> TrainingConfig:
        return TrainingConfig(
            epochs=epochs,
            batch_size=self.batch_size,
            learning_rate=learning_rate if learning_rate is not None else self.learning_rate,
            seed=self.seed,
        )


def clone_model(
    model: CompactVisionTransformer,
    scheme: Optional[PrecisionScheme] = None,
) -> CompactVisionTransformer:
    """A frozen copy of ``model`` (optionally configured for ``scheme``).

    Used to snapshot teacher models: the copy shares no parameters with the
    original, so continued training of the student cannot disturb it.
    """
    copy = CompactVisionTransformer(model.config)
    if scheme is not None:
        copy.apply_precision(scheme)
    copy.load_state_dict(model.state_dict(), strict=False)
    # Loaded step sizes must not be overwritten by data-driven re-initialisation.
    from repro.nn.quantization import LsqQuantizer

    for module in copy.modules():
        if isinstance(module, LsqQuantizer):
            module._initialised = True
    copy.eval()
    return copy


class AscendTrainingPipeline:
    """Runs Fig. 6 end to end and records every Table V row on the way."""

    def __init__(
        self,
        train_split: DatasetSplit,
        test_split: DatasetSplit,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.train_split = train_split
        self.test_split = test_split
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------ stage 0: FP
    def train_full_precision_ln(self) -> StageResult:
        """The vanilla FP LN-ViT reference (first row of Table V)."""
        cfg = self.config
        model = CompactVisionTransformer(cfg.vit.with_updates(norm="ln", softmax_mode="exact"))
        trainer = Trainer(model, self.train_split, self.test_split, cfg.training_config(cfg.fp_epochs))
        history = trainer.fit()
        self._ln_model = model
        return StageResult("fp_ln_vit", "FP", evaluate_accuracy(model, self.test_split), history)

    def train_full_precision_bn(self, teacher: Optional[CompactVisionTransformer] = None) -> StageResult:
        """The FP BN-ViT (LN replaced by BN, trained with KD when a teacher exists)."""
        cfg = self.config
        model = CompactVisionTransformer(cfg.vit.with_updates(norm="bn", softmax_mode="exact"))
        loss_fn = None
        if teacher is not None:
            loss_fn = KnowledgeDistiller(teacher, cfg.distillation).as_loss_fn()
        trainer = Trainer(
            model, self.train_split, self.test_split, cfg.training_config(cfg.fp_epochs), loss_fn=loss_fn
        )
        history = trainer.fit()
        self._bn_model = model
        return StageResult("fp_bn_vit", "FP (BN)", evaluate_accuracy(model, self.test_split), history)

    # -------------------------------------------------- stage 1: progressive
    def progressive_quantization(self, model: CompactVisionTransformer) -> List[StageResult]:
        """FP -> W16-A16-R16 -> W16-A2-R16 -> W2-A2-R16 with per-step KD."""
        cfg = self.config
        results: List[StageResult] = []
        fp_teacher = clone_model(model)
        w16_teacher: Optional[CompactVisionTransformer] = None
        for scheme in PROGRESSIVE_SCHEDULE[1:]:
            teacher = fp_teacher if w16_teacher is None else w16_teacher
            model.apply_precision(scheme)
            distiller = KnowledgeDistiller(teacher, cfg.distillation)
            trainer = Trainer(
                model,
                self.train_split,
                self.test_split,
                cfg.training_config(cfg.progressive_epochs, cfg.progressive_learning_rate),
                loss_fn=distiller.as_loss_fn(),
            )
            history = trainer.fit()
            accuracy = evaluate_accuracy(model, self.test_split)
            results.append(StageResult(f"progressive_{scheme.describe()}", scheme.describe(), accuracy, history))
            if scheme.describe() == "W16-A16-R16":
                w16_teacher = clone_model(model, scheme)
                self._w16_teacher = w16_teacher
        return results

    # --------------------------------------------- stage 2: approx-aware ft
    def approximate_softmax_finetune(self, model: CompactVisionTransformer) -> List[StageResult]:
        """Swap in the iterative softmax, measure the drop, fine-tune to recover."""
        cfg = self.config
        results: List[StageResult] = []
        model.set_softmax_mode("iterative", cfg.softmax_iterations)
        drop_accuracy = evaluate_accuracy(model, self.test_split)
        results.append(StageResult("approximate_softmax", "W2-A2-R16 + approx softmax", drop_accuracy))

        teacher = getattr(self, "_w16_teacher", None)
        loss_fn = None
        if teacher is not None:
            loss_fn = KnowledgeDistiller(teacher, cfg.distillation).as_loss_fn()
        trainer = Trainer(
            model,
            self.train_split,
            self.test_split,
            cfg.training_config(cfg.finetune_epochs, cfg.finetune_learning_rate),
            loss_fn=loss_fn,
        )
        history = trainer.fit()
        accuracy = evaluate_accuracy(model, self.test_split)
        results.append(StageResult("approx_aware_finetune", "W2-A2-R16 + approx softmax + ft", accuracy, history))
        return results

    # ------------------------------------------------------------------- run
    def run(self, include_ln_reference: bool = True) -> PipelineResult:
        """Execute the whole pipeline; ``final_model`` comes back in eval mode."""
        result = PipelineResult()
        teacher = None
        if include_ln_reference:
            ln_stage = self.train_full_precision_ln()
            result.stages.append(ln_stage)
            teacher = self._ln_model
        bn_stage = self.train_full_precision_bn(teacher)
        result.stages.append(bn_stage)
        model = self._bn_model

        progressive = self.progressive_quantization(model)
        result.stages.extend(progressive)
        result.stages.extend(self.approximate_softmax_finetune(model))
        result.final_model = model.eval()
        return result


def train_baseline_low_precision(
    train_split: DatasetSplit,
    test_split: DatasetSplit,
    config: Optional[PipelineConfig] = None,
    teacher: Optional[CompactVisionTransformer] = None,
) -> StageResult:
    """The Table V baseline: direct one-shot quantisation to W2-A2-R16.

    The model starts from random initialisation (BN variant), is immediately
    configured for W2-A2-R16 and trained with KD when a teacher is supplied —
    exactly the "baseline low-precision BN-ViT ... even with KD" row whose
    accuracy collapse motivates the progressive pipeline.
    """
    config = config or PipelineConfig()
    model = CompactVisionTransformer(config.vit.with_updates(norm="bn", softmax_mode="exact"))
    model.apply_precision(PrecisionScheme(weight_bsl=2, activation_bsl=2, residual_bsl=16))
    loss_fn = None
    if teacher is not None:
        loss_fn = KnowledgeDistiller(teacher, config.distillation).as_loss_fn()
    total_epochs = config.fp_epochs + 3 * config.progressive_epochs
    trainer = Trainer(
        model,
        train_split,
        test_split,
        config.training_config(total_epochs),
        loss_fn=loss_fn,
    )
    history = trainer.fit()
    return StageResult(
        "baseline_low_precision", "W2-A2-R16 (direct)", evaluate_accuracy(model, test_split), history
    )
