"""Circuit/network co-design driver (Fig. 3 of the paper).

ASCEND's flow couples the two halves of the work:

* the **network level** produces an SC-friendly low-precision ViT (two-stage
  training pipeline, Section V) and, as a by-product, the operand
  distributions of its nonlinear functions;
* the **circuit level** uses those distributions to calibrate and explore the
  GELU and softmax blocks (Section IV, Fig. 8) and feeds the chosen
  approximation back into the network fine-tuning ("ViT guided" one way,
  "circuit aware" the other).

:class:`CodesignDriver` wires those steps together so the end-to-end flow is
one call; each step is also usable on its own (the benches call them
separately so every table/figure stays reproducible in isolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.core.accelerator import AcceleratorConfig, AscendAccelerator, ViTArchitecture
from repro.core.dse import DesignPoint, SoftmaxDesignSpace
from repro.core.gelu_si import GeluSIBlock
from repro.eval_pipeline.pipeline import ScViTEvalPipeline
from repro.eval_pipeline.tasks import sc_vit_alpha_x
from repro.evaluation.vectors import collect_gelu_inputs, collect_softmax_inputs
from repro.nn.vit import CompactVisionTransformer
from repro.training.datasets import DatasetSplit
from repro.training.pipeline import AscendTrainingPipeline, PipelineConfig, PipelineResult
from repro.utils.validation import check_positive_int


@dataclass
class CodesignReport:
    """Everything the co-design flow produced."""

    pipeline: Optional[PipelineResult]
    gelu_block: GeluSIBlock
    softmax_candidates: List[DesignPoint] = field(default_factory=list)
    selected_softmax: Optional[SoftmaxCircuitConfig] = None
    accelerator_area: Dict[str, float] = field(default_factory=dict)
    circuit_accuracy: Optional[float] = None

    def summary(self) -> Dict[str, object]:
        return {
            "selected_softmax": self.selected_softmax.describe() if self.selected_softmax else None,
            "accelerator_total_um2": self.accelerator_area.get("total"),
            "softmax_fraction": self.accelerator_area.get("softmax_fraction"),
            "circuit_accuracy": self.circuit_accuracy,
            "pipeline": self.pipeline.summary() if self.pipeline else None,
        }


class CodesignDriver:
    """End-to-end ASCEND flow on one dataset."""

    def __init__(
        self,
        train_split: DatasetSplit,
        test_split: DatasetSplit,
        pipeline_config: Optional[PipelineConfig] = None,
        gelu_output_bsl: int = 8,
        softmax_bx: int = 4,
        mae_budget: float = 0.08,
    ) -> None:
        check_positive_int(gelu_output_bsl, "gelu_output_bsl")
        check_positive_int(softmax_bx, "softmax_bx")
        if mae_budget <= 0:
            raise ValueError("mae_budget must be positive")
        self.train_split = train_split
        self.test_split = test_split
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.gelu_output_bsl = gelu_output_bsl
        self.softmax_bx = softmax_bx
        self.mae_budget = mae_budget

    # -------------------------------------------------------------- network
    def train_network(self) -> PipelineResult:
        """Stage "SC-friendly quantisation + circuit-aware fine-tune" of Fig. 3."""
        pipeline = AscendTrainingPipeline(self.train_split, self.test_split, self.pipeline_config)
        return pipeline.run()

    # -------------------------------------------------------------- circuits
    def calibrate_gelu(self, model: CompactVisionTransformer, images: np.ndarray) -> GeluSIBlock:
        """Gate-assisted SI GELU calibrated on the model's own activations."""
        samples = collect_gelu_inputs(model, images, max_samples=20000)
        return GeluSIBlock(output_length=self.gelu_output_bsl, calibration_samples=samples)

    def explore_softmax(
        self,
        model: CompactVisionTransformer,
        images: np.ndarray,
        max_designs: Optional[int] = None,
    ) -> List[DesignPoint]:
        """ViT-guided DSE: Pareto-optimal softmax blocks for this model's logits."""
        logits = collect_softmax_inputs(model, images, max_rows=256)
        space = SoftmaxDesignSpace(self.softmax_bx, logits)
        return space.pareto_front(max_designs=max_designs)

    def select_softmax(self, pareto: List[DesignPoint]) -> SoftmaxCircuitConfig:
        """Smallest-ADP Pareto design within the MAE budget (else most accurate)."""
        if not pareto:
            raise ValueError("the Pareto front is empty")
        within = [p for p in pareto if p.mae <= self.mae_budget]
        chosen = min(within, key=lambda p: p.adp) if within else min(pareto, key=lambda p: p.mae)
        return chosen.config

    # ------------------------------------------------------------------ flow
    def run(
        self,
        pipeline_result: Optional[PipelineResult] = None,
        max_designs: Optional[int] = None,
        evaluation_images: int = 256,
    ) -> CodesignReport:
        """Run the complete co-design loop and assemble the report."""
        result = pipeline_result or self.train_network()
        model = result.final_model
        if model is None:
            raise ValueError("the training pipeline did not produce a final model")
        calib_images = self.train_split.images[: min(64, len(self.train_split))]

        gelu_block = self.calibrate_gelu(model, calib_images)
        pareto = self.explore_softmax(model, calib_images, max_designs=max_designs)
        selected = self.select_softmax(pareto) if pareto else None

        accelerator_area: Dict[str, float] = {}
        circuit_accuracy = None
        if selected is not None:
            arch = ViTArchitecture(
                num_layers=model.config.num_layers,
                num_heads=model.config.num_heads,
                embed_dim=max(model.config.embed_dim, model.config.num_heads),
                mlp_ratio=model.config.mlp_ratio,
                num_tokens=model.config.num_tokens,
                num_classes=model.config.num_classes,
            )
            accelerator = AscendAccelerator(
                AcceleratorConfig(architecture=arch, gelu_output_bsl=self.gelu_output_bsl, softmax=selected)
            )
            accelerator_area = accelerator.area_breakdown()
            alpha_x = sc_vit_alpha_x(model, calib_images, bx=selected.bx)
            pipeline = ScViTEvalPipeline(model, selected.with_updates(alpha_x=alpha_x))
            circuit_accuracy = pipeline.evaluate(
                self.test_split, max_images=min(evaluation_images, len(self.test_split))
            ).accuracy

        return CodesignReport(
            pipeline=result,
            gelu_block=gelu_block,
            softmax_candidates=pareto,
            selected_softmax=selected,
            accelerator_area=accelerator_area,
            circuit_accuracy=circuit_accuracy,
        )
