"""Cross-module integration tests.

These exercise the same paths the benchmark harness uses, but at toy sizes:
circuit blocks calibrated on vectors collected from a real (tiny) ViT, the
co-design driver, and the accelerator assembled around a DSE-selected
softmax block.
"""

import numpy as np
import pytest

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, calibrate_alpha_y
from repro.core.accelerator import AcceleratorConfig, AscendAccelerator, ViTArchitecture
from repro.core.codesign import CodesignDriver
from repro.core.dse import SoftmaxDesignSpace
from repro.core.gelu_si import GeluSIBlock
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.evaluation.vectors import collect_gelu_inputs, collect_softmax_inputs
from repro.hw.synthesis import synthesize
from repro.nn.functional_math import gelu_exact, softmax_exact
from repro.training.pipeline import AscendTrainingPipeline, PipelineConfig
from repro.nn.vit import ViTConfig

pytestmark = pytest.mark.slow


class TestCircuitsOnRealModelVectors:
    def test_gelu_block_calibrated_on_model_activations(self, frozen_vit, tiny_images):
        samples = collect_gelu_inputs(frozen_vit, tiny_images, max_samples=2000)
        block = GeluSIBlock(output_length=8, calibration_samples=samples)
        mae = np.mean(np.abs(block.evaluate(samples) - gelu_exact(samples)))
        spread = np.std(gelu_exact(samples))
        assert mae < spread  # the block clearly tracks the function on real data

    def test_softmax_circuit_on_model_logits(self, frozen_vit, tiny_images):
        rows = collect_softmax_inputs(frozen_vit, tiny_images, max_rows=32)
        m = rows.shape[-1]
        config = SoftmaxCircuitConfig(
            m=m,
            iterations=3,
            bx=4,
            alpha_x=calibrate_alpha_x(rows, 4),
            by=16,
            alpha_y=calibrate_alpha_y(16, m),
            s1=8,
            s2=4,
        )
        circuit = IterativeSoftmaxCircuit(config)
        mae = circuit.mean_absolute_error(rows)
        baseline = np.mean(np.abs(softmax_exact(rows, axis=-1)))
        assert mae < 2 * baseline

    def test_dse_on_model_logits(self, frozen_vit, tiny_images):
        rows = collect_softmax_inputs(frozen_vit, tiny_images, max_rows=16)
        space = SoftmaxDesignSpace(
            bx=2,
            test_vectors=rows,
            by_choices=(4, 8),
            iteration_choices=(2,),
            s1_choices=(8, 32),
            s2_choices=(4,),
            alpha_y_multipliers=(1.0,),
        )
        pareto = space.pareto_front()
        assert pareto
        assert all(p.feasible for p in pareto)


class TestAcceleratorAroundSelectedBlock:
    def test_accelerator_built_from_dse_choice(self, logit_rows):
        space = SoftmaxDesignSpace(
            bx=4,
            test_vectors=logit_rows[:16],
            by_choices=(4, 8),
            iteration_choices=(2, 3),
            s1_choices=(32,),
            s2_choices=(8,),
            alpha_y_multipliers=(1.0,),
        )
        pareto = space.pareto_front()
        chosen = pareto[0].config
        accelerator = AscendAccelerator(AcceleratorConfig(architecture=ViTArchitecture(num_layers=2), softmax=chosen))
        breakdown = accelerator.area_breakdown()
        assert breakdown["softmax_blocks"] > 0
        assert breakdown["total"] > breakdown["softmax_blocks"]

    def test_synthesis_reports_consistent_between_levels(self, logit_rows):
        config = SoftmaxCircuitConfig(m=64, alpha_x=calibrate_alpha_x(logit_rows, 4))
        block_report = synthesize(IterativeSoftmaxCircuit(config).build_hardware())
        accelerator = AscendAccelerator(AcceleratorConfig(softmax=config))
        assert accelerator.softmax_block_report().area_um2 == pytest.approx(block_report.area_um2)


class TestCodesignDriver:
    @pytest.fixture(scope="class")
    def driver_setup(self):
        from repro.training.datasets import SyntheticImageDataset

        dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
        train, test = dataset.splits(train_size=64, test_size=32)
        vit = ViTConfig(
            image_size=8, patch_size=4, embed_dim=16, num_layers=1, num_heads=2, num_classes=4, norm="bn", seed=0
        )
        pipeline_config = PipelineConfig(vit=vit, fp_epochs=1, progressive_epochs=1, finetune_epochs=1, batch_size=32)
        return train, test, pipeline_config

    def test_full_codesign_flow(self, driver_setup):
        train, test, pipeline_config = driver_setup
        driver = CodesignDriver(train, test, pipeline_config=pipeline_config, mae_budget=0.5)
        pipeline_result = AscendTrainingPipeline(train, test, pipeline_config).run(include_ln_reference=False)
        report = driver.run(pipeline_result=pipeline_result, max_designs=24, evaluation_images=16)
        assert report.selected_softmax is not None
        assert report.accelerator_area["total"] > 0
        assert 0.0 <= report.circuit_accuracy <= 100.0
        summary = report.summary()
        assert summary["selected_softmax"] == report.selected_softmax.describe()

    def test_select_softmax_respects_budget(self, driver_setup, logit_rows):
        train, test, pipeline_config = driver_setup
        driver = CodesignDriver(train, test, pipeline_config=pipeline_config, mae_budget=1.0)
        space = SoftmaxDesignSpace(
            bx=4,
            test_vectors=logit_rows[:8],
            by_choices=(4, 8),
            iteration_choices=(2,),
            s1_choices=(32,),
            s2_choices=(8,),
            alpha_y_multipliers=(1.0,),
        )
        pareto = space.pareto_front()
        chosen = driver.select_softmax(pareto)
        cheapest = min(pareto, key=lambda p: p.adp)
        assert chosen.describe() == cheapest.config.describe()
