import numpy as np

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline, sc_vit_alpha_x
from repro.nn.autograd import Tensor
from repro.training.trainer import evaluate_accuracy


def make_softmax_config(model, calibration_images, by=16, s1=8, s2=4, k=3):
    alpha_x = sc_vit_alpha_x(model, calibration_images)
    return SoftmaxCircuitConfig(m=64, iterations=k, bx=4, alpha_x=alpha_x, by=by, alpha_y=0.02, s1=s1, s2=s2)


class TestScViTEvalPipeline:
    def test_m_is_overridden_to_token_count(self, frozen_vit, tiny_dataset):
        train, _ = tiny_dataset
        pipeline = ScViTEvalPipeline(frozen_vit, make_softmax_config(frozen_vit, train.images[:4]))
        assert pipeline.softmax_circuit.config.m == frozen_vit.config.num_tokens

    def test_evaluation_returns_valid_accuracy(self, frozen_vit, tiny_dataset):
        _, test = tiny_dataset
        pipeline = ScViTEvalPipeline(frozen_vit, make_softmax_config(frozen_vit, test.images[:4]))
        result = pipeline.evaluate(test, max_images=16)
        assert 0.0 <= result.accuracy <= 100.0
        assert result.num_images == 16

    def test_model_is_restored_after_evaluation(self, frozen_vit, tiny_dataset):
        _, test = tiny_dataset
        before = frozen_vit(Tensor(test.images[:2])).data
        pipeline = ScViTEvalPipeline(frozen_vit, make_softmax_config(frozen_vit, test.images[:4]))
        pipeline.evaluate(test, max_images=8)
        after = frozen_vit(Tensor(test.images[:2])).data
        assert np.allclose(before, after)

    def test_gelu_block_optional(self, frozen_vit, tiny_dataset):
        _, test = tiny_dataset
        with_gelu = ScViTEvalPipeline(
            frozen_vit, make_softmax_config(frozen_vit, test.images[:4]), gelu_output_bsl=8
        )
        assert with_gelu.gelu_block is not None
        result = with_gelu.evaluate(test, max_images=8)
        assert 0.0 <= result.accuracy <= 100.0

    def test_fine_softmax_config_close_to_exact_model(self, frozen_vit, tiny_dataset):
        """With a fine circuit grid the circuit-level accuracy tracks the model's."""
        _, test = tiny_dataset
        exact_acc = evaluate_accuracy(frozen_vit, test)
        fine = make_softmax_config(frozen_vit, test.images[:8], by=64, s1=2, s2=2, k=8)
        result = ScViTEvalPipeline(frozen_vit, fine).evaluate(test)
        assert abs(result.accuracy - exact_acc) <= 25.0  # untrained model: both near chance
