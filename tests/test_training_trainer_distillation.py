import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.vit import CompactVisionTransformer
from repro.training.distillation import DistillationConfig, KnowledgeDistiller
from repro.training.trainer import Trainer, TrainingConfig, clip_gradients, evaluate_accuracy


@pytest.fixture
def fast_config():
    return TrainingConfig(epochs=2, batch_size=32, learning_rate=2e-3, seed=0)


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises((ValueError, TypeError)):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(warmup_fraction=1.5)


class TestTrainer:
    def test_training_improves_over_chance(self, tiny_vit, tiny_dataset, fast_config):
        train, test = tiny_dataset
        chance = 100.0 / tiny_vit.config.num_classes
        trainer = Trainer(tiny_vit, train, test, fast_config)
        history = trainer.fit()
        assert len(history.train_loss) == 2
        assert history.train_loss[-1] < history.train_loss[0] + 0.1
        assert history.test_accuracy[-1] >= chance - 15.0  # sanity, not a benchmark

    def test_loss_decreases_on_average(self, tiny_vit_config, tiny_dataset, fast_config):
        train, test = tiny_dataset
        model = CompactVisionTransformer(tiny_vit_config)
        trainer = Trainer(model, train, test, TrainingConfig(epochs=4, batch_size=32, learning_rate=2e-3))
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_custom_loss_fn_contract(self, tiny_vit, tiny_dataset, fast_config):
        train, test = tiny_dataset
        calls = []

        def loss_fn(model, images, labels):
            from repro.nn.losses import cross_entropy

            logits = model(images)
            calls.append(1)
            return cross_entropy(logits, labels), logits

        Trainer(tiny_vit, train, test, fast_config, loss_fn=loss_fn).train_epoch()
        assert calls

    def test_evaluate_accuracy_range(self, tiny_vit, tiny_dataset):
        _, test = tiny_dataset
        acc = evaluate_accuracy(tiny_vit, test)
        assert 0.0 <= acc <= 100.0

    def test_evaluate_accuracy_restores_training_mode(self, tiny_vit, tiny_dataset):
        _, test = tiny_dataset
        tiny_vit.train()
        evaluate_accuracy(tiny_vit, test)
        assert tiny_vit.training


class TestClipGradients:
    def test_norm_reduced_to_max(self, tiny_vit, tiny_dataset):
        train, _ = tiny_dataset
        out = tiny_vit(Tensor(train.images[:8]))
        (out * 100.0).sum().backward()
        norm_before = clip_gradients(tiny_vit, max_norm=1.0)
        total = sum(float(np.sum(p.grad**2)) for p in tiny_vit.parameters() if p.grad is not None)
        assert norm_before > 1.0
        assert np.sqrt(total) <= 1.0 + 1e-6

    def test_invalid_max_norm(self, tiny_vit):
        with pytest.raises(ValueError):
            clip_gradients(tiny_vit, 0.0)


class TestKnowledgeDistiller:
    def test_loss_returns_tensor_and_logits(self, tiny_vit_config, tiny_dataset):
        train, _ = tiny_dataset
        teacher = CompactVisionTransformer(tiny_vit_config)
        student = CompactVisionTransformer(tiny_vit_config.with_updates(seed=9))
        distiller = KnowledgeDistiller(teacher)
        loss, logits = distiller.loss(student, Tensor(train.images[:8]), train.labels[:8])
        assert loss.item() > 0
        assert logits.shape == (8, tiny_vit_config.num_classes)

    def test_identical_student_teacher_gives_small_kd_loss(self, tiny_vit_config, tiny_dataset):
        train, _ = tiny_dataset
        # LayerNorm variant so train/eval mode cannot change the statistics
        # (an identical BatchNorm student in training mode would legitimately
        # differ from the teacher running on its frozen running stats).
        config = tiny_vit_config.with_updates(norm="ln")
        teacher = CompactVisionTransformer(config)
        student = CompactVisionTransformer(config)
        student.load_state_dict(teacher.state_dict())
        kd_config = DistillationConfig(beta=2.0, hard_label_weight=0.0)
        loss, _ = KnowledgeDistiller(teacher, kd_config).loss(student, Tensor(train.images[:8]), train.labels[:8])
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_gradient_reaches_student_only(self, tiny_vit_config, tiny_dataset):
        train, _ = tiny_dataset
        teacher = CompactVisionTransformer(tiny_vit_config)
        student = CompactVisionTransformer(tiny_vit_config.with_updates(seed=4))
        distiller = KnowledgeDistiller(teacher)
        loss, _ = distiller.loss(student, Tensor(train.images[:8]), train.labels[:8])
        loss.backward()
        assert any(p.grad is not None for p in student.parameters())
        assert all(p.grad is None for p in teacher.parameters())

    def test_loss_copies_no_scores_or_gelu_inputs(self, tiny_vit_config, tiny_dataset, monkeypatch):
        """Teacher and student forwards fill only the block outputs the loss reads."""
        train, _ = tiny_dataset
        traces = []
        forward = CompactVisionTransformer.forward

        def spy(self, images, trace=None, **kwargs):
            traces.append(trace)
            return forward(self, images, trace=trace, **kwargs)

        monkeypatch.setattr(CompactVisionTransformer, "forward", spy)
        teacher = CompactVisionTransformer(tiny_vit_config)
        student = CompactVisionTransformer(tiny_vit_config.with_updates(seed=9))
        KnowledgeDistiller(teacher).loss(student, Tensor(train.images[:8]), train.labels[:8])
        assert len(traces) == 2  # teacher, then student
        for trace in traces:
            assert not trace.attention_logits and not trace.gelu_inputs
            assert len(trace.block_outputs) == tiny_vit_config.num_layers

    def test_loss_fn_adapter_rejects_non_vit(self, tiny_vit_config):
        from repro.nn.layers import Linear

        distiller = KnowledgeDistiller(CompactVisionTransformer(tiny_vit_config))
        with pytest.raises(TypeError):
            distiller.as_loss_fn()(Linear(2, 2), Tensor(np.zeros((1, 2))), np.zeros(1, dtype=int))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DistillationConfig(beta=-1.0)
        with pytest.raises(ValueError):
            DistillationConfig(temperature=0.0)
