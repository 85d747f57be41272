"""Training-pipeline ablations.

Two design choices of the Section V recipe are ablated on the shared trained
pipeline setup (kept deliberately small — these are directional checks, not
Table V reruns):

* **KD teacher choice** — the paper teaches the later progressive steps with
  the W16-A16-R16 model instead of the FP model; the ablation trains the
  final W2-A2-R16 step both ways.
* **Progressive order** — quantising activations before weights (the paper's
  order) versus weights before activations.
"""

from conftest import bench_scale, emit

from repro.nn.quantization import PrecisionScheme
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.training.datasets import synthetic_cifar10
from repro.training.distillation import KnowledgeDistiller
from repro.training.pipeline import clone_model
from repro.training.trainer import Trainer, TrainingConfig, evaluate_accuracy


def _setup(scale):
    sizes = {
        "small": dict(train=384, test=192, layers=2, dim=32, epochs=2),
        "default": dict(train=1024, test=384, layers=3, dim=32, epochs=4),
        "full": dict(train=4096, test=1024, layers=5, dim=48, epochs=10),
    }[scale]
    train, test = synthetic_cifar10(train_size=sizes["train"], test_size=sizes["test"])
    vit = ViTConfig(
        image_size=16, patch_size=4, embed_dim=sizes["dim"], num_layers=sizes["layers"],
        num_heads=4, num_classes=10, norm="bn", seed=0,
    )
    model = CompactVisionTransformer(vit)
    trainer = Trainer(model, train, test, TrainingConfig(epochs=sizes["epochs"] + 2, batch_size=128, learning_rate=1e-3))
    trainer.fit()
    return train, test, model, sizes["epochs"]


def _train_under_scheme(base_model, scheme_sequence, teacher, train, test, epochs):
    model = clone_model(base_model)
    model.train()
    distiller = KnowledgeDistiller(teacher)
    accuracy = None
    for scheme in scheme_sequence:
        model.apply_precision(scheme)
        trainer = Trainer(
            model, train, test,
            TrainingConfig(epochs=epochs, batch_size=128, learning_rate=5e-4),
            loss_fn=distiller.as_loss_fn(),
        )
        trainer.fit()
        accuracy = evaluate_accuracy(model, test)
    return accuracy


def test_ablation_kd_teacher_and_order(benchmark):
    scale = bench_scale()

    def run():
        train, test, fp_model, epochs = _setup(scale)
        fp_teacher = clone_model(fp_model)

        # Intermediate W16-A16-R16 model (the paper's teacher for late steps).
        w16 = clone_model(fp_model)
        w16.train()
        w16.apply_precision(PrecisionScheme.parse("W16-A16-R16"))
        Trainer(
            w16, train, test, TrainingConfig(epochs=epochs, batch_size=128, learning_rate=5e-4),
            loss_fn=KnowledgeDistiller(fp_teacher).as_loss_fn(),
        ).fit()
        w16_teacher = clone_model(w16, PrecisionScheme.parse("W16-A16-R16"))

        final_scheme = [PrecisionScheme.parse("W2-A2-R16")]
        acc_with_w16_teacher = _train_under_scheme(w16, final_scheme, w16_teacher, train, test, epochs)
        acc_with_fp_teacher = _train_under_scheme(w16, final_scheme, fp_teacher, train, test, epochs)

        activations_first = [PrecisionScheme.parse("W16-A2-R16"), PrecisionScheme.parse("W2-A2-R16")]
        weights_first = [PrecisionScheme.parse("W2-A16-R16"), PrecisionScheme.parse("W2-A2-R16")]
        acc_activations_first = _train_under_scheme(w16, activations_first, w16_teacher, train, test, epochs)
        acc_weights_first = _train_under_scheme(w16, weights_first, w16_teacher, train, test, epochs)

        fp_accuracy = evaluate_accuracy(fp_model, test)
        return [
            ("FP reference", fp_accuracy),
            ("W2-A2 via W16 teacher (paper)", acc_with_w16_teacher),
            ("W2-A2 via FP teacher", acc_with_fp_teacher),
            ("activations-then-weights (paper order)", acc_activations_first),
            ("weights-then-activations", acc_weights_first),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_training_choices", ["Variant", "Accuracy (%)"], rows)

    accuracies = dict(rows)
    # Directional check only: every quantised variant trains to chance level
    # or better and does not exceed the FP reference (the ablation runs at a
    # deliberately small scale; Table V is the properly sized experiment).
    for name, acc in rows[1:]:
        assert acc >= 8.0
        assert acc <= accuracies["FP reference"] + 5.0
