"""Scenario: configuring the end-to-end accelerator (Table VI / Fig. 3).

Given a trained SC-friendly ViT (trained here quickly, or loaded from the
checkpoint written by ``train_sc_friendly_vit.py``), the script walks the
accelerator-level trade-off of Table VI:

1. for each softmax configuration [By, s1, s2, k] along the Pareto front it
   reports the softmax block area, the full accelerator area and the share
   of the accelerator spent on softmax,
2. it evaluates the trained model with the softmax circuit emulated
   bit-accurately inside every attention head to get the accuracy column,
3. it applies the paper's recommendation rule (smallest area meeting the
   accuracy band) and prints the chosen configuration.

Run with:  python examples/accelerator_configuration.py [--quick]
"""

import argparse
from pathlib import Path

import numpy as np

from repro.core import (
    AcceleratorConfig,
    AscendAccelerator,
    ViTArchitecture,
    recommend_configuration,
    sc_vit_softmax,
)
from repro.eval_pipeline import ScViTEvalPipeline, sc_vit_alpha_x
from repro.nn.serialization import load_model
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.training.datasets import synthetic_cifar10
from repro.training.pipeline import AscendTrainingPipeline, PipelineConfig

CHECKPOINT = Path(__file__).parent / "sc_friendly_vit.npz"
CONFIGURATIONS = ((4, 128, 2, 2), (8, 32, 8, 3), (16, 128, 16, 4), (32, 128, 16, 4))


def obtain_model(quick: bool):
    """Load the example checkpoint if present, otherwise train a small model."""
    vit = ViTConfig(image_size=16, patch_size=4, embed_dim=48, num_layers=4, num_heads=4, num_classes=10, norm="bn")
    train, test = synthetic_cifar10(train_size=512 if quick else 1536, test_size=384)
    if CHECKPOINT.exists():
        from repro.nn.quantization import PrecisionScheme

        model = CompactVisionTransformer(vit)
        model.apply_precision(PrecisionScheme.parse("W2-A2-R16"))
        model.set_softmax_mode("iterative", 3)
        try:
            load_model(CHECKPOINT, model, strict=False)
            print(f"loaded checkpoint {CHECKPOINT}")
            return model.eval(), test
        except Exception as error:  # pragma: no cover - depends on local files
            print(f"could not load checkpoint ({error}); training instead")
    config = PipelineConfig(
        vit=vit,
        fp_epochs=3 if quick else 8,
        progressive_epochs=2 if quick else 5,
        finetune_epochs=1 if quick else 2,
        learning_rate=1e-3,
    )
    result = AscendTrainingPipeline(train, test, config).run(include_ln_reference=False)
    return result.final_model, test


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use smoke-test sizes")
    parser.add_argument("--max-images", type=int, default=256, help="test images per accuracy evaluation")
    args = parser.parse_args()

    model, test = obtain_model(args.quick)
    alpha_x = sc_vit_alpha_x(model, test.images[:32])

    rows = []
    accel_configs = []
    accuracies = []
    for by, s1, s2, k in CONFIGURATIONS:
        softmax = sc_vit_softmax(by, s1, s2, k, alpha_x=alpha_x)
        accel_config = AcceleratorConfig(architecture=ViTArchitecture(), softmax=softmax)
        accelerator = AscendAccelerator(accel_config)
        breakdown = accelerator.area_breakdown()
        pipeline = ScViTEvalPipeline(model, softmax)
        accuracy = pipeline.evaluate(test, max_images=min(args.max_images, len(test))).accuracy

        accel_configs.append(accel_config)
        accuracies.append(accuracy)
        rows.append((f"[{by}, {s1}, {s2}, {k}]", accelerator.softmax_block_report().area_um2,
                     breakdown["total"], 100 * breakdown["softmax_fraction"], accuracy))

    print("\nTable VI — accelerator-level evaluation:")
    print(f"{'[By, s1, s2, k]':18s} {'softmax um^2':>14s} {'accel um^2':>14s} {'softmax %':>10s} {'accuracy %':>10s}")
    for name, block_area, total, fraction, accuracy in rows:
        print(f"{name:18s} {block_area:14.3g} {total:14.3g} {fraction:10.2f} {accuracy:10.2f}")

    floor = float(np.median(accuracies))
    index = recommend_configuration(accel_configs, accuracies, accuracy_floor=floor)
    print(f"\nrecommended configuration (accuracy floor {floor:.1f}%): {rows[index][0]}")


if __name__ == "__main__":
    main()
