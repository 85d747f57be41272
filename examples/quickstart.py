"""Quickstart: the ASCEND building blocks in five minutes.

Walks through the public API bottom-up:

1. thermometer-coded stochastic computing (encode, multiply, add, re-scale),
2. the gate-assisted SI GELU block (Fig. 4) and its hardware cost,
3. the iterative approximate softmax — algorithm, circuit, and cost,
4. a peek at the accelerator-level area breakdown.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    AscendAccelerator,
    GeluSIBlock,
    IterativeSoftmaxCircuit,
    TernaryGeluBlock,
    calibrate_alpha_x,
    sc_vit_softmax,
)
from repro.evaluation import attention_logit_vectors, gelu_input_vectors
from repro.hw import synthesize
from repro.nn.functional_math import gelu_exact, iterative_softmax_reference, softmax_exact
from repro.sc import ThermometerStream, bsn_add, rescale, thermometer_multiply


def section(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


def demo_thermometer_sc():
    section("1. Deterministic SC with thermometer bitstreams")
    a = ThermometerStream.encode(np.array([0.75, -0.5]), length=8, scale=0.25)
    b = ThermometerStream.encode(np.array([0.5, 0.5]), length=8, scale=0.25)
    product = thermometer_multiply(a, b)
    total = bsn_add([a, b])
    shortened = rescale(total, 4)
    print("a          =", a.decode())
    print("b          =", b.decode())
    print("a * b      =", product.decode(), f"(exact, {product.length}-bit stream)")
    print("a + b      =", total.decode(), f"(exact, BSN over {total.length} bits)")
    print("re-scaled  =", shortened.decode(), f"({shortened.length}-bit stream, scale x4)")


def demo_gelu_block():
    section("2. Gate-assisted SI GELU (Section IV-A)")
    ternary = TernaryGeluBlock()
    sweep = np.linspace(-3, 3, 9)
    print("ternary GELU levels over a [-3, 3] sweep:", ternary.process(
        ThermometerStream.encode(sweep, ternary.input_length, ternary.input_scale)
    ).signed_levels())

    samples = gelu_input_vectors(4000, seed=0)
    for bsl in (2, 4, 8):
        block = GeluSIBlock(output_length=bsl, calibration_samples=samples)
        report = synthesize(block.build_hardware())
        mae = np.mean(np.abs(block.evaluate(samples) - gelu_exact(samples)))
        print(
            f"  {bsl}b BSL: area={report.area_um2:8.1f} um^2  delay={report.delay_ns:5.3f} ns  "
            f"ADP={report.adp:8.1f}  MAE={mae:.4f}"
        )


def demo_softmax():
    section("3. Iterative approximate softmax (Section IV-B)")
    logits = attention_logit_vectors(64, 64, seed=1)
    float_mae = float(np.mean(np.abs(iterative_softmax_reference(logits, 3) - softmax_exact(logits))))
    print("float recurrence MAE vs exact softmax (k=3):", round(float_mae, 5))

    # [By, s1, s2, k] = [8, 32, 8, 3] with m = 64, Bx = 4 and alpha_x fitted to the logits.
    config = sc_vit_softmax(8, 32, 8, 3, alpha_x=calibrate_alpha_x(logits, 4))
    circuit = IterativeSoftmaxCircuit(config)
    report = synthesize(circuit.build_hardware())
    print(f"circuit {config.describe()}: area={report.area_um2:.3g} um^2, delay={report.delay_ns:.1f} ns, "
          f"ADP={report.adp:.3g}, MAE={circuit.mean_absolute_error(logits):.4f}")
    row = logits[0]
    print("exact softmax   :", np.round(softmax_exact(row)[:6], 3))
    print("circuit output  :", np.round(circuit.forward(row[None, :])[0][:6], 3))


def demo_accelerator():
    section("4. Accelerator-level area breakdown (Table VI)")
    accelerator = AscendAccelerator()
    breakdown = accelerator.area_breakdown()
    for name, value in breakdown.items():
        if name in ("total", "softmax_fraction"):
            continue
        print(f"  {name:22s} {value:12.0f} um^2")
    print(f"  {'total':22s} {breakdown['total']:12.0f} um^2")
    print(f"  softmax share: {100 * breakdown['softmax_fraction']:.2f}%")


if __name__ == "__main__":
    demo_thermometer_sc()
    demo_gelu_block()
    demo_softmax()
    demo_accelerator()
    print("\nDone. See examples/ for the deeper scenario walkthroughs.")
