"""Ablations on the softmax circuit design choices.

Two of the circuit's knobs are swept here in isolation, holding
everything else at the Table IV operating point (Bx = 4, By = 8, m = 64):

* the iteration count ``k`` of Algorithm 1 — both the floating-point
  recurrence and the bit-accurate circuit, showing the fast convergence that
  justifies the paper's choice of k = 3;
* the two sub-sample rates ``s1`` and ``s2`` — the only lossy steps of the
  deterministic pipeline, trading BSN/multiplier width (area) against MAE.
"""

import numpy as np
from conftest import emit

from repro.blocks.specs import SoftmaxCircuitConfig, calibrate_alpha_x, calibrate_alpha_y
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.hw.synthesis import synthesize
from repro.nn.functional_math import iterative_softmax_reference, softmax_exact

M, BX, BY = 64, 4, 8


def _base_config(logits, **overrides):
    params = dict(
        m=M,
        iterations=3,
        bx=BX,
        alpha_x=calibrate_alpha_x(logits, BX),
        by=BY,
        alpha_y=calibrate_alpha_y(BY, M),
        s1=32,
        s2=8,
    )
    params.update(overrides)
    return SoftmaxCircuitConfig(**params)


def test_ablation_iteration_count(benchmark, softmax_test_vectors):
    logits = softmax_test_vectors
    exact = softmax_exact(logits)

    def run():
        rows = []
        for k in (1, 2, 3, 4, 6, 8):
            float_mae = float(np.mean(np.abs(iterative_softmax_reference(logits, k) - exact)))
            circuit = IterativeSoftmaxCircuit(_base_config(logits, iterations=k))
            report = synthesize(circuit.build_hardware())
            rows.append((k, float_mae, circuit.mean_absolute_error(logits), report.delay_ns, report.adp))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_softmax_iterations",
        ["k", "Float recurrence MAE", "Circuit MAE", "Delay (ns)", "ADP"],
        rows,
    )
    float_maes = [r[1] for r in rows]
    delays = [r[3] for r in rows]
    # The float recurrence converges quickly with k while latency grows
    # linearly — k = 3 is already deep into diminishing returns.
    assert float_maes[-1] < float_maes[0]
    assert delays == sorted(delays)
    assert float_maes[2] < 0.5 * float_maes[0]


def test_ablation_subsampling(benchmark, softmax_test_vectors):
    logits = softmax_test_vectors

    def run():
        rows = []
        for s1 in (8, 32, 128, 512):
            circuit = IterativeSoftmaxCircuit(_base_config(logits, s1=s1))
            report = synthesize(circuit.build_hardware())
            rows.append(("s1 sweep", s1, 8, report.area_um2, report.adp, circuit.mean_absolute_error(logits)))
        for s2 in (2, 8, 32, 128):
            circuit = IterativeSoftmaxCircuit(_base_config(logits, s2=s2))
            report = synthesize(circuit.build_hardware())
            rows.append(("s2 sweep", 32, s2, report.area_um2, report.adp, circuit.mean_absolute_error(logits)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("ablation_subsampling", ["Sweep", "s1", "s2", "Area (um2)", "ADP", "MAE"], rows)

    s1_rows = [r for r in rows if r[0] == "s1 sweep"]
    s2_rows = [r for r in rows if r[0] == "s2 sweep"]
    # Coarser sub-sampling always shrinks the block.
    assert [r[3] for r in s1_rows] == sorted([r[3] for r in s1_rows], reverse=True)
    assert [r[3] for r in s2_rows] == sorted([r[3] for r in s2_rows], reverse=True)
    # The cheapest point of each sweep is never the most accurate one.
    assert s1_rows[-1][5] >= min(r[5] for r in s1_rows)
    assert s2_rows[-1][5] >= min(r[5] for r in s2_rows)
