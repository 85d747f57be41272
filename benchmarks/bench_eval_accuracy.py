"""Accuracy trajectory of the end-to-end SC-ViT (-> ACC_sc_vit.json).

The perf harness records how fast the packed engine is; this bench records
what the paper actually claims — that the SC softmax block preserves ViT
accuracy at practical output BSLs — as a machine-readable trajectory next
to the perf baselines:

* **accuracy vs BSL** — the trained model (shared fixture) is evaluated
  through the batched eval pipeline for each softmax output BSL ``By``,
* **scenario diversity** — at the default/full scales both the test and
  the train split are swept (generalisation gap under the circuit),
* **noise tolerance** — the same grid runs again with the bit-flip
  fault-injection knob enabled, measuring SC's graceful degradation.

All rows run through :class:`repro.eval_pipeline.EvalTask` on the sweep
runner, so ``REPRO_BENCH_WORKERS`` parallelises and ``REPRO_BENCH_CACHE``
resumes exactly like the other sweep benches.
"""

import numpy as np
from conftest import bench_cache, bench_scale, bench_workers, emit

from repro.eval_pipeline import BitFlipFaultModel, EvalTask, eval_grid, run_eval_grid
from repro.training.trainer import evaluate_accuracy

#: Softmax output BSLs of the trajectory (the Table VI ``By`` axis).
BY_GRID = (4, 8, 16)

#: Bit-flip rates: fault-free, a realistic soft-error rate, heavy noise.
FLIP_PROBS = (0.0, 0.02, 0.25)


def test_eval_accuracy_trajectory(benchmark, trained_pipeline_result):
    result = trained_pipeline_result["result"]
    train = trained_pipeline_result["train"]
    test = trained_pipeline_result["test"]
    model = result.final_model
    scale = bench_scale()
    max_images = {"small": 64, "default": 192, "full": len(test)}[scale]
    split_names = ("test",) if scale == "small" else ("test", "train")

    task = EvalTask(
        model=model,
        splits={
            "test": (test.images, test.labels),
            "train": (train.images, train.labels),
        },
        calibration_images=test.images[:32],
        max_images=max_images,
    )
    configs = eval_grid(by_grid=BY_GRID, flip_probs=FLIP_PROBS, splits=split_names)

    def run():
        return run_eval_grid(task, configs, workers=bench_workers(), cache=bench_cache())

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    exact_accuracy = evaluate_accuracy(model, test.subset(max_images))
    rows = [
        (
            r.split,
            r.softmax_config.by,
            config["flip_prob"],
            round(r.accuracy, 2),
            r.num_images,
        )
        for config, r in zip(configs, results)
    ]
    emit(
        "ACC_sc_vit",
        ["Split", "By", "Flip prob", "Accuracy (%)", "Images"],
        rows,
        extra={
            "exact_model_accuracy": round(float(exact_accuracy), 2),
            "by_grid": list(BY_GRID),
            "flip_probs": list(FLIP_PROBS),
            # The faulted rows' draws; each is one realisation of one fault seed.
            "fault_model_version": BitFlipFaultModel.VERSION,
            "stats": run_eval_grid.last_run_stats.summary(),
        },
    )

    by_key = {(r.split, r.softmax_config.by, config["flip_prob"]): r.accuracy
              for config, r in zip(configs, results)}
    for split in split_names:
        clean = [by_key[(split, by, 0.0)] for by in BY_GRID]
        noisy = [by_key[(split, by, FLIP_PROBS[-1])] for by in BY_GRID]
        assert all(0.0 <= acc <= 100.0 for acc in clean + noisy)
        # Longer output streams must not collapse the trajectory: the finest
        # BSL stays within a band of the coarsest instead of degrading.
        assert clean[-1] >= clean[0] - 10.0
        # Heavy bit-flip noise cannot *help* on average — SC degrades
        # gracefully, but it does degrade.
        assert float(np.mean(noisy)) <= float(np.mean(clean)) + 5.0
    if scale != "small":  # the small-scale model sits near chance
        # The paper's claim: at By = 16 the SC softmax keeps the trained
        # model's accuracy.
        assert abs(by_key[("test", 16, 0.0)] - exact_accuracy) <= 2.0
