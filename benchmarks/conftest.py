"""Shared fixtures and helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it prints rows
shaped like the paper's artefact (so the output can be compared side by side
with the paper) and stores a JSON copy under ``benchmarks/results/``.

Scale knobs: the training-based benches (Table V, Table VI, the training
ablations) read ``REPRO_BENCH_SCALE`` from the environment:

* ``small``  — quick smoke versions (a couple of minutes in total),
* ``default`` — the sizes used for the numbers recorded in ``benchmarks/results/``,
* ``full``   — closer to the paper's training budget (slow; hours).
"""

import os
from pathlib import Path

import pytest

from repro.evaluation.reporting import format_table, save_json_report

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale not in ("small", "default", "full"):
        raise ValueError(f"unknown REPRO_BENCH_SCALE={scale!r}")
    return scale


def bench_workers() -> int:
    """Worker processes for the sweep-based benches (REPRO_BENCH_WORKERS).

    Defaults to 1 — the serial in-process path, byte-identical to the
    historical bench behaviour.  Any other value shards the sweep across
    processes through :class:`repro.runner.ParallelSweepRunner` (0 = all
    CPUs); results are bit-identical either way.
    """
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_cache():
    """Optional on-disk result cache for the sweep benches (REPRO_BENCH_CACHE).

    Unset by default so benches keep timing real evaluations.  Point it at
    a directory to resume interrupted full-grid sweeps or share results
    with ``python -m repro`` runs.
    """
    path = os.environ.get("REPRO_BENCH_CACHE")
    if not path:
        return None
    from repro.runner.cache import ResultCache

    return ResultCache(path)


def emit(name: str, headers, rows, extra=None) -> None:
    """Print a table and persist it as JSON under benchmarks/results/."""
    print(f"\n=== {name} ===")
    print(format_table(headers, rows))
    payload = {"headers": list(headers), "rows": [list(r) for r in rows]}
    if extra:
        payload.update(extra)
    save_json_report(RESULTS_DIR / f"{name}.json", payload)


@pytest.fixture(scope="session")
def gelu_test_vectors():
    """GELU operand samples (the paper collects them from the ViT layers)."""
    from repro.evaluation.vectors import gelu_input_vectors

    return gelu_input_vectors(8000, seed=2024)


@pytest.fixture(scope="session")
def softmax_test_vectors():
    """Attention-logit rows with m = 64, as used for Table IV / Fig. 8."""
    from repro.evaluation.vectors import attention_logit_vectors

    return attention_logit_vectors(200, 64, seed=2024)


@pytest.fixture(scope="session")
def trained_pipeline_result():
    """A trained SC-friendly ViT shared by the accelerator-level benches."""
    from repro.nn.vit import ViTConfig
    from repro.training.datasets import synthetic_cifar10
    from repro.training.pipeline import AscendTrainingPipeline, PipelineConfig

    scale = bench_scale()
    sizes = {
        "small": dict(train=512, test=256, layers=3, dim=32, fp=3, prog=2, ft=1),
        "default": dict(train=1024, test=384, layers=3, dim=48, fp=8, prog=5, ft=2),
        "full": dict(train=8192, test=2048, layers=7, dim=64, fp=30, prog=20, ft=8),
    }[scale]
    train, test = synthetic_cifar10(train_size=sizes["train"], test_size=sizes["test"])
    vit = ViTConfig(
        image_size=16,
        patch_size=4,
        embed_dim=sizes["dim"],
        num_layers=sizes["layers"],
        num_heads=4,
        num_classes=10,
        norm="bn",
        seed=0,
    )
    config = PipelineConfig(
        vit=vit,
        fp_epochs=sizes["fp"],
        progressive_epochs=sizes["prog"],
        finetune_epochs=sizes["ft"],
        batch_size=128,
        learning_rate=1e-3,
    )
    pipeline = AscendTrainingPipeline(train, test, config)
    result = pipeline.run(include_ln_reference=False)
    return {"result": result, "train": train, "test": test, "config": config}
