"""One SC-ViT recipe: ``repro eval``, Table IV and serving build the same model and circuit.

The softmax recipe is checked against configs written out field by field;
an eval argv and a deployment spec with equal model and circuit fields must
build pipelines with equal fingerprints and identical predictions.  The
recipe's calibration records no autograd graph, the Bernstein baseline draws
its streams in bounded chunks, and importing the eval and serve entry points
does not load ``scipy.optimize``.
"""

import numpy as np
import pytest

from repro.blocks.specs import SoftmaxCircuitConfig, sc_vit_softmax
from repro.cli import _eval_task, build_parser
from repro.eval_pipeline import run_eval_grid
from repro.runner.cache import weights_digest
from repro.runner.tasks import Table4Task
from repro.serve import ServeSpec, build_replica_factory
from repro.serve.engine import pipeline_fingerprint


@pytest.mark.parametrize(
    "circuit, expected",
    [
        (
            (4, 128, 2, 2),
            SoftmaxCircuitConfig(
                m=64, iterations=2, bx=4, alpha_x=2.0, by=4, alpha_y=0.10511205190671431, s1=128, s2=2
            ),
        ),
        (
            (8, 32, 8, 3),
            SoftmaxCircuitConfig(m=64, iterations=3, bx=4, alpha_x=2.0, by=8, alpha_y=0.0625, s1=32, s2=8),
        ),
    ],
)
def test_softmax_recipe_matches_written_out_config(circuit, expected):
    assert sc_vit_softmax(*circuit) == expected
    assert sc_vit_softmax(*circuit, alpha_x=0.75) == expected.with_updates(alpha_x=0.75)


def test_table4_version_reads_the_recipe_parameters():
    logits = np.zeros((2, 64))
    assert Table4Task(logits=logits, alpha_x=1.5).version().endswith(";params:(64, 4, 32, 8, 3, 1.5)")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A saved state dict both entry points load, so the load path is shared too."""
    from repro.nn.serialization import save_model

    args = build_parser().parse_args(["eval", "--train-size", "8", "--layers", "1", "--embed-dim", "8",
                                      "--heads", "2", "--model-seed", "5"])
    task, _ = _eval_task(args)
    path = tmp_path_factory.mktemp("recipe") / "vit.npz"
    save_model(path, task.model)
    return path


def test_eval_argv_and_serve_spec_build_the_same_pipeline(checkpoint):
    model = dict(train_size=16, data_seed=3, layers=1, embed_dim=8, heads=2, model_seed=1, calibration_images=4)
    circuit = dict(by=8, s1=16, s2=4, k=2, gelu_bsl=4, flip_prob=0.05, fault_seed=11)
    argv = [
        "eval", "--train-size", "16", "--data-seed", "3", "--layers", "1", "--embed-dim", "8",
        "--heads", "2", "--model-seed", "1", "--calibration-images", "4", "--checkpoint", str(checkpoint),
        "--test-size", "6", "--by-grid", "8", "--s1", "16", "--s2", "4", "--k", "2", "--gelu-bsl", "4",
        "--flip-probs", "0.05", "--fault-seed", "11",
    ]
    task, [config] = _eval_task(build_parser().parse_args(argv))
    offline = task.pipeline(config)
    served = build_replica_factory(ServeSpec(checkpoint=str(checkpoint), cache_dir=None, **model, **circuit))()

    assert weights_digest(served.model) == weights_digest(offline.model)
    assert served.softmax_circuit.config == offline.softmax_circuit.config
    assert pipeline_fingerprint(served) == pipeline_fingerprint(offline)
    images = task.splits["test"][0]
    indices = np.arange(len(images))
    assert np.array_equal(served.predict_batch(images, indices), offline.predict_batch(images, indices))
    # The grid's own evaluation runs the same pipeline.
    [result] = run_eval_grid(task, [config])
    assert np.array_equal(result.predictions, offline.predict_batch(images, indices))


# ---------------------------------------------------------------------------
# The frozen-model contract: calibration and evaluation never change a model
# ---------------------------------------------------------------------------

FROZEN_SPEC = ServeSpec(train_size=16, layers=1, embed_dim=8, heads=2, calibration_images=4,
                        by=8, s1=16, s2=4, k=2, cache_dir=None)
TABLE6_STYLE = [{"split": "test", "by": by, "s1": s1, "s2": s2, "k": k}
                for by, s1, s2, k in ((4, 128, 2, 2), (8, 32, 8, 3), (16, 128, 16, 4))]


@pytest.fixture
def frozen():
    """A recipe model (eval mode) with its calibration images and test split."""
    from repro.eval_pipeline import build_sc_vit

    model, train, test = build_sc_vit(FROZEN_SPEC, test_size=12)
    return model, train.images[:4], test


def _state(model, test):
    from repro.training.trainer import evaluate_accuracy

    return weights_digest(model), evaluate_accuracy(model, test)


def _task(model, calibration, test):
    from repro.eval_pipeline import EvalTask

    return EvalTask(model=model, splits={"test": (test.images, test.labels)}, calibration_images=calibration)


def test_recipe_models_are_frozen(frozen):
    model, _, _ = frozen
    assert not any(module.training for module in model.modules())


def test_building_a_replica_factory_leaves_its_model_unchanged(frozen):
    model, _, test = frozen
    factory = build_replica_factory(FROZEN_SPEC)
    assert _state(factory.model, test) == _state(model, test)


def test_a_replica_factory_and_its_replicas_hold_no_calibration_arrays(frozen):
    """Building the factory calibrates alpha_x on its model; neither it nor a replica keeps the trace."""
    import pickle

    model, _, _ = frozen
    factory = build_replica_factory(FROZEN_SPEC)
    size = len(pickle.dumps(model))
    assert len(pickle.dumps(factory.model)) == size
    assert len(pickle.dumps(factory().model)) == size


def test_an_eval_grid_leaves_the_model_unchanged(frozen):
    model, calibration, test = frozen
    before = _state(model, test)
    run_eval_grid(_task(model, calibration, test), TABLE6_STYLE[:2])
    assert _state(model, test) == before


def test_calibration_leaves_the_model_unchanged(frozen):
    """Same weights and accuracy, and no calibration arrays left on the modules (the pickle keeps its size)."""
    import pickle

    from repro.eval_pipeline import sc_vit_alpha_x
    from repro.evaluation.vectors import collect_gelu_inputs

    model, calibration, test = frozen
    before = _state(model, test)
    size = len(pickle.dumps(model))
    alpha_x = sc_vit_alpha_x(model, calibration)
    assert len(pickle.dumps(model)) == size
    assert _state(model, test) == before
    assert sc_vit_alpha_x(model, calibration) == alpha_x
    collect_gelu_inputs(model, calibration)
    assert len(pickle.dumps(model)) == size
    assert _state(model, test) == before


def test_table6_grid_accuracy_does_not_depend_on_config_order(frozen):
    model, calibration, test = frozen
    forward = run_eval_grid(_task(model, calibration, test), TABLE6_STYLE)
    reverse = run_eval_grid(_task(model, calibration, test), TABLE6_STYLE[::-1])[::-1]
    for ahead, behind in zip(forward, reverse):
        assert ahead.accuracy == behind.accuracy
        assert np.array_equal(ahead.predictions, behind.predictions)


@pytest.mark.parametrize("entry", ["collect_softmax_inputs", "collect_gelu_inputs", "ScViTEvalPipeline"])
def test_a_training_mode_model_is_refused(frozen, entry):
    from repro.eval_pipeline import ScViTEvalPipeline
    from repro.evaluation import vectors

    model, calibration, _ = frozen
    model.train()
    before = weights_digest(model)
    call = {
        "collect_softmax_inputs": lambda: vectors.collect_softmax_inputs(model, calibration),
        "collect_gelu_inputs": lambda: vectors.collect_gelu_inputs(model, calibration),
        "ScViTEvalPipeline": lambda: ScViTEvalPipeline(model, sc_vit_softmax(8, 16, 4, 2)),
    }[entry]
    with pytest.raises(ValueError, match="eval mode"):
        call()
    assert weights_digest(model) == before


# --------------------------------------------------------- lean inference processes
PAPER_SPEC = ServeSpec(layers=7, embed_dim=64, heads=4)


@pytest.fixture(scope="module")
def paper_scale():
    """The paper-scale recipe model (eval mode) and its 32 calibration images."""
    from repro.eval_pipeline import build_sc_vit

    model, train, _ = build_sc_vit(PAPER_SPEC, test_size=1)
    return model, train.images[: PAPER_SPEC.calibration_images]


def _graph_recorded_vectors(model, images):
    """Pooled, shuffled softmax rows and GELU samples of a forward that records the autograd graph."""
    from repro.nn.autograd import Tensor, is_grad_enabled
    from repro.nn.vit import ModelTrace

    assert is_grad_enabled()
    trace = ModelTrace()
    model(Tensor(np.asarray(images, dtype=float)), trace=trace)
    rows = np.concatenate([logits.reshape(-1, logits.shape[-1]) for logits in trace.attention_logits])
    samples = np.concatenate([act.reshape(-1) for act in trace.gelu_inputs])
    return (rows[np.random.default_rng(0).permutation(len(rows))],
            samples[np.random.default_rng(0).permutation(len(samples))])


@pytest.mark.parametrize("source", ["stack", "frozen_vit", "paper_scale"])
def test_graph_free_calibration_vectors_equal_a_graph_recording_forward(source, request, tiny_images):
    from repro.evaluation.vectors import collect_gelu_inputs, collect_softmax_inputs
    from repro.nn.autograd import is_grad_enabled

    value = request.getfixturevalue(source)
    model = value if source == "frozen_vit" else value[0]
    images = value[1] if source == "paper_scale" else tiny_images
    rows, samples = _graph_recorded_vectors(model, images)
    assert np.array_equal(collect_softmax_inputs(model, images), rows)
    assert is_grad_enabled()
    assert np.array_equal(collect_gelu_inputs(model, images), samples)
    assert is_grad_enabled()


def _traced_peak_mb(call):
    """Peak traced allocation of ``call()`` above what was live before it, in MB."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - baseline) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def test_calibration_records_no_autograd_graph(paper_scale):
    """Without the graph the paper-scale calibration peaks at ~12.2 MB; a graph-recording forward needs ~93 MB."""
    from repro.eval_pipeline import sc_vit_alpha_x

    model, images = paper_scale
    assert _traced_peak_mb(lambda: sc_vit_alpha_x(model, images)) < 18.0


def test_bernstein_evaluate_draws_in_chunks(gelu_samples):
    """2,000 values at 1024-bit streams peak at ~7.3 MB; drawing every uniform at once took 143 MB."""
    from repro.sc.bernstein import BernsteinGeluUnit

    unit = BernsteinGeluUnit(num_terms=6)
    assert _traced_peak_mb(lambda: unit.evaluate(gelu_samples)) <= 20.0


def test_eval_and_serve_imports_leave_scipy_optimize_unloaded():
    """Loading it costs every process ~35 MB of RSS; only the Bernstein fit uses ``scipy.optimize``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1]) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys; import repro.serve, repro.eval_pipeline, repro.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
