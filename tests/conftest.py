"""Shared fixtures for the test suite.

Model/dataset fixtures are deliberately tiny so the whole suite stays fast;
the full-size experiments live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline, sc_vit_alpha_x
from repro.evaluation.vectors import attention_logit_vectors, gelu_input_vectors
from repro.nn.vit import CompactVisionTransformer, ViTConfig
from repro.serve import ReplicaFactory
from repro.training.datasets import SyntheticImageDataset

# The serving tests' pipeline settings over the ``stack`` fixture.
GELU_BSL = 4
FAULT_SEED = 11
NUM_IMAGES = 10  # the test split of ``stack``


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def gelu_samples():
    return gelu_input_vectors(2000, seed=7)


@pytest.fixture(scope="session")
def logit_rows():
    return attention_logit_vectors(64, 64, seed=11)


@pytest.fixture(scope="session")
def tiny_vit_config():
    return ViTConfig(
        image_size=8,
        patch_size=4,
        in_channels=3,
        num_classes=4,
        embed_dim=16,
        num_layers=2,
        num_heads=2,
        mlp_ratio=2.0,
        norm="bn",
        seed=3,
    )


@pytest.fixture
def tiny_vit(tiny_vit_config):
    return CompactVisionTransformer(tiny_vit_config)


@pytest.fixture
def frozen_vit(tiny_vit):
    """The tiny ViT in eval mode, as calibration and evaluation require."""
    return tiny_vit.eval()


@pytest.fixture(scope="session")
def tiny_dataset():
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    return dataset.splits(train_size=96, test_size=48)


@pytest.fixture(scope="session")
def tiny_images(tiny_dataset):
    train, _ = tiny_dataset
    return train.images[:8]


@pytest.fixture(scope="module")
def stack():
    """Tiny frozen model, a 10-image test split and its calibrated softmax circuit.

    The serving tests' shared stack: every engine, service and offline
    reference in a module runs this one model under this one circuit.
    """
    config = ViTConfig(
        image_size=8, patch_size=4, num_classes=4, embed_dim=16,
        num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config).eval()
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=16, test_size=10)
    softmax = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=sc_vit_alpha_x(model, train.images[:4]),
                                   by=8, alpha_y=0.03, s1=16, s2=4)
    return model, test, softmax


@pytest.fixture(scope="module")
def offline_predictions(stack):
    """Per-image (batch_size=1) offline predictions of ``stack`` per fault rate."""
    model, test, softmax = stack
    predictions = {}
    for flip_prob in (0.0, 0.05):
        pipeline = ScViTEvalPipeline(
            model, softmax, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob, fault_seed=FAULT_SEED,
        )
        predictions[flip_prob] = pipeline.evaluate(test, batch_size=1).predictions
    return predictions


def replica_factory(stack, flip_prob=0.0):
    """The replica factory whose pipelines ``offline_predictions`` reproduces."""
    model, _, softmax = stack
    return ReplicaFactory(
        model, softmax, gelu_output_bsl=GELU_BSL, flip_prob=flip_prob, fault_seed=FAULT_SEED,
    )
