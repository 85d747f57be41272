"""Content digests (:mod:`repro.utils.digests`) and their compatibility export."""

from dataclasses import replace

import numpy as np

from repro.utils.digests import array_digest, canonical_json, weights_digest


def test_canonical_json_sorts_and_roundtrips_floats():
    a = canonical_json({"b": 0.1 + 0.2, "a": 1})
    b = canonical_json({"a": 1, "b": 0.30000000000000004})
    assert a == b


def test_canonical_json_plain_converts_numpy_values():
    assert canonical_json({"a": np.arange(2), "b": np.float64(0.5), "c": np.int64(3), "d": np.bool_(True)}) == (
        '{"a":[0,1],"b":0.5,"c":3,"d":true}'
    )


def test_weights_digest_reads_every_tensor_in_key_order():
    from repro.nn.vit import CompactVisionTransformer, ViTConfig

    config = ViTConfig(image_size=8, patch_size=4, num_classes=4, embed_dim=8, num_layers=1, num_heads=2, seed=1)
    model = CompactVisionTransformer(config)
    state = model.state_dict()
    assert weights_digest(model) == array_digest(*(state[key] for key in sorted(state)))
    assert weights_digest(model) == weights_digest(CompactVisionTransformer(config))
    assert weights_digest(model) != weights_digest(CompactVisionTransformer(replace(config, seed=2)))


def test_array_digest_sensitive_to_content():
    x = np.arange(8.0)
    y = x.copy()
    y[3] += 1e-12
    assert array_digest(x) == array_digest(x.copy())
    assert array_digest(x) != array_digest(y)


def test_runner_reexports_array_digest():
    """The benchmark harness imports ``array_digest`` from ``repro.runner``."""
    import repro.runner

    assert repro.runner.array_digest is array_digest
    assert repro.runner.__all__ == ["array_digest"]
