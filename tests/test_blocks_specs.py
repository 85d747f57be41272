"""Hypothesis round-trip property tests for the block-spec layer.

For every registered family the contract is the same:

* ``spec -> to_dict -> spec_from_dict`` and ``spec -> to_json ->
  spec_from_json`` reproduce the spec exactly (floats survive via ``repr``);
* ``spec -> build -> to_spec -> from_spec`` reproduces the *block*: the
  resolved spec is a fixed point, and the rebuilt block evaluates
  bit-identically to the original on shared vectors.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.blocks as blocks
from repro.blocks.specs import (
    BernsteinGeluSpec,
    FsmGeluSpec,
    FsmReluSpec,
    FsmSoftmaxSpec,
    FsmTanhSpec,
    GeluSISpec,
    NaiveSIGeluSpec,
    SoftmaxCircuitConfig,
    TernaryGeluSpec,
    spec_families,
    spec_from_dict,
    spec_from_json,
)

SETTINGS = settings(max_examples=25, deadline=None)

#: Positive scale values; bounded so the circuit tables stay small.
scales = st.floats(min_value=0.01, max_value=8.0, allow_nan=False, allow_infinity=False)


def roundtrip_spec(spec):
    """Assert the exact dict/JSON round-trip of a spec."""
    assert spec_from_dict(spec.to_dict()) == spec
    assert spec_from_json(spec.to_json()) == spec
    # The JSON itself is canonical data: parse -> dump -> parse is stable.
    payload = json.loads(spec.to_json())
    assert spec_from_dict(json.loads(json.dumps(payload))) == spec


def roundtrip_block(spec, sample_values=None):
    """Assert spec -> block -> to_spec -> from_spec reproduces the block."""
    block = blocks.build(spec.family, spec=spec)
    resolved = block.to_spec()
    roundtrip_spec(resolved)
    rebuilt = blocks.get(spec.family).load().from_spec(resolved)
    assert rebuilt.to_spec() == resolved  # the resolved spec is a fixed point
    if sample_values is not None:
        np.testing.assert_array_equal(block.evaluate(sample_values), rebuilt.evaluate(sample_values))
    return block


class TestIterativeSoftmaxSpec:
    @SETTINGS
    @given(
        m=st.integers(2, 16),
        iterations=st.integers(1, 3),
        bx=st.sampled_from([2, 4]),
        by=st.sampled_from([2, 4, 8]),
        s1=st.integers(1, 8),
        s2=st.integers(1, 8),
        alpha_x=scales,
        alpha_y=scales,
    )
    def test_roundtrip(self, m, iterations, bx, by, s1, s2, alpha_x, alpha_y):
        spec = SoftmaxCircuitConfig(
            m=m, iterations=iterations, bx=bx, alpha_x=alpha_x, by=by,
            alpha_y=alpha_y, s1=s1, s2=s2,
        )
        roundtrip_spec(spec)
        assume(spec.is_feasible())
        rng = np.random.default_rng(m * 31 + s1)
        roundtrip_block(spec, rng.normal(size=(3, m)))


class TestFsmSoftmaxSpec:
    @SETTINGS
    @given(
        m=st.integers(2, 8),
        bitstream_length=st.sampled_from([16, 64]),
        num_states=st.sampled_from([8, 32]),
        seed=st.integers(0, 7),
        bit_level=st.booleans(),
    )
    def test_roundtrip(self, m, bitstream_length, num_states, seed, bit_level):
        spec = FsmSoftmaxSpec(
            m=m, bitstream_length=bitstream_length, num_states=num_states,
            seed=seed, bit_level=bit_level,
        )
        rng = np.random.default_rng(seed)
        roundtrip_block(spec, rng.normal(size=(2, m)))


class TestSIGeluSpecs:
    @SETTINGS
    @given(
        output_length=st.integers(1, 6),
        input_length=st.one_of(st.none(), st.integers(4, 64)),
        input_scale=st.one_of(st.none(), scales),
        output_scale=st.one_of(st.none(), scales),
        input_range=st.floats(0.5, 4.0),
    )
    def test_gelu_si_roundtrip(self, output_length, input_length, input_scale, output_scale, input_range):
        spec = GeluSISpec(
            output_length=output_length, input_length=input_length,
            input_scale=input_scale, output_scale=output_scale, input_range=input_range,
        )
        roundtrip_spec(spec)
        block = roundtrip_block(spec, np.linspace(-3.0, 3.0, 17))
        resolved = block.to_spec()
        # Resolution fills every optional field with a concrete value.
        assert resolved.input_length is not None
        assert resolved.input_scale is not None
        assert resolved.output_scale is not None

    @SETTINGS
    @given(input_scale=scales, output_scale=scales)
    def test_ternary_roundtrip(self, input_scale, output_scale):
        spec = TernaryGeluSpec(input_scale=input_scale, output_scale=output_scale)
        roundtrip_block(spec, np.linspace(-3.0, 1.0, 9))

    @SETTINGS
    @given(
        output_length=st.integers(1, 8),
        input_length=st.one_of(st.none(), st.integers(4, 64)),
        input_scale=st.one_of(st.none(), scales),
        output_scale=st.one_of(st.none(), scales),
    )
    def test_naive_si_roundtrip(self, output_length, input_length, input_scale, output_scale):
        spec = NaiveSIGeluSpec(
            output_length=output_length, input_length=input_length,
            input_scale=input_scale, output_scale=output_scale,
        )
        roundtrip_spec(spec)
        block = roundtrip_block(spec, np.linspace(-2.0, 2.0, 11))
        resolved = block.to_spec()
        assert None not in (resolved.input_length, resolved.input_scale, resolved.output_scale)


class TestFsmUnitSpecs:
    @SETTINGS
    @given(
        spec_cls=st.sampled_from([FsmGeluSpec, FsmTanhSpec, FsmReluSpec]),
        num_states=st.integers(2, 32),
        bitstream_length=st.sampled_from([8, 64]),
        seed=st.integers(0, 7),
        input_scale=scales,
    )
    def test_roundtrip(self, spec_cls, num_states, bitstream_length, seed, input_scale):
        spec = spec_cls(
            num_states=num_states, bitstream_length=bitstream_length,
            seed=seed, input_scale=input_scale,
        )
        roundtrip_block(spec, np.linspace(-1.5, 1.5, 7))


class TestBernsteinSpec:
    @SETTINGS
    @given(
        num_terms=st.integers(2, 5),
        input_range=st.floats(0.5, 4.0),
        bitstream_length=st.sampled_from([16, 64]),
        seed=st.integers(0, 7),
    )
    def test_roundtrip(self, num_terms, input_range, bitstream_length, seed):
        spec = BernsteinGeluSpec(
            num_terms=num_terms, input_range=input_range,
            bitstream_length=bitstream_length, seed=seed,
        )
        roundtrip_block(spec, np.linspace(-2.0, 2.0, 9))


class TestSpecValidation:
    def test_every_family_has_a_buildable_default_spec(self):
        for name in blocks.names():
            block = blocks.build(name)
            resolved = block.to_spec()
            assert resolved.family == name
            roundtrip_spec(resolved)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown block family"):
            spec_from_dict({"family": "softmax/wat", "params": {}})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="not a block-spec payload"):
            spec_from_dict(["not", "a", "dict"])
        with pytest.raises(ValueError, match="gelu/fsm params must be a JSON object"):
            spec_from_dict({"family": "gelu/fsm", "params": [16, 256]})

    @pytest.mark.parametrize("family", sorted(spec_families()))
    def test_unknown_params_rejected(self, family):
        with pytest.raises(ValueError, match=f"unknown {family} params: backend"):
            spec_from_dict({"family": family, "params": {"backend": None}})

    def test_invalid_parameters_rejected_on_construction(self):
        with pytest.raises(ValueError):
            SoftmaxCircuitConfig(by=-4)
        with pytest.raises(ValueError):
            GeluSISpec(output_length=0)
        with pytest.raises(ValueError):
            FsmGeluSpec(num_states=1)
        with pytest.raises(ValueError):
            BernsteinGeluSpec(num_terms=1)
        with pytest.raises(ValueError):
            TernaryGeluSpec(input_scale=-1.0)
