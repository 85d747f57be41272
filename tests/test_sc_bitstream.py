import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.bitstream import StochasticStream, ThermometerStream, expand_thermometer_bits


class TestStochasticStream:
    def test_encode_shape(self):
        stream = StochasticStream.encode(np.zeros((3, 4)) + 0.5, length=64, seed=0)
        assert stream.bits.shape == (3, 4, 64)
        assert stream.length == 64
        assert stream.value_shape == (3, 4)

    def test_decode_converges_with_length(self):
        values = np.array([0.1, 0.5, 0.9])
        short = StochasticStream.encode(values, 16, seed=0)
        long = StochasticStream.encode(values, 4096, seed=0)
        assert np.mean(np.abs(long.decode() - values)) < np.mean(np.abs(short.decode() - values)) + 0.05
        assert np.max(np.abs(long.decode() - values)) < 0.05

    def test_bipolar_decode_range(self):
        stream = StochasticStream.encode(np.array([-0.8, 0.0, 0.8]), 2048, encoding="bipolar", seed=1)
        decoded = stream.decode()
        assert decoded[0] < decoded[1] < decoded[2]
        assert np.all(np.abs(decoded) <= 1.0)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            StochasticStream(bits=np.array([[0, 2]]))

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ValueError):
            StochasticStream(bits=np.zeros((1, 4)), encoding="ternary")

    def test_ones_count(self):
        stream = StochasticStream(bits=np.array([[1, 1, 0, 0], [1, 0, 0, 0]]))
        assert np.array_equal(stream.ones_count(), [2, 1])

    def test_unipolar_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            StochasticStream.encode(np.array([1.5]), 8)


class TestThermometerStream:
    def test_encode_decode_roundtrip_on_grid(self):
        values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        stream = ThermometerStream.encode(values, length=8, scale=0.25)
        assert np.allclose(stream.decode(), values)

    def test_signed_levels(self):
        stream = ThermometerStream.encode(np.array([-1.0, 0.0, 1.0]), length=2, scale=1.0)
        assert np.array_equal(stream.signed_levels(), [-1, 0, 1])

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            ThermometerStream(counts=np.array([9]), length=8, scale=1.0)
        with pytest.raises(ValueError):
            ThermometerStream(counts=np.array([-1]), length=8, scale=1.0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ThermometerStream(counts=np.array([1]), length=8, scale=-1.0)

    def test_from_quantized(self):
        stream = ThermometerStream.from_quantized(np.array([-2, 0, 2]), length=4, scale=0.5)
        assert np.allclose(stream.decode(), [-1.0, 0.0, 1.0])

    def test_resolution(self):
        stream = ThermometerStream.encode(np.zeros(1), length=16, scale=0.5)
        assert stream.resolution == pytest.approx(0.5)

    def test_copy_is_independent(self):
        stream = ThermometerStream.encode(np.zeros(3), length=4, scale=1.0)
        clone = stream.copy()
        clone.counts[0] = 4
        assert stream.counts[0] != 4

    def test_compatible_with(self):
        a = ThermometerStream.encode(np.zeros(1), 4, 0.5)
        b = ThermometerStream.encode(np.zeros(1), 8, 0.5)
        c = ThermometerStream.encode(np.zeros(1), 4, 0.25)
        assert a.compatible_with(b)
        assert not a.compatible_with(c)

    @given(st.integers(0, 16))
    @settings(max_examples=30, deadline=None)
    def test_expand_bits_is_valid_thermometer(self, count):
        stream = ThermometerStream(counts=np.array([count]), length=16, scale=1.0)
        bits = expand_thermometer_bits(stream)[0]
        assert bits.sum() == count
        # all ones are at the beginning
        assert np.all(np.diff(bits) <= 0)
