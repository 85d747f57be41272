import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.bitstream import ThermometerStream
from repro.sc.rescaling import RescalingBlock, align_scales, rescale, subsampled_count


class TestSubsampledCount:
    def test_zero_count_stays_zero(self):
        assert subsampled_count(np.array([0]), 16, 4)[0] == 0

    def test_full_count_maps_to_full(self):
        assert subsampled_count(np.array([16]), 16, 4)[0] == 4

    def test_monotone_in_count(self):
        counts = np.arange(0, 33)
        out = subsampled_count(counts, 32, 4)
        assert np.all(np.diff(out) >= 0)

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            subsampled_count(np.array([1]), 8, 4, phase=4)


class TestRescale:
    def test_rate_one_is_copy(self):
        stream = ThermometerStream.encode(np.array([0.5]), 8, 0.25)
        out = rescale(stream, 1)
        assert out is not stream
        assert np.array_equal(out.counts, stream.counts)

    def test_length_and_scale_change(self):
        stream = ThermometerStream.encode(np.array([0.5]), 16, 0.25)
        out = rescale(stream, 4)
        assert out.length == 4
        assert out.scale == pytest.approx(1.0)

    def test_value_approximately_preserved(self):
        values = np.linspace(-1.5, 1.5, 13)
        stream = ThermometerStream.encode(values, 64, 0.0625)
        out = rescale(stream, 8)
        # error bounded by half the coarse step
        assert np.max(np.abs(out.decode() - stream.decode())) <= 0.0625 * 8 / 2 + 1e-9

    def test_non_divisible_rate_rejected(self):
        stream = ThermometerStream.encode(np.array([0.0]), 10, 0.1)
        with pytest.raises(ValueError):
            rescale(stream, 3)

    @given(
        count=st.integers(0, 64),
        rate=st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_subsampled_value_error_bounded(self, count, rate):
        stream = ThermometerStream(counts=np.array([count]), length=64, scale=0.1)
        out = rescale(stream, rate)
        assert abs(out.decode()[0] - stream.decode()[0]) <= 0.1 * rate / 2 + 1e-9


class TestAlignScales:
    def test_already_aligned(self):
        a = ThermometerStream.encode(np.array([0.5]), 8, 0.25)
        b = ThermometerStream.encode(np.array([0.25]), 16, 0.25)
        a2, b2 = align_scales(a, b)
        assert a2.scale == b2.scale == pytest.approx(0.25)

    def test_finer_operand_is_rescaled(self):
        fine = ThermometerStream.encode(np.array([0.5]), 16, 0.125)
        coarse = ThermometerStream.encode(np.array([0.5]), 8, 0.5)
        a2, b2 = align_scales(fine, coarse)
        assert a2.scale == pytest.approx(0.5)
        assert b2 is coarse

    def test_non_integer_ratio_rejected(self):
        a = ThermometerStream.encode(np.array([0.0]), 8, 0.3)
        b = ThermometerStream.encode(np.array([0.0]), 8, 0.2)
        with pytest.raises(ValueError):
            align_scales(a, b)


class TestRescalingBlock:
    def test_block_applies_rate(self):
        block = RescalingBlock(input_length=32, rate=4)
        stream = ThermometerStream.encode(np.array([0.5]), 32, 0.1)
        out = block(stream)
        assert out.length == 8

    def test_block_rejects_wrong_input_length(self):
        block = RescalingBlock(input_length=32, rate=4)
        with pytest.raises(ValueError):
            block(ThermometerStream.encode(np.array([0.0]), 16, 0.1))

    def test_block_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            RescalingBlock(input_length=10, rate=3)

    def test_hardware_has_one_buffer_per_output_bit(self):
        block = RescalingBlock(input_length=64, rate=8)
        assert block.build_hardware().total_inventory().count("BUF") == 8
