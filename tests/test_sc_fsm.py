import numpy as np
import pytest

from repro.nn.functional_math import gelu_exact
from repro.sc.bitstream import StochasticStream
from repro.sc.fsm import FsmGeluUnit, FsmNonlinearUnit, FsmReluUnit, FsmTanhUnit


class TestFsmNonlinearUnit:
    def test_requires_bipolar_stream(self):
        unit = FsmTanhUnit(num_states=8)
        stream = StochasticStream.encode(np.array([0.5]), 32, encoding="unipolar", seed=0)
        with pytest.raises(ValueError):
            unit.process(stream)

    def test_too_few_states_rejected(self):
        with pytest.raises(ValueError):
            FsmNonlinearUnit(num_states=1, output_rule=lambda s, b, c: b)

    def test_output_is_valid_stream(self):
        unit = FsmTanhUnit(num_states=8)
        stream = StochasticStream.encode(np.array([0.3, -0.3]), 128, encoding="bipolar", seed=0)
        out = unit.process(stream)
        assert out.encoding == "bipolar"
        assert out.bits.shape == stream.bits.shape


class TestFsmTanh:
    def test_approximates_tanh_with_long_stream(self):
        unit = FsmTanhUnit(num_states=8, bitstream_length=4096, seed=0)
        values = np.array([-0.6, -0.2, 0.0, 0.2, 0.6])
        out = unit.evaluate(values)
        reference = unit.reference(values)
        assert np.mean(np.abs(out - reference)) < 0.15

    def test_monotone_on_average(self):
        unit = FsmTanhUnit(num_states=8, bitstream_length=8192, seed=1)
        values = np.linspace(-0.8, 0.8, 9)
        out = unit.evaluate(values)
        assert np.corrcoef(out, values)[0, 1] > 0.95

    def test_error_shrinks_with_bitstream_length(self):
        values = np.linspace(-0.5, 0.5, 21)
        reference = FsmTanhUnit(num_states=8).reference(values)
        short = np.mean(np.abs(FsmTanhUnit(num_states=8, bitstream_length=32, seed=2).evaluate(values) - reference))
        long = np.mean(np.abs(FsmTanhUnit(num_states=8, bitstream_length=4096, seed=2).evaluate(values) - reference))
        assert long < short


class TestFsmRelu:
    def test_positive_region_follows_input(self):
        unit = FsmReluUnit(bitstream_length=8192, seed=0)
        values = np.array([0.3, 0.6])
        out = unit.evaluate(values)
        assert np.allclose(out, values, atol=0.12)

    def test_negative_region_saturates_near_zero(self):
        unit = FsmReluUnit(bitstream_length=8192, seed=0)
        out = unit.evaluate(np.array([-0.6, -0.3]))
        assert np.all(np.abs(out) < 0.15)


class TestFsmGelu:
    def test_systematic_error_in_negative_range(self):
        """Fig. 2(a): the FSM design cannot reproduce GELU's negative dip."""
        unit = FsmGeluUnit(bitstream_length=8192, seed=0, input_scale=4.0)
        x = np.array([-1.0, -0.5])
        out = unit.evaluate(x)
        reference = gelu_exact(x)
        # The dip is negative, the FSM output is pinned around zero.
        assert np.all(reference < -0.1)
        assert np.all(out > reference + 0.05)

    def test_random_fluctuation_decreases_with_bsl(self):
        x = np.full(64, 0.5)
        short = FsmGeluUnit(bitstream_length=64, seed=3, input_scale=4.0).evaluate(x)
        long = FsmGeluUnit(bitstream_length=2048, seed=3, input_scale=4.0).evaluate(x)
        assert np.std(long) < np.std(short)


class TestFsmHardware:
    def test_cycles_equal_bitstream_length(self):
        module = FsmTanhUnit(num_states=16, bitstream_length=256).build_hardware()
        assert module.cycles == 256

    def test_counter_bits_scale_with_states(self):
        small = FsmTanhUnit(num_states=8, bitstream_length=64).build_hardware().total_inventory().count("COUNTER_BIT")
        large = FsmTanhUnit(num_states=64, bitstream_length=64).build_hardware().total_inventory().count("COUNTER_BIT")
        assert large > small

    def test_area_independent_of_bsl(self):
        short = FsmTanhUnit(num_states=16, bitstream_length=128).build_hardware()
        long = FsmTanhUnit(num_states=16, bitstream_length=1024).build_hardware()
        assert short.area_um2() == pytest.approx(long.area_um2())
