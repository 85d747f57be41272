import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.arithmetic import (
    bipolar_multiply,
    bsn_add,
    mux_scaled_add,
    thermometer_add,
    thermometer_multiplier_hardware,
    thermometer_multiply,
    unipolar_multiply,
)
from repro.sc.bitstream import StochasticStream, ThermometerStream


def thermo(values, length, scale):
    return ThermometerStream.encode(np.asarray(values, dtype=float), length, scale)


class TestStochasticArithmetic:
    def test_unipolar_multiply_probability(self):
        a = StochasticStream.encode(np.array([0.6]), 8192, seed=0)
        b = StochasticStream.encode(np.array([0.5]), 8192, seed=1)
        assert unipolar_multiply(a, b).decode()[0] == pytest.approx(0.3, abs=0.03)

    def test_unipolar_multiply_requires_unipolar(self):
        a = StochasticStream.encode(np.array([0.0]), 16, encoding="bipolar", seed=0)
        with pytest.raises(ValueError):
            unipolar_multiply(a, a)

    def test_bipolar_multiply_sign(self):
        a = StochasticStream.encode(np.array([-0.8]), 8192, encoding="bipolar", seed=0)
        b = StochasticStream.encode(np.array([0.7]), 8192, encoding="bipolar", seed=1)
        assert bipolar_multiply(a, b).decode()[0] == pytest.approx(-0.56, abs=0.06)

    def test_mux_add_halves_sum(self):
        a = StochasticStream.encode(np.array([0.8]), 8192, seed=0)
        b = StochasticStream.encode(np.array([0.4]), 8192, seed=1)
        assert mux_scaled_add(a, b, seed=2).decode()[0] == pytest.approx(0.6, abs=0.04)

    def test_length_mismatch_rejected(self):
        a = StochasticStream.encode(np.array([0.5]), 16, seed=0)
        b = StochasticStream.encode(np.array([0.5]), 32, seed=0)
        with pytest.raises(ValueError):
            unipolar_multiply(a, b)


class TestThermometerMultiply:
    def test_exact_product_on_grid(self):
        a = thermo([1.0, -0.5, 0.0], 4, 0.5)
        b = thermo([0.5, 0.5, 1.0], 4, 0.5)
        product = thermometer_multiply(a, b)
        assert np.allclose(product.decode(), a.decode() * b.decode())

    def test_output_format(self):
        a = thermo([0.0], 4, 0.5)
        b = thermo([0.0], 8, 0.25)
        product = thermometer_multiply(a, b)
        assert product.length == 16
        assert product.scale == pytest.approx(0.125)

    @given(
        av=st.integers(-2, 2),
        bv=st.integers(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_product_of_levels_exact(self, av, bv):
        a = ThermometerStream.from_quantized(np.array([av]), 4, 0.5)
        b = ThermometerStream.from_quantized(np.array([bv]), 8, 0.25)
        product = thermometer_multiply(a, b)
        assert product.decode()[0] == pytest.approx(a.decode()[0] * b.decode()[0])


class TestThermometerAdd:
    def test_exact_sum(self):
        a = thermo([1.0, -1.0], 8, 0.25)
        b = thermo([0.5, 0.5], 8, 0.25)
        result = thermometer_add(a, b)
        assert np.allclose(result.decode(), [1.5, -0.5])
        assert result.length == 16

    def test_requires_matching_scale(self):
        a = thermo([0.0], 8, 0.25)
        b = thermo([0.0], 8, 0.5)
        with pytest.raises(ValueError):
            thermometer_add(a, b)

    def test_bsn_add_many(self):
        streams = [thermo([0.25 * i], 8, 0.25) for i in range(5)]
        total = bsn_add(streams)
        assert total.decode()[0] == pytest.approx(sum(0.25 * i for i in range(5)))
        assert total.length == 40

    def test_bsn_add_empty_rejected(self):
        with pytest.raises(ValueError):
            bsn_add([])

    @given(st.lists(st.floats(-1, 1), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_property_sum_error_bounded_by_quantisation(self, values):
        streams = [thermo([v], 16, 0.125) for v in values]
        total = bsn_add(streams)
        # each operand contributes at most half a step of quantisation error
        assert abs(total.decode()[0] - sum(values)) <= len(values) * 0.125 / 2 + 1e-9


class TestHardwareBuilders:
    def test_multiplier_area_scales_with_operand_lengths(self):
        small = thermometer_multiplier_hardware(2, 2).area_um2()
        large = thermometer_multiplier_hardware(8, 8).area_um2()
        assert large > 4 * small
