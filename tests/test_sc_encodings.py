import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.encodings import (
    bipolar_decode,
    bipolar_encode,
    count_from_thermometer_bits,
    thermometer_bits_from_count,
    thermometer_decode_counts,
    thermometer_encode_counts,
    unipolar_decode,
    unipolar_encode,
)
from repro.utils.numeric import round_half_away_from_zero


def reference_encode_counts(values, length, scale):
    """Round half away from zero on the count axis, then saturate."""
    counts = round_half_away_from_zero(np.asarray(values, dtype=float) / scale + length / 2.0)
    return np.clip(counts, 0, length).astype(np.int64)


class TestUnipolarBipolar:
    def test_unipolar_roundtrip(self):
        values = np.linspace(0, 1, 11)
        assert np.allclose(unipolar_decode(unipolar_encode(values)), values)

    def test_unipolar_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unipolar_encode([1.2])

    def test_bipolar_roundtrip(self):
        values = np.linspace(-1, 1, 11)
        assert np.allclose(bipolar_decode(bipolar_encode(values)), values)

    def test_bipolar_mapping(self):
        assert bipolar_encode(np.array([-1.0, 0.0, 1.0])) == pytest.approx([0.0, 0.5, 1.0])

    def test_bipolar_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bipolar_encode([-1.5])


class TestThermometerCounts:
    def test_roundtrip_on_grid(self):
        length, scale = 16, 0.5
        values = scale * (np.arange(length + 1) - length / 2)
        counts = thermometer_encode_counts(values, length, scale)
        decoded = thermometer_decode_counts(counts, length, scale)
        assert np.allclose(decoded, values)

    def test_saturation(self):
        counts = thermometer_encode_counts(np.array([100.0, -100.0]), 8, 0.5)
        assert counts[0] == 8 and counts[1] == 0

    def test_quantisation_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-2, 2, 100)
        counts = thermometer_encode_counts(values, 16, 0.25)
        decoded = thermometer_decode_counts(counts, 16, 0.25)
        assert np.max(np.abs(decoded - values)) <= 0.25 / 2 + 1e-12

    def test_decode_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            thermometer_decode_counts(np.array([9]), 8, 1.0)

    @given(
        value=st.floats(-4, 4, allow_nan=False),
        length=st.sampled_from([2, 4, 8, 16, 64]),
        scale=st.floats(0.01, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip_error_bounded_by_half_scale(self, value, length, scale):
        counts = thermometer_encode_counts(np.array([value]), length, scale)
        decoded = thermometer_decode_counts(counts, length, scale)
        max_abs = scale * length / 2
        if abs(value) <= max_abs:
            assert abs(decoded[0] - value) <= scale / 2 + 1e-9
        else:
            # saturation: decoded value sits at the representable extreme
            assert abs(decoded[0]) == pytest.approx(max_abs)


class TestThermometerEncodeMatchesHalfAwayRounding:
    """``floor(v + 0.5)`` + clip equals round-half-away + clip for every float."""

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 255, 256])
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.03125, 0.3, 1.7])
    def test_ties_neighbours_and_extremes(self, length, scale):
        # Count-axis ties k +- 0.5 across and beyond [0, L], and points a
        # fraction of an ulp of v away from them (where adding L/2 and 0.5
        # in one step would round differently), mapped back to values, with
        # their nextafter neighbours on both sides.
        ties = np.arange(-3, length + 4) + 0.5
        ties = np.concatenate([ties, ties - 1.0])
        offsets = np.concatenate([[0.0], np.ldexp(1.0, -np.arange(50, 57)), -np.ldexp(1.0, -np.arange(50, 57))])
        values = ((ties - length / 2.0)[:, None] + offsets).ravel() * scale
        values = np.concatenate(
            [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
        )
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324])
        values = np.concatenate([values, specials])
        got = thermometer_encode_counts(values, length, scale)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_encode_counts(values, length, scale))

    def test_exact_ties_round_up_on_the_count_axis(self):
        # v = 0.5, 1.5, 2.5 sit exactly on ties at scale 1, L = 4 (v = x + 2).
        counts = thermometer_encode_counts(np.array([-1.5, -0.5, 0.5, -2.5]), 4, 1.0)
        assert counts.tolist() == [1, 2, 3, 0]

    def test_nan_behaves_as_before(self):
        values = np.array([np.nan, -np.nan, 1.0])
        with np.errstate(invalid="ignore"):
            got = thermometer_encode_counts(values, 5, 0.5)
            expected = reference_encode_counts(values, 5, 0.5)
        assert np.array_equal(got, expected)

    def test_scalar_input(self):
        assert thermometer_encode_counts(0.3, 4, 1.0) == reference_encode_counts(0.3, 4, 1.0)

    @given(
        values=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=32),
        length=st.integers(1, 300),
        scale=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference(self, values, length, scale):
        values = np.array(values)
        with np.errstate(over="ignore"):  # huge values / small scale -> inf, which saturates
            got = thermometer_encode_counts(values, length, scale)
            expected = reference_encode_counts(values, length, scale)
        assert np.array_equal(got, expected)


def single_expression_encode_counts(values, length, scale):
    """The encoder's previous single-expression form, kept verbatim as the
    oracle of the one-buffer implementation."""
    arr = np.asarray(values, dtype=float)
    return np.clip(np.floor(arr / scale + length / 2.0 + 0.5), 0, length).astype(np.int64)


class TestOneBufferEncoder:
    @pytest.mark.parametrize(
        "values",
        [
            np.linspace(-9.0, 9.0, 1001),
            np.linspace(-9.0, 9.0, 96).reshape(2, 3, 16),
            np.array([-2.5, -0.5, 0.5, 2.5, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]),
            np.zeros((3, 0)),
            [0.26, -1.74, 3.0],
        ],
    )
    def test_equals_the_single_expression(self, values):
        got = thermometer_encode_counts(values, 8, 0.5)
        expected = single_expression_encode_counts(values, 8, 0.5)
        assert type(got) is type(expected)
        assert got.dtype == expected.dtype == np.int64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("value", [0.3, -0.25, 7, np.float64(1.25), np.array(0.75), np.array(-np.inf)])
    def test_scalar_and_zero_d_keep_their_return_type(self, value):
        got = thermometer_encode_counts(value, 4, 0.5)
        expected = single_expression_encode_counts(value, 4, 0.5)
        assert type(got) is type(expected) is np.int64
        assert got == expected

    def test_input_is_not_mutated(self):
        values = np.linspace(-3.0, 3.0, 13)
        original = values.copy()
        thermometer_encode_counts(values, 16, 0.25)
        assert np.array_equal(values, original)


class TestThermometerBits:
    def test_bits_from_count(self):
        assert np.array_equal(thermometer_bits_from_count(3, 6), [1, 1, 1, 0, 0, 0])

    def test_count_from_bits_roundtrip(self):
        for count in range(9):
            bits = thermometer_bits_from_count(count, 8)
            assert count_from_thermometer_bits(bits) == count

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_from_thermometer_bits(np.array([1, 0, 1, 0]))

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            thermometer_bits_from_count(9, 8)
