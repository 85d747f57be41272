import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gelu_si import GateAssistedSIBlock, GeluSIBlock, TernaryGeluBlock, calibrate_output_scale
from repro.nn.functional_math import gelu_exact
from repro.sc.bitstream import ThermometerStream
from repro.sc.selective_interconnect import NaiveSelectiveInterconnect


class TestGateAssistedSIBlock:
    def make_block(self, out_len=8):
        return GateAssistedSIBlock(gelu_exact, input_length=128, input_scale=8.0 / 128, output_length=out_len, output_scale=0.25)

    def test_non_monotonic_table_allowed(self):
        """The defining difference from naive SI: the table can dip below zero."""
        block = self.make_block()
        assert not block.is_monotonic()
        assert block.table.min() < block.output_length // 2  # goes below the zero level

    def test_negative_dip_reproduced(self):
        block = GateAssistedSIBlock(gelu_exact, 256, 8.0 / 256, 16, 0.05)
        x = np.array([-0.8, -0.6])
        out = block.evaluate(x)
        assert np.all(out < 0)

    def test_deterministic_output(self):
        block = self.make_block()
        x = np.full(32, 0.73)
        out = block.evaluate(x)
        assert np.all(out == out[0])

    def test_more_accurate_than_naive_si_on_gelu(self, gelu_samples):
        """Fig. 2(c) vs (d): assist gates remove the negative-range error."""
        naive = NaiveSelectiveInterconnect(gelu_exact, 256, 8.0 / 256, 8, 0.12)
        assisted = GateAssistedSIBlock(gelu_exact, 256, 8.0 / 256, 8, 0.12)
        reference = gelu_exact(gelu_samples)
        mae_naive = np.mean(np.abs(naive.evaluate(gelu_samples) - reference))
        mae_assisted = np.mean(np.abs(assisted.evaluate(gelu_samples) - reference))
        assert mae_assisted <= mae_naive

    def test_quantized_function_matches_process(self):
        """The value-table gather has the bits of encode -> process -> decode
        at every input count, on and beside the +-0.5 ties, and at +-inf."""
        for out_len in (2, 8, 16):
            block = self.make_block(out_len)
            counts = np.arange(block.input_length + 1)
            on_grid = block.input_scale * (counts - block.input_length / 2.0)
            ties = on_grid + 0.5 * block.input_scale
            values = np.concatenate(
                [on_grid, ties, -ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                 [np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]]
            )
            for x in (values, values[:-1].reshape(5, -1), values[7], np.array(values[9])):
                stream = ThermometerStream.encode(x, block.input_length, block.input_scale)
                expected = block.process(stream).decode()
                got = block.quantized_function(x)
                assert type(got) is type(expected)
                assert np.array_equal(got, expected)

    def test_value_table_is_read_only(self):
        block = self.make_block()
        assert not block.value_table.flags.writeable
        with pytest.raises(ValueError):
            block.value_table[0] = 1.0
        assert block.value_table.shape == (block.input_length + 1,)

    def test_output_bit_transitions_counts(self):
        block = self.make_block(out_len=2)
        transitions = block.output_bit_transitions()
        assert transitions.shape == (2,)
        assert transitions.sum() >= 2

    def test_wrong_input_length_rejected(self):
        block = self.make_block()
        with pytest.raises(ValueError):
            block.process(ThermometerStream.encode(np.zeros(3), 64, 0.125))

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            GateAssistedSIBlock(gelu_exact, 8, -1.0, 2, 1.0)

    @given(st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_property_error_bounded_by_grid(self, value):
        block = GateAssistedSIBlock(gelu_exact, 512, 8.0 / 512, 16, 0.25)
        out = block.evaluate(np.array([value]))[0]
        reference = gelu_exact(np.array([value]))[0]
        # error bounded by half an input step (through the Lipschitz-1 GELU)
        # plus half an output step, plus output saturation which cannot occur
        # here because 16 * 0.25 / 2 = 2 < max |GELU| on the clipped input.
        if abs(reference) <= block.output_length * block.output_scale / 2:
            assert abs(out - reference) <= block.input_scale / 2 + block.output_scale / 2 + 1e-9


class TestTernaryGeluBlock:
    def test_matches_fig4_staircase(self):
        """Output levels sweep 0 -> -1 -> 0 -> +1 as the input grows (Fig. 4b)."""
        block = TernaryGeluBlock()
        sweep = np.linspace(-3, 3, 9)
        levels = block.process(
            ThermometerStream.encode(sweep, block.input_length, block.input_scale)
        ).signed_levels()
        assert set(np.unique(levels)).issubset({-1, 0, 1})
        assert levels[0] == 0  # far negative saturates back to zero, like GELU
        assert levels.min() == -1  # the non-monotonic dip is present
        assert levels[-1] == 1

    def test_selection_signals_monotone_in_input(self):
        block = TernaryGeluBlock()
        stream = ThermometerStream.encode(np.linspace(-3, 3, 9), block.input_length, block.input_scale)
        signals = block.selection_signals(stream)
        assert signals.shape == (9, 3)
        # each selection signal, once asserted, stays asserted as the input grows
        assert np.all(np.diff(signals, axis=0) >= 0)

    def test_output_formats(self):
        block = TernaryGeluBlock()
        assert block.input_length == 8
        assert block.output_length == 2


class TestGeluSIBlock:
    def test_default_input_expansion(self):
        block = GeluSIBlock(output_length=4)
        assert block.input_length == 4 * GeluSIBlock.INPUT_EXPANSION

    def test_mae_decreases_with_output_bsl(self, gelu_samples):
        maes = []
        for bsl in (2, 4, 8):
            block = GeluSIBlock(output_length=bsl, calibration_samples=gelu_samples)
            maes.append(np.mean(np.abs(block.evaluate(gelu_samples) - gelu_exact(gelu_samples))))
        assert maes[0] > maes[1] > maes[2]

    def test_calibration_improves_over_naive_scale(self, gelu_samples):
        calibrated = GeluSIBlock(output_length=8, calibration_samples=gelu_samples)
        naive = GeluSIBlock(output_length=8, output_scale=1.0)
        reference = gelu_exact(gelu_samples)
        mae_cal = np.mean(np.abs(calibrated.evaluate(gelu_samples) - reference))
        mae_naive = np.mean(np.abs(naive.evaluate(gelu_samples) - reference))
        assert mae_cal <= mae_naive

    def test_hardware_area_grows_with_output_bsl(self):
        small = GeluSIBlock(output_length=2).build_hardware().area_um2()
        large = GeluSIBlock(output_length=8).build_hardware().area_um2()
        assert large > 2 * small

    def test_hardware_reports_pipelined_initiation_interval(self):
        from repro.hw.synthesis import synthesize

        report = synthesize(GeluSIBlock(output_length=8).build_hardware())
        assert report.delay_ns < 1.0  # one pipeline stage, not the whole sorter depth
        assert report.cycles == 1


class TestCalibrateOutputScale:
    def test_returns_positive_scale(self, gelu_samples):
        scale = calibrate_output_scale(gelu_exact, gelu_samples, 8, 256, 8.0 / 256)
        assert scale > 0

    def test_candidate_override(self, gelu_samples):
        scale = calibrate_output_scale(gelu_exact, gelu_samples, 8, 256, 8.0 / 256, candidate_scales=[0.125, 0.5])
        assert scale in (0.125, 0.5)
