"""Golden equivalence: the new block API is bit-identical to the old one.

Every family is evaluated on shared test vectors through both entry points
— the historical ad-hoc class API and ``repro.blocks.build`` — and the
outputs are compared with ``assert_array_equal`` (no tolerance): the
registry adapters delegate to the same implementations, so any drift is a
bug, not noise.
"""

import numpy as np
import pytest

import repro.blocks as blocks
from repro.blocks.registry import ScDesignCapability
from repro.blocks.specs import SoftmaxCircuitConfig
from repro.core.baselines import FsmSoftmaxBaseline, capability_matrix
from repro.core.gelu_si import GeluSIBlock, TernaryGeluBlock
from repro.core.softmax_circuit import IterativeSoftmaxCircuit
from repro.evaluation.vectors import attention_logit_vectors, gelu_input_vectors
from repro.nn.functional_math import gelu_exact
from repro.sc.bernstein import BernsteinPolynomialUnit
from repro.sc.bitstream import StochasticStream, ThermometerStream
from repro.sc.fsm import FsmGeluUnit, FsmReluUnit, FsmTanhUnit
from repro.sc.selective_interconnect import NaiveSelectiveInterconnect


@pytest.fixture(scope="module")
def logit_rows():
    return attention_logit_vectors(12, 64, seed=7)


@pytest.fixture(scope="module")
def gelu_samples():
    return gelu_input_vectors(512, seed=7)


class TestSoftmaxGolden:
    def test_iterative_circuit(self, logit_rows):
        config = SoftmaxCircuitConfig(m=64, iterations=3, bx=4, by=8, s1=32, s2=8)
        old = IterativeSoftmaxCircuit(config)
        new = blocks.build("softmax/iterative", spec=config)
        np.testing.assert_array_equal(old.forward(logit_rows), new.evaluate(logit_rows))
        assert old.mean_absolute_error(logit_rows) == new.mean_absolute_error(logit_rows)
        assert new.to_spec() == config

    def test_iterative_circuit_from_kwargs(self, logit_rows):
        old = IterativeSoftmaxCircuit(SoftmaxCircuitConfig(by=16))
        new = blocks.build("softmax/iterative", by=16)
        np.testing.assert_array_equal(old.forward(logit_rows), new.evaluate(logit_rows))

    def test_fsm_baseline(self, logit_rows):
        old = FsmSoftmaxBaseline(m=64, bitstream_length=256, seed=11)
        new = blocks.build("softmax/fsm", m=64, bitstream_length=256, seed=11)
        np.testing.assert_array_equal(old.forward(logit_rows), new.evaluate(logit_rows))

    def test_fsm_baseline_hardware(self):
        old = FsmSoftmaxBaseline(m=64, bitstream_length=256, seed=0).build_hardware()
        new = blocks.build("softmax/fsm", m=64, bitstream_length=256, seed=0).build_hardware()
        assert old.name == new.name
        assert old.cycles == new.cycles

    def test_stream_process_unsupported(self):
        block = blocks.build("softmax/iterative")
        with pytest.raises(blocks.StreamProcessingUnsupported):
            block.process(object())


class TestGeluGolden:
    def test_gate_assisted_si(self, gelu_samples):
        old = GeluSIBlock(output_length=4, calibration_samples=gelu_samples)
        new = blocks.build("gelu/si", output_length=4, calibration_samples=gelu_samples)
        np.testing.assert_array_equal(old.table, new.block.table)
        np.testing.assert_array_equal(old.evaluate(gelu_samples), new.evaluate(gelu_samples))
        # Resolution captured the calibrated scale: rebuilding from the spec
        # alone (no calibration samples) reproduces the block bit-for-bit.
        rebuilt = blocks.build("gelu/si", spec=new.to_spec())
        np.testing.assert_array_equal(old.table, rebuilt.block.table)

    def test_gate_assisted_si_process(self, gelu_samples):
        new = blocks.build("gelu/si", output_length=4, calibration_samples=gelu_samples)
        stream = ThermometerStream.encode(
            gelu_samples[:32], new.block.input_length, new.block.input_scale
        )
        old_out = new.block.process(stream)
        new_out = new.process(stream)
        np.testing.assert_array_equal(old_out.counts, new_out.counts)

    def test_ternary(self):
        sweep = np.linspace(-3.0, 1.0, 41)
        old = TernaryGeluBlock()
        new = blocks.build("gelu/si-ternary")
        np.testing.assert_array_equal(old.evaluate(sweep), new.evaluate(sweep))

    def test_naive_si_defaults_match_fig2_protocol(self):
        sweep = np.linspace(-3.0, 0.5, 141)
        for bsl in (4, 8):
            old = NaiveSelectiveInterconnect(
                gelu_exact,
                input_length=32 * bsl,
                input_scale=8.0 / (32 * bsl),
                output_length=bsl,
                output_scale=1.2 / bsl,
            )
            new = blocks.build("gelu/naive-si", output_length=bsl)
            np.testing.assert_array_equal(old.evaluate(sweep), new.evaluate(sweep))

    def test_fsm_gelu(self):
        sweep = np.linspace(-3.0, 0.5, 141)
        for bsl in (128, 1024):
            old = FsmGeluUnit().evaluate(sweep, bitstream_length=bsl, seed=0, input_scale=4.0)
            new = blocks.build("gelu/fsm", bitstream_length=bsl, seed=0, input_scale=4.0)
            np.testing.assert_array_equal(old, new.evaluate(sweep))

    def test_fsm_tanh_and_relu(self):
        sweep = np.linspace(-1.0, 1.0, 33)
        old_tanh = FsmTanhUnit(num_states=8).evaluate(sweep, 64, seed=5)
        new_tanh = blocks.build("tanh/fsm", num_states=8, bitstream_length=64, seed=5)
        np.testing.assert_array_equal(old_tanh, new_tanh.evaluate(sweep))

        old_relu = FsmReluUnit(num_states=16).evaluate(sweep, 64, seed=5)
        new_relu = blocks.build("relu/fsm", num_states=16, bitstream_length=64, seed=5)
        np.testing.assert_array_equal(old_relu, new_relu.evaluate(sweep))

    def test_fsm_process_delegates(self):
        stream = StochasticStream.encode(np.linspace(-0.5, 0.5, 5), 32, encoding="bipolar", seed=3)
        unit = FsmTanhUnit(num_states=8)
        block = blocks.build("tanh/fsm", num_states=8, bitstream_length=32)
        np.testing.assert_array_equal(unit.process(stream).bits, block.process(stream).bits)

    def test_bernstein(self, gelu_samples):
        old_unit = BernsteinPolynomialUnit(gelu_exact, num_terms=4, input_range=3.0)
        old = old_unit.evaluate(gelu_samples, 128, seed=4)
        new = blocks.build(
            "gelu/bernstein", num_terms=4, input_range=3.0, bitstream_length=128, seed=4
        )
        np.testing.assert_array_equal(old, new.evaluate(gelu_samples))
        np.testing.assert_array_equal(
            old_unit.polynomial(gelu_samples), new.polynomial(gelu_samples)
        )


class TestHardwareGolden:
    """The structural models are identical through either entry point."""

    @pytest.mark.parametrize(
        "name,old_module",
        [
            (
                "softmax/iterative",
                lambda: IterativeSoftmaxCircuit(SoftmaxCircuitConfig()).build_hardware(),
            ),
            ("gelu/si-ternary", lambda: TernaryGeluBlock().build_hardware()),
            (
                "gelu/bernstein",
                lambda: BernsteinPolynomialUnit(gelu_exact, 4, 3.0).build_hardware(1024),
            ),
        ],
    )
    def test_synthesis_identical(self, name, old_module):
        from repro.hw.synthesis import synthesize

        old_report = synthesize(old_module())
        new_report = synthesize(blocks.build(name).build_hardware())
        assert old_report.area_um2 == new_report.area_um2
        assert old_report.delay_ns == new_report.delay_ns
        assert old_report.adp == new_report.adp


class TestCapabilityMatrixGolden:
    #: The hand-maintained Table I rows this registry-generated matrix replaced.
    GOLDEN = [
        ScDesignCapability(
            design="Kim'16 / SC-DCNN / Li'17 [6]-[8]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("tanh", "sigmoid"),
            implementation_method="FSM",
        ),
        ScDesignCapability(
            design="HEIF [9]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("relu",),
            implementation_method="FSM",
        ),
        ScDesignCapability(
            design="Yuan'17 / Hu'18 [16], [17]",
            supported_model="CNN",
            encoding_format="stochastic",
            supported_functions=("softmax",),
            implementation_method="FSM, binary units",
        ),
        ScDesignCapability(
            design="Zhang'20 / Hu'23 [5], [15]",
            supported_model="CNN",
            encoding_format="deterministic",
            supported_functions=("relu", "sigmoid"),
            implementation_method="SI",
        ),
        ScDesignCapability(
            design="ASCEND (ours)",
            supported_model="ViT",
            encoding_format="deterministic",
            supported_functions=("gelu", "softmax"),
            implementation_method="Gate-Assisted SI, BSN",
        ),
    ]

    def test_registry_matrix_matches_the_historical_table(self):
        assert blocks.capability_matrix() == self.GOLDEN

    def test_core_shim_delegates(self):
        assert capability_matrix() == blocks.capability_matrix()
