import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autograd import Tensor
from repro.nn.quantization import (
    PROGRESSIVE_SCHEDULE,
    LsqQuantizer,
    PrecisionScheme,
    QuantizedLinear,
    ResidualQuantizer,
    apply_precision_scheme,
)


class TestPrecisionScheme:
    def test_describe_and_parse_roundtrip(self):
        scheme = PrecisionScheme(weight_bsl=2, activation_bsl=2, residual_bsl=16)
        assert scheme.describe() == "W2-A2-R16"
        assert PrecisionScheme.parse("W2-A2-R16") == scheme

    def test_full_precision(self):
        assert PrecisionScheme().is_full_precision
        assert PrecisionScheme().describe() == "FP"
        assert PrecisionScheme.parse("FP").is_full_precision

    def test_odd_bsl_rejected(self):
        with pytest.raises(ValueError):
            PrecisionScheme(weight_bsl=3)

    def test_parse_rejects_unknown_token(self):
        with pytest.raises(ValueError):
            PrecisionScheme.parse("X4-A2")

    def test_progressive_schedule_matches_fig6(self):
        described = [s.describe() for s in PROGRESSIVE_SCHEDULE]
        assert described == ["FP", "W16-A16-R16", "W16-A2-R16", "W2-A2-R16"]


class TestLsqQuantizer:
    def test_output_on_step_grid(self):
        quantizer = LsqQuantizer(bsl=2)
        quantizer.initialise_from(np.array([0.5]))
        x = Tensor(np.linspace(-2, 2, 41))
        out = quantizer(x).data
        step = float(quantizer.step.data)
        assert np.allclose(out / step, np.round(out / step), atol=1e-9)
        assert len(np.unique(out)) <= 3  # ternary

    def test_range_respects_bsl(self):
        quantizer = LsqQuantizer(bsl=16)
        quantizer.initialise_from(np.array([1.0]))
        out = quantizer(Tensor(np.array([100.0, -100.0]))).data
        step = float(quantizer.step.data)
        assert out[0] == pytest.approx(8 * step)
        assert out[1] == pytest.approx(-8 * step)

    def test_initialise_from_statistics(self):
        quantizer = LsqQuantizer(bsl=2)
        quantizer.initialise_from(np.full(100, 0.7))
        assert float(quantizer.step.data) == pytest.approx(2 * 0.7 / np.sqrt(1.0), rel=1e-6)

    def test_lazy_initialisation_on_first_forward(self):
        quantizer = LsqQuantizer(bsl=4)
        assert not quantizer.initialised
        quantizer(Tensor(np.random.default_rng(0).normal(size=16)))
        assert quantizer.initialised

    def test_straight_through_gradient_inside_range(self):
        quantizer = LsqQuantizer(bsl=4)
        quantizer.initialise_from(np.array([1.0]))
        x = Tensor(np.array([0.1, 10.0, -10.0]), requires_grad=True)
        quantizer(x).sum().backward()
        assert x.grad[0] == pytest.approx(1.0)
        assert x.grad[1] == 0.0 and x.grad[2] == 0.0

    def test_step_receives_gradient(self):
        quantizer = LsqQuantizer(bsl=2)
        quantizer.initialise_from(np.array([1.0]))
        x = Tensor(np.random.default_rng(1).normal(size=32), requires_grad=True)
        quantizer(x).sum().backward()
        assert quantizer.step.grad is not None
        assert quantizer.step.grad.shape == ()

    def test_odd_bsl_rejected(self):
        with pytest.raises(ValueError):
            LsqQuantizer(bsl=3)

    @given(st.sampled_from([2, 4, 8, 16]), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_property_quantisation_error_bounded(self, bsl, step):
        quantizer = LsqQuantizer(bsl=bsl)
        quantizer.step.data[...] = step
        quantizer._initialised = True
        x = np.linspace(-step * bsl / 2, step * bsl / 2, 23)
        out = quantizer(Tensor(x)).data
        assert np.max(np.abs(out - x)) <= step / 2 + 1e-9


class TestQuantizedLinear:
    def test_unconfigured_matches_plain_linear(self):
        layer = QuantizedLinear(6, 4, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)))
        expected = x.data @ layer.inner.weight.data.T + layer.inner.bias.data
        assert np.allclose(layer(x).data, expected)

    def test_configure_adds_and_removes_quantizers(self):
        layer = QuantizedLinear(6, 4)
        layer.configure(weight_bsl=2, activation_bsl=2)
        assert layer.weight_quantizer is not None and layer.input_quantizer is not None
        layer.configure(weight_bsl=None, activation_bsl=None)
        assert layer.weight_quantizer is None and layer.input_quantizer is None

    def test_quantized_weights_are_ternary(self):
        layer = QuantizedLinear(8, 8, seed=1)
        layer.configure(weight_bsl=2, activation_bsl=None)
        x = Tensor(np.eye(8))
        out = layer(x).data - layer.inner.bias.data
        step = float(layer.weight_quantizer.step.data)
        assert np.allclose(out / step, np.round(out / step), atol=1e-6)

    def test_gradients_flow_through_quantizers(self):
        layer = QuantizedLinear(6, 4, seed=2)
        layer.configure(weight_bsl=2, activation_bsl=2)
        layer(Tensor(np.random.default_rng(3).normal(size=(5, 6)))).sum().backward()
        assert layer.inner.weight.grad is not None
        assert layer.weight_quantizer.step.grad is not None


class TestResidualQuantizerAndScheme:
    def test_residual_quantizer_noop_until_configured(self):
        rq = ResidualQuantizer()
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        assert rq(x) is x
        rq.configure(16)
        out = rq(x).data
        assert not np.array_equal(out, x.data) or np.allclose(out, x.data, atol=1e-1)

    def test_apply_precision_scheme_configures_whole_model(self, tiny_vit):
        apply_precision_scheme(tiny_vit, PrecisionScheme.parse("W2-A2-R16"))
        quantized_layers = [
            m for m in tiny_vit.modules() if isinstance(m, QuantizedLinear) and m.weight_quantizer is not None
        ]
        residuals = [m for m in tiny_vit.modules() if isinstance(m, ResidualQuantizer) and m.quantizer is not None]
        assert quantized_layers and residuals

    def test_apply_fp_scheme_removes_quantizers(self, tiny_vit):
        apply_precision_scheme(tiny_vit, PrecisionScheme.parse("W2-A2-R16"))
        apply_precision_scheme(tiny_vit, PrecisionScheme())
        assert all(
            m.weight_quantizer is None for m in tiny_vit.modules() if isinstance(m, QuantizedLinear)
        )
