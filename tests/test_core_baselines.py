import numpy as np
import pytest

from repro.blocks import ScDesignCapability, capability_matrix
from repro.core.baselines import FsmSoftmaxBaseline
from repro.hw.synthesis import synthesize
from repro.nn.functional_math import softmax_exact


class TestFsmSoftmaxBaseline:
    def test_output_shape_and_range(self, logit_rows):
        baseline = FsmSoftmaxBaseline(m=64, bitstream_length=256, seed=0)
        out = baseline.evaluate(logit_rows[:8])
        assert out.shape == (8, 64)
        assert np.all(out >= 0)
        assert np.all(out <= 1.0 + 1e-9)

    def test_rows_do_not_sum_to_one(self, logit_rows):
        """The saturating normalisation only preserves order, not the values."""
        baseline = FsmSoftmaxBaseline(m=64, bitstream_length=512, seed=1)
        sums = baseline.evaluate(logit_rows[:16]).sum(axis=-1)
        assert np.all(sums > 1.5)  # clearly not a probability distribution

    def test_relative_order_roughly_preserved(self, logit_rows):
        baseline = FsmSoftmaxBaseline(m=64, bitstream_length=1024, seed=2)
        out = baseline.evaluate(logit_rows)
        exact = softmax_exact(logit_rows, axis=-1)
        agreement = np.mean(np.argmax(out, axis=-1) == np.argmax(exact, axis=-1))
        assert agreement > 0.6

    def test_mae_is_substantial(self, logit_rows):
        """The systematic errors of the design do not vanish with the BSL (Table IV)."""
        short = FsmSoftmaxBaseline(64, 128, seed=3).mean_absolute_error(logit_rows)
        long = FsmSoftmaxBaseline(64, 1024, seed=3).mean_absolute_error(logit_rows)
        assert short > 0.05
        assert long > 0.05
        # going 8x longer buys very little accuracy (Table IV behaviour)
        assert long > 0.7 * short

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            FsmSoftmaxBaseline(m=64, bitstream_length=128).evaluate(np.zeros((2, 32)))

    def test_area_independent_of_bsl(self):
        a128 = synthesize(FsmSoftmaxBaseline(64, 128).build_hardware()).area_um2
        a1024 = synthesize(FsmSoftmaxBaseline(64, 1024).build_hardware()).area_um2
        assert a1024 < 1.2 * a128

    def test_delay_scales_with_bsl(self):
        d128 = synthesize(FsmSoftmaxBaseline(64, 128).build_hardware()).delay_ns
        d1024 = synthesize(FsmSoftmaxBaseline(64, 1024).build_hardware()).delay_ns
        assert d1024 == pytest.approx(8 * d128, rel=0.01)

    def test_area_scales_with_m(self):
        small = synthesize(FsmSoftmaxBaseline(16, 128).build_hardware()).area_um2
        large = synthesize(FsmSoftmaxBaseline(64, 128).build_hardware()).area_um2
        assert large > 2 * small


class TestCapabilityMatrix:
    def test_has_five_rows_like_table1(self):
        assert len(capability_matrix()) == 5

    def test_only_ascend_supports_vit(self):
        vit_rows = [row for row in capability_matrix() if row.supported_model == "ViT"]
        assert len(vit_rows) == 1
        assert "ours" in vit_rows[0].design.lower() or "ascend" in vit_rows[0].design.lower()

    def test_only_ascend_supports_gelu(self):
        gelu_rows = [row for row in capability_matrix() if row.supports("gelu")]
        assert len(gelu_rows) == 1

    def test_ascend_uses_deterministic_encoding(self):
        ascend = capability_matrix()[-1]
        assert ascend.encoding_format == "deterministic"
        assert ascend.supports("softmax")

    def test_supports_is_case_insensitive(self):
        row = ScDesignCapability("x", "CNN", "stochastic", ("ReLU",), "FSM")
        assert row.supports("relu")
        assert not row.supports("gelu")
