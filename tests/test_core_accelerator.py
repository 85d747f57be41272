import pytest

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.core.accelerator import (
    AcceleratorConfig,
    AscendAccelerator,
    ViTArchitecture,
    recommend_configuration,
)


def softmax_cfg(by, s1, s2, k):
    return SoftmaxCircuitConfig(m=64, iterations=k, bx=4, alpha_x=2.0, by=by, alpha_y=0.0625, s1=s1, s2=s2)


class TestViTArchitecture:
    def test_defaults_match_paper_network(self):
        arch = ViTArchitecture()
        assert arch.num_layers == 7 and arch.num_heads == 4

    def test_parameter_count_scales_with_depth(self):
        small = ViTArchitecture(num_layers=2).parameter_count()
        large = ViTArchitecture(num_layers=8).parameter_count()
        assert large > 3 * small

    def test_invalid_head_split_rejected(self):
        with pytest.raises(ValueError):
            ViTArchitecture(embed_dim=100, num_heads=3)

    def test_derived_dims(self):
        arch = ViTArchitecture(embed_dim=256, num_heads=4, mlp_ratio=2.0)
        assert arch.head_dim == 64
        assert arch.mlp_hidden_dim == 512


class TestAcceleratorAreaModel:
    def test_breakdown_sums_to_total(self):
        accelerator = AscendAccelerator()
        breakdown = accelerator.area_breakdown()
        parts = [v for k, v in breakdown.items() if k not in ("total", "softmax_fraction")]
        assert breakdown["total"] == pytest.approx(sum(parts))

    def test_number_of_softmax_blocks_equals_iterations(self):
        config = AcceleratorConfig(softmax=softmax_cfg(8, 32, 8, 3))
        assert config.num_softmax_blocks == 3

    def test_softmax_fraction_small_for_small_config(self):
        """Table VI: the [4,128,2,2] configuration costs a few percent of the total."""
        accelerator = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(4, 128, 2, 2)))
        assert accelerator.area_breakdown()["softmax_fraction"] < 0.10

    def test_softmax_dominates_for_large_config(self):
        """Table VI: the [32,...] configuration more than doubles the total area."""
        small = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(4, 128, 2, 2))).area_breakdown()
        large = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(32, 128, 16, 4))).area_breakdown()
        assert large["total"] > 1.5 * small["total"]
        assert large["softmax_fraction"] > 0.4

    def test_total_area_monotone_in_softmax_config(self):
        configs = [softmax_cfg(4, 128, 2, 2), softmax_cfg(8, 32, 8, 3), softmax_cfg(16, 128, 16, 4), softmax_cfg(32, 128, 16, 4)]
        totals = [
            AscendAccelerator(AcceleratorConfig(softmax=cfg)).area_breakdown()["total"] for cfg in configs
        ]
        assert totals == sorted(totals)

    def test_base_area_independent_of_softmax_config(self):
        small = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(4, 128, 2, 2))).area_breakdown()
        large = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(16, 128, 16, 4))).area_breakdown()
        base_small = small["total"] - small["softmax_blocks"]
        base_large = large["total"] - large["softmax_blocks"]
        assert base_small == pytest.approx(base_large, rel=1e-6)

    def test_synthesize_report(self):
        report = AscendAccelerator().synthesize()
        assert report.area_um2 > 1e5
        assert report.delay_ns > 0

    def test_softmax_block_report_matches_breakdown(self):
        accelerator = AscendAccelerator(AcceleratorConfig(softmax=softmax_cfg(8, 32, 8, 3)))
        block_area = accelerator.softmax_block_report().area_um2
        breakdown = accelerator.area_breakdown()
        assert breakdown["softmax_blocks"] == pytest.approx(3 * block_area, rel=1e-6)

    def test_weight_buffer_scales_with_weight_bsl(self):
        narrow = AscendAccelerator(AcceleratorConfig(weight_bsl=2)).area_breakdown()["weight_buffer"]
        wide = AscendAccelerator(AcceleratorConfig(weight_bsl=4)).area_breakdown()["weight_buffer"]
        assert wide == pytest.approx(2 * narrow, rel=1e-6)


class TestRecommendConfiguration:
    def test_picks_cheapest_meeting_floor(self):
        candidates = [
            AcceleratorConfig(softmax=softmax_cfg(4, 128, 2, 2)),
            AcceleratorConfig(softmax=softmax_cfg(8, 32, 8, 3)),
            AcceleratorConfig(softmax=softmax_cfg(16, 128, 16, 4)),
        ]
        accuracies = [89.7, 90.8, 91.1]
        assert recommend_configuration(candidates, accuracies, accuracy_floor=90.0) == 1

    def test_falls_back_to_most_accurate(self):
        candidates = [
            AcceleratorConfig(softmax=softmax_cfg(4, 128, 2, 2)),
            AcceleratorConfig(softmax=softmax_cfg(8, 32, 8, 3)),
        ]
        assert recommend_configuration(candidates, [80.0, 85.0], accuracy_floor=99.0) == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            recommend_configuration([], [], 90.0)
