import io
import math
from itertools import islice

import numpy as np
import pytest

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.core.dse import (
    DEFAULT_ALPHA_Y_MULTIPLIERS,
    DEFAULT_BY_CHOICES,
    DEFAULT_ITERATION_CHOICES,
    DEFAULT_S1_CHOICES,
    DEFAULT_S2_CHOICES,
    DesignPoint,
    SoftmaxDesignSpace,
    evaluate_design,
)
from repro.evaluation.reporting import ProgressReporter


@pytest.fixture(scope="module")
def small_space(logit_rows):
    # A reduced grid so the exploration stays fast in unit tests.
    return SoftmaxDesignSpace(
        bx=4,
        test_vectors=logit_rows[:24],
        by_choices=(4, 8),
        iteration_choices=(2, 3),
        s1_choices=(16, 64),
        s2_choices=(4, 16),
        alpha_y_multipliers=(1.0,),
    )


# logit_rows is a session fixture defined in conftest; re-export it at module
# scope for the module-scoped space fixture above.
@pytest.fixture(scope="module")
def logit_rows():
    from repro.evaluation.vectors import attention_logit_vectors

    return attention_logit_vectors(32, 64, seed=11)


class TestGrid:
    def test_default_grid_size_matches_paper(self, logit_rows):
        space = SoftmaxDesignSpace(bx=4, test_vectors=logit_rows)
        assert space.grid_size() == 2916  # the paper's design-space size per Bx
        assert space.grid_size() == (
            len(DEFAULT_BY_CHOICES)
            * len(DEFAULT_ITERATION_CHOICES)
            * len(DEFAULT_S1_CHOICES)
            * len(DEFAULT_S2_CHOICES)
            * len(DEFAULT_ALPHA_Y_MULTIPLIERS)
        )

    def test_enumerate_yields_grid_size_configs(self, small_space):
        configs = list(small_space.enumerate_configs())
        assert len(configs) == small_space.grid_size() == 16
        assert all(isinstance(c, SoftmaxCircuitConfig) for c in configs)

    def test_requires_2d_vectors(self):
        with pytest.raises(ValueError):
            SoftmaxDesignSpace(bx=4, test_vectors=np.zeros(10))


class TestEvaluation:
    def test_evaluate_feasible_point(self, small_space):
        config = next(small_space.enumerate_configs())
        point = small_space.evaluate(config)
        assert point.feasible
        assert point.adp > 0 and point.mae >= 0

    def test_explore_returns_all_points(self, small_space):
        points = small_space.explore()
        assert len(points) == 16

    def test_explore_respects_max_designs(self, small_space):
        assert len(small_space.explore(max_designs=5)) == 5

    def test_as_row_matches_config(self, small_space):
        point = small_space.evaluate(next(small_space.enumerate_configs()))
        row = point.as_row()
        assert row[0] == point.config.by and row[3] == point.config.iterations


def assert_points_identical(a, b):
    """Bit-for-bit DesignPoint equality (NaN-aware for infeasible points)."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.config == right.config
        assert left.feasible == right.feasible
        for field in ("area_um2", "delay_ns", "adp", "mae"):
            x, y = getattr(left, field), getattr(right, field)
            assert x == y or (math.isnan(x) and math.isnan(y)), (field, x, y)


class TestExploreOrder:
    """``explore`` evaluates in grid order; ``max_designs`` truncates to a grid prefix."""

    def test_explore_preserves_grid_order(self, small_space):
        configs = list(small_space.enumerate_configs())
        assert [p.config for p in small_space.explore()] == configs

    def test_explore_matches_evaluate_design(self, small_space):
        config = next(small_space.enumerate_configs())
        direct = evaluate_design(config, small_space.test_vectors)
        assert_points_identical([direct], small_space.explore(max_designs=1))

    def test_explore_reports_progress_per_design(self, small_space):
        sink = io.StringIO()
        small_space.explore(max_designs=3, reporter=ProgressReporter("dse", stream=sink))
        assert sink.getvalue().splitlines() == ["dse: 0/3", "dse: 1/3", "dse: 2/3", "dse: 3/3", "dse: done — 3 configs"]

    def test_truncation_is_grid_prefix(self, small_space):
        expected = list(islice(small_space.enumerate_configs(), 5))
        points = small_space.explore(max_designs=5)
        assert [p.config for p in points] == expected

    def test_truncated_points_match_full_prefix(self, small_space):
        full = small_space.explore()
        prefix = small_space.explore(max_designs=3)
        assert_points_identical(full[:3], prefix)

    def test_edge_counts(self, small_space):
        assert small_space.explore(max_designs=0) == []
        assert small_space.explore(max_designs=-1) == []
        assert len(small_space.explore(max_designs=10**6)) == small_space.grid_size()


class TestPareto:
    def test_pareto_points_are_non_dominated(self, small_space):
        points = small_space.explore()
        pareto = small_space.pareto_points(points)
        assert pareto
        for candidate in pareto:
            dominated = any(
                other.adp <= candidate.adp
                and other.mae <= candidate.mae
                and (other.adp < candidate.adp or other.mae < candidate.mae)
                for other in points
                if other.feasible
            )
            assert not dominated

    def test_pareto_sorted_by_adp(self, small_space):
        pareto = small_space.pareto_front()
        adps = [p.adp for p in pareto]
        assert adps == sorted(adps)

    def test_pareto_front_trades_cost_for_error(self, small_space):
        pareto = small_space.pareto_front()
        if len(pareto) >= 2:
            assert pareto[0].mae >= pareto[-1].mae

    def test_empty_points_give_empty_front(self):
        assert SoftmaxDesignSpace.pareto_points([]) == []

    def test_infeasible_points_are_excluded(self, small_space):
        fake = DesignPoint(config=next(small_space.enumerate_configs()), feasible=False)
        assert SoftmaxDesignSpace.pareto_points([fake]) == []
