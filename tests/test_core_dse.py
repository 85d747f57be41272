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
)


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
