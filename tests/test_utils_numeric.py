import numpy as np
import pytest

from repro.utils.numeric import clamp, round_half_away_from_zero


class TestClamp:
    def test_scalar(self):
        assert clamp(5, 0, 3) == 3
        assert clamp(-2, 0, 3) == 0
        assert clamp(1, 0, 3) == 1

    def test_array(self):
        out = clamp(np.array([-1.0, 0.5, 2.0]), 0.0, 1.0)
        assert np.array_equal(out, [0.0, 0.5, 1.0])

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            clamp(1, 2, 1)


class TestRoundHalfAwayFromZero:
    def test_ties_away_from_zero(self):
        out = round_half_away_from_zero([0.5, 1.5, -0.5, -1.5])
        assert np.array_equal(out, [1.0, 2.0, -1.0, -2.0])

    def test_non_ties_match_numpy(self):
        values = np.array([0.4, 0.6, -2.3, 3.7])
        assert np.array_equal(round_half_away_from_zero(values), np.round(values))
