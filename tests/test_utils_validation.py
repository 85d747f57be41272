import numpy as np
import pytest

from repro.utils.validation import check_binary_array, check_eval_mode, check_in_choices, check_positive_int


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            check_positive_int(bad, "x")

    @pytest.mark.parametrize("bad", [1.5, "3", True, None])
    def test_rejects_wrong_type(self, bad):
        with pytest.raises(TypeError):
            check_positive_int(bad, "x")


class TestCheckInChoices:
    def test_accepts_member(self):
        assert check_in_choices("a", ("a", "b"), "x") == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            check_in_choices("c", ("a", "b"), "x")


class TestCheckBinaryArray:
    @pytest.mark.parametrize(
        "bits",
        [
            np.array([True, False, True]),
            np.array([0, 1, 1], dtype=np.uint8),
            np.array([[1, 0], [0, 1]], dtype=np.int64),
            np.array([0.0, 1.0, 1.0]),
            np.array([], dtype=float),
        ],
        ids=["bool", "uint8", "int64-2d", "float", "empty"],
    )
    def test_accepts_zeros_and_ones(self, bits):
        assert check_binary_array(bits, "bits") is bits

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 2, 1]),
            np.array([-1, 0, 1], dtype=np.int8),
            np.array([0.0, 0.5, 1.0]),
            np.array([0.0, np.nan, 1.0]),
            np.array([1.0 + 1e-9, 0.0]),
        ],
        ids=["two", "negative", "fraction", "nan", "just-above-one"],
    )
    def test_rejects_other_values(self, bad):
        with pytest.raises(ValueError):
            check_binary_array(bad, "bits")


class TestCheckEvalMode:
    class _Model:
        def __init__(self, training):
            self.training = training

    def test_accepts_eval_mode(self):
        check_eval_mode(self._Model(training=False), "caller")

    def test_rejects_training_mode(self):
        with pytest.raises(ValueError, match="eval mode"):
            check_eval_mode(self._Model(training=True), "caller")
