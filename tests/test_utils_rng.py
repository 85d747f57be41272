import numpy as np

from repro.utils.rng import as_generator


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_generator(1).random(5), as_generator(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_returns_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)
