"""Cross-cutting property-based tests on the core data structures.

These complement the per-module tests with algebraic invariants that must
hold for *any* operand values, exercised through hypothesis:

* thermometer arithmetic is commutative/associative and exact on its grids,
* the gate-assisted SI block is a pure function of the input one-count and
  realises exactly its own lookup table,
* LSQ fake-quantisation is idempotent and never increases magnitude beyond
  the representable range,
* the iterative softmax recurrence preserves the probability-simplex sum,
* Pareto-front extraction is idempotent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gelu_si import GateAssistedSIBlock
from repro.evaluation.pareto import pareto_front
from repro.nn.autograd import Tensor
from repro.nn.functional_math import gelu_exact, iterative_softmax_reference
from repro.nn.quantization import LsqQuantizer
from repro.sc.arithmetic import thermometer_add, thermometer_multiply
from repro.sc.bitstream import ThermometerStream


values_on_grid = st.integers(-8, 8).map(lambda level: level * 0.125)


class TestThermometerAlgebra:
    @given(a=values_on_grid, b=values_on_grid)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, a, b):
        sa = ThermometerStream.encode(np.array([a]), 16, 0.125)
        sb = ThermometerStream.encode(np.array([b]), 16, 0.125)
        ab = thermometer_multiply(sa, sb).decode()[0]
        ba = thermometer_multiply(sb, sa).decode()[0]
        assert ab == pytest.approx(ba)
        assert ab == pytest.approx(a * b)

    @given(a=values_on_grid, b=values_on_grid, c=values_on_grid)
    @settings(max_examples=60, deadline=None)
    def test_addition_associates(self, a, b, c):
        streams = [ThermometerStream.encode(np.array([v]), 16, 0.125) for v in (a, b, c)]
        left = thermometer_add(thermometer_add(streams[0], streams[1]), streams[2]).decode()[0]
        right = thermometer_add(streams[0], thermometer_add(streams[1], streams[2])).decode()[0]
        assert left == pytest.approx(right)
        assert left == pytest.approx(a + b + c)

    @given(a=values_on_grid)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_by_zero_and_one(self, a):
        sa = ThermometerStream.encode(np.array([a]), 16, 0.125)
        zero = ThermometerStream.encode(np.array([0.0]), 16, 0.125)
        one = ThermometerStream.encode(np.array([1.0]), 16, 0.125)
        assert thermometer_multiply(sa, zero).decode()[0] == pytest.approx(0.0)
        assert thermometer_multiply(sa, one).decode()[0] == pytest.approx(a)


class TestGateAssistedSIInvariants:
    @given(st.floats(-6, 6, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_output_matches_table_exactly(self, value):
        block = GateAssistedSIBlock(gelu_exact, 64, 0.125, 8, 0.25)
        stream = ThermometerStream.encode(np.array([value]), 64, 0.125)
        via_process = block.process(stream).counts[0]
        assert via_process == block.table[stream.counts[0]]

    @given(st.integers(0, 64))
    @settings(max_examples=40, deadline=None)
    def test_table_outputs_are_valid_counts(self, count):
        block = GateAssistedSIBlock(gelu_exact, 64, 0.125, 8, 0.25)
        assert 0 <= block.table[count] <= 8


class TestLsqInvariants:
    @given(st.sampled_from([2, 4, 8, 16]), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, bsl, step):
        quantizer = LsqQuantizer(bsl)
        quantizer.step.data[...] = step
        quantizer._initialised = True
        x = np.linspace(-3, 3, 17)
        once = quantizer(Tensor(x)).data
        twice = quantizer(Tensor(once)).data
        assert np.allclose(once, twice)

    @given(st.sampled_from([2, 4, 8, 16]), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_output_magnitude_bounded(self, bsl, step):
        quantizer = LsqQuantizer(bsl)
        quantizer.step.data[...] = step
        quantizer._initialised = True
        out = quantizer(Tensor(np.array([1e6, -1e6]))).data
        assert np.max(np.abs(out)) <= step * bsl / 2 + 1e-9


class TestIterativeSoftmaxInvariants:
    @given(st.integers(1, 6), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_simplex_sum_preserved(self, k, m):
        rng = np.random.default_rng(k * 31 + m)
        x = rng.normal(0, 2.0, size=(3, m))
        out = iterative_softmax_reference(x, k)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(1, 8))
        perm = rng.permutation(8)
        assert np.allclose(iterative_softmax_reference(x[:, perm], k), iterative_softmax_reference(x, k)[:, perm])


class TestParetoInvariants:
    @given(st.lists(st.tuples(st.floats(0.1, 100), st.floats(0.001, 1)), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, points):
        costs = np.array([p[0] for p in points])
        errors = np.array([p[1] for p in points])
        mask = pareto_front(costs, errors)
        again = pareto_front(costs[mask], errors[mask])
        assert again.all()

    @given(st.lists(st.tuples(st.floats(0.1, 100), st.floats(0.001, 1)), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_global_minima_always_on_front(self, points):
        costs = np.array([p[0] for p in points])
        errors = np.array([p[1] for p in points])
        mask = pareto_front(costs, errors)
        assert mask[np.argmin(costs)] or any(
            (costs <= costs[np.argmin(costs)]) & (errors < errors[np.argmin(costs)]) & mask
        )
        assert mask[np.argmin(errors)] or any(
            (errors <= errors[np.argmin(errors)]) & (costs < costs[np.argmin(errors)]) & mask
        )
