import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.autograd import Tensor, no_grad, parameter
from repro.nn.functional import numerical_gradient
from repro.nn.layers import BatchNorm
from repro.nn.functional_math import (
    gelu_exact,
    iterative_softmax_reference,
    log_softmax_exact,
    sigmoid_exact,
    softmax_exact,
)

# The iteration counts of the softmax-design ablation (Algorithm 1's k).
ITERATIONS = (1, 2, 3, 4, 6, 8)


class TestFunctionalMath:
    def test_gelu_known_values(self):
        assert gelu_exact(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu_exact(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-6)
        assert gelu_exact(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-6)
        assert gelu_exact(np.array([-1.0]))[0] == pytest.approx(-0.15865, abs=1e-4)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        assert np.allclose(softmax_exact(x).sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 6))
        assert np.allclose(softmax_exact(x), softmax_exact(x + 100.0))

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(2).normal(size=(4, 5))
        assert np.allclose(np.exp(log_softmax_exact(x)), softmax_exact(x))

    def test_sigmoid_stable_for_large_inputs(self):
        out = sigmoid_exact(np.array([-1000.0, 1000.0]))
        assert out[0] == pytest.approx(0.0) and out[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("fewer, more", list(zip(ITERATIONS, ITERATIONS[1:] + (16,))))
    def test_iterative_softmax_reference_converges(self, logit_rows, fewer, more):
        exact = softmax_exact(logit_rows)
        err_fewer = np.abs(iterative_softmax_reference(logit_rows, fewer) - exact).mean()
        err_more = np.abs(iterative_softmax_reference(logit_rows, more) - exact).mean()
        assert err_more < err_fewer

    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_iterative_softmax_reference_maps_uniform_to_uniform(self, iterations):
        assert np.allclose(iterative_softmax_reference(np.zeros((2, 8)), iterations), 1.0 / 8)

    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_iterative_softmax_reference_is_shift_invariant(self, logit_rows, iterations):
        # z - y * sum(z) cancels a constant added to every logit, as it does in the exact softmax.
        approx = iterative_softmax_reference(logit_rows, iterations)
        for shift in (-5.0, 3.0):
            assert np.allclose(iterative_softmax_reference(logit_rows + shift, iterations), approx, atol=1e-12)

    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_iterative_softmax_reference_axis_argument(self, iterations):
        x = np.random.default_rng(1).normal(size=(8, 5))
        assert np.allclose(
            iterative_softmax_reference(x, iterations, axis=0), iterative_softmax_reference(x.T, iterations).T
        )

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterative_softmax_reference_rejects_zero_iterations(self, iterations):
        with pytest.raises(ValueError):
            iterative_softmax_reference(np.zeros((1, 4)), iterations)

    def test_iterative_softmax_reference_accuracy_at_k3(self, logit_rows):
        approx = iterative_softmax_reference(logit_rows, 3)
        exact = softmax_exact(logit_rows)
        assert np.mean(np.abs(approx - exact)) < 0.02
        assert np.mean(np.argmax(approx, axis=-1) == np.argmax(exact, axis=-1)) > 0.9


class TestDifferentiableOps:
    def test_gelu_matches_reference(self):
        x = np.linspace(-3, 3, 25)
        out = F.gelu(Tensor(x)).data
        assert np.allclose(out, gelu_exact(x), atol=1e-9)

    def test_gelu_gradient(self):
        x0 = np.linspace(-2, 2, 9)
        x = Tensor(x0, requires_grad=True)
        F.gelu(x).sum().backward()
        numeric = numerical_gradient(lambda v: F.gelu(Tensor(v)).sum().item(), x0.copy())
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_softmax_matches_reference(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        assert np.allclose(F.softmax(Tensor(x)).data, softmax_exact(x))

    def test_softmax_gradient(self):
        x0 = np.random.default_rng(1).normal(size=(2, 5))
        x = Tensor(x0, requires_grad=True)
        (F.softmax(x) ** 2).sum().backward()
        numeric = numerical_gradient(lambda v: ((F.softmax(Tensor(v)) ** 2).sum()).item(), x0.copy())
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_log_softmax_gradient(self):
        x0 = np.random.default_rng(2).normal(size=(3, 4))
        x = Tensor(x0, requires_grad=True)
        (F.log_softmax(x) * 0.3).sum().backward()
        numeric = numerical_gradient(lambda v: (F.log_softmax(Tensor(v)) * 0.3).sum().item(), x0.copy())
        assert np.allclose(x.grad, numeric, atol=1e-6)

    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_iterative_softmax_matches_numpy_reference(self, iterations):
        x = np.random.default_rng(3).normal(size=(4, 8))
        out = F.iterative_softmax(Tensor(x), iterations=iterations).data
        assert np.allclose(out, iterative_softmax_reference(x, iterations))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_iterative_softmax_axis_matches_numpy_reference(self, axis):
        x = np.random.default_rng(5).normal(size=(3, 4, 5))
        out = F.iterative_softmax(Tensor(x), iterations=3, axis=axis).data
        assert np.allclose(out, iterative_softmax_reference(x, 3, axis=axis))

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterative_softmax_rejects_non_positive_iterations(self, iterations):
        with pytest.raises(ValueError):
            F.iterative_softmax(Tensor(np.zeros((1, 4))), iterations=iterations)

    @pytest.mark.parametrize("iterations", ITERATIONS)
    def test_iterative_softmax_gradient_flows(self, iterations):
        # The gradient of the recurrence itself, which the approximate-softmax-aware fine-tune trains through.
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(2, 6))
        grad_out = rng.normal(size=(2, 6))
        x = Tensor(x0, requires_grad=True)
        (F.iterative_softmax(x, iterations=iterations) * grad_out).sum().backward()
        numeric = numerical_gradient(
            lambda v: (F.iterative_softmax(Tensor(v), iterations=iterations) * grad_out).sum().item(), x0.copy()
        )
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_layer_norm_affine(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 8)))
        weight = Tensor(np.full(8, 2.0))
        bias = Tensor(np.ones(8))
        out = F.layer_norm(x, weight, bias).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_dropout_inference_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert np.array_equal(F.dropout(x, 0.5, training=False).data, x.data)

    def test_dropout_training_scales_survivors(self):
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.25, training=True, seed=0).data
        survivors = out[out > 0]
        assert np.allclose(survivors, 1.0 / 0.75)
        assert abs((out > 0).mean() - 0.75) < 0.05

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_linear(self):
        x = Tensor(np.ones((2, 3)))
        weight = Tensor(np.arange(12.0).reshape(4, 3))
        out = F.linear(x, weight).data
        assert out.shape == (2, 4)
        assert np.allclose(out[0], weight.data.sum(axis=1))

    def test_scaled_dot_product_scores_scale(self):
        q = Tensor(np.ones((1, 2, 4)))
        k = Tensor(np.ones((1, 2, 4)))
        scores = F.scaled_dot_product_scores(q, k).data
        assert np.allclose(scores, 4.0 / 2.0)

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        assert np.array_equal(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)


def _eval_batch_norm(seed=0, features=5):
    rng = np.random.default_rng(seed)
    norm = BatchNorm(features)
    norm.weight.data[...] = rng.normal(size=features)
    norm.bias.data[...] = rng.normal(size=features)
    norm.running_mean[...] = rng.normal(size=features)
    norm.running_var[...] = rng.uniform(0.5, 2.0, size=features)
    return norm.eval()


class TestNoGradEpilogues:
    """Without a graph, ``F.linear``'s bias add, eval-mode ``BatchNorm`` and
    the score scale work in place on fresh arrays.  They must give the bits
    of the graph-recording forms, leave their inputs alone and still
    backprop when a graph is recorded."""

    OPS = ("linear", "batch_norm", "scores")

    @staticmethod
    def _arrays(op, seed=0):
        rng = np.random.default_rng(seed)
        if op == "linear":
            return [rng.normal(size=(3, 4, 6)), rng.normal(size=(5, 6)), rng.normal(size=5)]
        if op == "batch_norm":
            return [rng.normal(size=(3, 4, 5))]
        return [rng.normal(size=(2, 3, 4, 8)), rng.normal(size=(2, 3, 4, 8))]

    @staticmethod
    def _forward(op, tensors, norm=None):
        if op == "linear":
            return F.linear(*tensors)
        if op == "batch_norm":
            return norm(tensors[0])
        return F.scaled_dot_product_scores(*tensors)

    @pytest.mark.parametrize("op", OPS)
    def test_no_grad_matches_the_graph_form_and_mutates_nothing(self, op):
        arrays = self._arrays(op)
        norm = _eval_batch_norm()
        originals = [a.copy() for a in arrays]
        stats = [norm.running_mean.copy(), norm.running_var.copy(), norm.weight.data.copy()]
        graph = self._forward(op, [parameter(a) for a in arrays], norm)
        assert graph.requires_grad
        with no_grad():
            fast = self._forward(op, [Tensor(a) for a in arrays], norm)
        assert not fast.requires_grad
        assert np.array_equal(fast.data, graph.data)
        for array, original in zip(arrays, originals):
            assert np.array_equal(array, original)
        assert np.array_equal(norm.running_mean, stats[0])
        assert np.array_equal(norm.running_var, stats[1])
        assert np.array_equal(norm.weight.data, stats[2])

    @pytest.mark.parametrize("op", OPS)
    def test_graph_form_still_backprops(self, op):
        arrays = self._arrays(op, seed=1)
        norm = _eval_batch_norm(seed=1)
        probe = np.random.default_rng(2).normal(size=self._forward(op, [Tensor(a) for a in arrays], norm).shape)
        tensors = [parameter(a) for a in arrays]
        (self._forward(op, tensors, norm) * Tensor(probe)).sum().backward()
        for position, tensor in enumerate(tensors):
            def loss(value, position=position):
                inputs = [Tensor(value if i == position else a) for i, a in enumerate(arrays)]
                return float((self._forward(op, inputs, norm).data * probe).sum())

            numeric = numerical_gradient(loss, arrays[position].copy())
            assert np.allclose(tensor.grad, numeric, atol=1e-6)
        if op == "batch_norm":
            affine = [norm.weight, norm.bias]
            for param in affine:
                def loss(value, param=param):
                    saved = param.data.copy()
                    param.data[...] = value
                    try:
                        return float((self._forward(op, [Tensor(arrays[0])], norm).data * probe).sum())
                    finally:
                        param.data[...] = saved

                numeric = numerical_gradient(loss, param.data.copy())
                assert np.allclose(param.grad, numeric, atol=1e-6)
