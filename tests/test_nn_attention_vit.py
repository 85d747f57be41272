import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.autograd import Tensor, no_grad
from repro.nn.quantization import PrecisionScheme
from repro.nn.functional import numerical_gradient
from repro.nn.vit import CompactVisionTransformer, EncoderBlock, MlpBlock, ModelTrace, ViTConfig


class TestMultiHeadSelfAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(embed_dim=16, num_heads=4, seed=0)
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_head_split_validation(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(embed_dim=10, num_heads=3)

    def test_trace_collection(self):
        """The caller's trace gets the scores; the module keeps nothing and computes the same output."""
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 4, 8)))
        attributes = dict(vars(attn))
        trace = ModelTrace()
        traced = attn(x, trace=trace)
        assert [logits.shape for logits in trace.attention_logits] == [(1, 2, 4, 4)]
        assert vars(attn) == attributes
        assert np.array_equal(traced.data, attn(x).data)

    def test_mlp_trace_gets_a_copy_of_the_pre_gelu_activations(self):
        """The MLP appends fc1's output to the caller's trace and computes the same output."""
        mlp = MlpBlock(embed_dim=8, hidden_dim=16, seed=0)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 8)))
        attributes = dict(vars(mlp))
        trace = ModelTrace()
        traced = mlp(x, trace=trace)
        [hidden] = trace.gelu_inputs
        assert np.array_equal(hidden, mlp.fc1(x).data)
        assert vars(mlp) == attributes
        assert np.array_equal(traced.data, mlp(x).data)

    def test_exact_vs_iterative_softmax_modes(self):
        x = Tensor(np.random.default_rng(2).normal(size=(1, 6, 8)))
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, softmax_mode="exact", seed=0)
        out_exact = attn(x).data
        attn.set_softmax_mode("iterative", iterations=8)
        out_iter = attn(x).data
        # with many iterations the approximation is close to exact
        assert np.allclose(out_exact, out_iter, atol=0.05)

    def test_invalid_softmax_mode(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(8, 2, softmax_mode="fancy")

    def test_gradients_flow_to_projections(self):
        attn = MultiHeadSelfAttention(embed_dim=8, num_heads=2, seed=0)
        attn(Tensor(np.random.default_rng(3).normal(size=(2, 3, 8)))).sum().backward()
        assert attn.qkv.weight.grad is not None
        assert attn.proj.weight.grad is not None


class TestViTConfig:
    def test_token_count_includes_class_token(self, tiny_vit_config):
        assert tiny_vit_config.num_tokens == (8 // 4) ** 2 + 1

    def test_invalid_patch_size(self):
        with pytest.raises(ValueError):
            ViTConfig(image_size=16, patch_size=5)

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            ViTConfig(norm="rms")

    def test_with_updates(self, tiny_vit_config):
        updated = tiny_vit_config.with_updates(norm="ln")
        assert updated.norm == "ln" and updated.embed_dim == tiny_vit_config.embed_dim


class TestCompactVisionTransformer:
    def test_forward_shape(self, tiny_vit, tiny_dataset):
        train, _ = tiny_dataset
        logits = tiny_vit(Tensor(train.images[:5]))
        assert logits.shape == (5, tiny_vit.config.num_classes)

    def test_rejects_wrong_image_shape(self, tiny_vit):
        with pytest.raises(ValueError):
            tiny_vit(Tensor(np.zeros((2, 10, 10, 3))))

    def test_gradients_reach_all_parameters(self, tiny_vit, tiny_dataset):
        train, _ = tiny_dataset
        tiny_vit(Tensor(train.images[:4])).sum().backward()
        with_grad = [name for name, p in tiny_vit.named_parameters() if p.grad is not None]
        without = [name for name, p in tiny_vit.named_parameters() if p.grad is None]
        assert not without, f"parameters with no gradient: {without}"
        assert len(with_grad) == len(list(tiny_vit.named_parameters()))

    def test_traced_forward_collects_vectors(self, tiny_vit, tiny_dataset):
        train, _ = tiny_dataset
        trace = ModelTrace()
        logits = tiny_vit(Tensor(train.images[:3]), trace=trace)
        assert len(trace.attention_logits) == tiny_vit.config.num_layers
        assert len(trace.gelu_inputs) == tiny_vit.config.num_layers
        assert np.array_equal(logits.data, tiny_vit(Tensor(train.images[:3])).data)
        tokens = tiny_vit.config.num_tokens
        assert trace.attention_logits[0].shape[-2:] == (tokens, tokens)

    def test_no_grad_forward_matches_the_graph_forward(self, tiny_vit, tiny_dataset):
        """Without a graph, BatchNorm, the bias adds, the score scale and the
        residual adds work in place; every block output keeps the bits of
        the graph-recording forward and the input is left alone."""
        train, _ = tiny_dataset
        images = train.images[:4].copy()
        tiny_vit.eval()
        graph, fast = ModelTrace(), ModelTrace()
        graph_logits = tiny_vit(Tensor(images), trace=graph)
        assert graph_logits.requires_grad
        with no_grad():
            fast_logits = tiny_vit(Tensor(images), trace=fast)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(fast.block_outputs, graph.block_outputs))
        assert np.array_equal(fast_logits.data, graph_logits.data)
        assert np.array_equal(images, train.images[:4])

    def test_encoder_block_backprops_through_both_residuals(self, tiny_vit_config):
        block = EncoderBlock(tiny_vit_config, seed=1).eval()
        x0 = np.random.default_rng(2).normal(size=(1, tiny_vit_config.num_tokens, tiny_vit_config.embed_dim))
        probe = np.random.default_rng(3).normal(size=x0.shape)
        x = Tensor(x0, requires_grad=True)
        (block(x) * Tensor(probe)).sum().backward()
        numeric = numerical_gradient(lambda v: float((block(Tensor(v)).data * probe).sum()), x0.copy())
        assert np.allclose(x.grad, numeric, atol=1e-6)

    def test_set_softmax_mode_changes_every_block(self, tiny_vit):
        tiny_vit.set_softmax_mode("iterative", 5)
        assert all(b.attention.softmax_mode == "iterative" for b in tiny_vit.blocks)
        assert all(b.attention.softmax_iterations == 5 for b in tiny_vit.blocks)

    def test_apply_precision_adds_quantizers(self, tiny_vit):
        before = len(list(tiny_vit.named_parameters()))
        tiny_vit.apply_precision(PrecisionScheme.parse("W2-A2-R16"))
        after = len(list(tiny_vit.named_parameters()))
        assert after > before  # LSQ step parameters were added

    def test_apply_precision_changes_outputs(self, tiny_vit, tiny_dataset):
        train, _ = tiny_dataset
        x = Tensor(train.images[:4])
        fp = tiny_vit(x).data
        tiny_vit.apply_precision(PrecisionScheme.parse("W2-A2-R16"))
        quantized = tiny_vit(x).data
        assert not np.allclose(fp, quantized)

    def test_block_outputs_one_per_block_carry_the_graph(self, tiny_vit, tiny_dataset):
        """The KD feature loss backpropagates through the traced block outputs."""
        train, _ = tiny_dataset
        trace = ModelTrace()
        tiny_vit(Tensor(train.images[:2]), trace=trace)
        assert len(trace.block_outputs) == tiny_vit.config.num_layers
        trace.block_outputs[0].sum().backward()
        assert tiny_vit.patch_embedding.projection.weight.grad is not None
        assert tiny_vit.head.weight.grad is None

    def test_traced_forward_writes_no_module_attribute(self, frozen_vit, tiny_dataset):
        """Every module keeps the same attributes, bound to the same objects, through a traced
        forward and through pipeline forwards on the circuits (SI GELU on, faults off and on).

        The pipeline, its circuits and its fault model keep theirs too: nothing one forward
        writes can reach another forward on the same pipeline.
        """
        from repro.blocks.specs import SoftmaxCircuitConfig
        from repro.eval_pipeline import ScViTEvalPipeline

        train, _ = tiny_dataset

        def attributes(*shared):
            objects = [*frozen_vit.modules(), *shared]
            return [{name: id(value) for name, value in vars(obj).items()} for obj in objects]

        before = attributes()
        trace = ModelTrace()
        frozen_vit(Tensor(train.images[:2]), trace=trace)
        assert len(trace.gelu_inputs) == frozen_vit.config.num_layers
        assert attributes() == before

        config = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=1.0, by=8, alpha_y=0.03, s1=16, s2=4)
        for flip_prob in (0.0, 0.05):
            pipeline = ScViTEvalPipeline(frozen_vit, config, gelu_output_bsl=8, flip_prob=flip_prob, fault_seed=1)
            shared = [pipeline, pipeline.softmax_circuit, pipeline.gelu_block]
            shared += [pipeline.fault_model] if flip_prob else []
            before = attributes(*shared)
            pipeline.predict_batch(train.images[:3], np.arange(5, 8))
            assert attributes(*shared) == before, ("predict_batch", flip_prob)
            assert sum(len(batch) for batch in pipeline.iter_batches(train, max_images=3, batch_size=2)) == 3
            assert attributes(*shared) == before, ("iter_batches", flip_prob)

    def test_deterministic_given_seed(self, tiny_vit_config, tiny_dataset):
        train, _ = tiny_dataset
        a = CompactVisionTransformer(tiny_vit_config)(Tensor(train.images[:2])).data
        b = CompactVisionTransformer(tiny_vit_config)(Tensor(train.images[:2])).data
        assert np.allclose(a, b)
