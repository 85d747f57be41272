"""Tests for the batched end-to-end evaluation subsystem (repro.eval_pipeline).

The load-bearing property is *chunk invariance*: evaluating a split in
batches of any size — including 1, the serial per-image path — must
produce bit-identical predictions, with and without fault injection.  On top of that: the fault model's determinism
contract, the ``EvalTask`` cache round-trip/resume behaviour, and the CLI.
"""

import json
import logging
import math
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocks.specs import SoftmaxCircuitConfig, sc_vit_softmax
from repro.eval_pipeline import (
    BitFlipFaultModel,
    EvalTask,
    ScViTEvalPipeline,
    eval_grid,
    run_eval_grid,
    sc_vit_alpha_x,
)
from repro.eval_pipeline import faults
from repro.eval_pipeline.faults import net_flip_pmf, sample_rows
from repro.nn import autograd
from repro.nn.autograd import Tensor, batch_invariant_matmul, matmul_data, no_grad
from repro.runner.cache import ResultCache, array_digest

# ``BitFlipFaultModel.VERSION`` -> digests of ``test_draws_are_pinned_to_the_version``'s
# realised draws: (a multi-site ``sparse_flips``, a composed-GELU ``perturb_counts``).
DRAW_DIGESTS = {5: ("222c9b82be4f7d38", "9dda9e6af82ae753")}

ACC_RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "ACC_sc_vit.json"


def make_softmax_config(by=8, s1=16, s2=4, k=2):
    return SoftmaxCircuitConfig(m=64, iterations=k, bx=4, alpha_x=1.0, by=by, alpha_y=0.03, s1=s1, s2=s2)


@pytest.fixture(scope="module")
def eval_setup():
    """One frozen model + splits + its calibrated circuit, reused across this module."""
    from repro.nn.vit import CompactVisionTransformer, ViTConfig
    from repro.training.datasets import SyntheticImageDataset

    config = ViTConfig(
        image_size=8, patch_size=4, in_channels=3, num_classes=4,
        embed_dim=16, num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config).eval()
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=24, test_size=16)
    alpha_x = sc_vit_alpha_x(model, train.images[:4])
    return {
        "model": model, "train": train, "test": test, "alpha_x": alpha_x,
        "softmax": make_softmax_config().with_updates(alpha_x=alpha_x),
    }


class TestChunkInvariance:
    def test_batched_equals_per_image_clean(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        batched = pipeline.evaluate(eval_setup["test"], max_images=10, batch_size=10)
        per_image = pipeline.evaluate(eval_setup["test"], max_images=10, batch_size=1)
        assert np.array_equal(batched.predictions, per_image.predictions)
        assert batched.accuracy == per_image.accuracy
        assert batched.correct == per_image.correct

    @given(
        batch_size=st.integers(1, 7),
        flip_prob=st.sampled_from([0.0, 0.08]),
        gelu_bsl=st.sampled_from([None, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_chunking_is_bit_identical(self, eval_setup, batch_size, flip_prob, gelu_bsl):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
            gelu_output_bsl=gelu_bsl, flip_prob=flip_prob, fault_seed=13,
        )
        reference = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=1)
        chunked = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=batch_size)
        assert np.array_equal(reference.predictions, chunked.predictions)
        assert reference.accuracy == chunked.accuracy

    def test_faulted_si_gelu_batches_of_1_7_32_agree(self, eval_setup):
        from repro.training.datasets import DatasetSplit

        train, test = eval_setup["train"], eval_setup["test"]
        split = DatasetSplit(np.concatenate([train.images, test.images]), np.concatenate([train.labels, test.labels]))
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
            gelu_output_bsl=8, flip_prob=0.02, fault_seed=21,
        )
        per_image = pipeline.evaluate(split, batch_size=1).predictions
        for batch_size in (7, 32):
            assert np.array_equal(pipeline.evaluate(split, batch_size=batch_size).predictions, per_image)

    def test_streaming_batches_cover_the_split_in_order(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        batches = list(pipeline.iter_batches(eval_setup["test"], max_images=10, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        indices = np.concatenate([b.indices for b in batches])
        assert np.array_equal(indices, np.arange(10))

    def test_model_state_restored_after_evaluation(self, eval_setup):
        model = eval_setup["model"]
        images = eval_setup["test"].images[:2]
        with no_grad(), batch_invariant_matmul():
            before = model(Tensor(images)).data
        pipeline = ScViTEvalPipeline(
            model, eval_setup["softmax"], gelu_output_bsl=4,
        )
        pipeline.evaluate(eval_setup["test"], max_images=6)
        with no_grad(), batch_invariant_matmul():
            after = model(Tensor(images)).data
        assert np.array_equal(before, after)


    def test_eval_mode_model_is_not_walked(self, eval_setup, monkeypatch):
        from repro.nn.layers import Module

        calls = []
        original = Module.train
        monkeypatch.setattr(Module, "train", lambda self, mode=True: calls.append(mode) or original(self, mode))
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        pipeline.predict_batch(eval_setup["test"].images[:2])
        assert calls == []

    def test_model_switched_to_training_is_refused(self, eval_setup):
        model = eval_setup["model"]
        pipeline = ScViTEvalPipeline(model, eval_setup["softmax"])
        images = eval_setup["test"].images[:3]
        model.train()
        try:
            with pytest.raises(ValueError, match="eval mode"):
                pipeline.predict_batch(images)
            with pytest.raises(ValueError, match="eval mode"):
                pipeline.evaluate(eval_setup["test"], max_images=3)
            assert all(module.training for module in model.modules())
        finally:
            model.eval()


class TestClampAndRescale:
    @pytest.mark.parametrize("shape", [(0, 5), (5,), (3, 7), (2, 3, 4, 5)])
    def test_in_place_form_matches_the_where_formula(self, shape):
        from repro.eval_pipeline.pipeline import _clamp_and_rescale

        rng = np.random.default_rng(len(shape))
        out = rng.normal(0.0, 0.1, size=shape)
        if out.ndim > 1 and out.shape[0]:
            out[0] = 0.0  # an all-zero row
            out[-1] = -np.abs(out[-1])  # all negative: zero after the clamp
        clamped = np.clip(out, 0.0, None)
        row_sum = clamped.sum(axis=-1, keepdims=True)
        expected = np.where(row_sum > 0, clamped / np.maximum(row_sum, 1e-9), 1.0 / out.shape[-1])
        result = _clamp_and_rescale(out)
        assert result is out
        assert np.array_equal(result, expected)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_batch_names_the_first_bad_image(self, eval_setup, bad):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        images = eval_setup["test"].images[:6].copy()
        images[4, 1, 2, 0] = bad
        images[5, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="image 4 has non-finite"):
            pipeline.predict_batch(images)

    def test_iter_batches_names_the_split_index(self, eval_setup):
        from repro.training.datasets import DatasetSplit

        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        test = eval_setup["test"]
        images = test.images[:10].copy()
        images[7, 0, 3, 2] = np.nan
        split = DatasetSplit(images=images, labels=test.labels[:10])
        batches = pipeline.iter_batches(split, batch_size=4)
        assert len(next(batches)) == 4  # images 0-3 are finite
        with pytest.raises(ValueError, match="image 7 has non-finite"):
            next(batches)


#: ``(K, N)`` of the paper-scale BN-ViT's linears at T = 17 tokens.
LINEAR_SHAPES = {"qkv": (64, 192), "fc1": (64, 128), "proj": (64, 64), "fc2": (128, 64)}


def matmul_operands(kind, batch, seed):
    """Operands of one matmul kind at the strided layouts the ViT forward uses."""
    rng = np.random.default_rng(seed)
    if kind in LINEAR_SHAPES:  # a real linear: (B, 17, K) @ (N, K) weight.T
        k, n = LINEAR_SHAPES[kind]
        return rng.standard_normal((batch, 17, k)), rng.standard_normal((n, k)).T
    weight = rng.standard_normal((48, 64))  # stored (out, in) like Linear
    if kind == "linear":  # qkv/proj/fc1/fc2/patch-embed: (B, T, K) @ weight.T
        return rng.standard_normal((batch, 17, 64)), weight.swapaxes(-1, -2)
    if kind == "scores":  # (B, H, T, d) query @ key.T, both views of one fused qkv
        qkv = rng.standard_normal((batch, 17, 3, 4, 16)).transpose(2, 0, 3, 1, 4)
        return qkv[0], qkv[1].swapaxes(-1, -2)
    return rng.standard_normal((batch, 64)), weight.swapaxes(-1, -2)  # classifier head


def per_image(b, rows):
    """The slice of ``b`` belonging to ``rows`` (a shared 2-D weight is not batched)."""
    return b[rows] if b.ndim > 2 else b


class TestBatchInvariantMatmul:
    def test_forward_is_chunk_invariant_under_the_context(self, eval_setup):
        model = eval_setup["model"]
        images = eval_setup["test"].images[:9]
        with no_grad(), batch_invariant_matmul():
            full = model(Tensor(images)).data
            rows = np.concatenate([model(Tensor(images[i : i + 1])).data for i in range(9)])
            chunks = np.concatenate(
                [model(Tensor(images[i : i + 2])).data for i in range(0, 9, 2)]
            )
        assert np.array_equal(full, rows)
        assert np.array_equal(full, chunks)

    @pytest.mark.parametrize("kind", ["linear", "scores", "head", *LINEAR_SHAPES])
    @given(
        batch=st.integers(1, 64),
        cuts=st.lists(st.integers(1, 64), min_size=1, max_size=64),
        seed=st.integers(0, 2**16),
    )
    # Batches of 40 cut so that sub-batches cross the flat path's 16- and
    # 32-image chunk bounds.
    @example(batch=40, cuts=[16, 16, 8], seed=7)
    @example(batch=40, cuts=[17, 15, 8], seed=7)
    @example(batch=40, cuts=[33, 7], seed=7)
    @example(batch=40, cuts=[5, 31, 4], seed=7)
    @settings(max_examples=15, deadline=None)
    def test_rows_are_bit_identical_under_any_chunking(self, kind, batch, cuts, seed):
        a, b = matmul_operands(kind, batch, seed)
        bounds = np.cumsum(cuts)
        chunks = np.split(np.arange(batch), bounds[bounds < batch])
        with batch_invariant_matmul():
            full = matmul_data(a, b)
            chunked = np.concatenate([matmul_data(a[c], per_image(b, c)) for c in chunks])
            rows = np.concatenate(
                [matmul_data(a[i : i + 1], per_image(b, slice(i, i + 1))) for i in range(batch)]
            )
        assert np.array_equal(full, chunked)
        assert np.array_equal(full, rows)

    def test_failed_flat_check_keeps_stacked_outputs_and_keys(self, eval_setup, monkeypatch):
        from repro.serve.engine import pipeline_fingerprint

        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"], gelu_output_bsl=4,
        )
        images = eval_setup["test"].images[:9]
        reference = pipeline.predict_batch(images)
        key = pipeline_fingerprint(pipeline)
        with no_grad(), batch_invariant_matmul():
            logits = eval_setup["model"](Tensor(images)).data

        monkeypatch.setattr(autograd, "_FLAT_SHAPES", {})
        monkeypatch.setattr(autograd, "_flat_matmul_is_exact", lambda *shape: False)
        flat_calls = []
        monkeypatch.setattr(autograd, "_flat_matmul", lambda a, b: flat_calls.append(a.shape))
        assert np.array_equal(pipeline.predict_batch(images), reference)
        with no_grad(), batch_invariant_matmul():
            assert np.array_equal(eval_setup["model"](Tensor(images)).data, logits)
        assert flat_calls == []
        assert autograd._FLAT_SHAPES and not any(autograd._FLAT_SHAPES.values())
        assert pipeline_fingerprint(pipeline) == key

    def test_flat_path_takes_only_the_checked_layout(self, monkeypatch):
        monkeypatch.setattr(autograd, "_flat_matmul_is_exact", lambda *shape: True)
        monkeypatch.setattr(autograd, "_FLAT_SHAPES", {})
        flat_calls = []
        real_flat = autograd._flat_matmul

        def counting_flat(a, b):
            flat_calls.append(a.shape)
            return real_flat(a, b)

        monkeypatch.setattr(autograd, "_flat_matmul", counting_flat)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 17, 128))
        weight = rng.standard_normal((64, 64))
        layouts = {
            "strided activation": (x[:, :, ::2], weight.T),
            "transposed activation": (x[:, :, :64].transpose(0, 2, 1).copy().transpose(0, 2, 1), weight.T),
            "C-contiguous (K, N) weight": (np.ascontiguousarray(x[:, :, :64]), weight.T.copy()),
            "2-D activation": (x[:, 0, :64].copy(), weight.T),
        }
        with batch_invariant_matmul():
            for name, (a, b) in layouts.items():
                assert np.array_equal(matmul_data(a, b), autograd._stacked_matmul(a, b)), name
            assert flat_calls == []
            checked = np.ascontiguousarray(x[:, :, :64])
            assert np.array_equal(matmul_data(checked, weight.T), real_flat(checked, weight.T))
        assert flat_calls == [(5, 17, 64)]

    def test_flat_check_covers_every_chunk_size(self, monkeypatch):
        """A flat kernel that is off by one ulp at any single chunk size fails the check."""

        def exact_except(bad_size):
            def flat(a, b):
                out = autograd._stacked_matmul(a, b)
                if a.shape[0] == bad_size:
                    out[-1, -1, -1] = np.nextafter(out[-1, -1, -1], np.inf)
                return out

            return flat

        monkeypatch.setattr(autograd, "_flat_matmul", exact_except(None))
        assert autograd._flat_matmul_is_exact(3, 4, 5)
        for bad_size in range(1, autograd._FLAT_IMAGES + 1):
            monkeypatch.setattr(autograd, "_flat_matmul", exact_except(bad_size))
            assert not autograd._flat_matmul_is_exact(3, 4, 5), bad_size

    def test_concurrent_first_calls_run_the_flat_check_once(self, monkeypatch):
        monkeypatch.setattr(autograd, "_FLAT_SHAPES", {})
        checks = []
        real_check = autograd._flat_matmul_is_exact

        def slow_check(*shape):
            checks.append(shape)
            time.sleep(0.05)  # keep the other threads waiting on the lock
            return real_check(*shape)

        monkeypatch.setattr(autograd, "_flat_matmul_is_exact", slow_check)
        a, b = matmul_operands("qkv", 4, seed=2)
        expected = autograd._stacked_matmul(a, b)
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait(timeout=30)
            results.append(matmul_data(a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with batch_invariant_matmul():
                threads = [threading.Thread(target=worker) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert checks == [(17, 64, 192)]
        assert len(results) == 6
        assert all(np.array_equal(r, expected) for r in results)

    @pytest.mark.parametrize("kind", ["linear", "scores", "head"])
    def test_stacked_agrees_with_einsum_to_an_ulp_scale(self, kind):
        """The two formulations differ only by rounding: relative error < 1e-12
        against the ``|a| @ |b|`` scale of each dot product."""
        a, b = matmul_operands(kind, 32, seed=1)
        stacked = autograd._stacked_matmul(a, b)
        einsum = autograd._einsum_matmul(a, b)
        scale = autograd._einsum_matmul(np.abs(a), np.abs(b))
        assert np.max(np.abs(stacked - einsum) / scale) < 1e-12

    def test_failed_self_check_falls_back_to_einsum(self, eval_setup, monkeypatch):
        from repro.serve.engine import pipeline_fingerprint

        pipeline = ScViTEvalPipeline(
            eval_setup["model"], eval_setup["softmax"],
        )
        monkeypatch.setattr(autograd, "_FORMULATION", "stacked")
        stacked_key = pipeline_fingerprint(pipeline)

        monkeypatch.setattr(autograd, "_FORMULATION", None)
        monkeypatch.setattr(autograd, "_stacked_matmul_is_batch_invariant", lambda: False)
        einsum_calls = []
        real_einsum = autograd._einsum_matmul

        def counting_einsum(a, b):
            einsum_calls.append(a.shape)
            return real_einsum(a, b)

        monkeypatch.setattr(autograd, "_einsum_matmul", counting_einsum)
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.nn")
        previous_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            model = eval_setup["model"]
            images = eval_setup["test"].images[:9]
            with no_grad(), batch_invariant_matmul():
                full = model(Tensor(images)).data
            with no_grad(), batch_invariant_matmul():
                rows = np.concatenate([model(Tensor(images[i : i + 1])).data for i in range(9)])
                chunks = np.concatenate(
                    [model(Tensor(images[i : i + 4])).data for i in range(0, 9, 4)]
                )
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        assert autograd._matmul_formulation() == "einsum"
        assert einsum_calls
        assert [r.getMessage() for r in records] == ["batch_invariant_matmul_fallback"]
        assert records[0].repro_fields["formulation"] == "einsum"
        assert np.array_equal(full, rows)
        assert np.array_equal(full, chunks)
        assert pipeline_fingerprint(pipeline) != stacked_key

    def test_mode_is_scoped_to_the_context(self):
        assert autograd._BATCH_INVARIANT_MATMUL is False
        with batch_invariant_matmul():
            assert autograd._BATCH_INVARIANT_MATMUL is True
        assert autograd._BATCH_INVARIANT_MATMUL is False


class TestBitFlipFaultModel:
    def test_zero_probability_is_identity_but_advances_sites(self):
        model = BitFlipFaultModel(0.0, seed=1)
        model = model.armed([0, 1])
        counts = np.array([[3, 5], [1, 7]])
        out = model.perturb_counts(counts, 8)
        assert out is counts
        table = np.arange(9)[::-1] // 2
        assert np.array_equal(model.perturb_counts(counts, 8, through=(table, 4)), table[counts])
        assert model._site == 2

    def test_same_seed_same_faults(self):
        counts = np.arange(12).reshape(2, 6) % 9
        outs = []
        for _ in range(2):
            model = BitFlipFaultModel(0.3, seed=5)
            model = model.armed([10, 11])
            outs.append(model.perturb_counts(counts, 8))
        assert np.array_equal(outs[0], outs[1])

    def test_faults_depend_on_image_index_not_batch_position(self):
        counts = np.full((3, 40), 6)
        for flip_prob in (0.3, 0.05):  # dense and sparse branch at L = 8
            together = BitFlipFaultModel(flip_prob, seed=5)
            together = together.armed([7, 8, 9])
            joint = [together.perturb_counts(counts, 8), together.perturb_counts(counts, 8)]
            split = []
            for index in (7, 8, 9):
                model = BitFlipFaultModel(flip_prob, seed=5)
                model = model.armed([index])
                split.append([model.perturb_counts(counts[:1], 8), model.perturb_counts(counts[:1], 8)])
            for site, out in enumerate(joint):
                assert np.array_equal(out, np.concatenate([image[site] for image in split]))
            assert not np.array_equal(joint[0], counts)

    def test_sites_draw_independent_masks(self):
        counts = np.full((1, 64), 8)
        model = BitFlipFaultModel(0.5, seed=3)
        model = model.armed([0])
        first = model.perturb_counts(counts, 16)
        second = model.perturb_counts(counts, 16)
        assert not np.array_equal(first, second)

    def test_a_forward_of_100_sites_keeps_sites_independent_and_batch_invariant(self):
        counts = np.full((2, 64), 8)
        for flip_prob in (0.5, 0.05):  # dense and sparse branch at L = 16
            together = BitFlipFaultModel(flip_prob, seed=3)
            together = together.armed([4, 9])
            alone = [BitFlipFaultModel(flip_prob, seed=3).armed([index]) for index in (4, 9)]
            seen = set()
            for _ in range(100):
                out = together.perturb_counts(counts, 16)
                split = [model.perturb_counts(counts[:1], 16) for model in alone]
                assert np.array_equal(out, np.concatenate(split))
                seen.add(out.tobytes())
            assert len(seen) == 100

    def test_flip_rate_moves_the_popcount(self):
        for length in (1, 16):  # sparse (L·p = 1) and dense branch
            model = BitFlipFaultModel(1.0, seed=0)
            model = model.armed([0, 1])
            counts = np.array([[0, length, length // 2], [length, 0, 0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = model.perturb_counts(counts, length)
            # p=1 flips every bit: count c becomes L - c.
            assert np.array_equal(out, length - counts)

    def test_requires_arming(self):
        """Only an armed copy perturbs; arming leaves the shared model unarmed."""
        model = BitFlipFaultModel(0.5, seed=0)
        armed = model.armed([0])
        assert armed.perturb_counts(np.array([[1]]), 4).shape == (1, 1)
        with pytest.raises(RuntimeError):
            model.perturb_counts(np.array([[1]]), 4)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BitFlipFaultModel(1.5)

    @pytest.mark.parametrize(
        "bad, dtype",
        [pytest.param(-1, np.int64, id="-1"), pytest.param(9, np.int64, id="9"),
         pytest.param(np.iinfo(np.int64).min, np.int64, id="int64-min"),
         pytest.param(-1, np.int32, id="-1-int32"), pytest.param(9, np.int8, id="9-int8"),
         pytest.param(-1, np.float64, id="-1-float64"), pytest.param(9, np.float64, id="9-float64")],
    )
    def test_rejects_counts_outside_the_stream(self, bad, dtype):
        counts = np.array([[3, bad]], dtype=dtype)
        for flip_prob in (0.3, 0.01):  # dense and sparse branch at L = 8
            model = BitFlipFaultModel(flip_prob, seed=0)
            model = model.armed([0])
            with pytest.raises(ValueError):
                model.perturb_counts(counts, 8)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_accepts_the_edges_and_empty_sites(self, dtype):
        for flip_prob in (0.3, 0.01):
            model = BitFlipFaultModel(flip_prob, seed=0)
            model = model.armed([0, 1])
            out = model.perturb_counts(np.array([[0, 8], [8, 0]], dtype=dtype), 8)
            assert out.shape == (2, 2) and out.min() >= 0 and out.max() <= 8
            empty = model.perturb_counts(np.zeros((2, 0, 3), dtype=dtype), 8)
            assert empty.shape == (2, 0, 3)

    @pytest.mark.parametrize("flip_prob", [0.3, 0.01])  # dense and sparse branch at L = 8
    def test_never_mutates_its_input(self, flip_prob):
        model = BitFlipFaultModel(flip_prob, seed=0)
        model = model.armed([0, 1])
        counts = np.arange(2 * 300).reshape(2, 300) % 9
        before = counts.copy()
        out = model.perturb_counts(counts, 8)
        assert np.array_equal(counts, before) and not np.array_equal(out, counts)

    @pytest.mark.parametrize("flip_prob", [0.01, 0.3, 1.0])
    def test_net_flip_pmf_matches_mask_enumeration(self, flip_prob):
        """Every table row equals the law of popcount(thermometer ^ mask) over all 2^L masks."""
        for length in range(1, 11):
            masks = ((np.arange(2**length)[:, None] >> np.arange(length)) & 1).astype(bool)
            flips = masks.sum(axis=1)
            weights = flip_prob**flips * (1.0 - flip_prob) ** (length - flips)
            pmf = net_flip_pmf(length, flip_prob)
            for count in range(length + 1):
                post = (masks ^ (np.arange(length) < count)).sum(axis=1)
                exact = np.bincount(post, weights=weights, minlength=length + 1)
                assert np.max(np.abs(pmf[count] - exact)) <= 1e-12, (length, count)

    @pytest.mark.parametrize("length", [4, 8, 16, 256])
    def test_draws_match_the_bit_mask_oracle(self, length):
        """Two-sample chi-square of the sampler against XOR-mask draws (the v1 path).

        The cases cover both branches: ``L·p <= 1`` walks bit positions, and
        ``(8, 0.125)`` sits on the boundary.
        """
        from scipy.stats import chi2_contingency

        from repro.sc.packed import PackedBitPlane

        samples = 20_000

        def mask_oracle(count, flip_prob, seed):
            counts = np.full(samples, count)
            mask = PackedBitPlane.random((samples,), length, flip_prob, np.random.default_rng(seed))
            return (PackedBitPlane.from_thermometer_counts(counts, length) ^ mask).popcount()

        def sampler(count, flip_prob, seed):
            model = BitFlipFaultModel(flip_prob, seed=seed)
            model = model.armed([0])
            return model.perturb_counts(np.full((1, samples), count), length)[0]

        def p_value(a, b):
            table = np.stack([np.bincount(a, minlength=length + 1), np.bincount(b, minlength=length + 1)])
            pooled, current = [], np.zeros(2, dtype=np.int64)
            for column in table.T:  # merge sparse tail bins until each holds >= 20 draws
                current = current + column
                if current.sum() >= 20:
                    pooled.append(current)
                    current = np.zeros(2, dtype=np.int64)
            pooled[-1] = pooled[-1] + current
            return chi2_contingency(np.stack(pooled, axis=1))[1]

        cases = {
            4: [(0, 0.01), (2, 0.01), (4, 0.01)],
            8: [(0, 0.01), (3, 0.01), (8, 0.01), (0, 0.125), (5, 0.125), (8, 0.125)],
        }.get(length, [(0, 0.05), (3, 0.3), (length // 2, 0.01), (length // 2, 0.3), (length, 0.1)])
        for seed, (count, flip_prob) in enumerate(cases):
            oracle = mask_oracle(count, flip_prob, seed)
            assert p_value(sampler(count, flip_prob, seed), oracle) > 1e-3, (count, flip_prob)
            # The test has power: a sampler at twice the flip rate is rejected.
            assert p_value(sampler(count, 2 * flip_prob, seed), oracle) < 1e-6, (count, flip_prob)


    @staticmethod
    def goodness_of_fit(draws: np.ndarray, pmf: np.ndarray) -> float:
        """Chi-square p-value of ``draws`` against ``pmf``, tail bins pooled to >= 5 expected."""
        from scipy.stats import chisquare

        observed = np.bincount(draws, minlength=pmf.size).astype(float)
        expected = pmf * draws.size
        pooled_obs, pooled_exp, obs, exp = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            obs, exp = obs + o, exp + e
            if exp >= 5:
                pooled_obs.append(obs)
                pooled_exp.append(exp)
                obs = exp = 0.0
        pooled_obs[-1] += obs
        pooled_exp[-1] += exp
        return chisquare(pooled_obs, pooled_exp)[1]

    def test_duplicate_flips_within_an_element_follow_the_law(self):
        """At (L=2, p=0.3) both bits of an element often flip; each must count."""
        counts = np.tile(np.arange(3), (1, 20_000))
        model = BitFlipFaultModel(0.3, seed=11)
        model = model.armed([0])
        out = model.perturb_counts(counts, 2)[0]
        pmf = net_flip_pmf(2, 0.3)
        for count in range(3):
            assert self.goodness_of_fit(out[counts[0] == count], pmf[count]) > 1e-3, count

    def test_window_overflow_keeps_the_law_and_batch_invariance(self, monkeypatch):
        """A walk that outruns its window reads the next counters: the window sizes work, not draws."""
        images, length, flip_prob = 2000, 8, 0.1  # 14.4 expected flips per image
        counts = np.tile(np.arange(length + 1), (images, 2))
        model = BitFlipFaultModel(flip_prob, seed=4)
        model = model.armed(range(images))
        default = model.perturb_counts(counts, length)

        monkeypatch.setattr(faults, "_WINDOW_SIGMAS", -3.0)
        monkeypatch.setattr(faults, "_WINDOW_SLACK", 0)  # a window of 4: walks take ~4 windows
        walks = []
        walk = faults._walk
        monkeypatch.setattr(faults, "_walk", lambda *args: walks.append(args[0].shape) or walk(*args))
        model = model.armed(range(images))
        out = model.perturb_counts(counts, length)
        assert walks[0] == (images, 4) and len(walks) > 5 and walks[3][0] > images // 2
        assert np.array_equal(out, default)
        pmf = net_flip_pmf(length, flip_prob)
        for count in range(length + 1):
            assert self.goodness_of_fit(out[counts == count], pmf[count]) > 1e-3, count

        batch = [3, 17, 40, 41, 99]
        together = BitFlipFaultModel(flip_prob, seed=4)
        together = together.armed(batch)
        joint = [together.perturb_counts(counts[:5], length) for _ in range(3)]
        for row, index in enumerate(batch):
            alone = BitFlipFaultModel(flip_prob, seed=4)
            alone = alone.armed([index])
            for site in range(3):
                assert np.array_equal(alone.perturb_counts(counts[:1], length)[0], joint[site][row])

    @pytest.mark.parametrize("length", [16, 64, 256])
    def test_dense_branch_inverts_each_32_bit_uniform(self, length):
        """The dense branch's outcome is the number of CDF entries ``<= u · 2^-32``, element by element."""

        def inversion(counts, uniforms):
            cdf = np.minimum(np.cumsum(net_flip_pmf(length, flip_prob), axis=1), 1.0)
            cdf[:, -1] = 1.0
            u = uniforms.reshape(-1) * 2.0**-32
            out = np.full(u.size, -1)
            for count in range(length + 1):
                rows = np.flatnonzero(counts.reshape(-1) == count)
                out[rows] = np.searchsorted(cdf[count], u[rows], side="right")
            return out.reshape(counts.shape)

        rng = np.random.default_rng(length)
        for flip_prob in (0.07, 0.3, 0.5):
            counts = rng.integers(0, length + 1, size=50_000)
            uniforms = rng.integers(0, 2**32, size=counts.size, dtype=np.uint32)
            # Draws at 0, at the top, on guide bucket edges and just below or
            # above CDF entries test the ``<=`` edges.
            cdf = np.cumsum(net_flip_pmf(length, flip_prob), axis=1)
            uniforms[: length + 1] = 0
            uniforms[length + 1 : 2 * (length + 1)] = 2**32 - 1
            uniforms[2 * (length + 1) : 3 * (length + 1)] = np.arange(length + 1) << 22
            for start, rounding in ((3 * (length + 1), np.floor), (4 * (length + 1), np.ceil)):
                edge = slice(start, start + length + 1)
                uniforms[edge] = rounding(np.minimum(cdf[counts[edge], length // 3], 0.999) * 2.0**32)
            drawn = sample_rows(faults._tables(length, flip_prob), counts, uniforms)
            assert np.array_equal(drawn, inversion(counts, uniforms))

            # A site reads word j of its key as uniforms 2j (low half) and 2j + 1 (high half).
            model = BitFlipFaultModel(flip_prob, seed=length)
            model = model.armed([5, 2])
            site = counts[:1998].reshape(2, 999)
            keys = faults.counter_words(model._keys, 1, 2)[:, 0]  # site 1
            words = faults.counter_words(keys, 0, 500)
            halves = np.stack([words & np.uint64(2**32 - 1), words >> np.uint64(32)], axis=-1).astype(np.uint32)
            assert np.array_equal(model.perturb_counts(site, length), inversion(site, halves.reshape(2, 1000)[:, :999]))

    @pytest.mark.parametrize("flip_prob, narrow", [(0.003, False), (0.01, False), (0.125, False), (0.05, True)])
    def test_sparse_walk_equals_a_scalar_skip_oracle(self, flip_prob, narrow, monkeypatch):
        """Uniform ``t`` of a walk is ``floor(log((u + 1) · 2^-32) / log1p(-p))`` unflipped bits, then a flipped one.

        ``narrow`` windows make most walks read several, merged into place.
        """
        if narrow:
            monkeypatch.setattr(faults, "_WINDOW_SIGMAS", -3.0)
            monkeypatch.setattr(faults, "_WINDOW_SLACK", 0)
        images, per_image, length, sites = [3, 11, 2**40], 300, 8, 3
        model = BitFlipFaultModel(flip_prob, seed=17)
        keys = faults.counter_words(model.armed(images)._keys, 1, sites + 1)  # (images, sites)
        drawn = model.armed(images).sparse_flips((len(images), 20, 15), length, sites)
        end = per_image * length
        for site in range(sites):
            elements, bits = [], []
            for image in range(len(images)):
                words = faults.counter_words(keys[image, site : site + 1], 0, 1024)[0].tolist()
                uniforms = iter(half for word in words for half in (word & 0xFFFFFFFF, word >> 32))
                position = -1
                while True:
                    u = next(uniforms)
                    position += math.floor(math.log((u + 1) * 2.0**-32) / math.log1p(-flip_prob)) + 1
                    if position >= end:
                        break
                    elements.append(image * per_image + position // length)
                    bits.append(position % length)
            assert np.array_equal(drawn[site][0], elements) and np.array_equal(drawn[site][1], bits), site

    def test_draws_are_pinned_to_the_version(self):
        """Digests of realised draws: they move only with ``VERSION``, which every faulted cache key holds."""
        from repro.blocks import build

        model = BitFlipFaultModel(0.01, seed=2024).armed([0, 7, 2**40])
        flips = model.sparse_flips((3, 4, 17, 17), 8, 4)
        sparse = array_digest(*[array for site in flips for array in site])
        block = build("gelu/si", output_length=8)
        counts = np.tile(np.arange(block.input_length + 1), (3, 2))
        composed = model.perturb_counts(counts, block.input_length, through=(block.table, block.output_length))
        assert BitFlipFaultModel.VERSION in DRAW_DIGESTS, "record this VERSION's draw digests"
        assert (sparse, array_digest(composed)) == DRAW_DIGESTS[BitFlipFaultModel.VERSION], (
            "fault draws moved: bump `BitFlipFaultModel.VERSION`"
        )

    def test_counter_words_are_uniform_per_output_bit(self):
        """Every bit of the mixed words, over images, sites and positions, is a fair coin."""
        model = BitFlipFaultModel(0.5, seed=9)
        model = model.armed(np.arange(64))
        words = np.concatenate(
            [faults.counter_words(faults.counter_words(model._keys, site, site + 1)[:, 0], 0, 256) for site in (1, 2)]
        )
        draws = words.size
        bits = (words.reshape(-1, 1) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        ones = bits.sum(axis=0)
        assert np.all(np.abs(ones - draws / 2) < 5 * np.sqrt(draws) / 2), ones  # 5 sigma per bit
        # Neighbouring counters, images and sites are unrelated: their XOR is fair too.
        for a, b in ((words[:, 1:], words[:, :-1]), (words[1:64], words[:63]), (words[:64], words[64:])):
            xor_ones = ((np.bitwise_xor(a, b).reshape(-1, 1) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).sum(0)
            assert np.all(np.abs(xor_ones - a.size / 2) < 5 * np.sqrt(a.size) / 2)
        uniforms = (faults.counter_words(model._keys, 0, 256) >> 11) * 2.0**-53
        assert uniforms.min() >= 0.0 and uniforms.max() < 1.0
        assert self.goodness_of_fit(np.floor(uniforms * 32).astype(int).ravel(), np.full(32, 1 / 32)) > 1e-3

    def test_mixer_avalanches(self):
        """Flipping any one input bit flips each output bit of the mixer with probability 1/2."""
        inputs = faults.counter_words(np.arange(4, dtype=np.uint64), 0, 1024).ravel()
        shifts = np.arange(64, dtype=np.uint64)
        mixed = faults._mix(inputs.copy())
        for bit in shifts:
            flips = mixed ^ faults._mix(inputs ^ (np.uint64(1) << bit))
            rates = ((flips[:, None] >> shifts) & np.uint64(1)).mean(axis=0)
            assert np.abs(rates - 0.5).max() < 0.06, bit  # 0.5 ± 7.7 sigma at 4096 draws

    @pytest.mark.parametrize("flip_prob", [0.01, 0.3, 1.0])
    def test_composed_kernel_matches_mask_enumeration(self, flip_prob):
        """K equals fault -> table -> fault enumerated over every input and output mask."""
        length, out_length = 4, 2

        def mask_law(bits):
            masks = ((np.arange(2**bits)[:, None] >> np.arange(bits)) & 1).astype(bool)
            flips = masks.sum(axis=1)
            return masks, flip_prob**flips * (1.0 - flip_prob) ** (bits - flips)

        in_masks, in_weights = mask_law(length)
        out_masks, out_weights = mask_law(out_length)
        for table in (np.array([0, 0, 1, 2, 2]), np.array([2, 0, 1, 1, 0])):  # monotone and not
            kernel = faults.composed_kernel(table, length, out_length, flip_prob)
            for count in range(length + 1):
                exact = np.zeros(out_length + 1)
                for mask, weight in zip(in_masks, in_weights):
                    mapped = table[(mask ^ (np.arange(length) < count)).sum()]
                    post = (out_masks ^ (np.arange(out_length) < mapped)).sum(axis=1)
                    exact += weight * np.bincount(post, weights=out_weights, minlength=out_length + 1)
                assert np.max(np.abs(kernel[count] - exact)) <= 1e-12, (table, count)

    def test_composed_draws_match_the_two_stage_sampler(self):
        """Two-sample chi-square: one composed draw against fault -> SI table -> fault drawn apart."""
        from scipy.stats import chi2_contingency

        from repro.blocks import build

        block = build("gelu/si", output_length=8)
        table, length, out_length = block.table, block.input_length, block.output_length
        samples = 20_000

        def composed(count, flip_prob, seed):
            model = BitFlipFaultModel(flip_prob, seed=seed)
            model = model.armed([0])
            return model.perturb_counts(np.full((1, samples), count), length, through=(table, out_length))[0]

        def two_stage(count, flip_prob, seed):
            model = BitFlipFaultModel(flip_prob, seed=seed)
            model = model.armed([0])
            mapped = table[model.perturb_counts(np.full((1, samples), count), length)]
            return model.perturb_counts(mapped, out_length)[0]

        def p_value(a, b):
            table_ = np.stack([np.bincount(a, minlength=out_length + 1), np.bincount(b, minlength=out_length + 1)])
            return chi2_contingency(table_[:, table_.sum(axis=0) > 0])[1]

        for seed, (count, flip_prob) in enumerate([(0, 0.01), (100, 0.01), (128, 0.01), (140, 0.05), (256, 0.1)]):
            reference = two_stage(count, flip_prob, 100 + seed)
            assert p_value(composed(count, flip_prob, seed), reference) > 1e-3, (count, flip_prob)
            # The test has power: composed draws at twice the flip rate are rejected.
            assert p_value(composed(count, 2 * flip_prob, seed), reference) < 1e-6, (count, flip_prob)

    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_composed_gelu_batched_equals_per_image(self, batch_size):
        """The faulted SI GELU's draws depend on the image index only, never on the batch."""
        from repro.blocks import build

        block = build("gelu/si", output_length=8)
        values = np.random.default_rng(0).normal(size=(32, 5, 12))
        indices = np.arange(100, 132)

        def run(size):
            model = BitFlipFaultModel(0.02, seed=3)
            rows = []
            for start in range(0, 32, size):
                model = model.armed(indices[start : start + size])
                rows.append(block.evaluate(values[start : start + size], faults=model))
            return np.concatenate(rows)

        reference = run(5)  # a chunking none of the parametrised sizes share
        assert not np.array_equal(reference, block.evaluate(values))
        assert np.array_equal(run(batch_size), reference)

    def test_committed_accuracy_trajectory_names_this_fault_model(self):
        """``ACC_sc_vit.json``'s faulted rows were drawn by the fault model this tree runs."""
        assert json.loads(ACC_RESULTS.read_text())["fault_model_version"] == BitFlipFaultModel.VERSION


class TestEvalTask:
    def make_task(self, eval_setup, **overrides):
        train, test = eval_setup["train"], eval_setup["test"]
        kwargs = dict(
            model=eval_setup["model"],
            splits={
                "test": (test.images, test.labels),
                "train": (train.images, train.labels),
            },
            calibration_images=train.images[:4],
            max_images=8,
            batch_size=4,
        )
        kwargs.update(overrides)
        return EvalTask(**kwargs)

    def test_grid_runs_and_round_trips(self, eval_setup):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(8,), flip_probs=(0.0, 0.1), splits=("test", "train"))
        results = run_eval_grid(task, configs, workers=1)
        assert len(results) == 4
        for config, result in zip(configs, results):
            assert result.split == config["split"]
            assert result.flip_prob == config["flip_prob"]
            assert result.num_images == 8
            assert len(result.predictions) == 8
            # encode/decode must be lossless through JSON (the cache path)
            import json

            payload = json.loads(json.dumps(task.encode(result)))
            arrays = task.result_arrays(result)
            restored = task.decode(payload, arrays)
            assert restored.accuracy == result.accuracy
            assert restored.softmax_config == result.softmax_config
            assert np.array_equal(restored.predictions, result.predictions)

    def test_task_results_match_direct_pipeline(self, eval_setup):
        task = self.make_task(eval_setup)
        config = eval_grid(by_grid=(8,), splits=("test",))[0]
        [result] = run_eval_grid(task, [config], workers=1)
        pipeline = ScViTEvalPipeline(
            eval_setup["model"],
            sc_vit_softmax(config["by"], config["s1"], config["s2"], config["k"], alpha_x=eval_setup["alpha_x"]),
        )
        direct = pipeline.evaluate(eval_setup["test"], max_images=8, batch_size=1)
        assert np.array_equal(result.predictions, direct.predictions)
        assert result.accuracy == direct.accuracy

    def test_warm_cache_serves_everything(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(4, 8), splits=("test",))
        cache = ResultCache(tmp_path)
        cold = run_eval_grid(task, configs, workers=1, cache=cache)
        cold_stats = run_eval_grid.last_run_stats
        warm = run_eval_grid(task, configs, workers=1, cache=cache)
        warm_stats = run_eval_grid.last_run_stats
        assert cold_stats.evaluated == 2 and cold_stats.cache_hits == 0
        assert warm_stats.evaluated == 0 and warm_stats.cache_hits == 2
        for a, b in zip(cold, warm):
            assert a.accuracy == b.accuracy
            assert np.array_equal(a.predictions, b.predictions)

    def test_interrupted_grid_resumes_only_missing_configs(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        configs = eval_grid(by_grid=(4, 8, 16), splits=("test",))
        cache = ResultCache(tmp_path)
        run_eval_grid(task, configs, workers=1, cache=cache)
        # Simulate a crash that lost one stored result.
        version = task.version()
        lost = cache.key(task.name, task.config_key(configs[1]), version)
        cache._json_path(lost).unlink()
        resumed = run_eval_grid(task, configs, workers=1, cache=cache)
        stats = run_eval_grid.last_run_stats
        assert stats.evaluated == 1 and stats.cache_hits == 2
        assert [r.softmax_config.by for r in resumed] == [4, 8, 16]

    def test_cache_key_separates_splits_and_fault_rates(self, eval_setup, tmp_path):
        task = self.make_task(eval_setup)
        cache = ResultCache(tmp_path)
        version = task.version()
        keys = {
            cache.key(task.name, task.config_key(config), version)
            for config in eval_grid(by_grid=(8,), flip_probs=(0.0, 0.1), splits=("test", "train"))
        }
        assert len(keys) == 4

    def test_version_changes_with_weights(self, eval_setup, monkeypatch):
        task = self.make_task(eval_setup)
        retrained = self.make_task(eval_setup, _weights_digest="deadbeef")
        assert task.version() != retrained.version()
        version = task.version()
        monkeypatch.setattr(BitFlipFaultModel, "VERSION", BitFlipFaultModel.VERSION - 1)
        assert task.version() != version  # so does a fault-sampler version bump
        monkeypatch.setattr(autograd, "_FORMULATION", "stacked")
        stacked = task.version()
        monkeypatch.setattr(autograd, "_FORMULATION", "einsum")
        assert task.version() != stacked  # and the batch-invariant matmul formulation

    def test_unknown_split_raises(self, eval_setup):
        task = self.make_task(eval_setup)
        config = eval_grid(by_grid=(8,), splits=("validation",))[0]
        with pytest.raises(KeyError):
            task.evaluate(config, seed=0)


class TestEvalCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_eval_smoke_warm_cache_and_bit_identity(self, tmp_path, capsys):
        base = [
            "eval",
            "--max-images", "12",
            "--train-size", "32",
            "--test-size", "16",
            "--layers", "1",
            "--embed-dim", "16",
            "--heads", "2",
            "--by-grid", "4", "8",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "eval.json"),
            "--verify-batched",
            "--quiet",
        ]
        assert self.run_cli(base) == 0
        out = capsys.readouterr().out
        assert "PASS batched == per-image" in out

        import json

        first = json.loads((tmp_path / "eval.json").read_text())
        assert first["stats"]["evaluated"] == 2

        assert self.run_cli(base) == 0
        second = json.loads((tmp_path / "eval.json").read_text())
        assert second["stats"]["evaluated"] == 0
        assert second["stats"]["cache_hits"] == 2
        assert second["rows"] == first["rows"]
