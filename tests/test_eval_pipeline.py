"""Tests for the batched end-to-end evaluation subsystem (repro.eval_pipeline).

The load-bearing property is *chunk invariance*: evaluating a split in
batches of any size — including 1, the serial per-image path — must
produce bit-identical predictions, with and without fault injection.  On top of that: the fault model's determinism
contract, the ``EvalTask`` cache round-trip/resume behaviour, and the CLI.
"""

import logging
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import (
    BitFlipFaultModel,
    EvalTask,
    ScViTEvalPipeline,
    eval_grid,
    run_eval_grid,
)
from repro.eval_pipeline import faults
from repro.eval_pipeline.faults import net_flip_pmf, sample_rows
from repro.nn import autograd
from repro.nn.autograd import Tensor, batch_invariant_matmul, matmul_data, no_grad
from repro.runner.cache import ResultCache


def make_softmax_config(by=8, s1=16, s2=4, k=2):
    return SoftmaxCircuitConfig(m=64, iterations=k, bx=4, alpha_x=1.0, by=by, alpha_y=0.03, s1=s1, s2=s2)


@pytest.fixture(scope="module")
def eval_setup():
    """One model + splits + shared calibration, reused across this module.

    The calibration logits are collected once up front: a calibration
    forward updates the model's BatchNorm running statistics (the seed
    evaluator's protocol), so sharing the collected logits keeps every test
    in this module evaluating the exact same model state.
    """
    from repro.evaluation.vectors import collect_softmax_inputs
    from repro.nn.vit import CompactVisionTransformer, ViTConfig
    from repro.training.datasets import SyntheticImageDataset

    config = ViTConfig(
        image_size=8, patch_size=4, in_channels=3, num_classes=4,
        embed_dim=16, num_layers=2, num_heads=2, norm="bn", seed=3,
    )
    model = CompactVisionTransformer(config)
    dataset = SyntheticImageDataset(num_classes=4, image_size=8, seed=5)
    train, test = dataset.splits(train_size=24, test_size=16)
    calibration_logits = collect_softmax_inputs(model, train.images[:4], max_rows=512)
    model.eval()
    return {"model": model, "train": train, "test": test, "calibration": calibration_logits}


class TestChunkInvariance:
    def test_batched_equals_per_image_clean(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
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
            eval_setup["model"], make_softmax_config(),
            gelu_output_bsl=gelu_bsl, flip_prob=flip_prob, fault_seed=13,
            calibration_logits=eval_setup["calibration"],
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
            eval_setup["model"], make_softmax_config(),
            gelu_output_bsl=8, flip_prob=0.02, fault_seed=21,
            calibration_logits=eval_setup["calibration"],
        )
        per_image = pipeline.evaluate(split, batch_size=1).predictions
        for batch_size in (7, 32):
            assert np.array_equal(pipeline.evaluate(split, batch_size=batch_size).predictions, per_image)

    def test_streaming_batches_cover_the_split_in_order(self, eval_setup):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
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
            model, make_softmax_config(), gelu_output_bsl=4,
            calibration_logits=eval_setup["calibration"],
        )
        pipeline.evaluate(eval_setup["test"], max_images=6)
        with no_grad(), batch_invariant_matmul():
            after = model(Tensor(images)).data
        assert np.array_equal(before, after)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_batch_names_the_first_bad_image(self, eval_setup, bad):
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        images = eval_setup["test"].images[:6].copy()
        images[4, 1, 2, 0] = bad
        images[5, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="image 4 has non-finite"):
            pipeline.predict_batch(images)

    def test_iter_batches_names_the_split_index(self, eval_setup):
        from repro.training.datasets import DatasetSplit

        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
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
            eval_setup["model"], make_softmax_config(), gelu_output_bsl=4,
            calibration_logits=eval_setup["calibration"],
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
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
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
        model.begin_batch([0, 1])
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
            model.begin_batch([10, 11])
            outs.append(model.perturb_counts(counts, 8))
        assert np.array_equal(outs[0], outs[1])

    def test_faults_depend_on_image_index_not_batch_position(self):
        counts = np.full((3, 40), 6)
        for flip_prob in (0.3, 0.05):  # dense and sparse branch at L = 8
            together = BitFlipFaultModel(flip_prob, seed=5)
            together.begin_batch([7, 8, 9])
            joint = [together.perturb_counts(counts, 8), together.perturb_counts(counts, 8)]
            split = []
            for index in (7, 8, 9):
                model = BitFlipFaultModel(flip_prob, seed=5)
                model.begin_batch([index])
                split.append([model.perturb_counts(counts[:1], 8), model.perturb_counts(counts[:1], 8)])
            for site, out in enumerate(joint):
                assert np.array_equal(out, np.concatenate([image[site] for image in split]))
            assert not np.array_equal(joint[0], counts)

    def test_sites_draw_independent_masks(self):
        counts = np.full((1, 64), 8)
        model = BitFlipFaultModel(0.5, seed=3)
        model.begin_batch([0])
        first = model.perturb_counts(counts, 16)
        second = model.perturb_counts(counts, 16)
        assert not np.array_equal(first, second)

    def test_a_forward_of_100_sites_keeps_sites_independent_and_batch_invariant(self):
        counts = np.full((2, 64), 8)
        for flip_prob in (0.5, 0.05):  # dense and sparse branch at L = 16
            together = BitFlipFaultModel(flip_prob, seed=3)
            together.begin_batch([4, 9])
            alone = [BitFlipFaultModel(flip_prob, seed=3) for _ in range(2)]
            for model, index in zip(alone, (4, 9)):
                model.begin_batch([index])
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
            model.begin_batch([0, 1])
            counts = np.array([[0, length, length // 2], [length, 0, 0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = model.perturb_counts(counts, length)
            # p=1 flips every bit: count c becomes L - c.
            assert np.array_equal(out, length - counts)

    def test_requires_begin_batch(self):
        model = BitFlipFaultModel(0.5, seed=0)
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
            model.begin_batch([0])
            with pytest.raises(ValueError):
                model.perturb_counts(counts, 8)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_accepts_the_edges_and_empty_sites(self, dtype):
        for flip_prob in (0.3, 0.01):
            model = BitFlipFaultModel(flip_prob, seed=0)
            model.begin_batch([0, 1])
            out = model.perturb_counts(np.array([[0, 8], [8, 0]], dtype=dtype), 8)
            assert out.shape == (2, 2) and out.min() >= 0 and out.max() <= 8
            empty = model.perturb_counts(np.zeros((2, 0, 3), dtype=dtype), 8)
            assert empty.shape == (2, 0, 3)

    @pytest.mark.parametrize("flip_prob", [0.3, 0.01])  # dense and sparse branch at L = 8
    def test_never_mutates_its_input(self, flip_prob):
        model = BitFlipFaultModel(flip_prob, seed=0)
        model.begin_batch([0, 1])
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
            model.begin_batch([0])
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
        model.begin_batch([0])
        out = model.perturb_counts(counts, 2)[0]
        pmf = net_flip_pmf(2, 0.3)
        for count in range(3):
            assert self.goodness_of_fit(out[counts[0] == count], pmf[count]) > 1e-3, count

    def test_window_overflow_keeps_the_law_and_batch_invariance(self, monkeypatch):
        """A walk that outruns its window reads the next counters: the window sizes work, not draws."""
        images, length, flip_prob = 2000, 8, 0.1  # 14.4 expected flips per image
        counts = np.tile(np.arange(length + 1), (images, 2))
        model = BitFlipFaultModel(flip_prob, seed=4)
        model.begin_batch(range(images))
        default = model.perturb_counts(counts, length)

        monkeypatch.setattr(faults, "_WINDOW_SIGMAS", -3.0)
        monkeypatch.setattr(faults, "_WINDOW_SLACK", 0)  # a window of 4: walks take ~4 windows
        walks = []
        walk = faults._walk
        monkeypatch.setattr(faults, "_walk", lambda *args: walks.append(args[0].shape) or walk(*args))
        model.begin_batch(range(images))
        out = model.perturb_counts(counts, length)
        assert walks[0] == (images, 4) and len(walks) > 5 and walks[3][0] > images // 2
        assert np.array_equal(out, default)
        pmf = net_flip_pmf(length, flip_prob)
        for count in range(length + 1):
            assert self.goodness_of_fit(out[counts == count], pmf[count]) > 1e-3, count

        batch = [3, 17, 40, 41, 99]
        together = BitFlipFaultModel(flip_prob, seed=4)
        together.begin_batch(batch)
        joint = [together.perturb_counts(counts[:5], length) for _ in range(3)]
        for row, index in enumerate(batch):
            alone = BitFlipFaultModel(flip_prob, seed=4)
            alone.begin_batch([index])
            for site in range(3):
                assert np.array_equal(alone.perturb_counts(counts[:1], length)[0], joint[site][row])

    @pytest.mark.parametrize("length", [16, 64, 256])
    def test_dense_branch_equals_the_version_2_inversion(self, length):
        """The dense branch inverts each word's uniform ``(w >> 11) · 2^-53`` exactly as version 2 did."""

        def uniforms(words):
            return (words >> 11).astype(np.float64) * 2.0**-53

        rng = np.random.default_rng(length)
        for flip_prob in (0.07, 0.3, 0.5):
            counts = rng.integers(0, length + 1, size=50_000)
            words = rng.integers(0, 2**64, size=counts.size, dtype=np.uint64)
            # Draws at 0 and on (or just past) CDF entries test the ``<=`` edges.
            cdf = np.cumsum(net_flip_pmf(length, flip_prob), axis=1)
            words[: length + 1] = 0
            for start, rounding in ((length + 1, np.floor), (2 * (length + 1), np.ceil)):
                edge = slice(start, start + length + 1)
                level = rounding(np.minimum(cdf[counts[edge], length // 3], 0.999) * 2.0**53)
                words[edge] = level.astype(np.uint64) << np.uint64(11)
            expected = version_2_inversion(counts, length, flip_prob, uniforms(words))
            assert np.array_equal(sample_rows(faults._tables(length, flip_prob), counts, words), expected)

            model = BitFlipFaultModel(flip_prob, seed=length)
            model.begin_batch([5, 2])
            site = counts[:2000].reshape(2, 1000)
            keys = faults.counter_words(model._keys, 1, 2)[:, 0]  # site 1
            expected = version_2_inversion(site, length, flip_prob, uniforms(faults.counter_words(keys, 0, 1000)))
            assert np.array_equal(model.perturb_counts(site, length), expected)

    def test_counter_words_are_uniform_per_output_bit(self):
        """Every bit of the mixed words, over images, sites and positions, is a fair coin."""
        model = BitFlipFaultModel(0.5, seed=9)
        model.begin_batch(np.arange(64))
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

        block = build("gelu/si", output_length=8).block
        table, length, out_length = block.table, block.input_length, block.output_length
        samples = 20_000

        def composed(count, flip_prob, seed):
            model = BitFlipFaultModel(flip_prob, seed=seed)
            model.begin_batch([0])
            return model.perturb_counts(np.full((1, samples), count), length, through=(table, out_length))[0]

        def two_stage(count, flip_prob, seed):
            model = BitFlipFaultModel(flip_prob, seed=seed)
            model.begin_batch([0])
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
                model.begin_batch(indices[start : start + size])
                rows.append(block.evaluate(values[start : start + size], faults=model))
            return np.concatenate(rows)

        reference = run(5)  # a chunking none of the parametrised sizes share
        assert not np.array_equal(reference, block.evaluate(values))
        assert np.array_equal(run(batch_size), reference)


def version_2_inversion(counts, length, flip_prob, uniforms):
    """The VERSION 2 sampler, verbatim: CDF + guide table, bisection in every bucket with an edge."""
    cdf = np.minimum(np.cumsum(net_flip_pmf(length, flip_prob), axis=1), 1.0)
    cdf[:, -1] = 1.0
    buckets = 1 << max(10, int(length).bit_length())
    edges = np.ceil(cdf * buckets).astype(np.intp) + np.arange(length + 1)[:, None] * (buckets + 1)
    guide = np.bincount(edges.ravel(), minlength=(length + 1) * (buckets + 1))
    guide = np.cumsum(guide.reshape(length + 1, buckets + 1), axis=1)
    rows = counts.reshape(-1).astype(np.intp, copy=False)
    u = uniforms.reshape(-1)
    start = (u * buckets).astype(np.intp)
    start += rows * (buckets + 1)
    lo = guide.take(start)
    start += 1
    hi = guide.take(start)
    todo = np.flatnonzero(lo < hi)
    while todo.size:
        mid = (lo[todo] + hi[todo]) >> 1
        below = cdf.take(rows[todo] * (length + 1) + mid) <= u[todo]
        lo[todo[below]] = mid[below] + 1
        hi[todo[~below]] = mid[~below]
        todo = todo[lo[todo] < hi[todo]]
    return lo.reshape(counts.shape)


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
        task = EvalTask(**kwargs)
        # Pin the shared module calibration so task evaluations see the same
        # model state as the direct-pipeline tests.
        task._calibration_logits = eval_setup["calibration"]
        return task

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
            task.softmax_config(config),
            calibration_logits=eval_setup["calibration"],
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
