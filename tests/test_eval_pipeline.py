"""Tests for the batched end-to-end evaluation subsystem (repro.eval_pipeline).

The load-bearing property is *chunk invariance*: evaluating a split in
batches of any size — including 1, the serial per-image path the seed
``ScViTEvaluator`` walked — must produce bit-identical predictions, with and
without fault injection.  On top of that: the fault model's determinism
contract, the ``EvalTask`` cache round-trip/resume behaviour, and the CLI.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.softmax_circuit import SoftmaxCircuitConfig
from repro.eval_pipeline import (
    BitFlipFaultModel,
    EvalTask,
    ScViTEvalPipeline,
    eval_grid,
    run_eval_grid,
)
from repro.eval_pipeline.faults import net_flip_pmf
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

    def test_batched_equals_seed_evaluator_shim(self, eval_setup):
        """The historical ScViTEvaluator API walks the same pipeline."""
        from repro.core.sc_vit import ScViTEvaluator

        evaluator = ScViTEvaluator(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        shim = evaluator.evaluate(eval_setup["test"], batch_size=1, max_images=10)
        pipeline = ScViTEvalPipeline(
            eval_setup["model"], make_softmax_config(),
            calibration_logits=eval_setup["calibration"],
        )
        batched = pipeline.evaluate(eval_setup["test"], max_images=10, batch_size=10)
        assert shim.accuracy == batched.accuracy
        assert shim.num_images == batched.num_images
        assert shim.softmax_config == batched.softmax_config

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


def matmul_operands(kind, batch, seed):
    """Operands of one matmul kind at the strided layouts the ViT forward uses."""
    rng = np.random.default_rng(seed)
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

    @pytest.mark.parametrize("kind", ["linear", "scores", "head"])
    @given(
        batch=st.integers(1, 64),
        cuts=st.lists(st.integers(1, 64), min_size=1, max_size=64),
        seed=st.integers(0, 2**16),
    )
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
        assert model._site == 1

    def test_same_seed_same_faults(self):
        counts = np.arange(12).reshape(2, 6) % 9
        outs = []
        for _ in range(2):
            model = BitFlipFaultModel(0.3, seed=5)
            model.begin_batch([10, 11])
            outs.append(model.perturb_counts(counts, 8))
        assert np.array_equal(outs[0], outs[1])

    def test_faults_depend_on_image_index_not_batch_position(self):
        counts = np.full((3, 4), 6)
        together = BitFlipFaultModel(0.3, seed=5)
        together.begin_batch([7, 8, 9])
        joint = together.perturb_counts(counts, 8)
        split = []
        for index in (7, 8, 9):
            model = BitFlipFaultModel(0.3, seed=5)
            model.begin_batch([index])
            split.append(model.perturb_counts(counts[:1], 8))
        assert np.array_equal(joint, np.concatenate(split))

    def test_sites_draw_independent_masks(self):
        counts = np.full((1, 64), 8)
        model = BitFlipFaultModel(0.5, seed=3)
        model.begin_batch([0])
        first = model.perturb_counts(counts, 16)
        second = model.perturb_counts(counts, 16)
        assert not np.array_equal(first, second)

    def test_flip_rate_moves_the_popcount(self):
        model = BitFlipFaultModel(1.0, seed=0)
        model.begin_batch([0])
        counts = np.array([[0, 16, 5]])
        out = model.perturb_counts(counts, 16)
        # p=1 flips every bit: count c becomes 16 - c.
        assert np.array_equal(out, 16 - counts)

    def test_requires_begin_batch(self):
        model = BitFlipFaultModel(0.5, seed=0)
        with pytest.raises(RuntimeError):
            model.perturb_counts(np.array([[1]]), 4)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BitFlipFaultModel(1.5)

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_rejects_counts_outside_the_stream(self, bad):
        model = BitFlipFaultModel(0.3, seed=0)
        model.begin_batch([0])
        with pytest.raises(ValueError):
            model.perturb_counts(np.array([[3, bad]]), 8)

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

    @pytest.mark.parametrize("length", [16, 256])
    def test_draws_match_the_bit_mask_oracle(self, length):
        """Two-sample chi-square of the sampler against XOR-mask draws (the v1 path)."""
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

        for seed, (count, flip_prob) in enumerate(
            [(0, 0.05), (3, 0.3), (length // 2, 0.01), (length // 2, 0.3), (length, 0.1)]
        ):
            oracle = mask_oracle(count, flip_prob, seed)
            assert p_value(sampler(count, flip_prob, seed), oracle) > 1e-3, (count, flip_prob)
            # The test has power: a sampler at twice the flip rate is rejected.
            assert p_value(sampler(count, 2 * flip_prob, seed), oracle) < 1e-6, (count, flip_prob)


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
