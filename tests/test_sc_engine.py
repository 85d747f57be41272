"""Contract tests of the packed SC kernel engine (:mod:`repro.sc.packed` and its callers).

Each word-level op (popcount, the fused AND/XNOR multiply-decode, the
tail-re-masking NOT and XNOR) is pinned against an oracle computed on
explicit bit arrays, at lengths straddling word boundaries so the masked
tail of the last word is exercised.  One pass through every engine op is
pinned to recorded digests, so no seeded stream can drift.  And the eval
and serve forwards, which work on thermometer counts, are checked to run
no packed kernel at all.
"""

import asyncio
import sys

import numpy as np
import pytest

import repro.sc.arithmetic as arithmetic
import repro.sc.fsm as fsm
import repro.sc.packed as packed
from repro.blocks.specs import SoftmaxCircuitConfig
from repro.eval_pipeline import ScViTEvalPipeline
from repro.utils.digests import array_digest
from repro.sc.arithmetic import draw_select_planes, fused_multiply_decode, mux_scaled_add
from repro.sc.bitstream import StochasticStream
from repro.sc.encodings import bipolar_decode, unipolar_decode
from repro.sc.fsm import FsmGeluUnit, FsmNonlinearUnit, FsmTanhUnit
from repro.sc.packed import PackedBitPlane, tail_mask
from repro.sc.sng import StochasticNumberGenerator
from repro.sc.sorting_network import BitonicSortingNetwork
from repro.serve.deploy import build_deployment
from repro.serve.specs import ServeSpec

#: Lengths straddling word boundaries, including odd tails.
LENGTHS = [1, 63, 64, 65, 100, 256]


def _random_planes(length: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a_bits = (rng.random((4, 5, length)) < 0.5).astype(np.uint8)
    b_bits = (rng.random((4, 5, length)) < 0.5).astype(np.uint8)
    return a_bits, b_bits, PackedBitPlane.from_bits(a_bits), PackedBitPlane.from_bits(b_bits)


@pytest.mark.parametrize("length", LENGTHS)
def test_popcount_counts_set_bits(length):
    a_bits, _, a, _ = _random_planes(length)
    assert np.array_equal(a.popcount(), a_bits.sum(axis=-1))


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("encoding", ["unipolar", "bipolar"])
def test_fused_multiply_decode_matches_bitwise_product(encoding, length):
    a_bits, b_bits, a, b = _random_planes(length, seed=1)
    if encoding == "unipolar":
        expected = unipolar_decode((a_bits & b_bits).sum(axis=-1) / length)
    else:
        expected = bipolar_decode((1 - (a_bits ^ b_bits)).sum(axis=-1) / length)
    got = fused_multiply_decode(
        StochasticStream(packed=a, encoding=encoding), StochasticStream(packed=b, encoding=encoding)
    )
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("length", LENGTHS)
def test_inverting_ops_keep_the_tail_clear(length):
    """NOT and XNOR set the padding bits of the last word; both re-mask them."""
    a_bits, b_bits, a, b = _random_planes(length, seed=2)
    mask = tail_mask(length)
    inverted = ~a
    xnored = a.xnor(b)
    assert np.all(inverted.words[..., -1] & ~mask == 0)
    assert np.all(xnored.words[..., -1] & ~mask == 0)
    assert np.array_equal(inverted.to_bits(), 1 - a_bits)
    assert np.array_equal(xnored.to_bits(), 1 - (a_bits ^ b_bits))


def _engine_outputs(length: int, seed: int = 9) -> dict:
    """One pass through every packed-engine op, words (or decodes) out."""
    rng = np.random.default_rng(seed)
    uni = rng.random((5, 7))
    bi = uni * 2.0 - 1.0
    a_uni = StochasticStream.encode(uni, length, seed=1)
    b_uni = StochasticStream.encode(uni[::-1], length, seed=2)
    a_bi = StochasticStream.encode(bi, length, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(-bi, length, encoding="bipolar", seed=4)
    # No declared cycle period: the state-trajectory scan, not the fused output-byte scan.
    threshold = FsmNonlinearUnit(8, lambda s, b, c: (s >= 5).astype(np.int8), vectorized_rule=True)
    return {
        "encode": a_uni.packed.words,
        "random": PackedBitPlane.random((5, 7), length, 0.3, np.random.default_rng(8)).words,
        "popcount": a_uni.packed.popcount(),
        "and": (a_uni.packed & b_uni.packed).words,
        "or": (a_uni.packed | b_uni.packed).words,
        "xor": (a_uni.packed ^ b_uni.packed).words,
        "xnor": a_bi.packed.xnor(b_bi.packed).words,
        "invert": (~a_uni.packed).words,
        "mux": mux_scaled_add(a_uni, b_uni, seed=5).packed.words,
        "fused_uni": fused_multiply_decode(a_uni, b_uni),
        "fused_bi": fused_multiply_decode(a_bi, b_bi),
        "fsm_gelu": FsmGeluUnit(num_states=16).process(a_bi).packed.words,
        "fsm_tanh": FsmTanhUnit(num_states=8).process(a_bi).packed.words,
        "fsm_trajectory": threshold.process(a_bi).packed.words,
        "selects": np.stack([p.words for p in draw_select_planes((5, 7), length, 3, seed=6)]),
        "sort_bits": BitonicSortingNetwork(length).sort_bits(a_uni.bits ^ b_uni.bits),
        "sng_ideal": StochasticNumberGenerator(length, mode="ideal", seed=7).generate(uni).packed.words,
    }


#: ``array_digest`` of every ``_engine_outputs`` entry.  Every seeded SC
#: result depends on these bits and on the order of each RNG draw, so a
#: change here moves results everywhere and must be deliberate.
ENGINE_DIGESTS = {
    65: {
        "encode": "4b285d9420b66f8a",
        "random": "a6f60ae078a7e176",
        "popcount": "d1b8abef8bb9c576",
        "and": "4abb50d7b7a6f956",
        "or": "17b7183ed811d91e",
        "xor": "49bc7efe3edba4a7",
        "xnor": "ebd888861d4a343a",
        "invert": "13d2e667e2ec838b",
        "mux": "6d37a0438e169cb5",
        "fused_uni": "7a1efb7678a22794",
        "fused_bi": "a202e1637a4f9a2f",
        "fsm_gelu": "a944b38ec5c3a94f",
        "fsm_tanh": "7cd82fc5e2c9662b",
        "fsm_trajectory": "182957e42cf7ce1a",
        "selects": "d765cb8176f31514",
        "sort_bits": "999d1678b588c48e",
        "sng_ideal": "4f46a62b495fe2c7",
    },
    256: {
        "encode": "c6f289e0a9423d72",
        "random": "2f2a582ab3bf4014",
        "popcount": "9eaaf7553147acde",
        "and": "9e43e84aea3f251b",
        "or": "62c1ab0dc01389cd",
        "xor": "14ddb62fdf9dfa26",
        "xnor": "9b7f4f314f743142",
        "invert": "94085f52a0c8ab40",
        "mux": "03fe1f00bc7a5ce3",
        "fused_uni": "20921dd7764a0b5a",
        "fused_bi": "0617eab233fe98d8",
        "fsm_gelu": "0907df9473591329",
        "fsm_tanh": "687637db962a1f95",
        "fsm_trajectory": "570037503bf902f1",
        "selects": "fe13945a446f6d33",
        "sort_bits": "0fbf68771db2c29c",
        "sng_ideal": "cc13fca0603dddab",
    },
}


@pytest.mark.parametrize("length", sorted(ENGINE_DIGESTS))
def test_engine_outputs_match_recorded_digests(length):
    got = {key: array_digest(value) for key, value in _engine_outputs(length).items()}
    assert got == ENGINE_DIGESTS[length]


# --------------------------------------------------------------------------
# The eval and serve forwards run on counts: no packed kernel on the path
# --------------------------------------------------------------------------
def _forbid_packed_ops(monkeypatch) -> None:
    """Make every packed-engine entry point raise, wherever it is bound."""

    def forbidden(name):
        def kernel(*args, **kwargs):
            raise AssertionError(f"packed SC kernel {name} ran")

        return kernel

    functions = [
        packed.bernoulli_plane,
        packed.select_plane,
        fsm._fsm_trajectory,
        fsm._fsm_forward_bytes,
        arithmetic.fused_multiply_decode,
    ]
    for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
        for attr, value in list(vars(module).items()):
            if any(value is function for function in functions):
                monkeypatch.setattr(module, attr, forbidden(attr))
    for op in ("__and__", "__or__", "__xor__", "__invert__", "xnor", "mux", "popcount", "random"):
        monkeypatch.setattr(PackedBitPlane, op, forbidden(f"PackedBitPlane.{op}"))
    monkeypatch.setattr(BitonicSortingNetwork, "sort_bits", forbidden("sort_bits"))


def test_the_forbidding_patch_reaches_every_caller(monkeypatch):
    _forbid_packed_ops(monkeypatch)
    with pytest.raises(AssertionError, match="bernoulli_plane"):
        StochasticStream.encode(np.full(3, 0.5), 16, seed=0)
    with pytest.raises(AssertionError, match="select_plane"):
        draw_select_planes((3,), 16, 2, seed=0)
    with pytest.raises(AssertionError, match="_fsm_forward_bytes"):
        FsmTanhUnit(num_states=8).process(StochasticStream(np.ones((2, 16), np.int8), "bipolar"))


@pytest.mark.parametrize("flip_prob", [0.01, 0.25])  # sparse, then dense fault sites
def test_faulted_eval_forward_with_si_gelu_runs_no_packed_kernel(monkeypatch, frozen_vit, tiny_dataset, flip_prob):
    train, _ = tiny_dataset
    config = SoftmaxCircuitConfig(m=64, iterations=2, bx=4, alpha_x=1.0, by=16, alpha_y=0.03, s1=16, s2=4)
    pipeline = ScViTEvalPipeline(frozen_vit, config, gelu_output_bsl=8, flip_prob=flip_prob, fault_seed=1)
    expected = pipeline.predict_batch(train.images[:3], np.arange(5, 8))
    _forbid_packed_ops(monkeypatch)
    got = pipeline.predict_batch(train.images[:3], np.arange(5, 8))
    assert np.array_equal(got, expected)


def test_served_thread_engine_batch_runs_no_packed_kernel(monkeypatch):
    spec = ServeSpec(
        name="tiny", train_size=8, layers=1, embed_dim=8, heads=2, calibration_images=2,
        by=4, s1=8, s2=4, k=2, max_batch=4, gelu_bsl=8, flip_prob=0.01, cache=False,
    )
    deployment = build_deployment(spec)
    images = np.random.default_rng(0).normal(size=(4, 16, 16, 3))
    _forbid_packed_ops(monkeypatch)

    async def session():
        async with deployment:
            results = await asyncio.gather(
                *[deployment.service.submit(images[i], index=i) for i in range(4)]
            )
            return [r.prediction for r in results]

    assert len(asyncio.run(session())) == 4
    assert deployment.service.stats_snapshot()["requests"]["errors"] == 0
