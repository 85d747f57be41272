"""Kernel-engine contract tests for :mod:`repro.sc.backends`.

The engine routes its hot kernels through one shared :class:`NumpyBackend`.
These tests pin each word-level kernel against an oracle computed on
explicit bit arrays (at lengths straddling word boundaries, so the masked
tail of the last word is exercised), and check that the instrumentation
seam is observational only: engine outputs are bit-identical with a
wrapper installed.
"""

import numpy as np
import pytest

import repro.sc.backends as backends_mod
from repro.sc.arithmetic import draw_select_planes, fused_multiply_decode, mux_scaled_add
from repro.sc.backends import KernelBackend, NumpyBackend, active_backend, install_instrumentation
from repro.sc.bitstream import StochasticStream
from repro.sc.fsm import FsmGeluUnit, FsmTanhUnit
from repro.sc.packed import PackedBitPlane, tail_mask

#: Lengths straddling word boundaries, including odd tails.
LENGTHS = [1, 63, 64, 65, 100, 256]


@pytest.fixture(autouse=True)
def _no_instrumentation():
    """Each test starts and ends with the raw backend instance."""
    previous = backends_mod._instrument
    install_instrumentation(None)
    yield
    install_instrumentation(previous)


def _random_planes(length: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    a_bits = (rng.random((4, 5, length)) < 0.5).astype(np.uint8)
    b_bits = (rng.random((4, 5, length)) < 0.5).astype(np.uint8)
    return a_bits, b_bits, PackedBitPlane.from_bits(a_bits), PackedBitPlane.from_bits(b_bits)


@pytest.mark.parametrize("length", LENGTHS)
def test_popcount_reduce_counts_set_bits(length):
    a_bits, _, a, _ = _random_planes(length)
    got = active_backend().popcount_reduce(a.words)
    assert np.array_equal(got, a_bits.sum(axis=-1))


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("op", ["and", "xnor"])
def test_multiply_popcount_matches_bitwise_product(op, length):
    a_bits, b_bits, a, b = _random_planes(length, seed=1)
    product = a_bits & b_bits if op == "and" else 1 - (a_bits ^ b_bits)
    got = active_backend().multiply_popcount(a.words, b.words, op, tail_mask(length))
    assert np.array_equal(got, product.sum(axis=-1))


@pytest.mark.parametrize("length", LENGTHS)
def test_inverting_kernels_keep_the_tail_clear(length):
    """NOT and XNOR set the padding bits of the last word; both re-mask them."""
    a_bits, b_bits, a, b = _random_planes(length, seed=2)
    mask = tail_mask(length)
    kernels = active_backend()
    inverted = kernels.invert_words(a.words.copy(), mask)
    xnored = kernels.xnor_words(a.words, b.words, mask)
    assert np.all(inverted[..., -1] & ~mask == 0)
    assert np.all(xnored[..., -1] & ~mask == 0)
    assert np.array_equal(PackedBitPlane(inverted, length).to_bits(), 1 - a_bits)
    assert np.array_equal(PackedBitPlane(xnored, length).to_bits(), 1 - (a_bits ^ b_bits))


def test_multiply_popcount_rejects_unknown_op():
    _, _, a, b = _random_planes(64)
    with pytest.raises(ValueError, match="unknown multiply op"):
        active_backend().multiply_popcount(a.words, b.words, "or", tail_mask(64))


def test_active_backend_is_the_shared_numpy_engine():
    backend = active_backend()
    assert isinstance(backend, NumpyBackend)
    assert isinstance(backend, KernelBackend)
    assert backend.name == "numpy"
    assert active_backend() is backend


def _engine_outputs(length: int, seed: int = 9) -> dict:
    """One pass through every kernel-routed engine op, packed words out."""
    rng = np.random.default_rng(seed)
    uni = rng.random((5, 7))
    bi = uni * 2.0 - 1.0
    a_uni = StochasticStream.encode(uni, length, seed=1)
    b_uni = StochasticStream.encode(uni[::-1], length, seed=2)
    a_bi = StochasticStream.encode(bi, length, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(-bi, length, encoding="bipolar", seed=4)
    return {
        "encode": a_uni.packed.words,
        "and": (a_uni.packed & b_uni.packed).words,
        "xnor": a_bi.packed.xnor(b_bi.packed).words,
        "invert": (~a_uni.packed).words,
        "mux": mux_scaled_add(a_uni, b_uni, seed=5).packed.words,
        "fused_bi": fused_multiply_decode(a_bi, b_bi),
        "fsm_gelu": FsmGeluUnit(num_states=16).process(a_bi).packed.words,
        "fsm_tanh": FsmTanhUnit(num_states=8).process(a_bi).packed.words,
        "selects": np.stack([p.words for p in draw_select_planes((5, 7), length, 3, seed=6)]),
    }


@pytest.mark.parametrize("length", [65, 256])
def test_instrumentation_is_observational(length):
    """A wrapper installed at the seam sees the kernel calls and changes no bit."""
    ref = _engine_outputs(length)
    calls = []

    class Counting:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            attr = getattr(self._inner, name)
            if callable(attr):
                calls.append(name)
            return attr

    install_instrumentation(Counting)
    got = _engine_outputs(length)
    assert {"bernoulli_plane", "select_plane", "xnor_words"} <= set(calls)
    for key in ref:
        assert np.array_equal(got[key], ref[key]), key

    install_instrumentation(None)
    assert isinstance(active_backend(), NumpyBackend)
