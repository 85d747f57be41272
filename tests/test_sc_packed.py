"""Equivalence tests: packed-bitplane engine vs. the legacy int8 bit path.

The packed representation is a pure re-encoding — every gate-level result
must be *bit-identical* to what the seed implementation (one ``int8`` per
bit, per-cycle loops) produced, for random seeds, lengths (including
non-multiples of the 64-bit word size) and both stochastic encodings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sc.arithmetic import (
    bipolar_multiply,
    draw_select_planes,
    fused_multiply_decode,
    mux_scaled_add,
    unipolar_multiply,
)
from repro.sc.bitstream import StochasticStream
from repro.sc.fsm import FsmGeluUnit, FsmNonlinearUnit, FsmReluUnit, FsmTanhUnit
from repro.sc.packed import HAVE_BITWISE_COUNT, PackedBitPlane
from repro.sc.sng import LinearFeedbackShiftRegister
from repro.sc.sorting_network import BitonicSortingNetwork

# Lengths straddling word boundaries: 1 word exact, off-by-one both ways,
# multi-word, and tiny streams.
LENGTHS = st.sampled_from([1, 3, 8, 63, 64, 65, 100, 128, 130, 255, 256])
ENCODINGS = st.sampled_from(["unipolar", "bipolar"])


def random_bits(rng, shape):
    return (rng.random(shape) < rng.random()).astype(np.int8)


class TestPackedBitPlane:
    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, seed, length):
        rng = np.random.default_rng(seed)
        bits = random_bits(rng, (3, length))
        plane = PackedBitPlane.from_bits(bits)
        assert plane.length == length
        assert plane.value_shape == (3,)
        assert np.array_equal(plane.to_bits(), bits)

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=60, deadline=None)
    def test_popcount_matches_sum(self, seed, length):
        bits = random_bits(np.random.default_rng(seed), (4, length))
        plane = PackedBitPlane.from_bits(bits)
        assert np.array_equal(plane.popcount(), bits.sum(axis=-1))

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=40, deadline=None)
    def test_invert_and_xnor_mask_the_tail(self, seed, length):
        rng = np.random.default_rng(seed)
        a_bits = random_bits(rng, (2, length))
        b_bits = random_bits(rng, (2, length))
        a = PackedBitPlane.from_bits(a_bits)
        b = PackedBitPlane.from_bits(b_bits)
        assert np.array_equal((~a).to_bits(), 1 - a_bits)
        assert np.array_equal((~a).popcount(), length - a_bits.sum(axis=-1))
        assert np.array_equal(a.xnor(b).to_bits(), 1 - (a_bits ^ b_bits))

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=40, deadline=None)
    def test_mux_selects_per_bit(self, seed, length):
        rng = np.random.default_rng(seed)
        a_bits = random_bits(rng, (2, length))
        b_bits = random_bits(rng, (2, length))
        sel_bits = random_bits(rng, (2, length))
        out = PackedBitPlane.from_bits(sel_bits).mux(
            PackedBitPlane.from_bits(a_bits), PackedBitPlane.from_bits(b_bits)
        )
        assert np.array_equal(out.to_bits(), np.where(sel_bits == 1, a_bits, b_bits))

    def test_constructor_enforces_zero_tail_invariant(self):
        # An externally built plane with garbage tail bits must not decode
        # to impossible values (popcount > length).
        dirty = PackedBitPlane(np.array([[0xFF]], dtype=np.uint64), 4)
        assert dirty.popcount()[0] == 4
        assert np.array_equal(dirty.to_bits(), [[1, 1, 1, 1]])
        from repro.sc.bitstream import StochasticStream

        stream = StochasticStream.from_packed(dirty)
        assert stream.probabilities()[0] == 1.0

    def test_popcount_fallback_lut_matches_native(self):
        if not HAVE_BITWISE_COUNT:
            pytest.skip("no native popcount to compare against")
        words = np.random.default_rng(0).integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        # Exercise the LUT fallback path explicitly.
        from repro.sc import packed as packed_mod

        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        lut_counts = packed_mod._POPCOUNT_LUT[as_bytes].astype(np.uint64)
        lut_counts = lut_counts.reshape(words.shape + (8,)).sum(axis=-1)
        assert np.array_equal(lut_counts, np.bitwise_count(words))


class TestStreamEquivalence:
    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS, encoding=ENCODINGS)
    @settings(max_examples=40, deadline=None)
    def test_encode_is_bit_identical_to_seed_reference(self, seed, length, encoding):
        rng = np.random.default_rng(seed)
        values = rng.random((3, 4)) if encoding == "unipolar" else rng.random((3, 4)) * 2 - 1
        stream = StochasticStream.encode(values, length, encoding=encoding, seed=seed)
        # The seed implementation: identical draws, explicit int8 bits.
        ref_rng = np.random.default_rng(seed)
        probs = (values + 1) / 2 if encoding == "bipolar" else values
        draws = ref_rng.random(values.shape + (length,))
        ref_bits = (draws < probs[..., None]).astype(np.int8)
        assert stream.bits.dtype == np.int8
        assert np.array_equal(stream.bits, ref_bits)
        assert np.array_equal(stream.ones_count(), ref_bits.sum(axis=-1))
        assert np.allclose(stream.decode(), 2 * ref_bits.mean(-1) - 1 if encoding == "bipolar" else ref_bits.mean(-1))

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=40, deadline=None)
    def test_multiply_bit_identical_both_encodings(self, seed, length):
        rng = np.random.default_rng(seed)
        a_uni = StochasticStream.encode(rng.random(8), length, seed=seed)
        b_uni = StochasticStream.encode(rng.random(8), length, seed=seed + 1)
        product = unipolar_multiply(a_uni, b_uni)
        assert np.array_equal(product.bits, (a_uni.bits & b_uni.bits).astype(np.int8))

        a_bi = StochasticStream.encode(rng.random(8) * 2 - 1, length, "bipolar", seed=seed)
        b_bi = StochasticStream.encode(rng.random(8) * 2 - 1, length, "bipolar", seed=seed + 1)
        product = bipolar_multiply(a_bi, b_bi)
        assert np.array_equal(product.bits, (1 - (a_bi.bits ^ b_bi.bits)).astype(np.int8))

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS, encoding=ENCODINGS)
    @settings(max_examples=40, deadline=None)
    def test_mux_add_bit_identical(self, seed, length, encoding):
        rng = np.random.default_rng(seed)
        values = rng.random((2, 3)) if encoding == "unipolar" else rng.random((2, 3)) * 2 - 1
        a = StochasticStream.encode(values, length, encoding, seed=seed)
        b = StochasticStream.encode(values[::-1], length, encoding, seed=seed + 1)
        out = mux_scaled_add(a, b, seed=seed + 2)
        # Legacy formula with the identical select draw.
        select = np.random.default_rng(seed + 2).integers(0, 2, size=a.bits.shape).astype(np.int8)
        ref = np.where(select == 1, a.bits, b.bits).astype(np.int8)
        assert np.array_equal(out.bits, ref)

    def test_bits_constructed_stream_matches_packed_ops(self):
        # Streams built from explicit bits (the legacy entry point) must take
        # the packed fast path with identical results.
        rng = np.random.default_rng(3)
        a_bits = random_bits(rng, (5, 77))
        b_bits = random_bits(rng, (5, 77))
        a = StochasticStream(bits=a_bits)
        b = StochasticStream(bits=b_bits)
        product = unipolar_multiply(a, b)
        assert np.array_equal(product.bits, a_bits & b_bits)

    def test_cheap_validation_still_rejects_bad_bits(self):
        for bad in ([[0, 2]], [[-1, 0]], [[0.5, 0.5]], [[np.nan, 0.0]]):
            with pytest.raises(ValueError):
                StochasticStream(bits=np.array(bad))

    def test_validation_skippable_on_fast_path(self):
        # validate=False is for internal construction where bits are 0/1 by
        # construction; it must not alter the stored bits.
        bits = np.array([[1, 0, 1]])
        stream = StochasticStream(bits=bits, validate=False)
        assert np.array_equal(stream.bits, bits)

    def test_bits_setter_invalidates_packed_cache(self):
        stream = StochasticStream(bits=np.array([[1, 1, 0, 0]]))
        assert stream.packed.popcount()[0] == 2
        stream.bits = np.array([[1, 1, 1, 0]])
        assert stream.packed.popcount()[0] == 3


class TestLfsrEquivalence:
    @given(width=st.sampled_from([3, 4, 7, 8, 11, 16]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cached_sequence_matches_scalar_stepping(self, width, seed):
        seed_state = 1 + seed % ((1 << width) - 1)
        fast = LinearFeedbackShiftRegister(width, seed_state=seed_state)
        slow = LinearFeedbackShiftRegister(width, seed_state=seed_state)
        length = min(3 * ((1 << width) - 1) // 2, 500)  # wraps the period
        got = fast.sequence(length)
        want = np.array([slow.step() for _ in range(length)], dtype=np.int64)
        assert np.array_equal(got, want)
        # The register state advances identically, so a second call agrees too.
        assert np.array_equal(fast.sequence(7), np.array([slow.step() for _ in range(7)]))

    def test_custom_non_maximal_taps_fall_back_to_stepping(self):
        fast = LinearFeedbackShiftRegister(4, seed_state=5, taps=(4, 2))
        slow = LinearFeedbackShiftRegister(4, seed_state=5, taps=(4, 2))
        got = fast.sequence(40)
        want = np.array([slow.step() for _ in range(40)], dtype=np.int64)
        assert np.array_equal(got, want)


def _legacy_fsm_reference(unit, stream, initial_state=None):
    """The seed per-cycle FSM loop, kept here as the equivalence oracle."""
    bits = stream.bits
    if initial_state is None:
        initial_state = unit.num_states // 2
    state = np.full(stream.value_shape, initial_state, dtype=np.int64)
    out = np.empty_like(bits)
    for cycle in range(stream.length):
        in_bit = bits[..., cycle]
        out[..., cycle] = unit.output_rule(state, in_bit, cycle)
        state = np.clip(state + (2 * in_bit - 1), 0, unit.num_states - 1)
    return out.astype(np.int8)


class TestFsmEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        length=LENGTHS,
        unit_cls=st.sampled_from([FsmTanhUnit, FsmReluUnit, FsmGeluUnit]),
    )
    @settings(max_examples=40, deadline=None)
    def test_builtin_units_bit_identical_to_per_cycle_loop(self, seed, length, unit_cls):
        unit = unit_cls()
        rng = np.random.default_rng(seed)
        stream = StochasticStream.encode(rng.random((2, 3)) * 2 - 1, length, "bipolar", seed=seed)
        assert np.array_equal(unit.process(stream).bits, _legacy_fsm_reference(unit, stream))

    @given(seed=st.integers(0, 2**32 - 1), initial=st.integers(0, 15))
    @settings(max_examples=30, deadline=None)
    def test_custom_initial_state_bit_identical(self, seed, initial):
        unit = FsmTanhUnit(num_states=16)
        stream = StochasticStream.encode(
            np.random.default_rng(seed).random(4) * 2 - 1, 100, "bipolar", seed=seed
        )
        got = unit.process(stream, initial_state=initial).bits
        assert np.array_equal(got, _legacy_fsm_reference(unit, stream, initial_state=initial))

    def test_custom_rule_keeps_per_cycle_calling_convention(self):
        seen_cycles = []

        def rule(state, in_bit, cycle):
            seen_cycles.append(cycle)
            return (state > 2).astype(np.int8) ^ in_bit

        unit = FsmNonlinearUnit(num_states=6, output_rule=rule)
        stream = StochasticStream.encode(np.random.default_rng(0).random(3) * 2 - 1, 20, "bipolar", seed=0)
        out = unit.process(stream)
        assert seen_cycles[:20] == list(range(20))  # scalar cycles, in order
        seen_cycles.clear()
        assert np.array_equal(out.bits, _legacy_fsm_reference(unit, stream))

    def test_odd_num_states_bit_identical(self):
        unit = FsmTanhUnit(num_states=7)
        stream = StochasticStream.encode(np.random.default_rng(5).random(8) * 2 - 1, 130, "bipolar", seed=5)
        assert np.array_equal(unit.process(stream).bits, _legacy_fsm_reference(unit, stream))


class TestSortingNetworkEquivalence:
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, 2, 5, 8, 13, 16, 33, 64]))
    @settings(max_examples=40, deadline=None)
    def test_vectorised_sort_matches_numpy_descending(self, seed, width):
        bits = random_bits(np.random.default_rng(seed), (6, width))
        got = BitonicSortingNetwork(width).sort_bits(bits)
        want = -np.sort(-bits, axis=-1)
        assert np.array_equal(got, want)

    def test_schedule_memo_shared_across_instances(self):
        a = BitonicSortingNetwork(32)
        b = BitonicSortingNetwork(32)
        assert a._schedule is b._schedule


class TestThermometerPackingHelpers:
    """The batched helpers the eval pipeline's fault injection rides on."""

    @given(seed=st.integers(0, 2**32 - 1), length=LENGTHS)
    @settings(max_examples=60, deadline=None)
    def test_from_thermometer_counts_matches_explicit_bits(self, seed, length):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, length + 1, size=(3, 4))
        plane = PackedBitPlane.from_thermometer_counts(counts, length)
        positions = np.arange(length)
        explicit = (positions < counts[..., None]).astype(np.int8)
        reference = PackedBitPlane.from_bits(explicit)
        assert np.array_equal(plane.words, reference.words)
        assert np.array_equal(plane.popcount(), counts)

    def test_from_thermometer_counts_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PackedBitPlane.from_thermometer_counts(np.array([5]), 4)
        with pytest.raises(ValueError):
            PackedBitPlane.from_thermometer_counts(np.array([-1]), 4)

    @given(length=LENGTHS, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_plane_extremes_and_tail(self, length, seed):
        rng = np.random.default_rng(seed)
        zeros = PackedBitPlane.random((2, 3), length, 0.0, rng)
        assert int(zeros.popcount().sum()) == 0
        ones = PackedBitPlane.random((2, 3), length, 1.0, rng)
        assert np.array_equal(ones.popcount(), np.full((2, 3), length))
        # tail invariant: popcount never sees phantom bits
        assert np.array_equal(ones.to_bits().sum(axis=-1), ones.popcount())

    def test_random_plane_flip_rate_tracks_probability(self):
        rng = np.random.default_rng(42)
        plane = PackedBitPlane.random((64,), 256, 0.25, rng)
        rate = plane.popcount().sum() / (64 * 256)
        assert 0.2 < rate < 0.3

    def test_random_plane_is_a_pure_function_of_generator_state(self):
        a = PackedBitPlane.random((5,), 100, 0.3, np.random.default_rng(7))
        b = PackedBitPlane.random((5,), 100, 0.3, np.random.default_rng(7))
        assert np.array_equal(a.words, b.words)


class TestValidationFastPathsStaySound:
    """The validate=False fast paths must not silently admit streams the
    seed implementation rejected (regression tests for the odd-length
    cases, where "valid by construction" does not hold)."""

    def test_odd_length_thermometer_multiply_still_range_checked(self):
        from repro.sc.arithmetic import thermometer_multiply
        from repro.sc.bitstream import ThermometerStream

        a = ThermometerStream(counts=np.array([0]), length=2, scale=1.0)
        b = ThermometerStream(counts=np.array([3]), length=3, scale=1.0)
        # levels -1 and +2 multiply to -2 -> count -1 on the length-3 output
        # grid; the seed implementation raised at construction.
        with pytest.raises(ValueError):
            thermometer_multiply(a, b)

    def test_odd_output_length_si_table_has_no_negative_counts(self):
        from repro.core.gelu_si import GateAssistedSIBlock
        from repro.sc.bitstream import ThermometerStream

        block = GateAssistedSIBlock(
            target=lambda x: -10.0 * np.ones_like(x),
            input_length=4,
            input_scale=1.0,
            output_length=5,
            output_scale=1.0,
        )
        assert block.table.min() >= 0
        stream = ThermometerStream(counts=np.array([2]), length=4, scale=1.0)
        out = block.process(stream)
        assert 0 <= out.counts.min() and out.counts.max() <= 5

class TestPopcountLutFallback:
    """The byte-LUT popcount path (numpy < 2, no ``np.bitwise_count``) must
    agree exactly with the native ufunc — exercised via monkeypatch since
    CI always has numpy 2."""

    def test_lut_matches_native_popcount(self, monkeypatch):
        import repro.sc.packed as packed

        words = np.random.default_rng(0).integers(
            0, 2**63, size=(4, 9), dtype=np.uint64
        )
        words[0, 0] = 0
        words[1, 0] = np.uint64(0xFFFFFFFFFFFFFFFF)
        native = packed.popcount_words(words)
        monkeypatch.setattr(packed, "HAVE_BITWISE_COUNT", False)
        lut = packed.popcount_words(words)
        assert np.array_equal(np.asarray(lut, dtype=np.int64), np.asarray(native, dtype=np.int64))

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 200])
    def test_plane_popcount_under_lut_fallback(self, monkeypatch, length):
        import repro.sc.packed as packed

        bits = random_bits(np.random.default_rng(3), (6, length))
        plane = PackedBitPlane.from_bits(bits)
        monkeypatch.setattr(packed, "HAVE_BITWISE_COUNT", False)
        assert np.array_equal(plane.popcount(), bits.sum(axis=-1))

    def test_multiply_decode_under_lut_fallback(self, monkeypatch):
        import repro.sc.packed as packed

        rng = np.random.default_rng(4)
        a = StochasticStream.encode(rng.random((5, 5)), 100, seed=1)
        b = StochasticStream.encode(rng.random((5, 5)), 100, seed=2)
        expected = unipolar_multiply(a, b).decode()
        monkeypatch.setattr(packed, "HAVE_BITWISE_COUNT", False)
        assert np.allclose(unipolar_multiply(a, b).decode(), expected)
        assert np.allclose(fused_multiply_decode(a, b), expected)


def test_draw_select_planes_matches_sequential_draws():
    """Batched selects equal ``count`` sequential ``mux_scaled_add`` draws.

    A MUX of all-ones over all-zeros outputs its select plane bit for bit.
    """
    planes = draw_select_planes((4, 6), 100, 3, seed=123)
    ones = StochasticStream(np.ones((4, 6, 100), np.int8))
    zeros = StochasticStream(np.zeros((4, 6, 100), np.int8))
    rng = np.random.default_rng(123)
    for plane in planes:
        expected = mux_scaled_add(ones, zeros, seed=rng).packed
        assert np.array_equal(plane.words, expected.words)
        assert isinstance(plane, PackedBitPlane)


def test_fused_multiply_decode_matches_two_step():
    rng = np.random.default_rng(5)
    a = StochasticStream.encode(rng.random((6, 6)), 100, seed=1)
    b = StochasticStream.encode(rng.random((6, 6)), 100, seed=2)
    assert np.allclose(fused_multiply_decode(a, b), unipolar_multiply(a, b).decode())
    a_bi = StochasticStream.encode(rng.random((6, 6)) * 2 - 1, 100, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(rng.random((6, 6)) * 2 - 1, 100, encoding="bipolar", seed=4)
    assert np.allclose(fused_multiply_decode(a_bi, b_bi), bipolar_multiply(a_bi, b_bi).decode())
