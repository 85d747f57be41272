"""Perf regression harness for the packed-bitplane SC simulation engine.

Times the packed fast paths against faithful re-implementations of the seed
(one ``int8`` per bit, cycle-by-cycle) hot loops:

* stochastic multiply + decode (unipolar AND, bipolar XNOR, fused popcount),
* MUX scaled addition,
* stream encoding,
* LFSR m-sequence generation,
* FSM nonlinear-unit forward,
* bitonic sorting-network bit sort.

Each run measures the packed numpy engine (:mod:`repro.sc.packed` and the
blocks built on it) and writes its results to ``benchmarks/results/BENCH_sc_engine.json``.  Every
benchmark has a speedup floor; ``python -m repro bench --check-floor`` (and
the pytest entry) fails when a fresh run drops below them.  Host metadata
(CPU count, numpy version) rides along so floor regressions are
attributable across machines.

Run it directly (no pytest needed)::

    make bench
    # or
    PYTHONPATH=src python benchmarks/bench_perf_sc_engine.py

or through pytest, which additionally asserts the recorded floors::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_sc_engine.py -q
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow `python benchmarks/bench_perf_sc_engine.py`
    sys.path.insert(0, str(_SRC))

from repro.sc.arithmetic import (
    bipolar_multiply,
    fused_multiply_decode,
    mux_scaled_add,
    unipolar_multiply,
)
from repro.sc.bitstream import StochasticStream
from repro.sc.fsm import FsmGeluUnit
from repro.sc.sng import LinearFeedbackShiftRegister
from repro.sc.sorting_network import BitonicSortingNetwork

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The acceptance configuration: a 64x64 value tensor at BSL 256.
VALUE_SHAPE = (64, 64)
BSL = 256

#: Speedup floors, recorded into the JSON payload as
#: ``benchmarks.<name>.speedup: {"min": x}`` bounds: the CI perf job (and
#: ``python -m repro bench --check-floor``) fails when a fresh run's
#: speedup drops below these.  They are deliberately far under the
#: typically measured numbers, so only a real regression (not scheduler
#: noise on a loaded CI runner) trips them.  The RNG-bound kernels (mux,
#: encode) share the generator cost with the legacy path, so their floors
#: are low.
SPEEDUP_FLOORS = {
    "unipolar_multiply_decode": 10.0,
    "bipolar_multiply_decode": 10.0,
    "mux_scaled_add": 1.2,
    "encode": 1.2,
    "decode": 2.5,
    "lfsr_sequence_4096": 8.0,
    "fsm_gelu_forward": 8.0,
    "bsn_sort_bits_128": 1.5,
}


def host_metadata() -> dict:
    """CPU/library fingerprint stored with every run (regression triage)."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# Legacy (seed) reference implementations: one int8 per bit, per-cycle loops.
# ---------------------------------------------------------------------------


def _legacy_validate(bits: np.ndarray) -> np.ndarray:
    """The seed StochasticStream constructor: isin scan + int8 cast."""
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must contain only 0s and 1s")
    return bits.astype(np.int8)


def legacy_unipolar_multiply_decode(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    bits = _legacy_validate(a_bits & b_bits)
    return bits.mean(axis=-1)


def legacy_bipolar_multiply_decode(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    bits = _legacy_validate((1 - (a_bits ^ b_bits)).astype(np.int8))
    return 2.0 * bits.mean(axis=-1) - 1.0


def legacy_mux_add(a_bits: np.ndarray, b_bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    select = rng.integers(0, 2, size=a_bits.shape).astype(np.int8)
    return _legacy_validate(np.where(select == 1, a_bits, b_bits).astype(np.int8))


def legacy_encode(values: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    draws = rng.random(values.shape + (length,))
    return _legacy_validate((draws < values[..., None]).astype(np.int8))


def legacy_lfsr_sequence(width: int, length: int) -> np.ndarray:
    lfsr = LinearFeedbackShiftRegister(width)
    tap_mask = lfsr._tap_mask
    state = lfsr.state
    out = np.empty(length, dtype=np.int64)
    for i in range(length):
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= tap_mask
        out[i] = state
    return out


def legacy_fsm_forward(unit: FsmGeluUnit, stream: StochasticStream) -> np.ndarray:
    bits = stream.bits
    state = np.full(stream.value_shape, unit.num_states // 2, dtype=np.int64)
    out = np.empty_like(bits)
    for cycle in range(stream.length):
        in_bit = bits[..., cycle]
        out[..., cycle] = unit.output_rule(state, in_bit, cycle)
        state = np.clip(state + (2 * in_bit - 1), 0, unit.num_states - 1)
    return _legacy_validate(out)


def legacy_sort_bits(bsn: BitonicSortingNetwork, bits: np.ndarray) -> np.ndarray:
    work = np.zeros(bits.shape[:-1] + (bsn.padded_width,), dtype=np.int8)
    work[..., : bsn.width] = bits
    for stage in bsn._schedule:
        for hi, lo in stage:
            a = work[..., hi].copy()
            b = work[..., lo].copy()
            work[..., hi] = a | b
            work[..., lo] = a & b
    return work[..., : bsn.width]


# ---------------------------------------------------------------------------
# Timing scaffold
# ---------------------------------------------------------------------------


def _time_per_op(fn, min_seconds: float = 0.15, max_rounds: int = 200) -> float:
    """Best-effort seconds/op: warm up once, then average over repeat calls."""
    fn()  # warmup (fills caches, triggers lazy packing)
    rounds = 0
    elapsed = 0.0
    best = np.inf
    while elapsed < min_seconds and rounds < max_rounds:
        start = time.perf_counter()
        fn()
        delta = time.perf_counter() - start
        best = min(best, delta)
        elapsed += delta
        rounds += 1
    return best


def _entry(legacy_s: float, packed_s: float, note: str = "") -> dict:
    return {
        "legacy_ops_per_s": 1.0 / legacy_s,
        "packed_ops_per_s": 1.0 / packed_s,
        "speedup": legacy_s / packed_s,
        "note": note,
    }


def run_benchmarks(value_shape=VALUE_SHAPE, bsl=BSL) -> dict:
    """Measure every kernel against its legacy int8 counterpart."""
    return {
        "schema": 3,
        "value_shape": list(value_shape),
        "bitstream_length": bsl,
        "host": host_metadata(),
        "floors": {
            f"benchmarks.{name}.speedup": {"min": floor} for name, floor in SPEEDUP_FLOORS.items()
        },
        "benchmarks": _run_entries(value_shape, bsl),
    }


def _run_entries(value_shape, bsl) -> dict:
    rng = np.random.default_rng(2024)
    uni_values = rng.random(value_shape)
    bi_values = rng.random(value_shape) * 2.0 - 1.0

    a_uni = StochasticStream.encode(uni_values, bsl, seed=1)
    b_uni = StochasticStream.encode(uni_values[::-1], bsl, seed=2)
    a_bi = StochasticStream.encode(bi_values, bsl, encoding="bipolar", seed=3)
    b_bi = StochasticStream.encode(-bi_values, bsl, encoding="bipolar", seed=4)
    for s in (a_uni, b_uni, a_bi, b_bi):
        s.packed, s.bits  # materialise both representations outside the timers

    a_bits, b_bits = a_uni.bits, b_uni.bits
    ab_bits, bb_bits = a_bi.bits, b_bi.bits

    entries = {}

    # --- multiply + decode (the acceptance metric) ---------------------------
    legacy = _time_per_op(lambda: legacy_unipolar_multiply_decode(a_bits, b_bits))
    packed = _time_per_op(lambda: fused_multiply_decode(a_uni, b_uni))
    entries["unipolar_multiply_decode"] = _entry(legacy, packed, "fused AND+popcount decode")

    legacy = _time_per_op(lambda: legacy_bipolar_multiply_decode(ab_bits, bb_bits))
    packed = _time_per_op(lambda: fused_multiply_decode(a_bi, b_bi))
    entries["bipolar_multiply_decode"] = _entry(legacy, packed, "fused XNOR+popcount decode")

    # --- MUX scaled add ------------------------------------------------------
    rng_legacy = np.random.default_rng(7)
    rng_packed = np.random.default_rng(7)
    legacy = _time_per_op(lambda: legacy_mux_add(a_bits, b_bits, rng_legacy))
    packed = _time_per_op(lambda: mux_scaled_add(a_uni, b_uni, seed=rng_packed))
    entries["mux_scaled_add"] = _entry(legacy, packed, "select draw dominates both paths")

    # --- encode --------------------------------------------------------------
    rng_legacy = np.random.default_rng(11)
    rng_packed = np.random.default_rng(11)
    legacy = _time_per_op(lambda: legacy_encode(uni_values, bsl, rng_legacy))
    packed = _time_per_op(lambda: StochasticStream.encode(uni_values, bsl, seed=rng_packed))
    entries["encode"] = _entry(legacy, packed, "Bernoulli draws dominate both paths")

    # --- decode only ---------------------------------------------------------
    legacy = _time_per_op(lambda: a_bits.mean(axis=-1))
    packed = _time_per_op(lambda: a_uni.packed.popcount())
    entries["decode"] = _entry(legacy, packed, "int8 mean vs word popcount")

    # --- LFSR sequence -------------------------------------------------------
    width, seq_len = 16, 4096
    lfsr = LinearFeedbackShiftRegister(width)
    lfsr.sequence(1)  # prime the cycle cache
    legacy = _time_per_op(lambda: legacy_lfsr_sequence(width, seq_len))
    packed = _time_per_op(lambda: lfsr.sequence(seq_len))
    entries["lfsr_sequence_4096"] = _entry(legacy, packed, "cached m-sequence gather")

    # --- FSM forward ---------------------------------------------------------
    unit = FsmGeluUnit()
    fsm_stream = StochasticStream.encode(bi_values, bsl, encoding="bipolar", seed=5)
    fsm_stream.packed, fsm_stream.bits
    legacy = _time_per_op(lambda: legacy_fsm_forward(unit, fsm_stream))
    packed = _time_per_op(lambda: unit.process(fsm_stream))
    entries["fsm_gelu_forward"] = _entry(legacy, packed, "byte-table scan + fused output bytes")

    # --- sorting network -----------------------------------------------------
    bsn = BitonicSortingNetwork(128)
    sort_bits = (rng.random((256, 128)) < 0.5).astype(np.int8)
    legacy = _time_per_op(lambda: legacy_sort_bits(bsn, sort_bits))
    packed = _time_per_op(lambda: bsn.sort_bits(sort_bits))
    entries["bsn_sort_bits_128"] = _entry(legacy, packed, "per-stage gather/scatter")

    return entries


def print_report(payload: dict) -> None:
    host = payload.get("host", {})
    print(
        f"\n=== packed SC engine vs legacy int8 path "
        f"({payload['value_shape']} values, BSL={payload['bitstream_length']}) ==="
    )
    if host:
        print(f"host: {host.get('cpu_count')} cpus, numpy {host.get('numpy')}")
    header = f"{'benchmark':<28} {'legacy ops/s':>14} {'packed ops/s':>14} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, row in payload["benchmarks"].items():
        print(
            f"{name:<28} {row['legacy_ops_per_s']:>14.1f} "
            f"{row['packed_ops_per_s']:>14.1f} {row['speedup']:>8.1f}x"
        )


def save_report(payload: dict) -> Path:
    """Write a run to the tracked results file, replacing the previous one."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_sc_engine.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point — asserts the recorded floors and bit-identity.
# ---------------------------------------------------------------------------


def test_perf_sc_engine():
    payload = run_benchmarks()
    print_report(payload)
    save_report(payload)
    # Acceptance: every kernel's recorded floor — the same check
    # the CI perf job applies via `repro bench --check-floor`.
    for name, floor in SPEEDUP_FLOORS.items():
        assert payload["benchmarks"][name]["speedup"] >= floor, f"{name} regressed below {floor}x"
    # The packed path must be bit-identical to the legacy ops, not just fast.
    a = StochasticStream.encode(np.random.default_rng(0).random(VALUE_SHAPE), BSL, seed=1)
    b = StochasticStream.encode(np.random.default_rng(1).random(VALUE_SHAPE), BSL, seed=2)
    assert np.array_equal(unipolar_multiply(a, b).bits, (a.bits & b.bits).astype(np.int8))
    assert np.allclose(fused_multiply_decode(a, b), unipolar_multiply(a, b).decode())
    assert np.allclose(
        fused_multiply_decode(
            StochasticStream.encode(
                np.random.default_rng(2).random(VALUE_SHAPE) * 2 - 1,
                BSL,
                encoding="bipolar",
                seed=3,
            ),
            StochasticStream.encode(
                np.random.default_rng(3).random(VALUE_SHAPE) * 2 - 1,
                BSL,
                encoding="bipolar",
                seed=4,
            ),
        ),
        bipolar_multiply(
            StochasticStream.encode(
                np.random.default_rng(2).random(VALUE_SHAPE) * 2 - 1,
                BSL,
                encoding="bipolar",
                seed=3,
            ),
            StochasticStream.encode(
                np.random.default_rng(3).random(VALUE_SHAPE) * 2 - 1,
                BSL,
                encoding="bipolar",
                seed=4,
            ),
        ).decode(),
    )


if __name__ == "__main__":
    report = run_benchmarks()
    print_report(report)
    path = save_report(report)
    print(f"\nsaved {path}")
