"""Compile-time + throughput harness for the accelerator-fabric simulator.

Measures the two costs that make :mod:`repro.fabric` usable as a modelling
tool rather than a demo:

* **compile** — the full cold cycle from a block schedule to a runnable
  model: deterministic place-and-route, loading the configuration
  bitstream into config space, and compiling the configured routing graph
  back into blocks (checksums + route verification included).  Also
  records the partial-reconfiguration cycle (swap one slot's family and
  reconfigure + recompile), which must be cheaper than a cold load in
  config *writes* — the reported ``reuse_frac`` is the fraction of live
  words the diff left untouched.
* **throughput** — executed rows/s of the compiled iterative-softmax tile
  on the packed SC engine.  The fabric adds dispatch, not arithmetic, so
  this gates the overhead of executing through the configured grid.

Results are written to ``benchmarks/results/BENCH_fabric.json``.
``python -m repro bench --suite fabric --check-floor`` gates on the
recorded floors.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_fabric.py
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
if str(_SRC) not in sys.path:  # allow `python benchmarks/bench_fabric.py`
    sys.path.insert(0, str(_SRC))

import repro.blocks as blocks
from repro.evaluation.reporting import format_table
from repro.evaluation.vectors import attention_logit_vectors
from repro.fabric import Fabric, FabricSpec, place_and_route

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: The measured design: the default 4x4 grid from
#: ``examples/specs/fabric_design_4x4.json``.
FABRIC = FabricSpec(name="bench-4x4")

#: Schedule under test — the paper's iterative softmax (CI-sized) plus a
#: Bernstein GELU, the same pairing the fabric smoke spec executes.
def _schedule():
    softmax = blocks.default_spec("softmax/iterative").with_updates(m=16, s1=4, s2=2)
    gelu = blocks.default_spec("gelu/bernstein").with_updates(bitstream_length=256)
    return [softmax, gelu]


COMPILE_REPEATS = 5
THROUGHPUT_ROWS = 64
THROUGHPUT_REPEATS = 3

#: Regression bounds recorded into the payload; ``repro bench --suite
#: fabric --check-floor`` fails when a measurement leaves them.  The two
#: timing bounds sit 3x beyond the slowest of seven fresh runs on a 2-CPU
#: host (cold cycle 2.4-4.3 ms, 454k-980k rows/s), so a 3x regression
#: trips them while scheduler noise does not.  ``reuse_frac`` (0.652,
#: deterministic) gates the partial-reconfig contract itself: swapping one
#: slot must leave most live words alone.
FLOORS = {
    "compile.cold_ms": {"max": 13.0},
    "compile.reuse_frac": {"min": 0.6},
    "throughput.softmax_rows_per_s": {"min": 150000.0},
}


def host_metadata() -> dict:
    """CPU/library fingerprint stored with every run (regression triage)."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _cold_cycle(schedule) -> tuple:
    """One cold place-and-route + load + compile: ``(compiled, ms)``."""
    fabric = Fabric(FABRIC)
    start = time.perf_counter()
    fabric.load_bitstream(place_and_route(FABRIC, schedule, seed=0).bitstream())
    compiled = fabric.compile()
    return compiled, 1000.0 * (time.perf_counter() - start)


def bench_compile() -> dict:
    """Best-of-N cold compile cycle + the partial-reconfiguration diff.

    One untimed cycle runs first: it pays the one-time imports and lazy
    block-family loads, which are not part of a cold compile.
    """
    schedule = _schedule()
    _cold_cycle(schedule)
    cycles = [_cold_cycle(schedule) for _ in range(COMPILE_REPEATS)]
    cold_ms = [ms for _, ms in cycles]
    resources = cycles[-1][0].resource_counts()

    # Partial reconfiguration: swap only the GELU family and diff-load.
    fabric = Fabric(FABRIC)
    first = fabric.reconfigure(place_and_route(FABRIC, schedule, seed=0).bitstream())
    swapped_schedule = [schedule[0], blocks.default_spec("gelu/fsm")]
    start = time.perf_counter()
    swap = fabric.reconfigure(place_and_route(FABRIC, swapped_schedule, seed=0).bitstream())
    fabric.compile()
    swap_ms = 1000.0 * (time.perf_counter() - start)
    touched = swap["written"] + swap["cleared"]
    return {
        "schedule": [spec.to_dict() for spec in schedule],
        "cold_ms": float(min(cold_ms)),
        "cold_ms_all": [float(ms) for ms in cold_ms],
        "config_writes": int(first["written"]),
        "swap_ms": float(swap_ms),
        "swap_written": int(swap["written"]),
        "swap_skipped": int(swap["skipped"]),
        "swap_cleared": int(swap["cleared"]),
        "reuse_frac": float(swap["skipped"]) / float(swap["skipped"] + touched),
        "resources": resources,
    }


def bench_throughput() -> dict:
    """Executed rows/s of the compiled softmax tile, best of N passes."""
    schedule = _schedule()
    fabric = Fabric(FABRIC)
    fabric.load_bitstream(place_and_route(FABRIC, schedule, seed=0).bitstream())
    compiled = fabric.compile()
    softmax_spec = schedule[0]
    values = attention_logit_vectors(THROUGHPUT_ROWS, softmax_spec.m, seed=2024)
    compiled.evaluate_slot(0, values)  # untimed: warms the full-size path and its tables
    rates = []
    for _ in range(THROUGHPUT_REPEATS):
        start = time.perf_counter()
        compiled.evaluate_slot(0, values)
        rates.append(THROUGHPUT_ROWS / (time.perf_counter() - start))
    return {
        "rows": THROUGHPUT_ROWS,
        "m": int(softmax_spec.m),
        "softmax_rows_per_s": float(max(rates)),
        "rows_per_s_all": [float(rate) for rate in rates],
    }


def run_benchmarks() -> dict:
    payload = {
        "schema": 2,
        "fabric": FABRIC.to_dict(),
        "compile": bench_compile(),
        "throughput": bench_throughput(),
        "host": host_metadata(),
        "floors": {metric: dict(bounds) for metric, bounds in FLOORS.items()},
    }
    return payload


def print_report(payload: dict) -> None:
    compile_section = payload["compile"]
    throughput = payload["throughput"]
    print("\n=== fabric harness (4x4 grid) ===")
    print(format_table(
        ["Stage", "Best (ms)", "Detail"],
        [
            (
                "cold place+route+compile",
                round(compile_section["cold_ms"], 2),
                f"{compile_section['config_writes']} config writes",
            ),
            (
                "partial reconfigure+compile",
                round(compile_section["swap_ms"], 2),
                f"{compile_section['swap_written']} written, "
                f"{compile_section['swap_skipped']} skipped "
                f"(reuse {compile_section['reuse_frac']:.0%})",
            ),
        ],
    ))
    print(
        f"throughput: compiled softmax (m={throughput['m']}) "
        f"{throughput['softmax_rows_per_s']:.1f} rows/s over {throughput['rows']} rows"
    )


def save_report(payload: dict) -> Path:
    """Write a run to the tracked results file, replacing the previous one."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_fabric.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# Pytest entry — `pytest benchmarks/bench_fabric.py` gates the floors
# ---------------------------------------------------------------------------


def test_perf_fabric():
    payload = run_benchmarks()
    print_report(payload)
    save_report(payload)
    compile_section = payload["compile"]
    assert compile_section["cold_ms"] <= FLOORS["compile.cold_ms"]["max"]
    assert compile_section["reuse_frac"] >= FLOORS["compile.reuse_frac"]["min"]
    assert (
        payload["throughput"]["softmax_rows_per_s"]
        >= FLOORS["throughput.softmax_rows_per_s"]["min"]
    )


if __name__ == "__main__":
    payload = run_benchmarks()
    print_report(payload)
    saved = save_report(payload)
    print(f"\nsaved {saved}")
    sys.exit(0)
